"""Stream pipeline tests: end-to-end traces over synthetic glyph videos."""

import io
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np
import pytest

from emonet import pipeline, preprocess, smtp_client
from emonet.classifiers import LABELS, EmotionScores, lda_train
from emonet.config import PipelineConfig
from emonet.glyphs import draw_glyph, make_glyph_dataset
from emonet.preprocess import (BoundingBox, EmptyIntersection, bilinear_resize, clamp_box,
                               load_detections, select_primary_face, working_height)
from emonet.video import Frame, VideoHeader, Y4mReader, temporal_smooth, write_y4m

PINNED_CLOCK = lambda: datetime(2022, 6, 29, 12, 0, 0, tzinfo=timezone.utc)


@pytest.fixture(scope="module")
def lda_model():
    x, y = make_glyph_dataset(n_per_class=40, seed=3)
    return lda_train(x, y)


def glyph_frame(index, label, canvas=100, at=(10, 10), glyph_side=28):
    """A frame with one bright glyph on a dark canvas at a known box."""
    luma = np.zeros((canvas, canvas), dtype=np.uint8)
    img = draw_glyph(label)
    if glyph_side != img.shape[0]:
        img = bilinear_resize(img, glyph_side, glyph_side)
    patch = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    y0, x0 = at[1], at[0]
    luma[y0:y0 + glyph_side, x0:x0 + glyph_side] = patch
    return Frame(index=index, width=canvas, height=canvas, luma=luma)


def make_video(labels, canvas=100, at=(10, 10), glyph_side=28):
    frames = [glyph_frame(i, lab, canvas, at, glyph_side)
              for i, lab in enumerate(labels)]
    header = VideoHeader(canvas, canvas, 25, 1, "mono")
    return write_y4m(header, frames)


def sidecar(n_frames, at=(10, 10), side=28, skip=()):
    lines = ["# scale_factor=1.0 min_neighbors=12 min_size=1x1"]
    lines += [f"{i} {at[0]} {at[1]} {side} {side}"
              for i in range(n_frames) if i not in skip]
    return load_detections(("\n".join(lines) + "\n").encode())


class TestRunStream:
    def test_alert_trace_14_neutral_6_sad(self, lda_model):
        labels = ["neutral"] * 14 + ["sad"] * 6
        reader = Y4mReader(make_video(labels))
        config = PipelineConfig(thresh=5, width=100)
        log = io.StringIO()
        report = pipeline.run_stream(reader, sidecar(20), lda_model, config,
                                     event_log=log, clock=PINNED_CLOCK)
        assert [e.frame_index for e in report.events] == [19]
        assert report.events[0].label == "sad"
        assert log.getvalue() == "19 sad 6 2022-06-29T12:00:00+00:00\n"
        assert report.state.frames_seen == 20

    def test_replay_is_deterministic(self, lda_model):
        labels = ["neutral"] * 5 + ["angry"] * 8 + ["happy"] * 3
        config = PipelineConfig(thresh=3, width=100)
        data = make_video(labels)
        runs = []
        for _ in range(2):
            log = io.StringIO()
            pipeline.run_stream(Y4mReader(data), sidecar(16), lda_model,
                                config, event_log=log, clock=PINNED_CLOCK)
            runs.append(log.getvalue())
        assert runs[0] == runs[1] != ""

    def test_missing_detection_ticks_without_classifying(self, lda_model):
        labels = ["sad"] * 8
        config = PipelineConfig(thresh=3, width=100)
        dets = sidecar(8, skip={2, 3})
        report = pipeline.run_stream(Y4mReader(make_video(labels)), dets,
                                     lda_model, config, clock=PINNED_CLOCK)
        assert report.state.frames_seen == 8
        assert report.state.classified_frames == 6
        # 6 sad classifications with thresh 3 -> one alert at the 4th
        assert len(report.events) == 1

    def test_original_coords_scaled_to_resized_frame(self, lda_model):
        # 200-px frames downscaled to width 100; boxes stay in original coords
        labels = ["surprised"] * 5
        data = make_video(labels, canvas=200, at=(20, 20), glyph_side=56)
        dets = sidecar(5, at=(20, 20), side=56)
        config = PipelineConfig(thresh=1, width=100,
                                monitored_labels=frozenset({"surprised"}))
        report = pipeline.run_stream(Y4mReader(data), dets, lda_model, config,
                                     clock=PINNED_CLOCK)
        assert report.state.counters["surprised"] == 5 - 2 * 2  # two alerts reset
        assert [e.label for e in report.events] == ["surprised", "surprised"]

    def test_smtp_failure_is_counted_not_fatal(self, lda_model):
        labels = ["sad"] * 4
        config = PipelineConfig(thresh=1, width=100, smtp_host="127.0.0.1",
                                alert_from="m@x", alert_to=("ops@x",))
        warnings = []

        def failing_send(cfg, event):
            raise smtp_client.ConnectFailed("server down")

        report = pipeline.run_stream(Y4mReader(make_video(labels)), sidecar(4),
                                     lda_model, config, clock=PINNED_CLOCK,
                                     send=failing_send, warn=warnings.append)
        assert report.smtp_failures == 2
        assert report.emails_sent == 0
        assert len(warnings) == 2
        assert len(report.events) == 2  # alerts still recorded

    def test_emails_dispatched_per_event(self, lda_model):
        labels = ["angry"] * 6
        config = PipelineConfig(thresh=2, width=100, smtp_host="127.0.0.1",
                                alert_from="m@x", alert_to=("ops@x",))
        sent = []

        def fake_send(cfg, event):
            sent.append((cfg.host, event.frame_index))

        report = pipeline.run_stream(Y4mReader(make_video(labels)), sidecar(6),
                                     lda_model, config, clock=PINNED_CLOCK,
                                     send=fake_send)
        assert report.emails_sent == 2
        assert [f for _, f in sent] == [e.frame_index for e in report.events]

    def test_box_outside_frame_is_skipped_and_counted(self, lda_model):
        # frame 1's only box lies wholly outside the frame: no usable box
        labels = ["neutral"] * 3
        dets = load_detections(
            b"# min_size=1x1\n0 10 10 28 28\n1 900 900 28 28\n2 10 10 28 28\n")
        config = PipelineConfig(thresh=5, width=100)
        report = pipeline.run_stream(Y4mReader(make_video(labels)), dets,
                                     lda_model, config, clock=PINNED_CLOCK)
        assert report.boxes_outside_frame == 1
        assert (report.state.frames_seen, report.state.classified_frames) == (3, 2)
        assert "frames_no_face=1 boxes_outside_frame=1" in report.summary_text()

    def test_boxes_dropped_below_min_size_reported(self, lda_model):
        dets = load_detections(b"# min_size=20x20\n0 10 10 28 28\n1 10 10 5 5\n2 10 10 28 28\n")
        config = PipelineConfig(thresh=5, width=100)
        report = pipeline.run_stream(Y4mReader(make_video(["neutral"] * 3)), dets,
                                     lda_model, config, clock=PINNED_CLOCK)
        assert report.dropped_below_min_size == 1
        assert ("frames_no_face=1 boxes_outside_frame=0 dropped_below_min_size=1"
                in report.summary_text())

    def test_summary_text_mentions_counts(self, lda_model):
        labels = ["happy"] * 4
        config = PipelineConfig(thresh=5, width=100)
        report = pipeline.run_stream(Y4mReader(make_video(labels)), sidecar(4),
                                     lda_model, config, clock=PINNED_CLOCK)
        text = report.summary_text()
        assert "events=0" in text and "smtp_failures=0" in text
        assert "happy" in text


class TestSmoothing:
    def test_window3_suppresses_single_frame_glitch(self, lda_model):
        # one corrupted frame inside a run of neutral; median removes it
        frames = [glyph_frame(i, "neutral") for i in range(6)]
        rng = np.random.default_rng(0)
        noise = rng.integers(0, 256, size=frames[3].luma.shape, dtype=np.uint8)
        frames[3] = Frame(index=3, width=100, height=100, luma=noise)
        data = write_y4m(VideoHeader(100, 100, 25, 1, "mono"), frames)
        config = PipelineConfig(thresh=5, width=100, smooth_window=3)
        report = pipeline.run_stream(Y4mReader(data), sidecar(6), lda_model,
                                     config, clock=PINNED_CLOCK)
        assert report.state.counters["neutral"] == 6


NEUTRAL = EmotionScores(probs=np.eye(len(LABELS))[LABELS.index("neutral")])


def capture_rois(monkeypatch):
    """Replace the classifier with one that records each ROI and says neutral."""
    rois = []

    def fake_predict(model, roi):
        rois.append(roi)
        return NEUTRAL

    monkeypatch.setattr(pipeline, "_predict", fake_predict)
    return rois


def model_of_side(side):
    """A model as run_stream sees it once capture_rois has replaced the
    classifier: only its input side is read."""
    return SimpleNamespace(input_side=side)


def full_frame_roi(frames, box, width, roi_size):
    """The ROI as the whole-frame composition computes it: the oracle. The
    median of frames is resized whole to the working width and rounded to
    uint8; box's clamped crop of that is rescaled to roi_size and divided by 255."""
    smoothed = temporal_smooth(frames)
    h, w = smoothed.shape
    resized = np.clip(np.rint(bilinear_resize(smoothed, working_height(w, h, width), width)),
                      0, 255).astype(np.uint8)
    crop = resized[clamp_box(box, *resized.shape)]
    return (bilinear_resize(crop, roi_size, roi_size) / 255.0).astype(np.float32)


def smoothed_rois(frames, boxes, k, width, roi_size):
    """The ROIs run_stream classifies under smooth_window k, frame index ->
    ROI, in frame order: the oracle. boxes holds each frame's primary box,
    or None. A frame's own ROI is full_frame_roi of it alone under its box
    when that box meets the frame (a usable box); otherwise under the last
    usable box before it, or, before any, under the first one. A frame with
    a usable box is classified from the per-pixel median of the own ROIs of
    frames i-k+1..i, or from its own ROI while i < k - 1."""
    usable = {}
    for i, (frame, box) in enumerate(zip(frames, boxes)):
        if box is not None:
            try:
                usable[i] = box, full_frame_roi([frame], box, width, roi_size)
            except EmptyIntersection:
                pass
    if not usable:
        return {}
    last, own = usable[min(usable)][0], []
    for i, frame in enumerate(frames):
        if i in usable:
            last = usable[i][0]
            own.append(usable[i][1])
        else:
            own.append(full_frame_roi([frame], last, width, roi_size))
    return {i: np.sort(own[i - k + 1:i + 1], axis=0)[k // 2] if i >= k - 1 else own[i]
            for i in usable}


class TestBoxFirst:
    def test_roi_matches_full_frame_composition(self, monkeypatch):
        rois = capture_rois(monkeypatch)
        rng = np.random.default_rng(11)
        outside = 0
        for _ in range(300):
            h, w = (int(v) for v in rng.integers(2, 41, size=2))
            width = int(rng.choice([w, rng.integers(1, w + 1), rng.integers(w, 3 * w + 1)]))
            k = int(rng.choice([1, 3, 5]))
            coords = str(rng.choice(["original", "resized"]))
            roi_size = int(rng.choice([1, 5, 28]))
            n = int(rng.integers(1, 8))
            frames = [Frame(index=i, width=w, height=h,
                            luma=rng.integers(0, 256, (h, w), dtype=np.uint8))
                      for i in range(n)]
            # boxes inside, on the edge, clipped and outside, in sidecar coordinates
            bw, bh = (w, h) if coords == "original" else (width, working_height(w, h, width))
            lines = ["# min_size=1x1"]
            for i in range(n):
                for _ in range(int(rng.integers(0, 3))):
                    fw, fh = (int(v) for v in rng.integers(1, 2 * max(bw, bh), size=2))
                    fx, fy = int(rng.integers(0, bw)), int(rng.integers(0, bh))
                    if rng.random() < 0.02:
                        fx += bw
                    lines.append(f"{i} {fx} {fy} {fw} {fh}")
            dets = load_detections("\n".join(lines) + "\n")
            config = PipelineConfig(thresh=5, width=width, smooth_window=k,
                                    detections_coords=coords)
            primary = []
            for i in range(n):
                boxes = dets.for_frame(i)
                if coords == "original" and width != w:
                    boxes = [b.scaled(width / w) for b in boxes]
                primary.append(select_primary_face(boxes))
            expected = list(smoothed_rois(frames, primary, k, width, roi_size).values())
            # the run skips a frame whose box misses it, and counts it
            outside_frames = sum(b is not None for b in primary) - len(expected)
            del rois[:]
            reader = Y4mReader(write_y4m(VideoHeader(w, h, 25, 1, "mono"), frames))
            report = pipeline.run_stream(reader, dets, model_of_side(roi_size), config,
                                         clock=PINNED_CLOCK)
            assert report.boxes_outside_frame == outside_frames
            assert report.state.frames_seen == n
            outside += outside_frames > 0
            assert len(rois) == len(expected)
            for got, want in zip(rois, expected):
                np.testing.assert_array_equal(got, want)
        assert outside > 10

    def test_smoothing_lag_pinned(self, monkeypatch):
        # Frame i is flat grey 20*i; with window k it is classified from the
        # median of frames i-k+1..i, i.e. frame i-(k-1)/2, under frame i's box.
        rois = capture_rois(monkeypatch)
        frames = [Frame(index=i, width=20, height=20,
                        luma=np.full((20, 20), 20 * i, dtype=np.uint8)) for i in range(8)]
        data = write_y4m(VideoHeader(20, 20, 25, 1, "mono"), frames)
        for k in (1, 3, 5):
            del rois[:]
            config = PipelineConfig(thresh=5, width=20, smooth_window=k)
            pipeline.run_stream(Y4mReader(data), sidecar(8, at=(2, 2), side=10),
                                model_of_side(28), config, clock=PINNED_CLOCK)
            shown = [int(round(float(r[0, 0]) * 255)) // 20 for r in rois]
            assert shown == [i if i < k - 1 else i - (k - 1) // 2 for i in range(8)]

    @pytest.mark.parametrize("k", [1, 3])
    def test_boxless_frames_work_only_to_fill_the_window(self, monkeypatch, lda_model, k):
        # Under k = 1 a box-less frame does no pixel work. Under k = 3 it
        # builds its ROI for the window once, when it arrives, and only a
        # boxed frame with a full window runs the median, the one call to
        # temporal_smooth.
        seen = {name: [] for name in ("temporal_smooth", "resize_to_width", "extract_roi")}
        newest = [None]

        def spy_on(name):
            real = getattr(pipeline, name)

            def spy(*args, **kwargs):
                seen[name].append(newest[0])
                return real(*args, **kwargs)
            return spy

        for name in seen:
            monkeypatch.setattr(pipeline, name, spy_on(name))
        reader = Y4mReader(make_video(["sad"] * 12))

        def frames():
            for frame in reader:
                newest[0] = frame.index
                yield frame

        skip = {1, 2, 5, 6, 7, 8}
        config = PipelineConfig(thresh=1, cooldown=4, width=100, smooth_window=k)
        report = pipeline.run_stream(frames(), sidecar(12, skip=skip), lda_model, config,
                                     clock=PINNED_CLOCK)
        boxed = [i for i in range(12) if i not in skip]
        built = boxed if k == 1 else list(range(12))
        medians = [i for i in boxed if i >= k - 1] if k > 1 else []
        assert seen == {"temporal_smooth": medians,
                        "resize_to_width": built, "extract_roi": built}
        assert report.state.frames_seen == 12
        assert report.state.classified_frames == len(boxed)
        # The alert at 3 opens a 4-frame cooldown that frame 4 and box-less
        # frames 5..7 run out, so the count restarts and the next alert is at 10.
        assert [e.frame_index for e in report.events] == [3, 10]

    def test_smoothing_failure_carries_frame_index(self, monkeypatch, lda_model):
        broke = ValueError("smoothing broke")

        def failing_smooth(frames):
            if len(frames) == 3:     # the first full window is frame 2's
                raise broke
            return temporal_smooth(frames)

        monkeypatch.setattr(pipeline, "temporal_smooth", failing_smooth)
        config = PipelineConfig(thresh=5, width=100, smooth_window=3)
        with pytest.raises(pipeline.PipelineStageError) as exc:
            pipeline.run_stream(Y4mReader(make_video(["neutral"] * 4)), sidecar(4),
                                lda_model, config, clock=PINNED_CLOCK)
        assert exc.value.frame_index == 2
        assert exc.value.__cause__ is broke


    def test_working_height_above_the_bound_is_a_stage_error(self, monkeypatch):
        # one pixel wide and 2,000 rows high: at width 500 the working frame
        # would be 1,000,000 rows, each with a column of the _tap_pairs tables
        capture_rois(monkeypatch)
        frame = Frame(index=0, width=1, height=2000, luma=np.zeros((2000, 1), np.uint8))
        reader = Y4mReader(write_y4m(VideoHeader(1, 2000, 25, 1, "mono"), [frame]))
        config = PipelineConfig(thresh=5, width=500)
        with pytest.raises(pipeline.PipelineStageError) as exc:
            pipeline.run_stream(reader, load_detections("# min_size=1x1\n0 0 0 1 1\n"),
                                model_of_side(28), config, clock=PINNED_CLOCK)
        assert exc.value.frame_index == 0
        assert isinstance(exc.value.__cause__, preprocess.WorkingSizeTooLarge)


class TestFaceWindow:
    """Under smooth_window k, the median runs over the last k frames' ROIs,
    each built once, under its frame's own box, so a moving face is a median
    of aligned copies."""

    @pytest.mark.parametrize("speed", [8, 16])
    def test_moving_glyph_scores_its_label_on_every_smoothed_frame(self, monkeypatch,
                                                                   lda_model, speed):
        # the demo geometry: a 112-px glyph on a 500 x 300 frame, moving
        # speed px right and speed / 2 down per frame, its box with it
        predicted = []
        real_predict = pipeline._predict

        def spy(model, roi):
            scores = real_predict(model, roi)
            predicted.append(LABELS[int(np.argmax(scores.probs))])
            return scores

        monkeypatch.setattr(pipeline, "_predict", spy)
        n, side = 10, 112
        for label in LABELS:
            patch = np.clip(np.rint(bilinear_resize(draw_glyph(label, intensity=0.85),
                                                    side, side) * 255), 0, 255)
            frames, lines = [], ["# min_size=60x60"]
            for i in range(n):
                x, y = 20 + speed * i, 20 + speed // 2 * i
                luma = np.zeros((300, 500), dtype=np.uint8)
                luma[y:y + side, x:x + side] = patch.astype(np.uint8)
                frames.append(Frame(index=i, width=500, height=300, luma=luma))
                lines.append(f"{i} {x} {y} {side} {side}")
            del predicted[:]
            config = PipelineConfig(thresh=5, width=500, smooth_window=5)
            pipeline.run_stream(Y4mReader(write_y4m(VideoHeader(500, 300, 25, 1, "mono"), frames)),
                                load_detections("\n".join(lines) + "\n"), lda_model, config,
                                clock=PINNED_CLOCK)
            assert predicted[4:] == [label] * (n - 4)

    def test_boxless_frames_take_the_last_usable_box_or_else_the_first(self, monkeypatch):
        # frames 0-1 come before any box and 3 has one wholly outside the
        # frame: 0 and 1 are built under frame 2's box when it arrives, 3
        # under frame 2's, and 5 under frame 4's, each once
        rois = capture_rois(monkeypatch)
        built = []
        newest = [None]
        real_extract = pipeline.extract_roi

        def spy(*args, **kwargs):
            built.append(newest[0])
            return real_extract(*args, **kwargs)

        monkeypatch.setattr(pipeline, "extract_roi", spy)
        rng = np.random.default_rng(29)
        frames = [Frame(index=i, width=60, height=40,
                        luma=rng.integers(0, 256, (40, 60), dtype=np.uint8)) for i in range(7)]
        a, b, c = BoundingBox(5, 3, 20, 16), BoundingBox(30, 10, 24, 24), BoundingBox(12, 20, 30, 18)
        dets = load_detections("# min_size=1x1\n2 5 3 20 16\n3 500 400 20 16\n"
                               "4 30 10 24 24\n6 12 20 30 18\n")
        reader = Y4mReader(write_y4m(VideoHeader(60, 40, 25, 1, "mono"), frames))

        def stream():
            for frame in reader:
                newest[0] = frame.index
                yield frame

        config = PipelineConfig(thresh=5, width=60, smooth_window=3)
        report = pipeline.run_stream(stream(), dets, model_of_side(28), config,
                                     clock=PINNED_CLOCK)
        assert report.boxes_outside_frame == 1
        assert built == [2, 2, 2, 3, 4, 5, 6]
        own = [full_frame_roi([f], box, 60, 28) for f, box in zip(frames, [a, a, a, a, b, b, c])]
        want = [np.sort(own[i - 2:i + 1], axis=0)[1] for i in (2, 4, 6)]
        assert len(rois) == len(want)
        for got, roi in zip(rois, want):
            np.testing.assert_array_equal(got, roi)


class TestRoiTapsFirst:
    """A box wider than twice the ROI side is resampled only at the working
    pixels the ROI reads; at the bench's geometry that must not move a bit."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("side", [240, 60])
    def test_bench_geometry_matches_full_frame_composition(self, monkeypatch, side, k):
        rois = capture_rois(monkeypatch)
        resized = []
        real_resize = pipeline.resize_to_width

        def spy(*args, **kwargs):
            out = real_resize(*args, **kwargs)
            resized.append(out.shape)
            return out

        monkeypatch.setattr(pipeline, "resize_to_width", spy)
        rng = np.random.default_rng(side + k)
        frames = [Frame(index=i, width=1280, height=720,
                        luma=rng.integers(0, 256, (720, 1280), dtype=np.uint8))
                  for i in range(7)]
        # inside, clipped at an edge or a corner, and at the origin
        spots = [(300, 200), (1280 - side // 2, 720 - side // 3), (0, 0), (517, 411),
                 (1100, 90), (33, 720 - side // 2), (640, 360)]
        lines = ["# min_size=1x1"] + [f"{i} {x} {y} {side} {side}"
                                      for i, (x, y) in enumerate(spots)]
        dets = load_detections("\n".join(lines) + "\n")
        config = PipelineConfig(thresh=5, width=500, smooth_window=k)
        data = write_y4m(VideoHeader(1280, 720, 25, 1, "mono"), frames)
        pipeline.run_stream(Y4mReader(data), dets, model_of_side(28), config,
                            clock=PINNED_CLOCK)
        assert len(rois) == len(frames)
        out_shape = (working_height(1280, 720, 500), 500)
        boxes = [dets.for_frame(i)[0].scaled(500 / 1280) for i in range(len(frames))]
        expected = smoothed_rois(frames, boxes, k, 500, 28)
        for i, got in enumerate(rois):
            box = boxes[i]
            np.testing.assert_array_equal(got, expected[i])
            # an axis over 2 * 28 working pixels resamples just the 56 the ROI reads
            spans = [s.stop - s.start for s in clamp_box(box, *out_shape)]
            assert resized[i] == tuple(min(n, 56) for n in spans)
        if side == 240:
            assert (56, 56) in resized


class TestTapRowMedian:
    """At every window size, each frame's ROI takes only the source rows the
    working taps read, lower taps then upper, once, when the frame arrives;
    the median then runs over the window's ROIs."""

    def test_bench_geometry_smooths_just_the_tapped_rows(self, monkeypatch):
        rois = capture_rois(monkeypatch)
        smoothed = []
        real_smooth = pipeline.temporal_smooth

        def spy(frames):
            out = real_smooth(frames)
            smoothed.append(out.shape)
            return out

        monkeypatch.setattr(pipeline, "temporal_smooth", spy)
        rng = np.random.default_rng(26)
        frames = [Frame(index=i, width=1280, height=720,
                        luma=rng.integers(0, 256, (720, 1280), dtype=np.uint8))
                  for i in range(6)]
        dets = load_detections("# min_size=1x1\n"
                               + "".join(f"{i} 500 300 240 240\n" for i in range(6)))
        config = PipelineConfig(thresh=5, width=500, smooth_window=5,
                                detections_coords="original")
        data = write_y4m(VideoHeader(1280, 720, 25, 1, "mono"), frames)
        pipeline.run_stream(Y4mReader(data), dets, model_of_side(28), config,
                            clock=PINNED_CLOCK)
        box = BoundingBox(500, 300, 240, 240).scaled(500 / 1280)
        window, taps, _ = preprocess.roi_plan(box, (720, 1280), 500, 28)
        assert [s.stop - s.start for s in window] == [235, 235]
        # the resize gathers 112 of the window's 235 rows: 56 lower taps, then 56 upper
        assert (len(taps[0].index), taps[0].span) == (112, 235)
        assert smoothed == [(28, 28)] * 2
        expected = smoothed_rois(frames, [box] * 6, 5, 500, 28)
        for i in (0, 3, 4, 5):
            np.testing.assert_array_equal(rois[i], expected[i])


def arrays_in(value):
    """Every ndarray in a nest of tuples, with the indices and weights an
    AxisTaps derived."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        if isinstance(value, preprocess.AxisTaps):
            yield from arrays_in((value.index, value.weights))
        for item in value:
            yield from arrays_in(item)


class TestPlanCache:
    """A box's plan, with its resample indices and weights, is built at the
    box's first frame and reused while the box repeats, at every window
    size; it is shared, so its arrays must refuse in-place edits."""

    BOX = BoundingBox(500, 300, 240, 240)

    def test_still_face_builds_each_plan_once(self, monkeypatch):
        rois = capture_rois(monkeypatch)
        rng = np.random.default_rng(27)
        frames = [Frame(index=i, width=1280, height=720,
                        luma=rng.integers(0, 256, (720, 1280), dtype=np.uint8))
                  for i in range(8)]
        b = self.BOX
        dets = load_detections("# min_size=1x1\n"
                               + "".join(f"{i} {b.fX} {b.fY} {b.fW} {b.fH}\n" for i in range(8)))
        config = PipelineConfig(thresh=5, width=500, smooth_window=5,
                                detections_coords="original")
        data = write_y4m(VideoHeader(1280, 720, 25, 1, "mono"), frames)
        preprocess.roi_plan.cache_clear()
        pipeline.run_stream(Y4mReader(data), dets, model_of_side(28), config,
                            clock=PINNED_CLOCK)
        # one plan for the first 4 frames, classified unsmoothed, and the
        # last 4, classified through the median
        info = preprocess.roi_plan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 7, 1)
        expected = smoothed_rois(frames, [b.scaled(500 / 1280)] * 8, 5, 500, 28)
        for i in (4, 7):
            np.testing.assert_array_equal(rois[i], expected[i])

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_still_face_builds_one_plan_at_every_window(self, monkeypatch, k):
        capture_rois(monkeypatch)
        b = self.BOX
        frames = [Frame(index=i, width=1280, height=720, luma=np.full((720, 1280), i, np.uint8))
                  for i in range(8)]
        dets = load_detections("# min_size=1x1\n"
                               + "".join(f"{i} {b.fX} {b.fY} {b.fW} {b.fH}\n" for i in range(8)))
        config = PipelineConfig(thresh=5, width=500, smooth_window=k,
                                detections_coords="original")
        data = write_y4m(VideoHeader(1280, 720, 25, 1, "mono"), frames)
        preprocess.roi_plan.cache_clear()
        pipeline.run_stream(Y4mReader(data), dets, model_of_side(28), config,
                            clock=PINNED_CLOCK)
        info = preprocess.roi_plan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 7, 1)

    def test_cached_plan_arrays_are_read_only(self):
        box, shape = self.BOX.scaled(500 / 1280), (720, 1280)
        plan = preprocess.roi_plan(box, shape, 500, 28)
        assert plan is preprocess.roi_plan(box, shape, 500, 28)
        window, taps, roi_taps = plan
        # the ROI's taps read the working pixels in order: that gather is
        # skipped; the working taps gather their source rows and columns
        assert [axis.index is None for axis in roi_taps] == [True, True]
        assert [axis.index is None for axis in taps] == [False, False]
        for a in arrays_in(plan):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_cache_holds_at_most_its_size(self):
        size = preprocess.roi_plan.cache_info().maxsize
        assert size is not None
        for x in range(size + 10):
            assert preprocess.roi_plan(BoundingBox(x, 0, 94, 94), (720, 1280), 500, 28)
        assert preprocess.roi_plan.cache_info().currsize == size


class TestRowsOnDemand:
    """A frame of a seekable stream reads only the rows its ROI needs; the run
    must not tell the difference from one over eagerly decoded frames."""

    def test_boxless_run_reads_almost_no_luma(self, lda_model):
        from test_video import CountingStream
        n, w, h = 12, 320, 180
        rng = np.random.default_rng(2)
        frames = [Frame(index=i, width=w, height=h,
                        luma=rng.integers(0, 256, (h, w), dtype=np.uint8)) for i in range(n)]
        stream = CountingStream(write_y4m(VideoHeader(w, h, 25, 1, "420"), frames))
        config = PipelineConfig(thresh=1, width=100, smooth_window=1)
        report = pipeline.run_stream(Y4mReader(stream), sidecar(0), lda_model, config,
                                     clock=PINNED_CLOCK)
        assert report.state.frames_seen == n
        assert report.state.classified_frames == 0
        assert stream.bytes_read < 0.05 * n * w * h

    @pytest.mark.parametrize("k", [1, 5])
    def test_bench_geometry_events_match_eager_frames(self, monkeypatch, tmp_path, lda_model, k):
        from test_video import decode_eager
        rois = []
        real_predict = pipeline._predict

        def spy(model, roi):
            rois.append(roi)
            return real_predict(model, roi)

        monkeypatch.setattr(pipeline, "_predict", spy)
        labels = ["sad"] * 6 + ["happy"] * 6 + ["neutral"] * 4
        rng = np.random.default_rng(k)
        frames = []
        for i, label in enumerate(labels):
            luma = rng.integers(0, 40, (720, 1280), dtype=np.uint8)
            glyph = np.clip(np.rint(bilinear_resize(draw_glyph(label), 240, 240) * 255), 0, 255)
            luma[300:540, 500:740] = glyph.astype(np.uint8)
            frames.append(Frame(index=i, width=1280, height=720, luma=luma))
        skip = {3, 9}
        lines = ["# min_size=1x1"] + [f"{i} {500 + i % 3} {300 - i % 2} 240 240"
                                      for i in range(len(labels)) if i not in skip]
        dets = load_detections("\n".join(lines) + "\n")
        config = PipelineConfig(thresh=2, cooldown=2, width=500, smooth_window=k,
                                detections_coords="original")
        data = write_y4m(VideoHeader(1280, 720, 25, 1, "420"), frames)
        path = tmp_path / "clip.y4m"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            lazy = pipeline.run_stream(Y4mReader(fh), dets, lda_model, config,
                                       clock=PINNED_CLOCK)
        lazy_rois, rois[:] = list(rois), []
        eager = pipeline.run_stream(iter(decode_eager(data)), dets, lda_model, config,
                                    clock=PINNED_CLOCK)
        assert lazy.events
        assert [e.log_line() for e in lazy.events] == [e.log_line() for e in eager.events]
        assert len(lazy_rois) == len(rois) == len(labels) - len(skip)
        for a, b in zip(lazy_rois, rois):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("failure", ["shrunk", "closed"])
    def test_late_read_failure_is_a_stage_error(self, tmp_path, lda_model, failure):
        from emonet import video
        path = tmp_path / "clip.y4m"
        path.write_bytes(make_video(["sad"] * 4))
        fh = open(path, "rb")

        def frames():
            for frame in Y4mReader(fh):
                if frame.index == 2:    # the frame is out; its rows are not read yet
                    if failure == "shrunk":
                        with open(path, "r+b") as out:
                            out.truncate(path.stat().st_size - 20000)   # into frame 2
                    else:
                        fh.close()
                yield frame

        config = PipelineConfig(thresh=5, width=100)
        try:
            with pytest.raises(pipeline.PipelineStageError) as exc:
                pipeline.run_stream(frames(), sidecar(4), lda_model, config, clock=PINNED_CLOCK)
        finally:
            fh.close()
        assert exc.value.frame_index == 2
        assert isinstance(exc.value.__cause__, video.VideoFormatError)


class TestBandRead:
    """A frame of a seekable stream reads the band of rows its plan's source
    window holds, whole rows, once, whatever the window size."""

    BOX = BoundingBox(500, 300, 240, 240)

    def lazy_clip(self, n):
        from test_video import CountingStream
        rng = np.random.default_rng(30)
        frames = [Frame(index=i, width=1280, height=720,
                        luma=rng.integers(0, 256, (720, 1280), dtype=np.uint8))
                  for i in range(n)]
        return frames, CountingStream(write_y4m(VideoHeader(1280, 720, 25, 1, "420"), frames))

    def band_rows(self):
        window = preprocess.roi_plan(self.BOX.scaled(500 / 1280), (720, 1280), 500, 28)[0]
        return window[0].stop - window[0].start

    def test_face_roi_reads_just_the_plan_window(self):
        frames, stream = self.lazy_clip(1)
        frame = Y4mReader(stream).next_frame()
        stream.bytes_read = 0
        box = self.BOX.scaled(500 / 1280)
        roi = pipeline._face_roi(frame, box, 500, 28)
        assert stream.bytes_read == self.band_rows() * 1280
        np.testing.assert_array_equal(roi, full_frame_roi(frames, box, 500, 28))

    @pytest.mark.parametrize("k", [1, 5])
    def test_still_face_run_reads_each_band_once(self, monkeypatch, k):
        capture_rois(monkeypatch)
        n, b = 8, self.BOX
        frames, stream = self.lazy_clip(n)
        dets = load_detections("# min_size=1x1\n"
                               + "".join(f"{i} {b.fX} {b.fY} {b.fW} {b.fH}\n" for i in range(n)))
        config = PipelineConfig(thresh=5, width=500, smooth_window=k,
                                detections_coords="original")
        report = pipeline.run_stream(Y4mReader(stream), dets, model_of_side(28), config,
                                     clock=PINNED_CLOCK)
        assert report.state.classified_frames == n
        # each frame's FRAME marker, then its band
        assert stream.bytes_read == n * (len(b"FRAME") + self.band_rows() * 1280)
