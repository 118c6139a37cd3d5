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
from emonet.preprocess import (EmptyIntersection, bilinear_resize, clamp_box, load_detections,
                               select_primary_face, working_height)
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
            expected, outside_frames = [], 0
            for i, frame in enumerate(frames):
                boxes = dets.for_frame(i)
                if coords == "original" and width != w:
                    boxes = [b.scaled(width / w) for b in boxes]
                box = select_primary_face(boxes)
                if box is None:
                    continue
                window = frames[i - k + 1:i + 1] if i >= k - 1 else [frame]
                try:
                    expected.append(full_frame_roi(window, box, width, roi_size))
                except EmptyIntersection:
                    outside_frames += 1     # the run skips the frame and counts it
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

    def test_boxless_frames_do_no_pixel_work(self, monkeypatch, lda_model):
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
        config = PipelineConfig(thresh=1, cooldown=4, width=100, smooth_window=3)
        report = pipeline.run_stream(frames(), sidecar(12, skip=skip), lda_model, config,
                                     clock=PINNED_CLOCK)
        boxed = [i for i in range(12) if i not in skip]
        assert seen == {name: boxed for name in seen}
        assert report.state.frames_seen == 12
        assert report.state.classified_frames == len(boxed)
        # The alert at 3 opens a 4-frame cooldown that frame 4 and box-less
        # frames 5..7 run out, so the count restarts and the next alert is at 10.
        assert [e.frame_index for e in report.events] == [3, 10]

    def test_smoothing_failure_carries_frame_index(self, monkeypatch, lda_model):
        def failing_smooth(frames, region=None):
            if frames[-1].index == 2:
                raise ValueError("smoothing broke")
            return temporal_smooth(frames, region)

        monkeypatch.setattr(pipeline, "temporal_smooth", failing_smooth)
        config = PipelineConfig(thresh=5, width=100, smooth_window=3)
        with pytest.raises(pipeline.PipelineStageError) as exc:
            pipeline.run_stream(Y4mReader(make_video(["neutral"] * 4)), sidecar(4),
                                lda_model, config, clock=PINNED_CLOCK)
        assert exc.value.frame_index == 2


    def test_working_height_above_the_bound_is_a_stage_error(self, monkeypatch):
        # one pixel wide and 2,000 rows high: at width 500 the working frame
        # would be 1,000,000 rows, each with a row of _tap_table
        capture_rois(monkeypatch)
        frame = Frame(index=0, width=1, height=2000, luma=np.zeros((2000, 1), np.uint8))
        reader = Y4mReader(write_y4m(VideoHeader(1, 2000, 25, 1, "mono"), [frame]))
        config = PipelineConfig(thresh=5, width=500)
        with pytest.raises(pipeline.PipelineStageError) as exc:
            pipeline.run_stream(reader, load_detections("# min_size=1x1\n0 0 0 1 1\n"),
                                model_of_side(28), config, clock=PINNED_CLOCK)
        assert exc.value.frame_index == 0
        assert isinstance(exc.value.__cause__, preprocess.WorkingSizeTooLarge)


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
        for i, got in enumerate(rois):
            box = dets.for_frame(i)[0].scaled(500 / 1280)
            window = frames[i - k + 1:i + 1] if i >= k - 1 else [frames[i]]
            np.testing.assert_array_equal(got, full_frame_roi(window, box, 500, 28))
            # an axis over 2 * 28 working pixels resamples just the 56 the ROI reads
            spans = [s.stop - s.start for s in clamp_box(box, *out_shape)]
            assert resized[i] == tuple(min(n, 56) for n in spans)
        if side == 240:
            assert (56, 56) in resized


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
