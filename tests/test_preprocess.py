"""Preprocessing tests: resize, face selection, ROI, detections sidecar."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emonet import preprocess
from emonet.config import PipelineConfig
from emonet.preprocess import BoundingBox


def frame_from(arr):
    """A frame as the stages take it: a (height, width) uint8 array."""
    return np.asarray(arr, dtype=np.uint8)


def bilinear_oracle(img, out_h, out_w):
    """Scalar-loop bilinear with half-pixel centers; independent of the
    vectorized implementation."""
    in_h, in_w = img.shape
    out = np.zeros((out_h, out_w))
    for oy in range(out_h):
        for ox in range(out_w):
            sy = min(max((oy + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
            sx = min(max((ox + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            y0, x0 = int(sy), int(sx)
            y1, x1 = min(y0 + 1, in_h - 1), min(x0 + 1, in_w - 1)
            wy, wx = sy - y0, sx - x0
            out[oy, ox] = (img[y0, x0] * (1 - wy) * (1 - wx)
                           + img[y0, x1] * (1 - wy) * wx
                           + img[y1, x0] * wy * (1 - wx)
                           + img[y1, x1] * wy * wx)
    return out


def resize_whole(frame, target_width):
    """All of frame through resize_to_width, given the taps of every pixel of
    its aspect-preserving resize to target_width."""
    h, w = frame.shape
    out_shape = (preprocess.working_height(w, h, target_width), target_width)
    taps = preprocess.resample_taps(tuple(slice(0, n) for n in out_shape), frame.shape, out_shape)
    return preprocess.resize_to_width(frame[preprocess.taps_window(taps)], taps)


def roi_of_box(frame, box, roi_size):
    """extract_roi of box's crop of frame, clamped to it."""
    return preprocess.extract_roi(frame[preprocess.clamp_box(box, *frame.shape)], roi_size)


class TestResize:
    def test_exact_halving(self):
        frame = frame_from(np.zeros((800, 1000)))
        out = resize_whole(frame, 500)
        assert out.shape == (400, 500) and out.dtype == np.uint8

    def test_identity_width(self):
        frame = frame_from(np.random.default_rng(0).integers(0, 256, (10, 12)))
        out = resize_whole(frame, 12)
        np.testing.assert_array_equal(out, frame)

    def test_checkerboard_upscale_matches_oracle(self):
        img = np.array([[0, 255], [255, 0]], dtype=np.float64)
        got = preprocess.bilinear_resize(img, 4, 4)
        np.testing.assert_allclose(got, bilinear_oracle(img, 4, 4), atol=1e-9)

    def test_random_resizes_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h, w = rng.integers(2, 12, size=2)
            oh, ow = rng.integers(1, 16, size=2)
            img = rng.random((h, w)) * 255
            np.testing.assert_allclose(preprocess.bilinear_resize(img, oh, ow),
                                       bilinear_oracle(img, oh, ow), atol=1e-9)

    def test_region_of_source_crop_matches_whole_resample(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            h, w, oh, ow = (int(v) for v in rng.integers(1, 30, size=4))
            img = rng.integers(0, 256, (h, w)).astype(np.uint8)
            r0, c0 = int(rng.integers(0, oh)), int(rng.integers(0, ow))
            region = (slice(r0, int(rng.integers(r0 + 1, oh + 1))),
                      slice(c0, int(rng.integers(c0 + 1, ow + 1))))
            taps = preprocess.resample_taps(region, (h, w), (oh, ow))
            crop = img[preprocess.taps_window(taps)]
            np.testing.assert_array_equal(preprocess.resample_window(crop, taps),
                                          preprocess.bilinear_resize(img, oh, ow)[region])

    def test_region_rejects_wrong_source_crop(self):
        img = np.zeros((20, 20), dtype=np.uint8)
        taps = preprocess.resample_taps((slice(2, 5), slice(2, 5)), (20, 20), (10, 10))
        with pytest.raises(ValueError):
            preprocess.resample_window(img, taps)

    def test_aspect_preserved_within_rounding(self):
        for h, w, target in [(480, 640, 500), (333, 777, 500), (7, 13, 9)]:
            frame = frame_from(np.zeros((h, w)))
            out = resize_whole(frame, target)
            assert out.shape[1] == target
            assert abs(out.shape[0] - h * target / w) <= 0.5 + 1e-9

    def test_bad_target_rejected(self):
        # the working width is checked once, where a run is configured
        with pytest.raises(ValueError):
            PipelineConfig(thresh=5, width=0)


class TestSelectPrimaryFace:
    def test_larger_area_wins(self):
        small = BoundingBox(0, 0, 10, 10)
        big = BoundingBox(5, 5, 60, 60)
        assert preprocess.select_primary_face([small, big]) == big

    def test_empty_list_gives_none(self):
        assert preprocess.select_primary_face([]) is None

    def test_equal_area_tie_lexicographic(self):
        a = BoundingBox(3, 7, 10, 10)
        b = BoundingBox(4, 7, 10, 10)
        c = BoundingBox(0, 9, 10, 10)
        # smaller (fY, fX) wins
        assert preprocess.select_primary_face([b, a, c]) == a

    def test_permutation_invariant(self):
        boxes = [BoundingBox(1, 2, 8, 8), BoundingBox(0, 0, 8, 8),
                 BoundingBox(5, 5, 9, 7), BoundingBox(2, 2, 7, 9)]
        picks = {preprocess.select_primary_face(list(p))
                 for p in itertools.permutations(boxes)}
        assert len(picks) == 1


class TestExtractRoi:
    def test_uniform_gray_normalizes(self):
        frame = frame_from(np.full((50, 50), 128))
        roi = roi_of_box(frame, BoundingBox(5, 5, 30, 30), 28)
        np.testing.assert_allclose(roi, 128 / 255.0, atol=1e-6)
        assert roi.shape == (28, 28)

    def test_full_white_maps_to_one(self):
        frame = frame_from(np.full((40, 40), 255))
        roi = roi_of_box(frame, BoundingBox(0, 0, 40, 40), 28)
        np.testing.assert_allclose(roi, 1.0, atol=1e-6)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(2)
        frame = frame_from(rng.integers(0, 256, (60, 80)))
        roi = roi_of_box(frame, BoundingBox(10, 5, 40, 45), 28)
        assert roi.min() >= 0.0 and roi.max() <= 1.0

    def test_clamped_crop_matches_manual_slice(self):
        rng = np.random.default_rng(3)
        frame = frame_from(rng.integers(0, 256, (30, 30)))
        box = BoundingBox(20, 25, 20, 20)  # extends past both edges
        roi = roi_of_box(frame, box, 8)
        manual = frame[25:30, 20:30].astype(np.float64)
        expected = bilinear_oracle(manual, 8, 8) / 255.0
        np.testing.assert_allclose(roi, expected, atol=1e-6)

    def test_empty_intersection(self):
        frame = frame_from(np.zeros((10, 10)))
        with pytest.raises(preprocess.EmptyIntersection):
            roi_of_box(frame, BoundingBox(50, 50, 5, 5), 8)

    def test_composition_matches_naive_pipeline(self):
        rng = np.random.default_rng(9)
        frame = frame_from(rng.integers(0, 256, (64, 64)))
        box = BoundingBox(8, 12, 30, 24)
        roi = roi_of_box(frame, box, 28)
        crop = frame[12:36, 8:38].astype(np.float64)
        naive = bilinear_oracle(crop, 28, 28) / 255.0
        np.testing.assert_allclose(roi, naive, atol=1e-6)


class TestRoiPlan:
    """The ROI's taps are cached per box size and shared by every later frame
    with that size, so an in-place edit would corrupt all their ROIs."""

    @pytest.mark.parametrize("side", [94, 40])   # picked working pixels, the box's whole span
    def test_cached_roi_taps_are_shared_and_read_only(self, side):
        first = preprocess.roi_plan(BoundingBox(200, 100, side, side), (720, 1280), 500, 28)
        again = preprocess.roi_plan(BoundingBox(17, 33, side, side), (720, 1280), 500, 28)
        for axis, axis_again in zip(first[2], again[2]):
            for taps, taps_again in zip(axis, axis_again):
                assert taps is taps_again
                with pytest.raises(ValueError, match="read-only"):
                    taps[0] = 1

    @pytest.mark.parametrize("box", [BoundingBox(500, 10, 20, 20), BoundingBox(10, 281, 20, 20)])
    def test_box_outside_frame_has_no_plan(self, box):
        assert preprocess.roi_plan(box, (720, 1280), 500, 28) is None


def _assert_same_taps(got, want):
    """Taps equal byte for byte, axis by axis, with the same dtypes and shapes."""
    assert len(got) == len(want)
    for got_axis, want_axis in zip(got, want):
        for a, b in zip(got_axis, want_axis, strict=True):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


@st.composite
def _geometry_and_spans(draw):
    n_in, n_out = draw(st.integers(1, 2000)), draw(st.integers(1, 2000))
    lo = draw(st.integers(0, n_out - 1))
    span = slice(lo, draw(st.integers(lo + 1, n_out)))
    picks = draw(st.lists(st.integers(0, n_out - 1), min_size=1, max_size=60))
    return n_in, n_out, span, np.array(picks, dtype=np.intp)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=_geometry_and_spans())
def test_tap_table_gives_resample_taps_byte_for_byte(case):
    n_in, n_out, span, picks = case
    table = preprocess._tap_table(n_in, n_out)
    assert not any(a.flags.writeable for a in table)
    for index in (span, picks):
        want = preprocess.resample_taps((index, index), (n_in, n_in), (n_out, n_out))[0]
        _assert_same_taps([tuple(a[index] for a in table)], [want])


@st.composite
def _frame_and_box(draw):
    in_shape = draw(st.integers(1, 800)), draw(st.integers(1, 1400))
    width = draw(st.integers(1, 600))
    height = preprocess.working_height(in_shape[1], in_shape[0], width)
    # from well before each edge to well past the other, so boxes clip at every edge
    box = BoundingBox(draw(st.integers(-2 * width, width)), draw(st.integers(-2 * height, height)),
                      draw(st.integers(1, 3 * width)), draw(st.integers(1, 3 * height)))
    return box, in_shape, width, draw(st.integers(1, 40))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=_frame_and_box())
def test_roi_plan_taps_match_resample_taps_of_the_picked_pixels(case):
    """roi_plan's taps come from the tap tables; resample_taps of the same
    working pixels, whole spans or _roi_plan's picks, is the oracle."""
    box, in_shape, width, roi_size = case
    out_shape = (preprocess.working_height(in_shape[1], in_shape[0], width), width)
    if max(out_shape) > preprocess.MAX_WORKING_SIDE:
        with pytest.raises(preprocess.WorkingSizeTooLarge):
            preprocess.roi_plan(box, in_shape, width, roi_size)
        return
    plan = preprocess.roi_plan(box, in_shape, width, roi_size)
    try:
        region = preprocess.clamp_box(box, *out_shape)
    except preprocess.EmptyIntersection:
        assert plan is None
        return
    picks, roi_taps = preprocess._roi_plan(tuple(s.stop - s.start for s in region), roi_size)
    work = [axis if pick is None else axis.start + pick for axis, pick in zip(region, picks)]
    want = preprocess.resample_taps(work, in_shape, out_shape)
    window, taps, plan_roi_taps = plan
    _assert_same_taps(taps, want)
    assert window == preprocess.taps_window(want)
    assert plan_roi_taps is roi_taps


class TestLoadDetections:
    def test_single_record(self):
        ds = preprocess.load_detections(b"0 5 5 60 60\n")
        assert ds.for_frame(0) == [BoundingBox(5, 5, 60, 60)]

    def test_min_size_filter_drops_small_boxes(self):
        ds = preprocess.load_detections(b"0 5 5 10 10\n")
        assert ds.for_frame(0) == []
        assert ds.dropped_below_min_size == 1

    def test_header_naming_all_keys_loads_and_applies_min_size(self):
        data = b"# scale_factor=1.0 min_neighbors=12 min_size=60x60\n0 1 2 70 80\n1 3 4 59 80\n"
        ds = preprocess.load_detections(data)
        assert ds.for_frame(0) == [BoundingBox(1, 2, 70, 80)]
        assert ds.for_frame(1) == []
        assert ds.dropped_below_min_size == 1

    def test_custom_min_size(self):
        data = b"# min_size=4x4\n0 0 0 5 5\n1 0 0 3 3\n"
        ds = preprocess.load_detections(data)
        assert len(ds.for_frame(0)) == 1
        assert ds.for_frame(1) == []

    def test_malformed_line_reports_number(self):
        with pytest.raises(preprocess.MalformedLine) as exc:
            preprocess.load_detections(b"0 a b c d\n")
        assert exc.value.line_number == 1

    def test_negative_field(self):
        with pytest.raises(preprocess.NegativeField):
            preprocess.load_detections(b"0 -5 5 60 60\n")

    @pytest.mark.parametrize("field", range(5))
    def test_field_above_int32_is_malformed_line(self, field):
        for huge in (2**31, int("9" * 400)):
            record = ["1", "5", "5", "70", "70"]
            record[field] = str(huge)
            with pytest.raises(preprocess.MalformedLine) as exc:
                preprocess.load_detections("0 5 5 70 70\n" + " ".join(record) + "\n")
            assert exc.value.line_number == 2

    def test_int32_max_fields_load_and_scale(self):
        top = 2**31 - 1
        ds = preprocess.load_detections(f"{top} {top} {top} {top} {top}\n")
        box, = ds.for_frame(top)
        assert box.scaled(500 / 1280).fW == round(top * 500 / 1280)

    def test_multiple_boxes_per_frame(self):
        data = b"# min_size=1x1\n3 0 0 5 5\n3 1 1 6 6\n"
        ds = preprocess.load_detections(data)
        assert len(ds.for_frame(3)) == 2


# the sidecar's own vocabulary, and non-ASCII text: a sign, space or digit
# outside ASCII, and the character that replaces an undecodable byte
_SIDECAR_TEXT = st.lists(st.sampled_from(
    [*"0123456789+-x#=", " ", "\t", "\n", "\r", "scale_factor", "min_neighbors", "min_size",
     "\u00e9", "\u00a0", "\u2212", "\u0663", "\ufffd"]), max_size=60).map("".join)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.one_of(st.binary(max_size=200), _SIDECAR_TEXT, _SIDECAR_TEXT.map(str.encode)))
def test_any_sidecar_loads_or_raises_detections_error(data):
    try:
        ds = preprocess.load_detections(data)
    except preprocess.DetectionsError:
        return
    assert all(min(b.fX, b.fY, b.fW, b.fH) >= 0 for boxes in ds.boxes.values() for b in boxes)


class TestBoxScaling:
    def test_scaling_tracks_resize_factor_within_pixel(self):
        box = BoundingBox(40, 60, 120, 100)
        scaled = box.scaled(0.5)
        assert scaled == BoundingBox(20, 30, 60, 50)

    def test_scaled_box_never_degenerates(self):
        assert preprocess.BoundingBox(0, 0, 1, 1).scaled(0.1).area >= 1


class TestDetectionsHeader:
    @pytest.mark.parametrize("header", ["# scale_factor=abc", "# min_size=60",
                                        "# min_size=axb", "# min_neighbors=1.5",
                                        "# min_size=1x1 min_neighbors=x"])
    def test_bad_header_value_is_malformed_line(self, header):
        data = f"\n{header}\n0 1 1 70 70\n"
        with pytest.raises(preprocess.MalformedLine) as exc:
            preprocess.load_detections(data)
        assert exc.value.line_number == 2
