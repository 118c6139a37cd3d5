"""Y4M / PGM parser tests: round-trips, truncation, named errors."""

import contextlib
import io
import itertools
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emonet import video
from emonet.video import Frame, VideoHeader


def make_frame(index, width, height, seed=0):
    rng = np.random.default_rng(seed + index)
    return Frame(index=index, width=width, height=height,
                 luma=rng.integers(0, 256, size=(height, width), dtype=np.uint8))


class TestY4mHeader:
    def test_minimal_header(self):
        h = video.parse_y4m_header(b"YUV4MPEG2 W8 H6 F25:1\n")
        assert (h.width, h.height) == (8, 6)
        assert (h.fps_numerator, h.fps_denominator) == (25, 1)
        assert h.chroma == "420"

    def test_mono_chroma(self):
        h = video.parse_y4m_header(b"YUV4MPEG2 W8 H6 F25:1 Cmono\n")
        assert h.chroma == "mono"

    def test_bad_magic(self):
        with pytest.raises(video.MissingSignature):
            video.parse_y4m_header(b"JUNKDATA W8 H6 F25:1\n")

    def test_missing_mandatory_tag(self):
        with pytest.raises(video.MalformedTag):
            video.parse_y4m_header(b"YUV4MPEG2 W8 F25:1\n")

    def test_malformed_tag_names_tag(self):
        with pytest.raises(video.MalformedTag) as exc:
            video.parse_y4m_header(b"YUV4MPEG2 Wx H6 F25:1\n")
        assert "W" in str(exc.value)

    def test_unsupported_chroma(self):
        with pytest.raises(video.UnsupportedChroma):
            video.parse_y4m_header(b"YUV4MPEG2 W8 H6 F25:1 C444\n")

    def test_header_consumed_exactly_to_newline(self):
        stream = io.BytesIO(b"YUV4MPEG2 W8 H6 F25:1\nNEXT")
        video.parse_y4m_header(stream)
        assert stream.read(4) == b"NEXT"


class TestY4mFrames:
    def test_two_frames_then_eof(self):
        frames = [make_frame(i, 8, 6) for i in range(2)]
        header = VideoHeader(8, 6, 25, 1, "420")
        data = video.write_y4m(header, frames)
        reader = video.Y4mReader(data)
        out = list(reader)
        assert [f.index for f in out] == [0, 1]
        assert reader.next_frame() is None

    def test_luma_roundtrip_bit_exact(self):
        frames = [make_frame(i, 16, 10, seed=5) for i in range(3)]
        for chroma in ("mono", "420"):
            header = VideoHeader(16, 10, 30, 1, chroma)
            out = list(video.Y4mReader(video.write_y4m(header, frames)))
            for a, b in zip(frames, out):
                np.testing.assert_array_equal(a.luma, b.luma)

    def test_truncated_mid_plane(self):
        header = VideoHeader(8, 6, 25, 1, "420")
        data = video.write_y4m(header, [make_frame(0, 8, 6)])
        reader = video.Y4mReader(data[:-10])
        with pytest.raises(video.TruncatedFrame):
            reader.next_frame()

    def test_bad_frame_marker(self):
        header = b"YUV4MPEG2 W2 H2 F1:1 Cmono\n"
        reader = video.Y4mReader(header + b"BOGUS\n\x00\x00\x00\x00")
        with pytest.raises(video.MalformedFrameMarker):
            reader.next_frame()

    def test_indices_consecutive_from_zero(self):
        frames = [make_frame(i, 4, 4) for i in range(5)]
        header = VideoHeader(4, 4, 25, 1, "mono")
        out = list(video.Y4mReader(video.write_y4m(header, frames)))
        assert [f.index for f in out] == list(range(5))


class TestPgm:
    def test_minimal_file(self):
        img = video.parse_pgm(b"P5\n2 2\n255\n\x01\x02\x03\x04")
        assert img.shape == (2, 2) and img.dtype == np.uint8
        np.testing.assert_array_equal(img, [[1, 2], [3, 4]])

    def test_roundtrip_minimal(self):
        data = b"P5\n2 2\n255\n\x01\x02\x03\x04"
        assert video.write_pgm(video.parse_pgm(data)) == data

    def test_comments_in_header(self):
        data = b"P5\n# a comment\n2 1 # trailing\n255\n\xff\x00"
        np.testing.assert_array_equal(video.parse_pgm(data), [[255, 0]])

    def test_maxval_unsupported(self):
        with pytest.raises(video.MaxvalUnsupported):
            video.parse_pgm(b"P5\n2 2\n65535\n" + b"\x00" * 8)

    def test_bad_magic(self):
        with pytest.raises(video.BadMagic):
            video.parse_pgm(b"P6\n2 2\n255\n" + b"\x00" * 12)

    def test_truncated_pixels(self):
        with pytest.raises(video.TruncatedPixels):
            video.parse_pgm(b"P5\n4 4\n255\n\x00\x00")

    def test_parser_ignores_trailing_bytes(self):
        np.testing.assert_array_equal(video.parse_pgm(b"P5\n1 1\n255\n\x07EXTRA"), [[7]])

    @pytest.mark.parametrize("dims", [b"-2 -3", b"0 5", b"5 0", b"-1 4"])
    def test_non_positive_geometry_rejected(self, dims):
        with pytest.raises(video.BadMagic):
            video.parse_pgm(b"P5\n" + dims + b"\n255\n" + b"\x00" * 32)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.binary(max_size=40),
        # mostly well-formed headers: small signed numbers, comments, stray bytes
        st.builds(lambda tokens, sep, tail: sep + sep.join(tokens) + sep + tail,
                  st.lists(st.one_of(st.integers(-3, 4).map(b"%d".__mod__), st.just(b"255"),
                                     st.just(b"# note\n"), st.binary(max_size=3)),
                           max_size=5),
                  st.sampled_from([b" ", b"\n", b"\t"]), st.binary(max_size=24))))
    def test_any_bytes_after_magic_give_a_frame_or_format_error(self, rest):
        try:
            img = video.parse_pgm(b"P5" + rest)
        except video.VideoFormatError:
            return
        assert img.ndim == 2 and min(img.shape) >= 1 and img.dtype == np.uint8

    @settings(max_examples=30)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, w, h, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        np.testing.assert_array_equal(video.parse_pgm(video.write_pgm(img)), img)


class TestTemporalSmooth:
    def test_k1_identity(self):
        f = make_frame(0, 6, 4)
        assert video.temporal_smooth([f]) is f.luma

    def test_median_rejects_outlier_frame(self):
        clean = make_frame(0, 6, 4, seed=2)
        noise = make_frame(1, 6, 4, seed=3)
        same = Frame(index=2, width=6, height=4, luma=clean.luma)
        out = video.temporal_smooth([clean, noise, same])
        np.testing.assert_array_equal(out, clean.luma)

    def test_matches_sort_oracle(self):
        frames = [make_frame(i, 5, 5, seed=10) for i in range(3)]
        out = video.temporal_smooth(frames)
        for y in range(5):
            for x in range(5):
                vals = sorted(f.luma[y, x] for f in frames)
                assert out[y, x] == vals[1]

    def test_median_network_matches_sort_exhaustive(self):
        # every window of values 0..3 (covers all 0/1 inputs, so by the 0-1
        # principle the exchange network selects the median of any input)
        for k in (3, 5):
            vals = np.array(list(itertools.product(range(4), repeat=k)), dtype=np.uint8)
            frames = [Frame(index=i, width=len(vals), height=1, luma=vals[None, :, i].copy())
                      for i in range(k)]
            out = video.temporal_smooth(frames)
            np.testing.assert_array_equal(out[0], np.sort(vals, axis=1)[:, k // 2])

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_window_of_arrays_keeps_their_dtype(self, k):
        rois = list(np.random.default_rng(k).random((k, 4, 6), dtype=np.float32))
        out = video.temporal_smooth(rois)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, np.sort(rois, axis=0)[k // 2])
        if k == 1:
            assert out is rois[0]
        else:
            with pytest.raises(video.VideoFormatError):
                video.temporal_smooth(rois[:-1] + [np.zeros((4, 5), np.float32)])

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_lazy_frames_are_read_whole_and_median_their_luma(self, k):
        frames = [make_frame(i, 10, 20, seed=40 + i) for i in range(k)]
        stream = CountingStream(video.write_y4m(VideoHeader(10, 20, 25, 1, "420"), frames))
        lazy = list(video.Y4mReader(stream))
        stream.bytes_read = 0
        out = video.temporal_smooth(lazy)
        assert stream.bytes_read == k * 10 * 20
        assert (out.shape, out.dtype) == ((20, 10), np.uint8)
        want = np.median(np.stack([f.luma for f in frames]), axis=0).astype(np.uint8)
        np.testing.assert_array_equal(out, want)
        # a window may mix frames and arrays: a frame stands for its luma
        mixed = [f.luma if i % 2 else f for i, f in enumerate(frames)]
        np.testing.assert_array_equal(video.temporal_smooth(mixed), want)

    @pytest.mark.parametrize("k", [0, 4, 6])
    def test_window_of_other_sizes_rejected(self, k):
        rois = list(np.zeros((k, 4, 6), dtype=np.float32))
        with pytest.raises(ValueError, match="window must be 1, 3 or 5"):
            video.temporal_smooth(rois)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            video.temporal_smooth([make_frame(i, 4, 4) for i in range(2)])

    def test_dimension_mismatch(self):
        with pytest.raises(video.VideoFormatError):
            video.temporal_smooth([make_frame(0, 4, 4), make_frame(1, 5, 4),
                                   make_frame(2, 4, 4)])


class TestOddSize420:
    """Hand-built 4:2:0 files: each chroma plane is ceil(W/2) x ceil(H/2) bytes."""

    @pytest.mark.parametrize("w, h", [(5, 5), (5, 4), (4, 5), (1, 1), (3, 7)])
    def test_odd_geometry_reads_every_frame(self, w, h):
        chroma = 2 * ((w + 1) // 2) * ((h + 1) // 2)
        lumas = [bytes((17 * f + i) % 256 for i in range(w * h)) for f in range(3)]
        data = f"YUV4MPEG2 W{w} H{h} F25:1 C420jpeg\n".encode()
        for luma in lumas:
            data += b"FRAME\n" + luma + b"\x80" * chroma
        reader = video.Y4mReader(data)
        frames = list(reader)
        assert [f.index for f in frames] == [0, 1, 2]
        for f, luma in zip(frames, lumas):
            assert f.luma.tobytes() == luma
        assert reader.next_frame() is None

    def test_odd_geometry_short_chroma_is_truncated_frame(self):
        # 5x5 4:2:0 needs 2 * 3 * 3 = 18 chroma bytes; 12 = (5 * 5) // 2 is too few
        data = b"YUV4MPEG2 W5 H5 F25:1 C420jpeg\nFRAME\n" + b"\x10" * 25 + b"\x80" * 12
        with pytest.raises(video.TruncatedFrame):
            video.Y4mReader(data).next_frame()

    def test_writer_uses_the_same_plane_size(self):
        header = VideoHeader(5, 3, 25, 1, "420")
        data = video.write_y4m(header, [make_frame(0, 5, 3)])
        frame_bytes = data.split(b"\n", 1)[1]
        assert len(frame_bytes) == len(b"FRAME\n") + 15 + 2 * 3 * 2

    @pytest.mark.parametrize("rate", ["F-1:1", "F0:1", "F25:0", "F25:-2"])
    def test_rate_below_one_refused(self, rate):
        with pytest.raises(video.MalformedTag):
            video.parse_y4m_header(f"YUV4MPEG2 W8 H6 {rate}\n".encode())


class Unseekable:
    """A pipe-like stream: it reads, and cannot seek."""

    def __init__(self, data: bytes):
        self._inner = io.BytesIO(data)

    def read(self, n=-1):
        return self._inner.read(n)

    def readline(self, limit=-1):
        return self._inner.readline(limit)

    def seekable(self):
        return False


def decode_all(stream):
    """Every frame's index and luma bytes, then the error that stopped decoding, if any."""
    frames = []
    try:
        for f in video.Y4mReader(stream):
            frames.append((f.index, f.luma.tobytes()))
    except video.VideoFormatError as exc:
        return frames, type(exc)
    return frames, None


class TestChromaSkip:
    """A seekable stream seeks past the chroma planes, any other stream reads them;
    both must decode the same frames and fail the same way."""

    @pytest.mark.parametrize("w, h, chroma", [(16, 10, "mono"), (16, 10, "420"), (5, 7, "420")])
    def test_every_stream_kind_gives_the_same_frames(self, tmp_path, w, h, chroma):
        frames = [make_frame(i, w, h, seed=3) for i in range(4)]
        data = video.write_y4m(VideoHeader(w, h, 25, 1, chroma), frames)
        path = tmp_path / "clip.y4m"
        path.write_bytes(data)
        want = ([(f.index, f.luma.tobytes()) for f in frames], None)
        with open(path, "rb") as fh:
            assert decode_all(fh) == want
        assert decode_all(io.BytesIO(data)) == want
        assert decode_all(Unseekable(data)) == want

    @pytest.mark.parametrize("short", [1, 17])
    def test_short_final_chroma_is_truncated_frame(self, tmp_path, short):
        frames = [make_frame(i, 6, 4) for i in range(2)]
        data = video.write_y4m(VideoHeader(6, 4, 25, 1, "420"), frames)[:-short]
        path = tmp_path / "clip.y4m"
        path.write_bytes(data)
        want = ([(0, frames[0].luma.tobytes())], video.TruncatedFrame)
        with open(path, "rb") as fh:
            assert decode_all(fh) == want
        assert decode_all(io.BytesIO(data)) == want
        assert decode_all(Unseekable(data)) == want

    def test_file_grown_after_open_decodes(self, tmp_path):
        frames = [make_frame(i, 6, 4) for i in range(2)]
        data = video.write_y4m(VideoHeader(6, 4, 25, 1, "420"), frames)
        path = tmp_path / "clip.y4m"
        path.write_bytes(data[:-5])
        with open(path, "rb") as fh:
            reader = video.Y4mReader(fh)
            assert reader.next_frame().index == 0
            with open(path, "ab") as out:
                out.write(data[-5:])
            assert reader.next_frame().luma.tobytes() == frames[1].luma.tobytes()
            assert reader.next_frame() is None

    @settings(max_examples=300, deadline=None)
    @given(w=st.integers(1, 5), h=st.integers(1, 5), chroma=st.sampled_from(["mono", "420"]),
           parts=st.lists(st.one_of(st.just(b"FRAME\n"), st.binary(max_size=40)), max_size=8))
    def test_fuzzed_body_decodes_or_fails_by_name_alike(self, w, h, chroma, parts):
        data = f"YUV4MPEG2 W{w} H{h} F25:1 C{chroma}\n".encode() + b"".join(parts)
        assert decode_all(io.BytesIO(data)) == decode_all(Unseekable(data))


def decode_eager(data: bytes) -> list:
    """Every frame of data as a pipe gives it: each holds its whole luma plane."""
    return list(video.Y4mReader(Unseekable(data)))


class CountingStream(io.BytesIO):
    """A seekable in-memory stream that counts the bytes read() returns."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.bytes_read = 0

    def read(self, n=-1):
        got = super().read(n)
        self.bytes_read += len(got)
        return got


col_slices = st.builds(slice, st.one_of(st.none(), st.integers(-12, 12)),
                       st.one_of(st.none(), st.integers(-12, 12)),
                       st.sampled_from([None, 1, 2, -1, -3]))


def row_slices(height):
    """The rows Frame.crop takes: slice(lo, hi), 0 <= lo <= hi <= height, step 1."""
    return st.integers(0, height).flatmap(
        lambda lo: st.builds(slice, st.just(lo), st.integers(lo, height), st.sampled_from([None, 1])))


class TestFrameCrop:
    """A frame of a seekable stream reads its rows when they are first used;
    whatever it reads, crop and luma must equal those of an eager decode."""

    @settings(max_examples=150, deadline=None)
    @given(w=st.integers(1, 9), h=st.integers(1, 9), chroma=st.sampled_from(["mono", "420"]),
           draw=st.data())
    def test_crop_and_luma_match_eager_decode(self, tmp_path_factory, w, h, chroma, draw):
        crops = draw.draw(st.lists(st.tuples(st.integers(0, 2), row_slices(h), col_slices),
                                   max_size=8))
        frames = [make_frame(i, w, h, seed=9) for i in range(3)]
        data = video.write_y4m(VideoHeader(w, h, 25, 1, chroma), frames)
        eager = decode_eager(data)
        path = tmp_path_factory.mktemp("crop") / "clip.y4m"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            for stream in (fh, io.BytesIO(data)):
                reader = video.Y4mReader(stream)
                lazy = []
                for frame in reader:
                    lazy.append(frame)
                    # crops of earlier frames between next_frame calls leave decoding intact
                    for i, rows, cols in crops:
                        if i < len(lazy):
                            np.testing.assert_array_equal(lazy[i].crop((rows, cols)),
                                                          eager[i].crop((rows, cols)))
                assert [f.index for f in lazy] == [0, 1, 2]
                for a, b in zip(lazy, eager):
                    np.testing.assert_array_equal(a.luma, b.luma)
                    assert a.luma.shape == (h, w)

    def test_band_is_kept_and_widened_to_the_union(self):
        frames = [make_frame(0, 10, 20, seed=4)]
        stream = CountingStream(video.write_y4m(VideoHeader(10, 20, 25, 1, "420"), frames))
        frame = video.Y4mReader(stream).next_frame()
        want = frames[0].luma
        stream.bytes_read = 0
        np.testing.assert_array_equal(frame.crop((slice(5, 9), slice(2, 4))), want[5:9, 2:4])
        assert stream.bytes_read == 4 * 10           # rows 5..8, every column
        np.testing.assert_array_equal(frame.crop((slice(6, 8), slice(None))), want[6:8])
        assert stream.bytes_read == 4 * 10           # inside the band: a slice
        np.testing.assert_array_equal(frame.crop((slice(12, 14), slice(1, 2))), want[12:14, 1:2])
        assert stream.bytes_read == 4 * 10 + 9 * 10  # outside: the union, rows 5..13
        np.testing.assert_array_equal(frame.crop((slice(5, 14), slice(None))), want[5:14])
        np.testing.assert_array_equal(frame.crop((slice(3, 3), slice(None))), want[3:3])
        assert stream.bytes_read == 13 * 10
        np.testing.assert_array_equal(frame.luma, want)
        assert stream.bytes_read == 13 * 10 + 20 * 10

    @pytest.mark.parametrize("rows", [slice(None, 4), slice(2, None), slice(None), slice(-1, 4),
                                      slice(2, 21), slice(5, 3), slice(2, 8, 2),
                                      slice(8, 2, -1), slice(np.int64(2), 8), slice(2.0, 8), 3])
    @pytest.mark.parametrize("kind", ["array", "stream"])
    def test_rows_other_than_an_in_frame_step_1_slice_are_rejected(self, kind, rows):
        frames = [make_frame(0, 10, 20, seed=4)]
        stream = CountingStream(video.write_y4m(VideoHeader(10, 20, 25, 1, "mono"), frames))
        frame = frames[0] if kind == "array" else video.Y4mReader(stream).next_frame()
        stream.bytes_read = 0
        with pytest.raises(ValueError, match="rows must be slice"):
            frame.crop((rows, slice(None)))
        assert stream.bytes_read == 0

    def test_repr_eq_and_hash_read_no_pixels(self):
        frames = [make_frame(0, 640, 480)]
        stream = CountingStream(video.write_y4m(VideoHeader(640, 480, 25, 1, "420"), frames))
        frame = video.Y4mReader(stream).next_frame()
        stream.bytes_read = 0
        assert repr(frame) == "Frame(index=0, width=640, height=480)"
        assert frame == frame and frame != frames[0]          # identity
        assert {frame: 1}[frame] == 1
        assert stream.bytes_read == 0

    def test_iteration_reads_no_pixels_on_a_seekable_stream(self):
        frames = [make_frame(i, 64, 48) for i in range(5)]
        data = video.write_y4m(VideoHeader(64, 48, 25, 1, "420"), frames)
        stream = CountingStream(data)
        assert [f.index for f in video.Y4mReader(stream)] == list(range(5))
        assert stream.bytes_read == 5 * len(b"FRAME")

    def test_pipe_reads_every_byte(self):
        frames = [make_frame(i, 7, 5) for i in range(3)]
        data = video.write_y4m(VideoHeader(7, 5, 25, 1, "420"), frames)
        stream = Unseekable(data)
        out = list(video.Y4mReader(stream))
        assert stream.read() == b""
        assert all(type(f) is Frame for f in out)


class TestLateReads:
    """A frame read after iteration fails by name when its stream is gone or shrank."""

    def clip(self, tmp_path, n=3):
        frames = [make_frame(i, 8, 6) for i in range(n)]
        path = tmp_path / "clip.y4m"
        path.write_bytes(video.write_y4m(VideoHeader(8, 6, 25, 1, "420"), frames))
        return path, frames

    def test_file_shrunk_after_the_frame_is_truncated_frame(self, tmp_path):
        path, frames = self.clip(tmp_path)
        with open(path, "rb") as fh:
            out = list(video.Y4mReader(fh))
            np.testing.assert_array_equal(out[0].crop((slice(0, 2), slice(None))),
                                          frames[0].luma[:2])
            with open(path, "r+b") as grow:
                grow.truncate(path.stat().st_size - 80)
            with pytest.raises(video.TruncatedFrame):
                out[2].crop((slice(0, 2), slice(None)))
            with pytest.raises(video.TruncatedFrame):
                _ = out[2].luma
            np.testing.assert_array_equal(out[0].crop((slice(1, 2), slice(3, 5))),
                                          frames[0].luma[1:2, 3:5])    # kept band

    @pytest.mark.parametrize("kind", ["file", "bytesio"])
    def test_frame_used_after_close_is_a_format_error(self, tmp_path, kind):
        path, _ = self.clip(tmp_path)
        stream = open(path, "rb") if kind == "file" else io.BytesIO(path.read_bytes())
        with stream:
            out = list(video.Y4mReader(stream))
        with pytest.raises(video.FrameUnavailable):
            _ = out[1].luma
        with pytest.raises(video.VideoFormatError):
            out[0].crop((slice(0, 1), slice(None)))


LYING_HEADER = b"YUV4MPEG2 W3000000000 H3000000000 F25:1 Cmono\n"


class TestLyingHeader:
    """A header that claims a huge plane over a short stream is a TruncatedFrame,
    and reading it allocates no more than the stream holds."""

    def data(self):
        body = b"FRAME\n" + b"\x00" * 8
        return LYING_HEADER + body

    def assert_truncated(self, stream):
        tracemalloc.start()
        try:
            with pytest.raises(video.TruncatedFrame):
                list(video.Y4mReader(stream))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_bytes(self):
        self.assert_truncated(self.data())

    def test_file(self, tmp_path):
        path = tmp_path / "lie.y4m"
        path.write_bytes(self.data())
        with open(path, "rb") as fh:
            self.assert_truncated(fh)

    def test_unseekable(self):
        self.assert_truncated(Unseekable(self.data()))

    def test_os_pipe(self):
        r, w = os.pipe()
        os.write(w, self.data())
        os.close(w)
        with open(r, "rb") as fh:
            assert not fh.seekable()
            self.assert_truncated(fh)

    @pytest.mark.parametrize("chroma", [b"Cmono", b"C420"])
    def test_pipe_reads_a_long_plane_in_chunks(self, chroma):
        # a plane larger than one chunk, whole, then cut short
        w, h = 1500, 1000
        header = f"YUV4MPEG2 W{w} H{h} F25:1 ".encode() + chroma + b"\n"
        frame = make_frame(0, w, h)
        data = video.write_y4m(video.parse_y4m_header(header), [frame])
        (out,) = list(video.Y4mReader(Unseekable(data)))
        np.testing.assert_array_equal(out.luma, frame.luma)
        with pytest.raises(video.TruncatedFrame):
            list(video.Y4mReader(Unseekable(data[:-1])))


@contextlib.contextmanager
def fed_pipe(data: bytes):
    """The read end of an os.pipe, as a file, that a thread writes data into."""
    r, w = os.pipe()

    def feed():
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(w, view):]
        except BrokenPipeError:       # the reader stopped early
            pass
        finally:
            os.close(w)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        with open(r, "rb") as fh:
            yield fh
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


class TestLineBound:
    """A header or FRAME parameter line over video._MAX_LINE bytes is refused
    with a named error, after reading no more than that, even from a stream
    that never sends the 0x0A."""

    HEADER = b"YUV4MPEG2 W4 H2 F25:1 Cmono"
    LUMA = bytes(range(8))

    def stream(self, on, data):
        return contextlib.nullcontext(io.BytesIO(data)) if on == "bytes" else fed_pipe(data)

    def long_lines(self, n):
        """(data, the error a line over the bound raises): a header line, then
        a FRAME parameter line, of n bytes with the 0x0A, padded by an X tag."""
        def pad(k):
            return b" X" + b"x" * (k - 3) + b"\n"

        return [(self.HEADER + pad(n - len(self.HEADER)) + b"FRAME\n" + self.LUMA,
                 video.MalformedTag),
                (self.HEADER + b"\nFRAME" + pad(n) + self.LUMA, video.MalformedFrameMarker)]

    @pytest.mark.parametrize("on", ["bytes", "pipe"])
    def test_line_at_the_bound_decodes(self, on):
        for data, _ in self.long_lines(video._MAX_LINE):
            with self.stream(on, data) as stream:
                (frame,) = video.Y4mReader(stream)
                assert frame.luma.tobytes() == self.LUMA

    @pytest.mark.parametrize("on", ["bytes", "pipe"])
    def test_line_one_byte_over_the_bound_is_refused(self, on):
        for data, error in self.long_lines(video._MAX_LINE + 1):
            with self.stream(on, data) as stream:
                with pytest.raises(error):
                    list(video.Y4mReader(stream))

    @pytest.mark.parametrize("on", ["bytes", "pipe"])
    @pytest.mark.parametrize("error", [video.MalformedTag, video.MalformedFrameMarker])
    def test_endless_line_is_refused_in_bounded_memory(self, on, error):
        endless = b" X" + b"x" * 20_000_000
        if error is video.MalformedFrameMarker:
            endless = b"\nFRAME" + endless
        with self.stream(on, self.HEADER + endless) as stream:
            tracemalloc.start()
            try:
                with pytest.raises(error):
                    list(video.Y4mReader(stream))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2**20
