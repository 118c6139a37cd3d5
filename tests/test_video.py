"""Y4M / PGM parser tests: round-trips, truncation, named errors."""

import io
import itertools

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
        frame = video.parse_pgm(b"P5\n2 2\n255\n\x01\x02\x03\x04")
        assert (frame.width, frame.height) == (2, 2)
        np.testing.assert_array_equal(frame.luma, [[1, 2], [3, 4]])

    def test_roundtrip_minimal(self):
        data = b"P5\n2 2\n255\n\x01\x02\x03\x04"
        assert video.write_pgm(video.parse_pgm(data)) == data

    def test_comments_in_header(self):
        data = b"P5\n# a comment\n2 1 # trailing\n255\n\xff\x00"
        frame = video.parse_pgm(data)
        np.testing.assert_array_equal(frame.luma, [[255, 0]])

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
        frame = video.parse_pgm(b"P5\n1 1\n255\n\x07EXTRA")
        np.testing.assert_array_equal(frame.luma, [[7]])

    @settings(max_examples=30)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, w, h, seed):
        rng = np.random.default_rng(seed)
        frame = Frame(index=0, width=w, height=h,
                      luma=rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        back = video.parse_pgm(video.write_pgm(frame))
        np.testing.assert_array_equal(back.luma, frame.luma)


class TestTemporalSmooth:
    def test_k1_identity(self):
        f = make_frame(0, 6, 4)
        assert video.temporal_smooth([f]) is f

    def test_median_rejects_outlier_frame(self):
        clean = make_frame(0, 6, 4, seed=2)
        noise = make_frame(1, 6, 4, seed=3)
        same = Frame(index=2, width=6, height=4, luma=clean.luma)
        out = video.temporal_smooth([clean, noise, same])
        np.testing.assert_array_equal(out.luma, clean.luma)

    def test_matches_sort_oracle(self):
        frames = [make_frame(i, 5, 5, seed=10) for i in range(3)]
        out = video.temporal_smooth(frames)
        for y in range(5):
            for x in range(5):
                vals = sorted(f.luma[y, x] for f in frames)
                assert out.luma[y, x] == vals[1]

    def test_median_network_matches_sort_exhaustive(self):
        # every window of values 0..3 (covers all 0/1 inputs, so by the 0-1
        # principle the exchange network selects the median of any input)
        for k in (3, 5):
            vals = np.array(list(itertools.product(range(4), repeat=k)), dtype=np.uint8)
            frames = [Frame(index=i, width=len(vals), height=1, luma=vals[None, :, i].copy())
                      for i in range(k)]
            out = video.temporal_smooth(frames)
            np.testing.assert_array_equal(out.luma[0], np.sort(vals, axis=1)[:, k // 2])

    def test_region_matches_whole_frame_median(self):
        region = (slice(2, 9), slice(1, 6))
        for k in (1, 3, 5):
            frames = [make_frame(i, 7, 11, seed=20 + i) for i in range(k)]
            stack = np.stack([f.luma for f in frames])
            out = video.temporal_smooth(frames, region)
            assert (out.index, out.width, out.height) == (frames[k // 2].index, 5, 7)
            np.testing.assert_array_equal(
                out.luma, np.median(stack, axis=0).astype(np.uint8)[region])

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

    def readline(self):
        return self._inner.readline()

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
