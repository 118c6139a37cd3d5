"""Grayscale frame ingestion: YUV4MPEG2 (Y4M) streams and binary PGM images.

Only the luma plane of a Y4M stream is consumed; 4:2:0 chroma planes are
skipped, by a seek where the stream can seek and by a read otherwise. Both
formats round-trip bit-exactly through the matching write functions, which
the test suite leans on heavily.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np


class VideoFormatError(ValueError):
    """Base class for parse failures in this module."""


class MissingSignature(VideoFormatError):
    pass


class MalformedTag(VideoFormatError):
    pass


class UnsupportedChroma(VideoFormatError):
    pass


class MalformedFrameMarker(VideoFormatError):
    pass


class TruncatedFrame(VideoFormatError):
    pass


class BadMagic(VideoFormatError):
    pass


class MaxvalUnsupported(VideoFormatError):
    pass


class TruncatedPixels(VideoFormatError):
    pass


@dataclass(frozen=True)
class VideoHeader:
    width: int
    height: int
    fps_numerator: int
    fps_denominator: int
    chroma: str  # "mono" or "420"

    @property
    def chroma_bytes(self) -> int:
        """Bytes of both chroma planes per frame: ceil(W/2) x ceil(H/2) each for 4:2:0."""
        if self.chroma == "mono":
            return 0
        return 2 * ((self.width + 1) // 2) * ((self.height + 1) // 2)


@dataclass(frozen=True)
class Frame:
    """One decoded grayscale frame; luma is a row-major (height, width) uint8 array."""
    index: int
    width: int
    height: int
    luma: np.ndarray

    def __post_init__(self):
        if self.luma.shape != (self.height, self.width):
            raise VideoFormatError(
                f"luma shape {self.luma.shape} does not match {self.height}x{self.width}")


# ---------------------------------------------------------------------------
# Y4M
# ---------------------------------------------------------------------------

_Y4M_MAGIC = b"YUV4MPEG2"


def _read_line(stream: io.BufferedIOBase, what: str) -> bytes:
    line = stream.readline()
    if not line.endswith(b"\n"):
        raise TruncatedFrame(f"stream ended inside {what}")
    return line[:-1]


def parse_y4m_header(stream) -> VideoHeader:
    """Parse the YUV4MPEG2 signature line; stops right after the first 0x0A.

    W, H and F tags are mandatory; C is optional and defaults to 4:2:0.
    """
    if isinstance(stream, (bytes, bytearray)):
        stream = io.BytesIO(stream)
    line = _read_line(stream, "Y4M header")
    fields = line.split(b" ")
    if fields[0] != _Y4M_MAGIC:
        raise MissingSignature(f"expected YUV4MPEG2 signature, got {fields[0][:16]!r}")
    width = height = None
    fps_num = fps_den = None
    chroma = "420"
    for tag in fields[1:]:
        if not tag:
            continue
        key, val = tag[:1], tag[1:].decode("ascii", "replace")
        try:
            if key == b"W":
                width = int(val)
            elif key == b"H":
                height = int(val)
            elif key == b"F":
                num, den = val.split(":")
                fps_num, fps_den = int(num), int(den)
        except ValueError as exc:
            raise MalformedTag(f"bad {key.decode()} tag {val!r}") from exc
        if key == b"C":
            if val == "mono":
                chroma = "mono"
            elif val.startswith("420"):
                chroma = "420"
            else:
                raise UnsupportedChroma(f"chroma {val!r} is not mono or 4:2:0")
        # A/I/X tags are legal and ignored
    if width is None or height is None:
        raise MalformedTag("missing W or H tag")
    if fps_num is None:
        raise MalformedTag("missing F tag")
    if width < 1 or height < 1 or fps_num < 1 or fps_den < 1:
        raise MalformedTag(f"non-positive geometry or rate: W{width} H{height} F{fps_num}:{fps_den}")
    return VideoHeader(width, height, fps_num, fps_den, chroma)


class Y4mReader:
    """Sequential Y4M frame reader; single-owner, frames are immutable.

    On a seekable stream the chroma planes are seeked past, not read. A seek
    past the end does not fail, so the reader keeps the stream's length, and
    a frame whose chroma would reach beyond it is truncated.
    """

    def __init__(self, stream):
        if isinstance(stream, (bytes, bytearray)):
            stream = io.BytesIO(stream)
        self._stream = stream
        self.header = parse_y4m_header(stream)
        self._next_index = 0
        self._end = None                 # stream length when seekable
        if stream.seekable():
            start = stream.tell()
            self._end = stream.seek(0, io.SEEK_END)
            stream.seek(start)

    def next_frame(self) -> Frame | None:
        """Decode the next frame, or return None at a clean end-of-stream."""
        marker = self._stream.read(5)
        if marker == b"":
            return None
        if marker != b"FRAME":
            raise MalformedFrameMarker(f"expected FRAME marker, got {marker!r}")
        _read_line(self._stream, "FRAME parameter line")   # params ignored
        h = self.header
        n_luma = h.width * h.height
        luma = self._stream.read(n_luma)
        if len(luma) != n_luma:
            raise TruncatedFrame(
                f"frame {self._next_index}: wanted {n_luma} luma bytes, got {len(luma)}")
        n_chroma = h.chroma_bytes
        if n_chroma:
            if self._end is None:
                got = len(self._stream.read(n_chroma))
            else:
                pos = self._stream.seek(n_chroma, io.SEEK_CUR)
                if pos > self._end:      # measure again: a file may grow while read
                    self._end = self._stream.seek(0, io.SEEK_END)
                    self._stream.seek(pos)
                got = n_chroma - max(0, pos - self._end)
            if got != n_chroma:
                raise TruncatedFrame(
                    f"frame {self._next_index}: wanted {n_chroma} chroma bytes, got {got}")
        frame = Frame(index=self._next_index, width=h.width, height=h.height,
                      luma=np.frombuffer(luma, dtype=np.uint8).reshape(h.height, h.width))
        self._next_index += 1
        return frame

    def __iter__(self):
        while (frame := self.next_frame()) is not None:
            yield frame


def write_y4m(header: VideoHeader, frames, stream=None) -> bytes | None:
    """Serialize frames as a Y4M stream; chroma planes are written as 0x80."""
    out = stream if stream is not None else io.BytesIO()
    tags = f"YUV4MPEG2 W{header.width} H{header.height} " \
           f"F{header.fps_numerator}:{header.fps_denominator}"
    if header.chroma == "mono":
        tags += " Cmono"
    else:
        tags += " C420"
    out.write(tags.encode("ascii") + b"\n")
    chroma = b"\x80" * header.chroma_bytes
    for frame in frames:
        out.write(b"FRAME\n")
        out.write(frame.luma.tobytes())
        out.write(chroma)
    if stream is None:
        return out.getvalue()
    return None


# ---------------------------------------------------------------------------
# PGM (binary P5, maxval 255)
# ---------------------------------------------------------------------------

def parse_pgm(data: bytes, index: int = 0) -> Frame:
    """Parse a binary P5 PGM with maxval 255; '#' comments allowed in the header."""
    if not data.startswith(b"P5"):
        raise BadMagic(f"not a binary PGM: starts with {data[:2]!r}")
    pos = 2
    tokens = []
    while len(tokens) < 3:
        if pos >= len(data):
            raise TruncatedPixels("header ended before width/height/maxval")
        c = data[pos:pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise BadMagic(f"non-numeric header token in {tokens!r}") from exc
    if maxval != 255:
        raise MaxvalUnsupported(f"maxval {maxval} unsupported (only 255)")
    pos += 1  # single whitespace byte after maxval
    n = width * height
    pixels = data[pos:pos + n]
    if len(pixels) != n:
        raise TruncatedPixels(f"wanted {n} pixel bytes, got {len(pixels)}")
    return Frame(index=index, width=width, height=height,
                 luma=np.frombuffer(pixels, dtype=np.uint8).reshape(height, width))


def write_pgm(frame: Frame) -> bytes:
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    return header + frame.luma.tobytes()


# ---------------------------------------------------------------------------
# temporal smoothing
# ---------------------------------------------------------------------------

# Exchange networks that leave the median of 3 or 5 values in the middle
# slot (Paeth, Graphics Gems, 1990; Devillard, "Fast median search", 1998).
_MEDIAN_NETWORKS = {3: ((0, 1), (1, 2), (0, 1)),
                    5: ((0, 1), (3, 4), (0, 3), (1, 4), (1, 2), (2, 3), (1, 2))}


def temporal_smooth(frames: list[Frame],
                    region: tuple[slice, slice] | None = None) -> Frame:
    """Per-pixel median over an odd window of 1, 3 or 5 same-size frames.

    The output keeps the index of the middle frame. A window of 1 is the
    identity; disabled by default in the pipeline. region, a (rows, cols)
    pair of slices, restricts the work to that rectangle, and the Frame
    returned is then just the rectangle.
    """
    k = len(frames)
    if k not in (1, 3, 5):
        raise ValueError(f"window must be 1, 3 or 5 frames, got {k}")
    mid = frames[k // 2]
    for f in frames:
        if (f.width, f.height) != (mid.width, mid.height):
            raise VideoFormatError(
                f"frame {f.index} is {f.width}x{f.height}, "
                f"window expects {mid.width}x{mid.height}")
    if k == 1 and region is None:
        return mid
    planes = [f.luma if region is None else f.luma[region] for f in frames]
    for i, j in _MEDIAN_NETWORKS.get(k, ()):
        a, b = planes[i], planes[j]
        planes[i], planes[j] = np.minimum(a, b), np.maximum(a, b)
    med = planes[k // 2]
    return Frame(index=mid.index, width=med.shape[1], height=med.shape[0], luma=med)
