"""Grayscale frame ingestion: YUV4MPEG2 (Y4M) streams and binary PGM images.

Only the luma plane of a Y4M stream is consumed; 4:2:0 chroma planes are
skipped. A Frame is a decoded Y4M frame, held as one band of whole rows:
on a seekable stream the reader reads no pixels, and the frame reads the
rows it is asked for (Frame.crop) when they are first used, so it stays
readable only while its stream is open. A stream that cannot seek is read
in bounded chunks, and its frames hold their whole luma plane, as a frame
built from an array does. The PGM codec takes and returns (height, width)
uint8 arrays. The temporal median takes a window of same-shape arrays of
any dtype, such as per-frame ROIs, or of frames, whose luma planes it
reads whole. Both formats round-trip bit-exactly through the matching
write functions, which the test suite leans on.
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


class FrameUnavailable(VideoFormatError):
    """A frame's rows could not be read back: its stream was closed or failed."""


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


class Frame:
    """One grayscale frame of height x width uint8 pixels, held as one band of whole rows.

    Built from a (height, width) luma array, the band is the whole plane; built
    by Y4mReader on a seekable stream (stream=, offset=), it is read from the
    luma plane at offset by the first crop. A crop inside the band is a slice
    of it, one outside it reads the union; luma widens the band to the whole plane.
    A read seeks to the rows and back, so it may come between any two
    next_frame calls, but only while the stream is open: a stream closed or
    shrunk since is a FrameUnavailable or TruncatedFrame.
    """

    def __init__(self, index: int, width: int, height: int, luma: np.ndarray | None = None,
                 *, stream=None, offset: int = 0):
        if luma is not None and luma.shape != (height, width):
            raise VideoFormatError(f"luma shape {luma.shape} does not match {height}x{width}")
        self.index, self.width, self.height = index, width, height
        self._stream, self._offset = stream, offset
        self._first, self._rows = 0, luma    # the band: its first row and its rows

    def __repr__(self) -> str:
        return f"Frame(index={self.index}, width={self.width}, height={self.height})"

    @property
    def luma(self) -> np.ndarray:
        if self._rows is None or len(self._rows) != self.height:
            self._read_rows(0, self.height)
        return self._rows

    def crop(self, region: tuple[slice, slice]) -> np.ndarray:
        """luma[region], for a (rows, cols) pair of slices: rows is
        slice(lo, hi) with int 0 <= lo <= hi <= height and no step but 1,
        cols any slice. Other rows raise ValueError."""
        rows, cols = region
        lo, hi = getattr(rows, "start", None), getattr(rows, "stop", None)
        if not (type(lo) is int and type(hi) is int and rows.step in (None, 1)
                and 0 <= lo <= hi <= self.height):
            raise ValueError(f"rows must be slice(lo, hi) with 0 <= lo <= hi <= "
                             f"{self.height}, got {rows!r}")
        if lo == hi:
            return np.empty((0, self.width), dtype=np.uint8)[:, cols]
        if self._rows is None or lo < self._first or hi > self._first + len(self._rows):
            self._read_rows(lo, hi)
        return self._rows[lo - self._first:hi - self._first, cols]

    def _read_rows(self, lo: int, hi: int) -> None:
        if self._rows is not None:
            lo, hi = min(lo, self._first), max(hi, self._first + len(self._rows))
        n = (hi - lo) * self.width
        try:
            back = self._stream.tell()
            self._stream.seek(self._offset + lo * self.width)
            data = self._stream.read(n)
            self._stream.seek(back)
        except (OSError, ValueError) as exc:   # closed: ValueError; failed: OSError
            raise FrameUnavailable(f"frame {self.index}: rows {lo}..{hi - 1}: {exc}") from exc
        if len(data) != n:
            raise TruncatedFrame(f"frame {self.index}: wanted {n} bytes of rows {lo}..{hi - 1}, "
                                 f"got {len(data)}; the stream shrank")
        self._first, self._rows = lo, np.frombuffer(data, np.uint8).reshape(hi - lo, self.width)


# ---------------------------------------------------------------------------
# Y4M
# ---------------------------------------------------------------------------

_Y4M_MAGIC = b"YUV4MPEG2"
_CHUNK = 1 << 20   # a stream that cannot seek is read this much at a time
# the longest header line, or FRAME parameter line after its marker, that is
# read, 0x0A included: such lines hold a few tags, and a stream that never
# sends the 0x0A must not be read into memory whole
_MAX_LINE = 4096


def _read_upto(stream, n: int) -> bytes:
    """n bytes of stream, or fewer at its end; read in chunks, so a header
    that lies about the frame size allocates no more than the stream holds."""
    chunks = []
    while n > 0 and (chunk := stream.read(min(n, _CHUNK))):
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_line(stream: io.BufferedIOBase, what: str,
               too_long: type[VideoFormatError]) -> bytes:
    """One line without its 0x0A; a line over _MAX_LINE bytes is too_long."""
    line = stream.readline(_MAX_LINE)
    if not line.endswith(b"\n"):
        if len(line) == _MAX_LINE:
            raise too_long(f"{what} over {_MAX_LINE} bytes")
        raise TruncatedFrame(f"stream ended inside {what}")
    return line[:-1]


def parse_y4m_header(stream) -> VideoHeader:
    """Parse the YUV4MPEG2 signature line; stops right after the first 0x0A.

    W, H and F tags are mandatory; C is optional and defaults to 4:2:0.
    """
    if isinstance(stream, (bytes, bytearray)):
        stream = io.BytesIO(stream)
    line = _read_line(stream, "Y4M header", MalformedTag)
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
    """Sequential Y4M frame reader; single-owner, like the frames it yields.

    On a seekable stream no pixel is read here: each frame's luma and chroma
    are seeked past together, and the frame reads its rows from the stream
    when they are first used (Frame.crop), so it stays readable only while
    the stream is open. A seek past the end does not fail, so the reader
    keeps the stream's length, and a frame whose planes would reach beyond
    it is truncated. A stream that cannot seek is read, every byte.

    A frame's pixel values never change, but what it holds does, as crop
    widens its band: a frame is used by one thread at a time, like its
    stream, and compares and hashes by identity.
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
        """The next frame, or None at a clean end-of-stream; a frame whose
        planes the stream does not hold is a TruncatedFrame here."""
        marker = self._stream.read(5)
        if marker == b"":
            return None
        if marker != b"FRAME":
            raise MalformedFrameMarker(f"expected FRAME marker, got {marker!r}")
        _read_line(self._stream, "FRAME parameter line",   # params ignored
                   MalformedFrameMarker)
        h, index = self.header, self._next_index
        n_luma, n_chroma = h.width * h.height, h.chroma_bytes
        if self._end is None:
            luma = _read_upto(self._stream, n_luma)
            got = len(luma)
            if got == n_luma:
                got += len(_read_upto(self._stream, n_chroma))
        else:
            offset = self._stream.tell()
            stop = offset + n_luma + n_chroma
            if stop > self._end:         # measure again: a file may grow while read
                self._end = self._stream.seek(0, io.SEEK_END)
            got = max(0, min(stop, self._end) - offset)
        if got < n_luma:
            raise TruncatedFrame(f"frame {index}: wanted {n_luma} luma bytes, got {got}")
        if got < n_luma + n_chroma:
            raise TruncatedFrame(
                f"frame {index}: wanted {n_chroma} chroma bytes, got {got - n_luma}")
        if self._end is None:
            frame = Frame(index, h.width, h.height,
                          np.frombuffer(luma, dtype=np.uint8).reshape(h.height, h.width))
        else:
            self._stream.seek(stop)
            frame = Frame(index, h.width, h.height, stream=self._stream, offset=offset)
        self._next_index += 1
        return frame

    def __iter__(self):
        while (frame := self.next_frame()) is not None:
            yield frame


def write_y4m(header: VideoHeader, frames) -> bytes:
    """Serialize frames as a Y4M stream; chroma planes are written as 0x80."""
    out = io.BytesIO()
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
    return out.getvalue()


# ---------------------------------------------------------------------------
# PGM (binary P5, maxval 255)
# ---------------------------------------------------------------------------

def parse_pgm(data: bytes) -> np.ndarray:
    """A binary P5 PGM, maxval 255, '#' comments allowed, as a (height, width) uint8 array."""
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
    if width < 1 or height < 1:
        raise BadMagic(f"non-positive geometry {width}x{height}")
    if maxval != 255:
        raise MaxvalUnsupported(f"maxval {maxval} unsupported (only 255)")
    pos += 1  # single whitespace byte after maxval
    n = width * height
    pixels = data[pos:pos + n]
    if len(pixels) != n:
        raise TruncatedPixels(f"wanted {n} pixel bytes, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def write_pgm(img: np.ndarray) -> bytes:
    """A binary P5 PGM, maxval 255, of a (height, width) uint8 array."""
    return f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii") + img.tobytes()


# ---------------------------------------------------------------------------
# temporal smoothing
# ---------------------------------------------------------------------------

# Exchange networks that leave the median of 3 or 5 values in the middle
# slot (Paeth, Graphics Gems, 1990; Devillard, "Fast median search", 1998).
# An exchange (i, j) puts the min of slots i and j in i and their max in j;
# where no later exchange reads one of the two, only the other is computed.
_MEDIAN_NETWORKS = {3: ((0, 1, "both"), (1, 2, "min"), (0, 1, "max")),
                    5: ((0, 1, "both"), (3, 4, "both"), (0, 3, "max"), (1, 4, "min"),
                        (1, 2, "both"), (2, 3, "min"), (1, 2, "max"))}


def temporal_smooth(frames: list[Frame] | list[np.ndarray]) -> np.ndarray:
    """Per-pixel median over an odd window of 1, 3 or 5 same-shape arrays,
    such as the ROIs of a window of frames, in their dtype; a frame in the
    window stands for its whole luma plane. A window of 1 returns the array,
    or the frame's luma.
    """
    k = len(frames)
    if k not in (1, 3, 5):
        raise ValueError(f"window must be 1, 3 or 5 frames, got {k}")
    planes = [f if isinstance(f, np.ndarray) else f.luma for f in frames]
    if any(p.shape != planes[0].shape for p in planes):
        raise VideoFormatError(f"window shapes {[p.shape for p in planes]} differ")
    for i, j, keep in _MEDIAN_NETWORKS.get(k, ()):
        a, b = planes[i], planes[j]
        if keep != "max":
            planes[i] = np.minimum(a, b)
        if keep != "min":
            planes[j] = np.maximum(a, b)
    return planes[k // 2]
