"""Image preprocessing: face-box selection, the ROI plan of a box, the
working-width resize of the pixels the plan names, the ROI's rescale to the
model's side with /255 normalization, plus the detections sidecar loader.

Face detection itself is externalized: a text sidecar supplies per-frame
bounding boxes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


class DetectionsError(ValueError):
    pass


class MalformedLine(DetectionsError):
    def __init__(self, line_number: int, detail: str):
        super().__init__(f"line {line_number}: {detail}")
        self.line_number = line_number


class NegativeField(DetectionsError):
    pass


class EmptyIntersection(ValueError):
    """Raised when a clamped crop box has zero area inside the frame."""


class WorkingSizeTooLarge(ValueError):
    """Raised when a frame's working size exceeds MAX_WORKING_SIDE on an axis."""


@dataclass(frozen=True)
class BoundingBox:
    fX: int
    fY: int
    fW: int
    fH: int

    @property
    def area(self) -> int:
        return self.fW * self.fH

    def scaled(self, factor: float) -> "BoundingBox":
        return BoundingBox(
            fX=int(round(self.fX * factor)), fY=int(round(self.fY * factor)),
            fW=max(1, int(round(self.fW * factor))),
            fH=max(1, int(round(self.fH * factor))))


Region = tuple[slice, slice]   # (rows, cols) of a frame, explicit start and stop


# ---------------------------------------------------------------------------
# resizing
# ---------------------------------------------------------------------------

# The longest working axis, in pixels. _tap_table keeps 24 bytes per working
# pixel of an axis, 384 KiB at this size, and 8K UHD is 7,680 pixels wide.
MAX_WORKING_SIDE = 16_384


def working_height(width: int, height: int, target_width: int) -> int:
    """Height of a width x height frame after an aspect-preserving resize to target_width."""
    return max(1, int(round(height * target_width / width)))


AxisTaps = tuple[np.ndarray, np.ndarray, np.ndarray]   # lower, upper source index, upper weight
Taps = tuple[AxisTaps, AxisTaps]                         # rows, then columns
Span = slice | np.ndarray    # output indices: a slice with explicit start and stop, or an array


def _taps(n_in: int, n_out: int, span: Span) -> AxisTaps:
    """Bilinear taps along one axis for the outputs span selects of an
    n_in -> n_out resample: lower and upper source index, and upper weight."""
    # each sample centre, (i + 0.5) * n_in / n_out - 0.5, clamped into the
    # source; i + 0.5 is exact in float64, from arange or from the indices
    if isinstance(span, slice):
        s = np.arange(span.start + 0.5, span.stop, 1.0)
    else:
        s = span + 0.5
    s *= n_in / n_out
    s -= 0.5
    np.maximum(s, 0.0, out=s)
    np.minimum(s, n_in - 1.0, out=s)
    lo = s.astype(np.intp)              # s >= 0, so truncation is floor
    s -= lo
    return lo, np.minimum(lo + 1, n_in - 1), s


def resample_taps(region: tuple[Span, Span], in_shape: tuple[int, int],
                  out_shape: tuple[int, int]) -> Taps:
    """Row and column taps of the output pixels in region (rows, cols) of an
    in_shape -> out_shape bilinear resample."""
    (rows, cols), (in_h, in_w), (out_h, out_w) = region, in_shape, out_shape
    return _taps(in_h, out_h, rows), _taps(in_w, out_w, cols)


def taps_window(taps: Taps) -> Region:
    """The source rows and columns that taps read.

    The taps of a slice never decrease. Index arrays may restart once, as
    roi_plan's lower-then-upper indices do; their first lower tap and last
    upper tap are still the least and greatest.
    """
    return tuple(slice(int(lo[0]), int(hi[-1]) + 1) for lo, hi, _ in taps)


def resample_window(img: np.ndarray, taps: Taps) -> np.ndarray:
    """The bilinear samples that taps describe, as float64; img is the
    taps_window crop of the source. Each sample depends only on its own
    index and its four source pixels, so the samples of a region are
    bit-identical to the same pixels of the whole resample."""
    (y0, y1, wy), (x0, x1, wx) = taps
    oy, ox = y0[0], x0[0]
    y0, y1, x0, x1 = y0 - oy, y1 - oy, x0 - ox, x1 - ox
    if img.shape != (y1[-1] + 1, x1[-1] + 1):
        raise ValueError(f"source crop is {img.shape}, region reads "
                         f"{(y1[-1] + 1, x1[-1] + 1)}")
    wy = wy[:, None]
    wx = wx[None, :]
    uy, ux = 1 - wy, 1 - wx
    # Gathering the source pixels before they meet a float64 weight gives the
    # same values as gathers from a float64 copy, without converting the
    # pixels that no sample reads.
    rows0, rows1 = img[y0], img[y1]
    top = rows0[:, x0] * ux
    top += rows0[:, x1] * wx
    bot = rows1[:, x0] * ux
    bot += rows1[:, x1] * wx
    top *= uy
    bot *= wy
    top += bot
    return top


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel sample centers; returns float64.
    An identity-size call reproduces the input exactly."""
    taps = resample_taps((slice(0, out_h), slice(0, out_w)), img.shape, (out_h, out_w))
    return resample_window(img[taps_window(taps)], taps)


def resize_to_width(img: np.ndarray, taps: Taps) -> np.ndarray:
    """Bilinear resize of a uint8 image to the working width, at just the
    pixels taps name: the resample_taps of some rows and columns of the
    working-size image (a region, or index arrays). img is the taps_window
    crop of the source; the uint8 array returned holds those pixels, in the
    order the taps list them.
    """
    return np.clip(np.rint(resample_window(img, taps)), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# face selection and ROI extraction
# ---------------------------------------------------------------------------

def select_primary_face(boxes: list[BoundingBox]) -> BoundingBox | None:
    """Largest-area box wins; equal areas tie-break on smaller (fY, fX)."""
    if not boxes:
        return None
    return min(boxes, key=lambda b: (-b.area, b.fY, b.fX))


def clamp_box(box: BoundingBox, height: int, width: int) -> Region:
    """The rows and columns of box that lie inside a height x width frame."""
    y0, x0 = max(0, box.fY), max(0, box.fX)
    y1, x1 = min(height, box.fY + box.fH), min(width, box.fX + box.fW)
    if y1 <= y0 or x1 <= x0:
        raise EmptyIntersection(f"box {box} does not intersect frame {width}x{height}")
    return slice(y0, y1), slice(x0, x1)


def extract_roi(img: np.ndarray, roi_size: int, taps: Taps | None = None) -> np.ndarray:
    """Bilinear rescale of the uint8 image img to the model's side roi_size,
    then divide by 255: a float32 array in [0, 1].

    With taps, the ROI's own resample taps computed beforehand, img holds
    exactly the pixels they read, as resample_window takes them.
    """
    if taps is None:
        resized = bilinear_resize(img, roi_size, roi_size)
    else:
        resized = resample_window(img, taps)
    return (resized / 255.0).astype(np.float32)


def roi_plan(box: BoundingBox, in_shape: tuple[int, int], width: int,
             roi_size: int) -> tuple[Region, Taps, Taps] | None:
    """For box, in working-width coordinates, of an in_shape (rows, cols)
    source image: the source window to smooth, the taps resampling it to
    the working pixels the ROI reads, and the ROI's taps over those; None
    when the box misses the frame. Where the clamped box spans more than
    2 * roi_size working pixels on an axis, those are the rows (columns) of
    the ROI's lower taps, then of its upper taps; otherwise its whole span.
    Through resize_to_width and extract_roi, the plan gives the ROI of
    source img resized whole to the working width (bilinear_resize, rounded
    to uint8) and cropped to clamp_box of box.

    Nothing is computed per box that depends only on sizes: the working
    pixels' taps are picked from the per-geometry tables of _tap_table, and
    the ROI's from the per-box-size plan of _roi_plan. Raises
    WorkingSizeTooLarge when the working size exceeds MAX_WORKING_SIDE on an
    axis.
    """
    out_shape = (working_height(in_shape[1], in_shape[0], width), width)
    if max(out_shape) > MAX_WORKING_SIDE:
        raise WorkingSizeTooLarge(f"working size {width}x{out_shape[0]} exceeds "
                                  f"{MAX_WORKING_SIDE} pixels on an axis")
    try:
        region = clamp_box(box, *out_shape)
    except EmptyIntersection:
        return None
    picks, roi_taps = _roi_plan(tuple(s.stop - s.start for s in region), roi_size)
    work = [axis if pick is None else axis.start + pick for axis, pick in zip(region, picks)]
    taps = tuple(tuple(a[span] for a in _tap_table(n_in, n_out))
                 for span, n_in, n_out in zip(work, in_shape, out_shape))
    return taps_window(taps), taps, roi_taps


@functools.lru_cache(maxsize=64)
def _tap_table(n_in: int, n_out: int) -> AxisTaps:
    """The taps of every output of an n_in -> n_out resample along one axis.

    Cached, since a stream's frame geometry is fixed whatever its boxes do;
    the arrays are read-only. Each output's taps depend only on its index, so
    a slice or index array of the table is _taps of that span, byte for byte.
    """
    table = _taps(n_in, n_out, slice(0, n_out))
    for a in table:
        a.flags.writeable = False
    return table


@functools.lru_cache(maxsize=256)
def _roi_plan(spans: tuple[int, int], roi_size: int):
    """For a box of spans (rows, cols) working pixels: per axis, the offsets
    into the box of the working pixels the ROI reads, or None for the whole
    span, and the ROI's taps over those pixels.

    Cached, since box sizes repeat from frame to frame; the arrays are
    read-only.
    """
    picks, roi_taps = [], []
    for n, (lo, hi, w) in zip(spans, resample_taps((slice(0, roi_size),) * 2, spans,
                                                   (roi_size, roi_size))):
        pick = None
        if n > 2 * roi_size:
            pick = np.concatenate((lo, hi))
            pick.flags.writeable = False
            lo, hi = np.arange(2 * roi_size).reshape(2, roi_size)
        for a in (lo, hi, w):
            a.flags.writeable = False
        picks.append(pick)
        roi_taps.append((lo, hi, w))
    return tuple(picks), tuple(roi_taps)


# ---------------------------------------------------------------------------
# detections sidecar
# ---------------------------------------------------------------------------

@dataclass
class DetectionSet:
    boxes: dict[int, list[BoundingBox]] = field(default_factory=dict)
    dropped_below_min_size: int = 0

    def for_frame(self, index: int) -> list[BoundingBox]:
        return self.boxes.get(index, [])


def _parse_size(text: str) -> tuple[int, int]:
    w, h = text.lower().split("x")
    return int(w), int(h)


_HEADER_PARSERS = {"scale_factor": float, "min_neighbors": int, "min_size": _parse_size}


def _parse_header(line: str, lineno: int) -> dict:
    values = {}
    for tok in line.lstrip("#").split():
        key, eq, val = tok.partition("=")
        if eq and key in _HEADER_PARSERS:
            try:
                values[key] = _HEADER_PARSERS[key](val)
            except ValueError:
                raise MalformedLine(lineno, f"bad header value {tok!r}") from None
    return values


_FIELD_MAX = 2**31 - 1   # a record field above this cannot be a frame index or a pixel


def load_detections(data: bytes | str) -> DetectionSet:
    """Parse the sidecar: one `frame_index fX fY fW fH` record per line.

    An optional `# scale_factor=.. min_neighbors=.. min_size=WxH` header has
    each of its values checked, and only min_size (default 60x60) is used:
    boxes smaller than it are dropped and counted. A field above 2**31 - 1
    is a MalformedLine: scaling such a box to the working width would
    overflow a float frames later.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii", "replace")
    result = DetectionSet()
    min_w, min_h = 60, 60
    header_seen = False
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not header_seen and "=" in line:
                min_w, min_h = _parse_header(line, lineno).get("min_size", (min_w, min_h))
                header_seen = True
            continue
        parts = line.split()
        if len(parts) != 5:
            raise MalformedLine(lineno, f"expected 5 fields, got {len(parts)}")
        try:
            frame_index, fx, fy, fw, fh = (int(p) for p in parts)
        except ValueError:
            raise MalformedLine(lineno, f"non-integer field in {line!r}") from None
        if min(frame_index, fx, fy) < 0 or fw < 0 or fh < 0:
            raise NegativeField(f"line {lineno}: negative field in {line!r}")
        if max(frame_index, fx, fy, fw, fh) > _FIELD_MAX:
            raise MalformedLine(lineno, f"field above {_FIELD_MAX} in {line!r}")
        if fw < min_w or fh < min_h:
            result.dropped_below_min_size += 1
            continue
        result.boxes.setdefault(frame_index, []).append(BoundingBox(fx, fy, fw, fh))
    return result
