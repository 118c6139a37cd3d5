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

# The longest working axis, in pixels. _tap_pairs keeps 32 bytes per working
# pixel of an axis, 512 KiB at this size, and 8K UHD is 7,680 pixels wide.
MAX_WORKING_SIDE = 16_384


def working_height(width: int, height: int, target_width: int) -> int:
    """Height of a width x height frame after an aspect-preserving resize to target_width."""
    return max(1, int(round(height * target_width / width)))


def working_shape(in_shape: tuple[int, int], width: int) -> tuple[int, int]:
    """The (rows, cols) of an in_shape (rows, cols) frame resized to width,
    aspect kept; raises WorkingSizeTooLarge past MAX_WORKING_SIDE on an axis."""
    out_shape = (working_height(in_shape[1], in_shape[0], width), width)
    if max(out_shape) > MAX_WORKING_SIDE:
        raise WorkingSizeTooLarge(f"working size {width}x{out_shape[0]} exceeds "
                                  f"{MAX_WORKING_SIDE} pixels on an axis")
    return out_shape


class AxisTaps(tuple):
    """The bilinear taps of some outputs along one axis: (lower source index,
    upper source index, upper weight), an array of each, read-only.

    Made from two (2, n) arrays, taps and weights, columns of the _tap_pairs
    tables, which it makes read-only and whose rows are its items. What
    resample_window reads of them is derived once, when they are made, so
    taps that are reused, as a cached roi_plan's are, derive it once: span,
    the length of the source crop they read; index, the lower-then-upper
    indices into that crop; and weights, 1 - w and w, all read-only. Taps
    made stacked, as _roi_plan makes the ROI's taps over picked working
    pixels, have lower taps 0..n-1 and upper taps n..2n-1 over a crop of
    2n, which is then the grid as it is: their index is None, and
    resample_window takes nothing on their axis.
    """

    def __new__(cls, taps: np.ndarray, weights: np.ndarray, stacked: bool = False):
        taps.setflags(write=False)
        weights.setflags(write=False)
        axis = super().__new__(cls, (taps[0], taps[1], weights[1]))
        if stacked:
            axis.span, index = taps.shape[1] * 2, None
        else:
            start = int(taps[0, 0])
            axis.span = int(taps[1, -1]) + 1 - start
            index = (taps - start if start else taps).ravel()
            index.setflags(write=False)
        axis.index, axis.weights = index, (weights[0], axis[2])
        return axis


Taps = tuple[AxisTaps, AxisTaps]   # rows, then columns
Span = slice | np.ndarray    # output indices: a slice with explicit start and stop, or an array


def resample_taps(region: tuple[Span, Span], in_shape: tuple[int, int],
                  out_shape: tuple[int, int]) -> Taps:
    """Row and column taps of the output pixels in region (rows, cols) of an
    in_shape -> out_shape bilinear resample: the columns of each axis's
    _tap_pairs tables at its span, views of the tables for a slice and
    copies for an index array."""
    axes = []
    for span, n_in, n_out in zip(region, in_shape, out_shape):
        taps, weights = _tap_pairs(n_in, n_out)
        if isinstance(span, slice):
            axes.append(AxisTaps(taps[:, span], weights[:, span]))
        else:
            axes.append(AxisTaps(taps.take(span, axis=1), weights.take(span, axis=1)))
    return tuple(axes)


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
    bit-identical to the same pixels of the whole resample.

    The tap grid is gathered once: the lower then the upper rows in one
    row index, then the lower then the upper columns in one take, so the
    grid's four quadrants are the four corners of every sample; an axis
    whose index is None takes nothing. The horizontal pass runs once over
    all the grid's rows; the vertical pass then weighs the top and bottom
    halves and adds the bottom into the top. The indices and weights are the
    ones the AxisTaps derived when they were made.
    """
    rows, cols = taps
    if img.shape != (rows.span, cols.span):
        raise ValueError(f"source crop is {img.shape}, region reads {(rows.span, cols.span)}")
    # Gathering the source pixels before they meet a float64 weight gives the
    # same values as gathers from a float64 copy, without converting the
    # pixels that no sample reads. Indexing whole rows copies them in C order,
    # faster than a take along axis 0.
    grid = img if rows.index is None else img[rows.index]
    if cols.index is not None:
        grid = grid.take(cols.index, axis=1)
    (left_w, right_w), (top_w, bot_w) = cols.weights, rows.weights
    nx, ny = len(left_w), len(top_w)
    h = grid[:, :nx] * left_w
    h += grid[:, nx:] * right_w
    top, bot = h[:ny], h[ny:]
    top *= top_w[:, None]
    bot *= bot_w[:, None]
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
    out = resample_window(img, taps)
    np.rint(out, out=out)
    return np.clip(out, 0, 255, out=out).astype(np.uint8)


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
    resized /= 255.0
    return resized.astype(np.float32)


@functools.lru_cache(maxsize=8)
def roi_plan(box: BoundingBox, in_shape: tuple[int, int], width: int, roi_size: int
             ) -> tuple[Region, Taps, Taps] | None:
    """For box, in working-width coordinates, of an in_shape (rows, cols)
    source image: the source window to read, the taps resampling it to the
    working pixels the ROI reads, and the ROI's taps over those pixels;
    None when the box misses the frame. Where the clamped box spans more
    than 2 * roi_size working pixels on an axis, those are the rows
    (columns) of the ROI's lower taps, then of its upper taps; otherwise its
    whole span. Through the window's crop, resize_to_width and extract_roi
    (pipeline._face_roi), the plan gives the ROI of source img resized whole
    to the working width (bilinear_resize, rounded to uint8) and cropped to
    clamp_box of box. The window is the taps_window of the working pixels'
    taps, and resize_to_width gathers from it just the source rows and
    columns those taps read.

    Cached per (box, in_shape, width, roi_size), since a face box repeats
    from frame to frame while the face holds still: the arrays are
    read-only, and the taps carry the indices and weights resample_window
    reads, so a repeated box costs one lookup. The cache keeps a few plans
    for a box that jitters between positions, and no more, since plans a
    moving face never reuses slow its new ones. A new box computes nothing
    that depends only on sizes: the working pixels' taps are resample_taps
    of the box's span or picks, columns of the per-geometry _tap_pairs
    tables, and the ROI's come whole from the per-box-size plan of
    _roi_plan. Raises WorkingSizeTooLarge as working_shape does.
    """
    out_shape = working_shape(in_shape, width)
    try:
        region = clamp_box(box, *out_shape)
    except EmptyIntersection:
        return None
    rows, cols = region
    picks, roi_taps = _roi_plan((rows.stop - rows.start, cols.stop - cols.start), roi_size)
    rows = rows if picks[0] is None else rows.start + picks[0]
    cols = cols if picks[1] is None else cols.start + picks[1]
    taps = resample_taps((rows, cols), in_shape, out_shape)
    return taps_window(taps), taps, roi_taps


@functools.lru_cache(maxsize=64)
def _tap_pairs(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """The bilinear taps of every output of an n_in -> n_out resample along
    one axis: the lower then the upper source indices, and the weights
    1 - w then w, two read-only (2, n_out) tables: every resample's taps
    are columns of them. Cached, since a stream's frame geometry is fixed
    whatever its boxes do, and box sizes repeat.
    """
    # each sample centre, (i + 0.5) * n_in / n_out - 0.5, clamped into the
    # source; i + 0.5 is exact in float64
    s = np.arange(0.5, n_out, 1.0)
    s *= n_in / n_out
    s -= 0.5
    np.maximum(s, 0.0, out=s)
    np.minimum(s, n_in - 1.0, out=s)
    lo = s.astype(np.intp)              # s >= 0, so truncation is floor
    s -= lo
    pairs = np.stack((lo, np.minimum(lo + 1, n_in - 1))), np.stack((1 - s, s))
    for a in pairs:
        a.setflags(write=False)
    return pairs


@functools.lru_cache(maxsize=256)
def _roi_plan(spans: tuple[int, int], roi_size: int):
    """For a box of spans (rows, cols) working pixels: per axis, the offsets
    into the box of the working pixels the ROI reads, or None for the whole
    span, and the ROI's taps over those pixels.

    Cached, since box sizes repeat from frame to frame; the arrays are
    read-only.
    """
    picks, roi_taps = [], []
    for n in spans:
        taps, weights = _tap_pairs(n, roi_size)
        pick = None
        if n > 2 * roi_size:
            pick = taps.ravel()         # a view of the read-only table
            taps = np.arange(2 * roi_size).reshape(2, roi_size)
        picks.append(pick)
        roi_taps.append(AxisTaps(taps, weights, stacked=pick is not None))
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
