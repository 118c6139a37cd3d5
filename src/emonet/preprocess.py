"""Frame preprocessing: working-width resize, face-box selection, ROI crop,
fixed-size rescale and /255 normalization, plus the detections sidecar loader.

Face detection itself is externalized: a text sidecar supplies per-frame
bounding boxes, and the detector parameters travel along as metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .video import Frame


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


@dataclass(frozen=True)
class DetectionMeta:
    scale_factor: float = 1.0
    min_neighbors: int = 12
    min_size: tuple[int, int] = (60, 60)


@dataclass(frozen=True)
class Roi:
    """Square grayscale face crop with values normalized into [0, 1]."""
    pixels: np.ndarray  # (side, side) float32

    @property
    def side(self) -> int:
        return self.pixels.shape[0]


Region = tuple[slice, slice]   # (rows, cols) of a frame, explicit start and stop


# ---------------------------------------------------------------------------
# resizing
# ---------------------------------------------------------------------------

def working_height(width: int, height: int, target_width: int) -> int:
    """Height of a width x height frame after an aspect-preserving resize to target_width."""
    return max(1, int(round(height * target_width / width)))


AxisTaps = tuple[np.ndarray, np.ndarray, np.ndarray]   # lower, upper source index, upper weight
Taps = tuple[AxisTaps, AxisTaps]                         # rows, then columns


def _taps(n_in: int, n_out: int, span: slice) -> AxisTaps:
    """Bilinear taps along one axis for outputs span.start..span.stop-1 of an
    n_in -> n_out resample: lower and upper source index, and upper weight."""
    # each sample centre, (i + 0.5) * n_in / n_out - 0.5, clamped into the
    # source; arange from start + 0.5 in steps of 1 gives i + 0.5 exactly
    s = np.arange(span.start + 0.5, span.stop, 1.0)
    s *= n_in / n_out
    s -= 0.5
    np.maximum(s, 0.0, out=s)
    np.minimum(s, n_in - 1.0, out=s)
    lo = s.astype(np.intp)              # s >= 0, so truncation is floor
    s -= lo
    return lo, np.minimum(lo + 1, n_in - 1), s


def resample_taps(region: Region, in_shape: tuple[int, int],
                  out_shape: tuple[int, int]) -> Taps:
    """Row and column taps of the output pixels in region (rows, cols) of an
    in_shape -> out_shape bilinear resample."""
    (rows, cols), (in_h, in_w), (out_h, out_w) = region, in_shape, out_shape
    return _taps(in_h, out_h, rows), _taps(in_w, out_w, cols)


def taps_window(taps: Taps) -> Region:
    """The source rows and columns that taps read."""
    return tuple(slice(int(lo[0]), int(hi[-1]) + 1) for lo, hi, _ in taps)   # taps never decrease


def source_window(region: Region, in_shape: tuple[int, int],
                  out_shape: tuple[int, int]) -> Region:
    """The source rows and columns that the bilinear samples of an output
    region read, for an in_shape -> out_shape resample."""
    return taps_window(resample_taps(region, in_shape, out_shape))


def resample_window(img: np.ndarray, taps: Taps) -> np.ndarray:
    """The bilinear samples that taps describe, as float64; img is the
    taps_window crop of the source."""
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


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int,
                    region: Region | None = None,
                    in_shape: tuple[int, int] | None = None) -> np.ndarray:
    """Bilinear resample with half-pixel sample centers; returns float64.

    region (rows, cols) selects the output pixels computed, by default all
    of them. in_shape, when given, is the size of the whole source, and img
    is then only its source_window for region. Each output pixel depends
    only on its own index and its four source pixels, so a region is
    bit-identical to the same pixels of the whole resample. An
    identity-size call reproduces the input exactly.
    """
    region = region or (slice(0, out_h), slice(0, out_w))
    taps = resample_taps(region, in_shape or img.shape, (out_h, out_w))
    if in_shape is None:
        img = img[taps_window(taps)]
    return resample_window(img, taps)


def resize_to_width(frame: Frame, target_width: int, taps: Taps | None = None) -> Frame:
    """Aspect-preserving bilinear resize to the working width.

    With taps, the resample_taps of a region of the working-size frame, only
    those pixels are computed and the Frame returned is the region; frame is
    then the taps_window crop of the source.
    """
    if target_width < 1:
        raise ValueError(f"target width must be >= 1, got {target_width}")
    if taps is None:
        out_h = working_height(frame.width, frame.height, target_width)
        resized = bilinear_resize(frame.luma, out_h, target_width)
    else:
        resized = resample_window(frame.luma, taps)
    luma = np.clip(np.rint(resized), 0, 255).astype(np.uint8)
    return Frame(index=frame.index, width=luma.shape[1], height=luma.shape[0], luma=luma)


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


def extract_roi(frame: Frame, box: BoundingBox, roi_size: int = 28) -> Roi:
    """Clamped crop, bilinear rescale to roi_size^2, then divide by 255."""
    crop = frame.luma[clamp_box(box, frame.height, frame.width)]
    resized = bilinear_resize(crop, roi_size, roi_size)
    return Roi(pixels=(resized / 255.0).astype(np.float32))


# ---------------------------------------------------------------------------
# detections sidecar
# ---------------------------------------------------------------------------

@dataclass
class DetectionSet:
    boxes: dict[int, list[BoundingBox]] = field(default_factory=dict)
    meta: DetectionMeta = DetectionMeta()
    dropped_below_min_size: int = 0

    def for_frame(self, index: int) -> list[BoundingBox]:
        return self.boxes.get(index, [])


def _parse_size(text: str) -> tuple[int, int]:
    w, h = text.lower().split("x")
    return int(w), int(h)


_META_PARSERS = {"scale_factor": float, "min_neighbors": int, "min_size": _parse_size}


def _parse_meta(line: str, lineno: int) -> DetectionMeta:
    kwargs = {}
    for tok in line.lstrip("#").split():
        key, eq, val = tok.partition("=")
        if eq and key in _META_PARSERS:
            try:
                kwargs[key] = _META_PARSERS[key](val)
            except ValueError:
                raise MalformedLine(lineno, f"bad header value {tok!r}") from None
    return DetectionMeta(**kwargs)


def load_detections(data: bytes | str) -> DetectionSet:
    """Parse the sidecar: one `frame_index fX fY fW fH` record per line.

    An optional `# scale_factor=.. min_neighbors=.. min_size=WxH` header is
    captured verbatim as metadata; boxes smaller than min_size are dropped
    and counted.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii", "replace")
    result = DetectionSet()
    meta_seen = False
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not meta_seen and "=" in line:
                result.meta = _parse_meta(line, lineno)
                meta_seen = True
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
        min_w, min_h = result.meta.min_size
        if fw < min_w or fh < min_h:
            result.dropped_below_min_size += 1
            continue
        result.boxes.setdefault(frame_index, []).append(BoundingBox(fx, fy, fw, fh))
    return result
