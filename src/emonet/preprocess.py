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


def _taps(n_in: int, n_out: int, span: slice):
    """Bilinear taps along one axis for outputs span.start..span.stop-1 of an
    n_in -> n_out resample: lower and upper source index, and upper weight."""
    s = (np.arange(span.start, span.stop) + 0.5) * (n_in / n_out) - 0.5
    s = np.clip(s, 0.0, n_in - 1.0)
    lo = np.floor(s).astype(int)
    return lo, np.minimum(lo + 1, n_in - 1), s - lo


def source_window(region: Region, in_shape: tuple[int, int],
                  out_shape: tuple[int, int]) -> Region:
    """The source rows and columns that the bilinear samples of an output
    region read, for an in_shape -> out_shape resample."""
    spans = []
    for n_in, n_out, span in zip(in_shape, out_shape, region):
        lo, hi, _ = _taps(n_in, n_out, span)
        spans.append(slice(int(lo[0]), int(hi[-1]) + 1))   # taps never decrease
    return tuple(spans)


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
    rows, cols = region or (slice(0, out_h), slice(0, out_w))
    in_h, in_w = in_shape or img.shape
    y0, y1, wy = _taps(in_h, out_h, rows)
    x0, x1, wx = _taps(in_w, out_w, cols)
    if in_shape is not None:
        oy, ox = y0[0], x0[0]
        y0, y1, x0, x1 = y0 - oy, y1 - oy, x0 - ox, x1 - ox
        if img.shape != (y1[-1] + 1, x1[-1] + 1):
            raise ValueError(f"source crop is {img.shape}, region reads "
                             f"{(y1[-1] + 1, x1[-1] + 1)}")
    wy = wy[:, None]
    wx = wx[None, :]
    # Gathering the source rows before converting them to float64 gives the
    # same values as 2-D fancy gathers from a float64 copy, ~1.8x faster on
    # the 240 px source crop of a 720p face box.
    rows0, rows1 = img[y0].astype(np.float64), img[y1].astype(np.float64)
    top = rows0[:, x0] * (1 - wx) + rows0[:, x1] * wx
    bot = rows1[:, x0] * (1 - wx) + rows1[:, x1] * wx
    return top * (1 - wy) + bot * wy


def resize_to_width(frame: Frame, target_width: int, region: Region | None = None,
                    in_shape: tuple[int, int] | None = None) -> Frame:
    """Aspect-preserving bilinear resize to the working width.

    With region (rows, cols of the working-size frame), only those pixels
    are computed and the Frame returned is the region; frame is then the
    source_window crop of a source of in_shape (height, width).
    """
    if target_width < 1:
        raise ValueError(f"target width must be >= 1, got {target_width}")
    in_h, in_w = in_shape or (frame.height, frame.width)
    out_h = working_height(in_w, in_h, target_width)
    resized = bilinear_resize(frame.luma, out_h, target_width, region, in_shape)
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
