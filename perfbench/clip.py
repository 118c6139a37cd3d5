"""Seeded inputs for the stream phases: a 1280x720 4:2:0 Y4M clip with glyph
"faces", its detections sidecar, and the alert events the clip implies.

The clip is written by this module, not by `emonet.video`, so the reader under
test never parses its own writer's output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from emonet.glyphs import draw_glyph

WIDTH, HEIGHT, FPS = 1280, 720, 25
FACE = 240            # box side in clip pixels: ~94 px at the 500 px working width
MARGIN = 16           # black border around the face, so the ROI never samples background noise
INTENSITY = 0.85      # inside the glyph set's 0.7..1.0 stroke range
SMALL_BOX = 40        # below MIN_SIZE, so load_detections drops it
MIN_SIZE = 60
NOISE_PLANES = 8
OTHER_LABELS = ("neutral", "happy", "scared")

# Alert policy and label schedule are chosen together. A clip is a row of
# BLOCK-frame blocks: a run of an unmonitored label, then a run of a
# monitored one, each 5 or 6 frames. With THRESH = 1 and COOLDOWN = 1 a
# monitored run alerts on its 2nd and 5th frame and leaves no count behind,
# so without detector dropouts every block fires exactly two alerts,
# whatever the seed: 2 frames in 11, enough that the alert frames, not the
# ordinary ones, set frame_ms_p90 while delivery is slow. Every run is
# longer than the 5-frame median window.
THRESH, COOLDOWN = 1, 1
BLOCK, MIN_RUN = 11, 5


@dataclass(frozen=True)
class Clip:
    labels: tuple[str, ...]     # ground-truth label of each frame
    has_box: tuple[bool, ...]   # frame has a box >= MIN_SIZE
    small_boxes: int            # frames whose only box is below MIN_SIZE
    x: int                      # face box, still for the whole clip
    y: int

    @property
    def geometry(self) -> str:
        return f"{WIDTH}x{HEIGHT} C420 {len(self.labels)} frames, face {FACE}px"


def make_clip(seed: int, n_blocks: int, monitored, dropout: float) -> Clip:
    """dropout is the share of frames with no usable box; half of those get
    a box below MIN_SIZE instead of none."""
    rng = np.random.default_rng([seed, 0])
    monitored = sorted(monitored)
    labels: list[str] = []
    for _ in range(n_blocks):
        run = int(rng.integers(MIN_RUN, BLOCK - MIN_RUN + 1))
        labels += [OTHER_LABELS[rng.integers(len(OTHER_LABELS))]] * (BLOCK - run)
        labels += [monitored[rng.integers(len(monitored))]] * run
    n_frames = len(labels)
    drop = rng.random(n_frames) < dropout
    small = drop & (rng.random(n_frames) < 0.5)
    x = int(rng.integers(MARGIN, WIDTH - FACE - MARGIN))
    y = int(rng.integers(MARGIN, HEIGHT - FACE - MARGIN))
    return Clip(labels=tuple(labels), has_box=tuple(bool(d) for d in ~drop),
                small_boxes=int(small.sum()), x=x, y=y)


def _face(label: str) -> np.ndarray:
    glyph = draw_glyph(label, intensity=INTENSITY)
    idx = np.arange(FACE) * glyph.shape[0] // FACE       # nearest-neighbour upscale
    return np.rint(glyph[np.ix_(idx, idx)] * 255.0).astype(np.uint8)


def write_clip(clip: Clip, seed: int, path: str) -> None:
    """Static textured background plus per-frame sensor noise; the face area is noise-free."""
    rng = np.random.default_rng([seed, 1])
    base = rng.integers(0, 48, size=(HEIGHT, WIDTH), dtype=np.uint8)
    planes = rng.integers(0, 16, size=(NOISE_PLANES, HEIGHT, WIDTH), dtype=np.uint8)
    order = rng.integers(0, NOISE_PLANES, size=len(clip.labels))
    faces = {label: _face(label) for label in set(clip.labels)}
    chroma = b"\x80" * (WIDTH * HEIGHT // 2)
    x, y = clip.x, clip.y
    with open(path, "wb") as fh:
        fh.write(f"YUV4MPEG2 W{WIDTH} H{HEIGHT} F{FPS}:1 Ip A1:1 C420jpeg\n".encode())
        for label, plane in zip(clip.labels, order):
            luma = base + planes[plane]
            luma[y - MARGIN:y + FACE + MARGIN, x - MARGIN:x + FACE + MARGIN] = 0
            luma[y:y + FACE, x:x + FACE] = faces[label]
            fh.write(b"FRAME\n")
            fh.write(luma.tobytes())
            fh.write(chroma)


def write_sidecar(clip: Clip, seed: int, path: str) -> None:
    rng = np.random.default_rng([seed, 2])
    lines = [f"# scale_factor=1.1 min_neighbors=12 min_size={MIN_SIZE}x{MIN_SIZE}"]
    small_left = clip.small_boxes
    for i, has_box in enumerate(clip.has_box):
        if has_box:
            lines.append(f"{i} {clip.x} {clip.y} {FACE} {FACE}")
        elif small_left:
            # a small spurious detection somewhere else in the frame
            sx = int(rng.integers(0, WIDTH - SMALL_BOX))
            sy = int(rng.integers(0, HEIGHT - SMALL_BOX))
            lines.append(f"{i} {sx} {sy} {SMALL_BOX} {SMALL_BOX}")
            small_left -= 1
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def expected_events(clip: Clip, smooth_window: int, monitored) -> list[tuple[int, str, int]]:
    """(frame, label, count) of every alert, from the label schedule alone.

    With smoothing, once the window is full the pipeline classifies the
    median image centred smooth_window // 2 frames before the newest frame,
    under the newest frame's box. The face never moves, so the crop is
    right, and because every run is longer than the window the median
    image is exactly the centre frame's.
    """
    events = []
    counters = dict.fromkeys(set(clip.labels) | set(monitored), 0)
    cooling = 0
    for i, has_box in enumerate(clip.has_box):
        fired = False
        if has_box:
            shown = i - smooth_window // 2 if i >= smooth_window - 1 else i
            label = clip.labels[shown]
            counters[label] += 1
            if label in monitored and cooling == 0 and counters[label] > THRESH:
                events.append((i, label, counters[label]))
                counters[label] = 0
                cooling = COOLDOWN
                fired = True
        if not fired and cooling:
            cooling -= 1
            if cooling == 0:
                for name in monitored:
                    counters[name] = 0
    return events
