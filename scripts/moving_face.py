#!/usr/bin/env python3
"""Replay a clip whose face moves every frame through run_stream; print its ms per frame.

The clip is 1280x720 4:2:0, 44 frames: a glyph face in a 240-px box that
moves 3 px right and 2 px down per frame, over a static textured
background, so every frame's working box is new. The model is an LDA fit
on the seeded glyph set. The ROI plan cache is cleared before each replay,
so every plan is built, as for a face that never holds still. The metric
is run_stream's wall time per frame, the median over the replays made in
--seconds after one untimed replay. Prints one JSON line. Run from
anywhere:

    python3 scripts/moving_face.py --smooth-window 5 --seconds 5 --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from emonet import pipeline, preprocess  # noqa: E402
from emonet.classifiers import LABELS, lda_train  # noqa: E402
from emonet.config import PipelineConfig  # noqa: E402
from emonet.glyphs import draw_glyph, make_glyph_dataset  # noqa: E402
from emonet.video import Frame, VideoHeader, Y4mReader, write_y4m  # noqa: E402

WIDTH, HEIGHT, FRAMES, FACE, STEP = 1280, 720, 44, 240, (3, 2)


def write_clip(path: Path, seed: int) -> str:
    """The clip at path, and its detections sidecar as text."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 48, size=(HEIGHT, WIDTH), dtype=np.uint8)
    idx = np.arange(FACE) * 28 // FACE       # nearest-neighbour upscale of a 28-px glyph
    frames, lines = [], ["# min_size=60x60"]
    for i in range(FRAMES):
        x, y = 100 + STEP[0] * i, 100 + STEP[1] * i
        glyph = draw_glyph(LABELS[i // 4 % len(LABELS)], intensity=0.85)
        luma = base.copy()
        luma[y:y + FACE, x:x + FACE] = np.rint(glyph[np.ix_(idx, idx)] * 255.0).astype(np.uint8)
        frames.append(Frame(index=i, width=WIDTH, height=HEIGHT, luma=luma))
        lines.append(f"{i} {x} {y} {FACE} {FACE}")
    path.write_bytes(write_y4m(VideoHeader(WIDTH, HEIGHT, 25, 1, "420"), frames))
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smooth-window", type=int, choices=(1, 3, 5), default=5)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    model = lda_train(*make_glyph_dataset(n_per_class=40, seed=args.seed))
    config = PipelineConfig(thresh=5, width=500, smooth_window=args.smooth_window,
                            detections_coords="original")
    with tempfile.TemporaryDirectory() as tmp:
        clip = Path(tmp) / "moving.y4m"
        detections = preprocess.load_detections(write_clip(clip, args.seed))

        def replay() -> tuple[float, int]:
            preprocess.roi_plan.cache_clear()
            with open(clip, "rb") as fh:
                start = time.perf_counter()
                report = pipeline.run_stream(Y4mReader(fh), detections, model, config)
                return time.perf_counter() - start, report.state.classified_frames

        classified = replay()[1]
        ms, stop = [], time.monotonic() + args.seconds
        while time.monotonic() < stop or not ms:
            ms.append(1e3 * replay()[0] / FRAMES)
    print(json.dumps({"smooth_window": args.smooth_window, "frames": FRAMES,
                      "classified": classified, "replays": len(ms),
                      "ms_per_frame_p50": float(np.median(ms))}))
    return 0 if classified == FRAMES else 1


if __name__ == "__main__":
    sys.exit(main())
