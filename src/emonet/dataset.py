"""Dataset-on-disk layout: one directory per label name, PGM files inside.

Each image becomes a sample through extract_roi, as `emonet predict` takes
one: the whole image resized to the ROI side and divided by 255.
"""

from __future__ import annotations

import os

import numpy as np

from .classifiers import LABELS, EmptyClass
from .preprocess import extract_roi
from .video import parse_pgm, write_pgm


def load_dataset_dir(path: str, roi_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Load all label subdirectories; raises EmptyClass for a missing label."""
    xs, ys = [], []
    for idx, label in enumerate(LABELS):
        label_dir = os.path.join(path, label)
        files = sorted(f for f in os.listdir(label_dir)) if os.path.isdir(label_dir) else []
        files = [f for f in files if f.endswith(".pgm")]
        if not files:
            raise EmptyClass(f"no samples for label {label!r} in {path}")
        for name in files:
            with open(os.path.join(label_dir, name), "rb") as fh:
                img = parse_pgm(fh.read())
            xs.append(extract_roi(img, roi_size))
            ys.append(idx)
    return np.stack(xs), np.array(ys, dtype=np.int64)


def save_dataset_dir(x: np.ndarray, y: np.ndarray, path: str) -> None:
    """Write samples (float in [0,1]) as 8-bit PGMs under label subdirectories."""
    counters = {label: 0 for label in LABELS}
    for img, label_idx in zip(x, y):
        label = LABELS[int(label_idx)]
        label_dir = os.path.join(path, label)
        os.makedirs(label_dir, exist_ok=True)
        luma = np.clip(np.rint(np.asarray(img, dtype=np.float64) * 255.0),
                       0, 255).astype(np.uint8)
        with open(os.path.join(label_dir, f"{counters[label]:05d}.pgm"), "wb") as fh:
            fh.write(write_pgm(luma))
        counters[label] += 1
