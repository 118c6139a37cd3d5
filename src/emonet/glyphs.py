"""Procedurally drawn 7-class glyph dataset.

A desk-scale stand-in for a real face dataset: one distinct shape per
emotion label, rendered with random shift, stroke intensity and pixel
noise so the classifiers have something nontrivial but learnable.
"""

from __future__ import annotations

import numpy as np

from .classifiers import LABELS


def _grid(side: int, cx: float, cy: float):
    yy, xx = np.mgrid[0:side, 0:side]
    return xx - cx, yy - cy


def draw_glyph(label: str, side: int = 28, dx: float = 0.0, dy: float = 0.0,
               intensity: float = 1.0) -> np.ndarray:
    """Render one glyph on a black canvas; returns float values in [0, 1]."""
    cx, cy = side / 2 - 0.5 + dx, side / 2 - 0.5 + dy
    u, v = _grid(side, cx, cy)
    r = np.sqrt(u * u + v * v)
    if label == "angry":          # diagonal cross
        m = ((np.abs(u - v) <= 1.2) | (np.abs(u + v) <= 1.2)) & (r <= 9)
    elif label == "disgust":      # filled square
        m = np.maximum(np.abs(u), np.abs(v)) <= 5
    elif label == "scared":       # ring
        m = (r >= 6.2) & (r <= 8.8)
    elif label == "happy":        # lower arc (smile)
        m = (r >= 6.2) & (r <= 8.8) & (v >= 2)
    elif label == "sad":          # three vertical bars
        bar = np.minimum(np.minimum(np.abs(u + 6), np.abs(u)), np.abs(u - 6))
        m = (bar <= 0.8) & (np.abs(v) <= 8)
    elif label == "surprised":    # filled upward triangle
        m = (v >= -8) & (v <= 8) & (np.abs(u) <= (v + 8) * 0.5)
    elif label == "neutral":      # horizontal bar
        m = (np.abs(v) <= 1.2) & (np.abs(u) <= 9)
    else:
        raise ValueError(f"unknown label {label!r}")
    return m.astype(np.float64) * intensity


def make_glyph(label: str, rng: np.random.Generator, side: int = 28,
               noise_sigma: float = 0.05) -> np.ndarray:
    """One jittered, noisy glyph sample as float32 in [0, 1]."""
    dx, dy = rng.uniform(-2.0, 2.0, size=2)
    intensity = rng.uniform(0.7, 1.0)
    img = draw_glyph(label, side=side, dx=dx, dy=dy, intensity=intensity)
    img += rng.normal(0.0, noise_sigma, size=img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def make_glyph_dataset(n_per_class: int = 200, side: int = 28, seed: int = 7,
                       noise_sigma: float = 0.05
                       ) -> tuple[np.ndarray, np.ndarray]:
    """n_per_class samples per label, class-grouped, deterministic per seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    xs, ys = [], []
    for idx, label in enumerate(LABELS):
        for _ in range(n_per_class):
            xs.append(make_glyph(label, rng, side=side, noise_sigma=noise_sigma))
            ys.append(idx)
    return np.stack(xs), np.array(ys, dtype=np.int64)


def split_dataset(x: np.ndarray, y: np.ndarray, train_frac: float = 0.8
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stratified split: the first train_frac of each class goes to train."""
    train_idx, test_idx = [], []
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        cut = int(round(len(idx) * train_frac))
        train_idx.extend(idx[:cut])
        test_idx.extend(idx[cut:])
    tr = np.array(train_idx, dtype=np.intp)
    te = np.array(test_idx, dtype=np.intp)
    return x[tr], y[tr], x[te], y[te]
