"""Reference checks on emonet.nn that only the tests use: the
finite-difference gradient check and a whole-batch im2col.

Both run on nn's own internals, looked up at call time, so a test that
patches an nn function (say, the backward pass) changes what they check.
"""

from dataclasses import replace

import numpy as np

from emonet import nn


def gradient_check(model: nn.CnnModel, sample: tuple[np.ndarray, int],
                   epsilon: float) -> float:
    """Compare analytic gradients to central finite differences, parameter by
    parameter, and return the largest relative error.

    Both come from the loss and backward pass that model_backward_and_step
    runs. The check works on a float64 copy of the model so the difference
    quotient is not drowned by float32 rounding.
    """
    if not 1e-5 <= epsilon <= 1e-2:
        raise ValueError(f"epsilon {epsilon} outside [1e-5, 1e-2]")
    x, label = sample
    m64 = replace(model, params=[{k: v.astype(np.float64) for k, v in p.items()}
                                 for p in model.params])
    xb = nn._as_batch(m64, np.asarray(x, dtype=np.float64))
    labels = [label]
    _, _, grads = nn._loss_and_grads(m64, xb, labels)

    worst = 0.0
    for p, g in zip(m64.params, grads):
        for key in sorted(p):
            flat, analytic = p[key].reshape(-1), g[key].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                lp = nn._cross_entropy_batch(nn._forward_batch(m64, xb)[0], labels)[1]
                flat[i] = orig - epsilon
                lm = nn._cross_entropy_batch(nn._forward_batch(m64, xb)[0], labels)[1]
                flat[i] = orig
                numeric = (lp - lm) / (2.0 * epsilon)
                a = float(analytic[i])
                worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst


def im2col(x: np.ndarray, k: int) -> np.ndarray:
    """float64 rows of every k x k window of an n x H x W x C batch, (i, j, c) order."""
    # order="C" copies straight into the row layout; the default keeps the
    # view's strides, and reshape would then copy a second time
    return nn._rows(nn._windows(x, k).astype(np.float64, order="C"))
