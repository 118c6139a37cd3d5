"""Minimal dense-tensor neural network engine.

Forward/backward passes for valid-padding convolution, 2x2 max-pooling,
dense layers, sigmoid activations and a softmax/cross-entropy head, plus
plain SGD updates and a finite-difference gradient check that runs the
SGD step's own loss and backward path (_loss_and_grads).

A convolution is one matrix product over an im2col (Chellapilla, Puri and
Simard 2006): each output pixel's k x k x C input window becomes a row in
(i, j, c) order, the kernels' own memory order, so the rows multiply the
kernels reshaped to (k*k*C, F) with no transpose. The kernel gradient is
the same rows against the output gradient, reshaped straight back to
(k, k, C, F). The input gradient is a full correlation (Dumoulin and
Visin, arXiv:1603.07285): the forward conv run on the output gradient
zero-padded by k-1, with the kernels flipped in both spatial axes and C
and F swapped. The first layer's input gradient is the network input's,
which nothing reads, so the backward pass stops before it.

Max-pool and sigmoid are built from branch-free ufuncs (np.maximum,
comparisons, one division) rather than np.where or argmax, and the pool's
backward pass is one scatter through the flat index of each window's
winner. A forward pass that keeps no caches (prediction, accuracy passes,
the gradient check's loss) builds no winner mask: it takes each window's
max, and finds the winner only when some max is a zero or NaN, whose bits
may differ from the winner's.

Arrays are float32 in the model path; intermediate accumulations run in
float64 and are rounded back, so results stay stable against naive
nested-loop reference implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeMismatchError(ValueError):
    """Raised when tensor shapes are inconsistent; message names both shapes."""


# ---------------------------------------------------------------------------
# elementwise activations
# ---------------------------------------------------------------------------

def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function 1 / (1 + exp(-x)), overflow-safe."""
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    # exp() only ever sees non-positive arguments: z = exp(-|x|), taken as
    # min(x, -x) so that a NaN keeps its sign bit. The result is 1 / (1 + z)
    # for x >= 0 and z / (1 + z) otherwise, so one division serves both. The
    # numerator max(z, x >= 0) is 1 where x >= 0 (there z <= 1) and z
    # elsewhere; unlike np.where it does not branch per element.
    z = np.exp(np.minimum(x, -x))
    num = np.maximum(z, x >= 0)
    num /= 1.0 + z
    return num


def sigmoid_derivative(o: np.ndarray) -> np.ndarray:
    """Derivative of the logistic function expressed via its output: o * (1 - o)."""
    o = np.asarray(o)
    return o * (1.0 - o)


# ---------------------------------------------------------------------------
# layer forwards (single sample public API, batched internals)
# ---------------------------------------------------------------------------

def conv2d_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of an H x W x C input with k x k x C x F kernels.

    Returns an (H-k+1) x (W-k+1) x F map; each cell is the windowed sum of
    products plus the per-filter bias.
    """
    if x.ndim != 3 or kernels.ndim != 4:
        raise ShapeMismatchError(
            f"conv2d expects HxWxC input and kxkxCxF kernels, got {x.shape} and {kernels.shape}")
    return _conv_batch(x[None], kernels, bias)[0]


def _conv_batch(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    n, h, w, c = x.shape
    k, k2, kc, f = kernels.shape
    if k != k2 or kc != c:
        raise ShapeMismatchError(
            f"kernel shape {kernels.shape} incompatible with input shape {x.shape[1:]}")
    if k > min(h, w):
        raise ShapeMismatchError(
            f"kernel size {k} exceeds input plane {h}x{w}")
    if bias.shape != (f,):
        raise ShapeMismatchError(f"bias shape {bias.shape} does not match filter count {f}")
    out_dtype = np.result_type(x, kernels)
    cols = _im2col(x, k)
    out = cols @ kernels.astype(np.float64).reshape(-1, f)
    out += bias.astype(np.float64)
    return out.reshape(n, h - k + 1, w - k + 1, f).astype(out_dtype)


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """float64 rows of every k x k window of an n x H x W x C batch, (i, j, c) order."""
    n, h, w, c = x.shape
    sn, sh, sw, sc = x.strides
    # the windows as one (n, ho, wo, k, k, c) view, the strides of
    # sliding_window_view transposed to (i, j, c), without its argument checks
    win = as_strided(x, (n, h - k + 1, w - k + 1, k, k, c), (sn, sh, sw, sh, sw, sc),
                     writeable=False)
    # order="C" copies straight into the row layout; the default keeps the
    # view's strides, and reshape would then copy a second time
    return win.astype(np.float64, order="C").reshape(-1, k * k * c)


def maxpool2_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 non-overlapping max-pool; odd trailing row/column is dropped.

    Returns (pooled, mask) where mask holds the row-major winner index
    (0..3) inside each window, ties broken toward the first position.
    """
    if x.ndim != 3:
        raise ShapeMismatchError(f"maxpool expects HxWxC input, got {x.shape}")
    out, mask = _maxpool_batch(x[None])
    return out[0], mask[0]


def _pool_views(x: np.ndarray) -> list[np.ndarray]:
    """The (n, he, we, C) view of each 2x2 window position, row-major; an odd
    trailing row or column is in none."""
    h, w = x.shape[1:3]
    if h < 2 or w < 2:
        raise ShapeMismatchError(f"maxpool needs H, W >= 2, got plane {h}x{w}")
    he, we = h // 2, w // 2
    return [x[:, i:2 * he:2, j:2 * we:2, :] for i in (0, 1) for j in (0, 1)]


def _max_tree(views: list[np.ndarray]) -> np.ndarray:
    return np.maximum(np.maximum(views[0], views[1]), np.maximum(views[2], views[3]))


def _maxpool_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # one contiguous copy per window position: every step below is then a
    # ufunc over contiguous memory. np.where and boolean masks branch per
    # element and cost several times more on data this random.
    views = [np.ascontiguousarray(v) for v in _pool_views(x)]
    top = _max_tree(views)
    # the winner is the first position that holds the max, or the first NaN,
    # as with argmax: mask counts the positions before it
    mask = np.zeros(top.shape, dtype=np.intp)
    miss = np.ones(top.shape, dtype=bool)
    for v in views[:3]:
        miss &= v != top
        miss &= v == v                  # false only at a NaN
        mask += miss
    # np.maximum may return either of two equal zeros; take the winner's own bits
    return x.reshape(-1)[_winner_index(x.shape, mask)], mask


def _maxpool_values(x: np.ndarray) -> np.ndarray:
    """The pooled map of _maxpool_batch without the winner mask, which only
    the backward pass reads."""
    top = _max_tree(_pool_views(x))
    # Equal values that are neither zero nor NaN have the same bits, so the
    # max is the winner's own value; a max of -0, +0 or NaN needs the winner.
    if np.abs(top).min(initial=np.inf) > 0:
        return top
    return _maxpool_batch(x)[0]


def _winner_index(in_shape: tuple, mask: np.ndarray) -> np.ndarray:
    """Flat index, into a C-ordered array of in_shape, of each window's winner."""
    n, h, w, c = in_shape
    he, we = h // 2, w // 2
    # each window's top-left element: the start of its row plus its column offset
    rows = np.arange(n)[:, None] * (h * w * c) + np.arange(he) * (2 * w * c)
    cols = np.arange(we)[:, None] * (2 * c) + np.arange(c)
    corner = (rows[:, :, None] + cols.reshape(-1)).reshape(n, he, we, c)
    return corner + np.array([0, c, w * c, w * c + c])[mask]


def _maxpool_backward(dout: np.ndarray, mask: np.ndarray, in_shape: tuple) -> np.ndarray:
    dx = np.zeros(in_shape, dtype=dout.dtype)
    dx.reshape(-1)[_winner_index(in_shape, mask)] = dout
    return dx


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map: out_j = sum_i x_i W_ij + b_j."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ShapeMismatchError(f"dense expects a flat input, got {x.shape}")
    return _dense_batch(x[None], weights, bias)[0]


def _dense_batch(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    if x.shape[1] != weights.shape[0]:
        raise ShapeMismatchError(
            f"dense input width {x.shape[1]} does not match weight rows {weights.shape[0]}")
    out_dtype = np.result_type(x, weights)
    out = x.astype(np.float64) @ weights.astype(np.float64) + bias.astype(np.float64)
    return out.astype(out_dtype)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max-subtraction, no overflow).

    Probabilities come back in float64 so they sum to 1 at tight tolerance
    regardless of the logit dtype.
    """
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray,
                          true_class: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Softmax probabilities, cross-entropy loss and dL/dlogits for one sample."""
    logits = np.asarray(logits)
    if logits.ndim != 1 or logits.shape[-1] < 2:
        raise ShapeMismatchError(f"expected a logit vector of length >= 2, got {logits.shape}")
    p, loss, d = _cross_entropy_batch(logits[None], [true_class])
    return p[0], loss, d[0]


def _cross_entropy_batch(logits: np.ndarray,
                         labels) -> tuple[np.ndarray, float, np.ndarray]:
    """Softmax, mean cross-entropy and its logit gradient (p - onehot) / n,
    in the logit dtype: the loss SGD steps on and gradient_check checks."""
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels {labels} outside [0, {k})")
    rows = np.arange(n)
    p = softmax(logits)
    loss = float(-np.log(np.maximum(p[rows, labels], np.finfo(np.float64).tiny)).mean())
    d = p.copy()
    d[rows, labels] -= 1.0
    return p, loss, (d / n).astype(logits.dtype)


# ---------------------------------------------------------------------------
# sequential model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerSpec:
    """One layer of the fixed vocabulary: conv, maxpool, dense, sigmoid, softmax."""
    kind: str
    kernel_size: int = 0   # conv only; stride 1, valid padding
    filters: int = 0       # conv only
    width: int = 0         # dense only

    KINDS = ("conv", "maxpool", "dense", "sigmoid", "softmax")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")


@dataclass
class CnnModel:
    """A sequential conv/pool/dense stack with float32 parameters.

    params is aligned with layers, each dict keyed and shaped as param_shapes
    gives for that layer.
    Immutable after construction except during an explicit training step.
    """
    input_side: int
    channels: int
    layers: list[LayerSpec]
    params: list[dict[str, np.ndarray]]
    seed: int

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax scores (n, K) for one H x W (x C) sample or a batch of n."""
        xb = _as_batch(self, x).astype(_param_dtype(self), copy=False)
        return softmax(_forward_batch(self, xb))

    def param_arrays(self) -> list[np.ndarray]:
        """All parameter tensors in deterministic (layer, key) order."""
        out = []
        for p in self.params:
            for key in sorted(p):
                out.append(p[key])
        return out


@dataclass(frozen=True)
class GradientReport:
    max_relative_error: float
    worst_parameter_index: int


def emotion_layer_stack() -> list[LayerSpec]:
    """Default classifier stack: two conv/sigmoid/pool blocks and a dense head."""
    return [
        LayerSpec("conv", kernel_size=3, filters=8),
        LayerSpec("sigmoid"),
        LayerSpec("maxpool"),
        LayerSpec("conv", kernel_size=3, filters=16),
        LayerSpec("sigmoid"),
        LayerSpec("maxpool"),
        LayerSpec("dense", width=64),
        LayerSpec("sigmoid"),
        LayerSpec("dense", width=7),
        LayerSpec("softmax"),
    ]


# Glorot limits assume unit-gain activations; a sigmoid attenuates signals by
# ~1/4 per layer, so without compensation the cross-sample spread collapses to
# nearly zero by the logits and SGD stalls at the uniform output. A gain of 4
# (the inverse of sigmoid's maximum slope) keeps activations distinguishable
# through the full conv/dense stack.
INIT_GAIN = 4.0


def param_shapes(input_side: int, layers: list[LayerSpec],
                 channels: int = 1) -> list[dict[str, tuple[int, ...]]]:
    """Shape-check the layer chain end to end; per layer, its parameter shapes.

    For an input_side x input_side x channels input, a conv layer owns
    {"k": (k, k, C, F), "b": (F,)}, a dense layer {"w": (n_in, width),
    "b": (width,)}, any other layer nothing. build_model fills this walk and
    model_io.load_model checks stored tensors against it. Raises
    ShapeMismatchError at the first layer that does not fit its input.
    """
    if input_side < 1 or channels < 1:
        raise ShapeMismatchError(f"input {input_side}x{input_side}x{channels} is empty")
    shape: tuple = (input_side, input_side, channels)
    out: list[dict[str, tuple[int, ...]]] = []
    for i, spec in enumerate(layers):
        if spec.kind == "conv":
            if len(shape) != 3:
                raise ShapeMismatchError(f"layer {i}: conv needs a 3-D input, have {shape}")
            h, w, c = shape
            k, f = spec.kernel_size, spec.filters
            if k < 1 or f < 1 or k > min(h, w):
                raise ShapeMismatchError(
                    f"layer {i}: conv {k}x{k}x{f} does not fit input {shape}")
            out.append({"k": (k, k, c, f), "b": (f,)})
            shape = (h - k + 1, w - k + 1, f)
        elif spec.kind == "maxpool":
            if len(shape) != 3 or shape[0] < 2 or shape[1] < 2:
                raise ShapeMismatchError(f"layer {i}: maxpool needs H, W >= 2, have {shape}")
            out.append({})
            shape = (shape[0] // 2, shape[1] // 2, shape[2])
        elif spec.kind == "dense":
            if spec.width < 1:
                raise ShapeMismatchError(f"layer {i}: dense width must be >= 1")
            out.append({"w": (math.prod(shape), spec.width), "b": (spec.width,)})
            shape = (spec.width,)
        else:
            if spec.kind == "softmax" and i != len(layers) - 1:
                raise ShapeMismatchError("softmax must be the final layer")
            out.append({})
    return out


def build_model(input_side: int, layers: list[LayerSpec], seed: int,
                channels: int = 1, init_gain: float = INIT_GAIN) -> CnnModel:
    """Shape-check the layer chain end to end and initialize parameters.

    Weights are gain-scaled Glorot-uniform (+-gain*sqrt(6/(fan_in+fan_out)))
    from a seeded PRNG; biases start at zero.
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    def init(key: str, shape: tuple[int, ...]) -> np.ndarray:
        if key == "b":
            return np.zeros(shape, dtype=np.float32)
        # a k x k x C x F kernel has fans k*k*C and k*k*F; a dense window is 1
        lim = init_gain * np.sqrt(6.0 / (math.prod(shape[:-2]) * (shape[-2] + shape[-1])))
        return rng.uniform(-lim, lim, size=shape).astype(np.float32)

    params = [{key: init(key, shape) for key, shape in shapes.items()}
              for shapes in param_shapes(input_side, layers, channels)]
    return CnnModel(input_side=input_side, channels=channels,
                    layers=list(layers), params=params, seed=seed)


def _as_batch(model: CnnModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    side, c = model.input_side, model.channels
    if x.shape[-1] != c:
        if c == 1 and x.shape[-2:] == (side, side):
            x = x[..., None]
        else:
            raise ShapeMismatchError(
                f"input shape {x.shape} does not match model input "
                f"{side}x{side}x{c}")
    if x.ndim == 3:
        x = x[None]
    if x.shape[1:] != (side, side, c):
        raise ShapeMismatchError(
            f"input shape {x.shape} does not match model input {side}x{side}x{c}")
    return x


def _forward_batch(model: CnnModel, xb: np.ndarray, keep_cache: bool = False):
    """Run the stack up to (not including) softmax; optionally keep caches."""
    a = xb
    caches = []
    for spec, p in zip(model.layers, model.params):
        if spec.kind == "conv":
            caches.append(("conv", a))
            a = _conv_batch(a, p["k"], p["b"])
        elif spec.kind == "sigmoid":
            a = sigmoid(a)
            caches.append(("sigmoid", a))
        elif spec.kind == "maxpool" and not keep_cache:
            a = _maxpool_values(a)
        elif spec.kind == "maxpool":
            out, mask = _maxpool_batch(a)
            caches.append(("maxpool", (a.shape, mask)))
            a = out
        elif spec.kind == "dense":
            flat = a.reshape(a.shape[0], -1)
            caches.append(("dense", (a.shape, flat)))
            a = _dense_batch(flat, p["w"], p["b"])
        elif spec.kind == "softmax":
            caches.append(("softmax", None))
    return (a, caches) if keep_cache else a


def _param_dtype(model: CnnModel):
    for p in model.params:
        for v in p.values():
            return v.dtype
    return np.dtype(np.float32)


def model_forward(model: CnnModel, x: np.ndarray) -> np.ndarray:
    """Full forward pass; returns the softmax probability vector."""
    return model.predict_proba(x)[0]


def _backward_batch(model: CnnModel, caches, dlogits: np.ndarray):
    """Mean-gradient backward pass; returns per-layer grad dicts."""
    grads: list[dict[str, np.ndarray]] = [dict() for _ in model.layers]
    d = dlogits
    for i in range(len(model.layers) - 1, -1, -1):
        spec, p = model.layers[i], model.params[i]
        kind, cache = caches[i]
        if kind == "softmax":
            continue
        if kind == "dense":
            in_shape, flat = cache
            f64 = np.float64
            grads[i]["w"] = (flat.astype(f64).T @ d.astype(f64)).astype(p["w"].dtype)
            grads[i]["b"] = d.sum(axis=0).astype(p["b"].dtype)
            d = (d.astype(f64) @ p["w"].astype(f64).T).astype(d.dtype).reshape(in_shape)
        elif kind == "sigmoid":
            d = d * sigmoid_derivative(cache)
        elif kind == "maxpool":
            in_shape, mask = cache
            d = _maxpool_backward(d, mask, in_shape)
        elif kind == "conv":
            k, _, c, f = p["k"].shape
            dk = _im2col(cache, k).T @ d.reshape(-1, f).astype(np.float64)
            grads[i]["k"] = dk.reshape(k, k, c, f).astype(p["k"].dtype)
            grads[i]["b"] = d.sum(axis=(0, 1, 2)).astype(p["b"].dtype)
            if i == 0:
                break          # the network input's gradient has no reader
            d = _conv_batch(np.pad(d, ((0, 0), (k - 1, k - 1), (k - 1, k - 1), (0, 0))),
                            p["k"][::-1, ::-1].transpose(0, 1, 3, 2), np.zeros(c, d.dtype))
    return grads


def _loss_and_grads(model: CnnModel, xb: np.ndarray, labels) -> tuple[float, list]:
    """Mean cross-entropy of a batch and its per-layer parameter gradients."""
    logits, caches = _forward_batch(model, xb, keep_cache=True)
    _, loss, dlogits = _cross_entropy_batch(logits, labels)
    return loss, _backward_batch(model, caches, dlogits)


def model_backward_and_step(model: CnnModel, inputs: np.ndarray,
                            labels: np.ndarray, learning_rate: float) -> float:
    """One SGD step on a batch; updates parameters in place, returns mean loss."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("batch must be nonempty")
    xb = _as_batch(model, inputs).astype(np.float32, copy=False)
    loss, grads = _loss_and_grads(model, xb, labels)
    for p, g in zip(model.params, grads):
        for key, grad in g.items():
            p[key] = (p[key].astype(np.float64)
                      - learning_rate * grad.astype(np.float64)).astype(p[key].dtype)
    return loss


def gradient_check(model: CnnModel, sample: tuple[np.ndarray, int],
                   epsilon: float) -> GradientReport:
    """Compare analytic gradients to central finite differences, parameter by parameter.

    Both come from the loss and backward pass that model_backward_and_step
    runs. The check works on a float64 copy of the model so the difference
    quotient is not drowned by float32 rounding.
    """
    if not 1e-5 <= epsilon <= 1e-2:
        raise ValueError(f"epsilon {epsilon} outside [1e-5, 1e-2]")
    x, label = sample
    m64 = replace(model, params=[{k: v.astype(np.float64) for k, v in p.items()}
                                 for p in model.params])
    xb = _as_batch(m64, np.asarray(x, dtype=np.float64))
    labels = [label]
    _, grads = _loss_and_grads(m64, xb, labels)

    worst_err, worst_idx, flat_idx = 0.0, 0, 0
    for p, g in zip(m64.params, grads):
        for key in sorted(p):
            flat, analytic = p[key].reshape(-1), g[key].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                lp = _cross_entropy_batch(_forward_batch(m64, xb), labels)[1]
                flat[i] = orig - epsilon
                lm = _cross_entropy_batch(_forward_batch(m64, xb), labels)[1]
                flat[i] = orig
                numeric = (lp - lm) / (2.0 * epsilon)
                a = float(analytic[i])
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                if err > worst_err:
                    worst_err, worst_idx = err, flat_idx
                flat_idx += 1
    return GradientReport(max_relative_error=worst_err, worst_parameter_index=worst_idx)
