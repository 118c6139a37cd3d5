"""Minimal dense-tensor neural network engine.

Forward/backward passes for valid-padding convolution, 2x2 max-pooling,
dense layers, sigmoid activations and a softmax/cross-entropy head, plus
plain SGD updates and a finite-difference gradient check that runs the
SGD step's own loss and backward path (_loss_and_grads).

A convolution is one matrix product over an im2col (Chellapilla, Puri and
Simard 2006): each output pixel's k x k x C input window becomes a row in
(i, j, c) order, the kernels' own memory order, so the rows multiply the
kernels reshaped to (k*k*C, F) with no transpose. A one-channel input's
windows are copied tap-major, one plane per kernel tap, and the rows are
the column-major transpose of that copy: its inner loop runs along an
output row rather than along one kernel row. The training forward keeps
each conv layer's rows, and the kernel gradient multiplies those rows by
the output gradient, reshaped straight back to (k, k, C, F), so a step
builds one im2col per conv layer. The input gradient is a full
correlation (Dumoulin and Visin, arXiv:1603.07285): the forward conv run
on the output gradient zero-padded by k-1, with the kernels flipped in
both spatial axes and C and F swapped. The first layer's input gradient
is the network input's, which nothing reads, so the backward pass stops
before it.

Max-pool and sigmoid are built from branch-free ufuncs (np.maximum,
comparisons, one division) rather than np.where or argmax, and the pool's
backward pass is one scatter through the flat index of each window's
winner. Inference builds no winner mask: it takes each window's max, and
finds the winner only when some max is a zero or NaN, whose bits may
differ from the winner's.

Each forward layer is a step bound to its input array (_conv_step,
_sigmoid_step, _pool_step, _dense_step): binding makes the output and
work arrays, the strided views and the float64 operands (the conv bias
tiled over an output row, so that it is added as one contiguous row), and
running it computes from the input's current values with out= ufuncs. The
training forward (_forward_batch) binds and runs each layer per call.
predict_proba runs every sample, one at a time, through the model's plan
(_inference_plan): steps bound to one sample, each to what the step
before writes, so a call allocates only its logits and softmax result,
and a sample scores the same bits alone and as a row of a batch. The plan
is kept on a float32 model, rebuilt once a parameter is no longer the
array it was built from, and holds about 0.3 MB for the default stack.

Arrays are float32 in the model path; intermediate accumulations run in
float64 and are rounded back, so results stay stable against naive
nested-loop reference implementations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeMismatchError(ValueError):
    """Raised when tensor shapes are inconsistent; message names both shapes."""


# ---------------------------------------------------------------------------
# elementwise activations
# ---------------------------------------------------------------------------

def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function 1 / (1 + exp(-x)), overflow-safe."""
    run, out = _sigmoid_step(np.asarray(x))
    run()
    return out


def _sigmoid_step(x: np.ndarray):
    """sigmoid bound to x: (run, out); run() writes sigmoid of x's current
    values into out."""
    dtype = np.result_type(x, np.float16)          # np.exp's result type for x
    num, z, nonneg = np.empty_like(x, dtype), np.empty_like(x, dtype), np.empty_like(x, bool)

    def run():
        # exp() only ever sees non-positive arguments: z = exp(-|x|), taken
        # as min(x, -x) so that a NaN keeps its sign bit. The result is
        # 1 / (1 + z) for x >= 0 and z / (1 + z) otherwise, so one division
        # serves both. The numerator max(z, x >= 0) is 1 where x >= 0 (there
        # z <= 1) and z elsewhere; unlike np.where it does not branch per element.
        np.exp(np.minimum(x, np.negative(x, out=z), out=z), out=z)
        np.maximum(z, np.greater_equal(x, 0, out=nonneg), out=num)
        np.divide(num, np.add(1.0, z, out=z), out=num)
    return run, num


def sigmoid_derivative(o: np.ndarray) -> np.ndarray:
    """Derivative of the logistic function expressed via its output: o * (1 - o)."""
    o = np.asarray(o)
    return o * (1.0 - o)


# ---------------------------------------------------------------------------
# layer forwards, each over a batch of n samples
# ---------------------------------------------------------------------------

def _conv_batch(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
                keep_rows: bool = False):
    """Valid cross-correlation of an n x H x W x C batch with k x k x C x F
    kernels: an n x (H-k+1) x (W-k+1) x F map, each cell the window's sum of
    products plus the filter's bias. With keep_rows, also the im2col rows it
    multiplied."""
    run, out, rows = _conv_step(x, kernels, bias)
    run()
    return (out, rows) if keep_rows else out


def _conv_step(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray):
    """_conv_batch bound to x: (run, out, rows); run() writes the map of x's
    current values into out and its im2col into rows."""
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
    ho, wo = h - k + 1, w - k + 1
    # float64 operands: the kernels as a (k*k*C, F) matrix, and the bias tiled
    # over an output row, so that it adds to a whole row with one contiguous
    # inner loop rather than a loop of F elements per pixel
    matrix = kernels.astype(np.float64, copy=False).reshape(-1, f)
    bias_row = np.tile(bias.astype(np.float64, copy=False), wo)
    windows = _windows(x, k)
    copy = np.empty(windows.shape)
    rows = _rows(copy)
    prod = np.empty((len(rows), f))
    by_row = prod.reshape(-1, bias_row.size)   # a view: one output row per line
    out = np.empty((n, ho, wo, f), np.result_type(x, kernels))
    by_pixel = prod.reshape(out.shape)

    def run():
        np.copyto(copy, windows)
        np.matmul(rows, matrix, out=prod)
        np.add(by_row, bias_row, out=by_row)
        np.copyto(out, by_pixel, casting="unsafe")
    return run, out, rows


def _windows(x: np.ndarray, k: int) -> np.ndarray:
    """Every k x k window of an n x H x W x C batch, as one read-only view in
    the layout of its im2col copy (_rows)."""
    n, h, w, c = x.shape
    sn, sh, sw, sc = x.strides
    ho, wo = h - k + 1, w - k + 1
    if c == 1:
        # one (n, ho, wo) plane per tap, copied with an inner loop of a whole
        # output row rather than of one kernel row
        return as_strided(x, (k, k, n, ho, wo), (sh, sw, sn, sh, sw), writeable=False)
    # the windows as one (n, ho, wo, k, k, c) view, the strides of
    # sliding_window_view transposed to (i, j, c), without its argument checks
    return as_strided(x, (n, ho, wo, k, k, c), (sn, sh, sw, sh, sw, sc), writeable=False)


def _rows(copy: np.ndarray) -> np.ndarray:
    """The im2col rows, (i, j, c) order, of a C-ordered copy of _windows. A
    tap-major copy is (k*k, n*ho*wo); its transpose is the same rows, in
    column-major order. A C-ordered copy of the 6-D view is the rows as they are."""
    if copy.ndim == 5:
        return copy.reshape(copy.shape[0] * copy.shape[1], -1).T
    return copy.reshape(-1, math.prod(copy.shape[3:]))


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """float64 rows of every k x k window of an n x H x W x C batch, (i, j, c) order."""
    # order="C" copies straight into the row layout; the default keeps the
    # view's strides, and reshape would then copy a second time
    return _rows(_windows(x, k).astype(np.float64, order="C"))


def _pool_views(x: np.ndarray) -> list[np.ndarray]:
    """The (n, he, we, C) view of each 2x2 window position, row-major; an odd
    trailing row or column is in none."""
    h, w = x.shape[1:3]
    if h < 2 or w < 2:
        raise ShapeMismatchError(f"maxpool needs H, W >= 2, got plane {h}x{w}")
    he, we = h // 2, w // 2
    return [x[:, i:2 * he:2, j:2 * we:2, :] for i in (0, 1) for j in (0, 1)]


def _window_max(views: list[np.ndarray], out=None) -> np.ndarray:
    """Elementwise max of the four window views, into out when given. Its
    bits are the winner's except where the max is a zero or NaN."""
    top = np.maximum(views[0], views[1], out=out)
    np.maximum(top, views[2], out=top)
    return np.maximum(top, views[3], out=top)


def _maxpool_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 non-overlapping max-pool of an n x H x W x C batch: (pooled, mask),
    where mask holds the row-major index (0..3) of each window's winner."""
    # one contiguous copy per window position: every step below is then a
    # ufunc over contiguous memory. np.where and boolean masks branch per
    # element and cost several times more on data this random.
    views = [np.ascontiguousarray(v) for v in _pool_views(x)]
    top = _window_max(views)
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


def _pool_step(x: np.ndarray):
    """The pooled map of _maxpool_batch without the winner mask, which only
    the backward pass reads, bound to x: (run, out); run() writes the pooled
    map of x's current values into out."""
    views = _pool_views(x)
    top = np.empty(views[0].shape, x.dtype)
    scratch = np.empty_like(top)

    def run():
        _window_max(views, top)
        # Equal values that are neither zero nor NaN have the same bits, so
        # the max is the winner's own value; a max of -0, +0 or NaN needs the
        # winner. A positive min rules both out in one pass (a NaN min fails
        # the test), as it does on every map a sigmoid feeds.
        if not (top.min(initial=np.inf) > 0
                or np.abs(top, out=scratch).min(initial=np.inf) > 0):
            np.copyto(top, _maxpool_batch(x)[0])
    return run, top


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


def _dense_batch(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map of an n x m batch: out[s, j] = sum_i x[s, i] W[i, j] + b[j]."""
    run, out = _dense_step(x, weights, bias)
    run()
    return out


def _dense_step(x: np.ndarray, weights: np.ndarray, bias: np.ndarray):
    """_dense_batch bound to x: (run, out); run() writes the map of x's
    current values into out."""
    if x.shape[1] != weights.shape[0]:
        raise ShapeMismatchError(
            f"dense input width {x.shape[1]} does not match weight rows {weights.shape[0]}")
    w64, b64 = weights.astype(np.float64, copy=False), bias.astype(np.float64, copy=False)
    x64 = np.empty(x.shape)
    prod = np.empty((len(x), weights.shape[1]))
    out = np.empty(prod.shape, np.result_type(x, weights))

    def run():
        np.copyto(x64, x)
        np.add(np.matmul(x64, w64, out=prod), b64, out=prod)
        np.copyto(out, prod, casting="unsafe")
    return run, out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max-subtraction, no overflow).

    Probabilities come back in float64 so they sum to 1 at tight tolerance
    regardless of the logit dtype.
    """
    p = np.array(logits, dtype=np.float64)    # the result; each step below is in place
    np.subtract(p, np.maximum.reduce(p, axis=-1, keepdims=True), out=p)
    np.exp(p, out=p)
    return np.divide(p, np.add.reduce(p, axis=-1, keepdims=True), out=p)


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

    # a kind's code in an EMN1 model file is its place here: append new kinds
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
    # the one-sample inference plan (_inference_plan); not part of the value
    _plan: tuple = field(default=(), init=False, repr=False, compare=False)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax scores (n, K) for one H x W (x C) sample or a batch of n.

        Each sample runs through the model's plan, whose arrays it
        overwrites: one model must not score from two threads at once."""
        xb = _as_batch(self, x)
        plan = _inference_plan(self)
        logits = np.empty((len(xb),) + plan.logits.shape, plan.logits.dtype)
        for i in range(len(xb)):
            plan.x[...] = xb[i]          # casts as astype does
            for run in plan.steps:
                run()
            logits[i] = plan.logits
        return softmax(logits)

    def param_arrays(self) -> list[np.ndarray]:
        """All parameter tensors in deterministic (layer, key) order."""
        out = []
        for p in self.params:
            for key in sorted(p):
                out.append(p[key])
        return out


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

# The most values one sample's input, layer output or conv im2col may hold: a
# float64 im2col is then at most 32 MiB a sample, 1 GiB in a 32-sample batch.
# A model file's u16 sizes could otherwise ask for tens of GiB at its first score.
MAX_SAMPLE_VALUES = 2**22


def param_shapes(input_side: int, layers: list[LayerSpec],
                 channels: int = 1) -> list[dict[str, tuple[int, ...]]]:
    """Shape-check the layer chain end to end; per layer, its parameter shapes.

    For an input_side x input_side x channels input, a conv layer owns
    {"k": (k, k, C, F), "b": (F,)}, a dense layer {"w": (n_in, width),
    "b": (width,)}, any other layer nothing. build_model fills this walk and
    model_io.load_model checks stored tensors against it. Raises
    ShapeMismatchError at the first layer that does not fit its input, and
    when the input, an output or an im2col exceeds MAX_SAMPLE_VALUES.
    """
    if input_side < 1 or channels < 1:
        raise ShapeMismatchError(f"input {input_side}x{input_side}x{channels} is empty")
    shape: tuple = (input_side, input_side, channels)
    largest = math.prod(shape)
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
            largest = max(largest, shape[0] * shape[1] * max(k * k * c, f))   # im2col, output
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
            largest = max(largest, spec.width)
        else:
            if spec.kind == "softmax" and i != len(layers) - 1:
                raise ShapeMismatchError("softmax must be the final layer")
            out.append({})
    if largest > MAX_SAMPLE_VALUES:
        raise ShapeMismatchError(f"a sample's largest array would hold {largest} values, "
                                 f"above {MAX_SAMPLE_VALUES}")
    return out


def build_model(input_side: int, layers: list[LayerSpec], seed: int,
                channels: int = 1) -> CnnModel:
    """Shape-check the layer chain end to end and initialize parameters.

    Weights are gain-scaled Glorot-uniform (+-INIT_GAIN*sqrt(6/(fan_in+fan_out)))
    from a seeded PRNG; biases start at zero.
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    def init(key: str, shape: tuple[int, ...]) -> np.ndarray:
        if key == "b":
            return np.zeros(shape, dtype=np.float32)
        # a k x k x C x F kernel has fans k*k*C and k*k*F; a dense window is 1
        lim = INIT_GAIN * np.sqrt(6.0 / (math.prod(shape[:-2]) * (shape[-2] + shape[-1])))
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


def _forward_batch(model: CnnModel, xb: np.ndarray):
    """The training forward: the stack's logits (softmax not applied) and
    each layer's cache for _backward_batch."""
    a = xb
    caches = []
    for spec, p in zip(model.layers, model.params):
        if spec.kind == "conv":
            a, rows = _conv_batch(a, p["k"], p["b"], keep_rows=True)
            caches.append(("conv", rows))
        elif spec.kind == "sigmoid":
            a = sigmoid(a)
            caches.append(("sigmoid", a))
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
    return a, caches


class _Plan(NamedTuple):
    """Layer steps bound once to a batch of one: each sample is copied into
    x, the steps run, each reading what the one before wrote, and logits is
    read."""
    arrays: list            # every parameter array, layer by layer
    x: np.ndarray           # (side, side, C) in the parameters' dtype
    steps: list
    logits: np.ndarray      # the sample's, without the batch axis


def _inference_plan(model: CnnModel) -> _Plan:
    """The model's plan over one sample in its parameters' dtype. It is kept
    on a float32 model while every parameter is the very array it was built
    from: an SGD step assigns new arrays, so a stale plan never runs. Other
    models get a plan bound per call, since a binding copies what it casts
    or tiles and a float64 copy's parameters may be edited in place."""
    arrays = [v for p in model.params for v in p.values()]
    plan = model._plan
    if plan and len(plan.arrays) == len(arrays) and all(map(operator.is_, arrays, plan.arrays)):
        return plan
    dtype = arrays[0].dtype if arrays else np.dtype(np.float32)
    x = a = np.empty((1, model.input_side, model.input_side, model.channels), dtype)
    steps = []
    for spec, p in zip(model.layers, model.params):
        if spec.kind == "conv":
            run, a, _ = _conv_step(a, p["k"], p["b"])
        elif spec.kind == "sigmoid":
            run, a = _sigmoid_step(a)
        elif spec.kind == "maxpool":
            run, a = _pool_step(a)
        elif spec.kind == "dense":
            run, a = _dense_step(a.reshape(1, -1), p["w"], p["b"])
        else:
            continue
        steps.append(run)
    plan = _Plan(arrays, x[0], steps, a[0])
    if all(v.dtype == np.float32 for v in arrays):
        model._plan = plan
    return plan


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
            dk = cache.T @ d.reshape(-1, f).astype(np.float64)
            grads[i]["k"] = dk.reshape(k, k, c, f).astype(p["k"].dtype)
            grads[i]["b"] = d.sum(axis=(0, 1, 2)).astype(p["b"].dtype)
            if i == 0:
                break          # the network input's gradient has no reader
            d = _conv_batch(np.pad(d, ((0, 0), (k - 1, k - 1), (k - 1, k - 1), (0, 0))),
                            p["k"][::-1, ::-1].transpose(0, 1, 3, 2), np.zeros(c, d.dtype))
    return grads


def _loss_and_grads(model: CnnModel, xb: np.ndarray, labels) -> tuple[float, int, list]:
    """Mean cross-entropy of a batch, its hit count (argmax ties go to the
    lowest index) and its per-layer parameter gradients."""
    logits, caches = _forward_batch(model, xb)
    p, loss, dlogits = _cross_entropy_batch(logits, labels)
    hits = int(np.count_nonzero(np.argmax(p, axis=1) == labels))
    return loss, hits, _backward_batch(model, caches, dlogits)


def model_backward_and_step(model: CnnModel, inputs: np.ndarray,
                            labels: np.ndarray, learning_rate: float) -> tuple[float, int]:
    """One SGD step on a batch; updates parameters in place. Returns the
    batch's mean loss and hit count (samples whose label the softmax ranks
    first), both from this step's forward pass, before the update."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("batch must be nonempty")
    xb = _as_batch(model, inputs).astype(np.float32, copy=False)
    loss, hits, grads = _loss_and_grads(model, xb, labels)
    for p, g in zip(model.params, grads):
        for key, grad in g.items():
            p[key] = (p[key].astype(np.float64)
                      - learning_rate * grad.astype(np.float64)).astype(p[key].dtype)
    return loss, hits


def gradient_check(model: CnnModel, sample: tuple[np.ndarray, int],
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
    xb = _as_batch(m64, np.asarray(x, dtype=np.float64))
    labels = [label]
    _, _, grads = _loss_and_grads(m64, xb, labels)

    worst = 0.0
    for p, g in zip(m64.params, grads):
        for key in sorted(p):
            flat, analytic = p[key].reshape(-1), g[key].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                lp = _cross_entropy_batch(_forward_batch(m64, xb)[0], labels)[1]
                flat[i] = orig - epsilon
                lm = _cross_entropy_batch(_forward_batch(m64, xb)[0], labels)[1]
                flat[i] = orig
                numeric = (lp - lm) / (2.0 * epsilon)
                a = float(analytic[i])
                worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst
