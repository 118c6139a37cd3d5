"""Binary model persistence (magic "EMN1").

Layout, all little-endian:
    magic     4 bytes  b"EMN1"
    version   u16      currently 1
    kind      u8       0 = cnn, 1 = lda
    seed      u64
    kind-specific header (cnn: input side u16, channels u8, layer table;
                         a layer's code u8 is its kind's place in
                         nn.LayerSpec.KINDS)
    tensor table: count u16, then per tensor rank u8, extents u32 each,
                  raw float32 values

save -> load -> save is byte-identical; the loader validates magic and
version before touching any parameters. LDA parameters are quantized to
float32 on save (in-memory fits keep float64 for oracle-grade precision).
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .classifiers import LABELS, LdaModel
from .nn import CnnModel, LayerSpec, ShapeMismatchError, param_shapes

MAGIC = b"EMN1"
VERSION = 1

_KIND_CNN = 0
_KIND_LDA = 1

_MAX_RANK = 4          # the widest tensor a model holds is a conv kernel


class ModelFileError(ValueError):
    pass


class BadMagic(ModelFileError):
    pass


class VersionUnsupported(ModelFileError):
    pass


class TruncatedPayload(ModelFileError):
    pass


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedPayload(
                f"wanted {n} bytes at offset {self.pos}, have {len(self.data) - self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))


def _pack_tensors(arrays: list[np.ndarray]) -> bytes:
    out = [struct.pack("<H", len(arrays))]
    for arr in arrays:
        a = np.ascontiguousarray(arr, dtype=np.float32)
        out.append(struct.pack("<B", a.ndim))
        out.append(struct.pack(f"<{a.ndim}I", *a.shape))
        out.append(a.tobytes())
    return b"".join(out)


def _unpack_tensors(r: _Reader) -> list[np.ndarray]:
    (count,) = r.unpack("H")
    arrays = []
    for _ in range(count):
        (rank,) = r.unpack("B")
        if rank > _MAX_RANK:
            raise ModelFileError(f"tensor rank {rank} exceeds {_MAX_RANK}")
        shape = r.unpack(f"{rank}I")
        # math.prod: Python ints cannot overflow into a negative byte count
        raw = r.take(4 * math.prod(shape))
        arr = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        if not np.all(np.isfinite(arr)):
            raise ModelFileError(f"tensor of shape {shape} holds non-finite values")
        arrays.append(arr)
    if r.pos != len(r.data):
        raise ModelFileError(f"{len(r.data) - r.pos} bytes trail the tensor table")
    return arrays


def save_model(model: CnnModel | LdaModel) -> bytes:
    """Serialize a model to EMN1 bytes."""
    if isinstance(model, CnnModel):
        head = struct.pack("<4sHBQ", MAGIC, VERSION, _KIND_CNN, model.seed)
        head += struct.pack("<HBB", model.input_side, model.channels, len(model.layers))
        for spec in model.layers:
            head += struct.pack("<BHHH", LayerSpec.KINDS.index(spec.kind),
                                spec.kernel_size, spec.filters, spec.width)
        return head + _pack_tensors(model.param_arrays())
    if isinstance(model, LdaModel):
        head = struct.pack("<4sHBQ", MAGIC, VERSION, _KIND_LDA, 0)
        tensors = [model.pca_mean, model.pca_basis, model.class_means,
                   model.covariance, model.priors]
        return head + _pack_tensors(tensors)
    raise TypeError(f"cannot serialize {type(model).__name__}")


def load_model(data: bytes) -> CnnModel | LdaModel:
    """Parse EMN1 bytes back into a model; rejects bad magic/version first.

    The layer table must pass nn.param_shapes and end in a dense layer of
    one unit per label (activations may follow), and take one input
    channel, as every ROI has. The tensors must have the
    shapes it gives, hold only finite values and end the data. An LDA
    model's p input values must be a square image, and its covariance must
    equal its transpose and pass a Cholesky factorization
    (which reads only its lower triangle). Any failure is a ModelFileError,
    raised here rather than at the first prediction.
    """
    r = _Reader(data)
    magic, version, kind, seed = r.unpack("4sHBQ")
    if magic != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {magic!r}")
    if version != VERSION:
        raise VersionUnsupported(f"format version {version} unsupported")
    if kind == _KIND_CNN:
        input_side, channels, n_layers = r.unpack("HBB")
        if channels != 1:
            raise ModelFileError(f"CNN takes {channels} input channels; an ROI has 1")
        layers = []
        for _ in range(n_layers):
            code, k, f, w = r.unpack("BHHH")
            if code >= len(LayerSpec.KINDS):
                raise ModelFileError(f"unknown layer code {code}")
            layers.append(LayerSpec(LayerSpec.KINDS[code], kernel_size=k,
                                    filters=f, width=w))
        try:
            walk = param_shapes(input_side, layers, channels)
        except ShapeMismatchError as exc:
            raise ModelFileError(f"layer table: {exc}") from exc
        shaped = [spec for spec in layers if spec.kind in ("conv", "maxpool", "dense")]
        if not shaped or (shaped[-1].kind, shaped[-1].width) != ("dense", len(LABELS)):
            raise ModelFileError(f"layer table must end in a dense layer of width {len(LABELS)}")
        arrays = _unpack_tensors(r)
        want = [shapes[key] for shapes in walk for key in sorted(shapes)]   # param_arrays order
        if [a.shape for a in arrays] != want:
            raise ModelFileError(f"tensor shapes {[a.shape for a in arrays]} do not match "
                                 f"the layer table's {want}")
        tensors = iter(arrays)
        return CnnModel(input_side=input_side, channels=channels, layers=layers,
                        params=[{key: next(tensors) for key in sorted(shapes)} for shapes in walk],
                        seed=seed)
    if kind == _KIND_LDA:
        arrays = _unpack_tensors(r)
        got = [a.shape for a in arrays]
        p, d = got[1] if len(got) == 5 and len(got[1]) == 2 else (0, 0)   # 0 fails below
        k = len(LABELS)
        if p < 1 or d < 1 or got != [(p,), (p, d), (k, d), (d, d), (k,)]:
            raise ModelFileError(f"LDA tensor shapes {got}, expected (p,), (p, d), "
                                 f"({k}, d), (d, d), ({k},)")
        if math.isqrt(p) ** 2 != p:
            raise ModelFileError(f"LDA input of {p} values is not a square image")
        mean, basis, class_means, cov, priors = (a.astype(np.float64) for a in arrays)
        if np.any(priors < 0) or abs(priors.sum() - 1.0) > 1e-5:
            raise ModelFileError(f"LDA priors {priors} are not a probability vector")
        if not np.array_equal(cov, cov.T):
            raise ModelFileError("LDA covariance is not symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ModelFileError(f"LDA covariance is not positive-definite: {exc}") from exc
        return LdaModel(pca_mean=mean, pca_basis=basis, class_means=class_means,
                        covariance=cov, priors=priors)
    raise ModelFileError(f"unknown model kind {kind}")


def save_model_file(model, path: str) -> None:
    """Atomic write: temp file in the same directory, then rename; removed on failure."""
    data = save_model(model)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_model_file(path: str):
    with open(path, "rb") as fh:
        return load_model(fh.read())
