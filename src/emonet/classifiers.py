"""The two emotion classifiers: a small CNN and a PCA+LDA Gaussian baseline.

The seven emotion labels live here with their fixed index order; both
classifiers emit probability vectors over that order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import nn

LABELS: tuple[str, ...] = (
    "angry", "disgust", "scared", "happy", "sad", "surprised", "neutral")

class EmptyClass(ValueError):
    pass


class ClassTooSmall(ValueError):
    pass


class DegenerateData(ValueError):
    pass


@dataclass(frozen=True)
class EmotionScores:
    """Probability 7-vector over the fixed label order."""
    probs: np.ndarray

    def __post_init__(self):
        if self.probs.shape != (len(LABELS),):
            raise ValueError(f"expected {len(LABELS)} probabilities, got {self.probs.shape}")

    @property
    def argmax(self) -> int:
        """Winning label index; ties break toward the lowest index."""
        return int(np.argmax(self.probs))

    @property
    def label(self) -> str:
        return LABELS[self.argmax]


@dataclass(frozen=True)
class EpochStats:
    """One epoch's figures from its own SGD batches, each scored by its
    step's forward pass before that step's update: the mean loss per
    sample (each batch's mean loss weighted by its size, so a partial last
    batch counts for its samples only), and the share of samples their
    batch got right."""
    epoch: int
    mean_loss: float
    train_accuracy: float


# ---------------------------------------------------------------------------
# CNN classifier
# ---------------------------------------------------------------------------

def cnn_predict(model: nn.CnnModel, roi: np.ndarray) -> EmotionScores:
    """Softmax scores for one ROI's pixels; deterministic for a fixed model."""
    return EmotionScores(probs=model.predict_proba(roi)[0])


def _batch_argmax(model, x: np.ndarray, chunk: int = 32) -> np.ndarray:
    """Winning label index per sample, scored chunk by chunk.

    A CNN scores one sample at a time whatever the chunk; chunking only
    bounds the float64 copy that LDA's predict_proba makes of its input.
    Samples are scored independently, so the chunk changes the speed, not
    the result. The function keeps its name: perfbench/tracing.py patches it.
    """
    return np.concatenate([np.argmax(model.predict_proba(x[start:start + chunk]), axis=1)
                           for start in range(0, len(x), chunk)])


def _require_every_label(y: np.ndarray) -> None:
    counts = np.bincount(y, minlength=len(LABELS))
    for i, name in enumerate(LABELS):
        if counts[i] == 0:
            raise EmptyClass(f"no samples for label {name!r}")


def cnn_train(x: np.ndarray, y: np.ndarray, epochs: int, lr: float = 0.1,
              seed: int = 0, batch_size: int = 32,
              layers: list[nn.LayerSpec] | None = None
              ) -> tuple[nn.CnnModel, list[EpochStats]]:
    """Train the emotion CNN with plain SGD; bit-deterministic per seed.

    x is (n, side, side) float32 in [0, 1]; y holds label indices. Every
    label class must be represented at least once. Each epoch's loss and
    accuracy come from its SGD steps, every batch scored before its
    update (EpochStats); evaluate gives the trained model's accuracy.
    """
    x = np.asarray(x, dtype=np.float32)
    y = np.asarray(y, dtype=np.int64)
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    _require_every_label(y)
    model = nn.build_model(input_side=x.shape[1],
                           layers=layers or nn.emotion_layer_stack(), seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    history: list[EpochStats] = []
    for epoch in range(epochs):
        order = rng.permutation(len(x))
        loss_sum, hits = 0.0, 0
        for start in range(0, len(x), batch_size):
            idx = order[start:start + batch_size]
            loss, batch_hits = nn.model_backward_and_step(model, x[idx], y[idx], lr)
            loss_sum += loss * len(idx)
            hits += batch_hits
        history.append(EpochStats(epoch=epoch, mean_loss=loss_sum / len(x),
                                  train_accuracy=hits / len(x)))
    return model, history


# ---------------------------------------------------------------------------
# PCA + LDA baseline
# ---------------------------------------------------------------------------

@dataclass
class LdaModel:
    """PCA projection plus shared-covariance Gaussian class model."""
    pca_mean: np.ndarray      # (p,)
    pca_basis: np.ndarray     # (p, d), orthonormal columns
    class_means: np.ndarray   # (K, d)
    covariance: np.ndarray    # (d, d), regularized SPD
    priors: np.ndarray        # (K,), sums to 1
    # lda_posterior's linear map (_discriminant); not part of the value
    _linear: tuple = field(default=(), init=False, repr=False, compare=False)

    @property
    def input_side(self) -> int:
        """Side of the square samples the model was fitted on."""
        return int(round(np.sqrt(len(self.pca_mean))))

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Posterior scores (n, K) for one flat or square sample or a batch of n."""
        x = np.asarray(x, dtype=np.float64)
        p = len(self.pca_mean)
        if x.shape[-1] != p and math.prod(x.shape[-2:]) != p:
            raise nn.ShapeMismatchError(
                f"input shape {x.shape} does not match model input of {p} values")
        return lda_posterior(self, (x.reshape(-1, p) - self.pca_mean) @ self.pca_basis)


def pca_fit(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and top-d orthonormal covariance eigenvectors, descending variance.

    Sign convention: the largest-magnitude component of each basis column
    is made positive, so the decomposition is fully deterministic.
    """
    x = np.asarray(x, dtype=np.float64)
    n, p = x.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not 1 <= d <= min(n - 1, p):
        raise ValueError(f"target dimension {d} outside [1, {min(n - 1, p)}]")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / (n - 1)
    if not np.any(cov):
        raise DegenerateData("data covariance is identically zero")
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1][:d]
    basis = eigvecs[:, order]
    flips = np.sign(basis[np.argmax(np.abs(basis), axis=0), np.arange(d)])
    flips[flips == 0] = 1.0
    return mean, basis * flips


def lda_fit(z: np.ndarray, y: np.ndarray, lam: float | None = None,
            n_classes: int | None = None
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class means, pooled within-class covariance (+lam*I) and priors.

    lam defaults to 1e-3 * trace(pooled)/d, enough to keep the shared
    covariance positive-definite on small samples.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = z.shape
    k = n_classes if n_classes is not None else int(y.max()) + 1
    means = np.zeros((k, d))
    priors = np.zeros(k)
    scatter = np.zeros((d, d))
    for c in range(k):
        zc = z[y == c]
        if len(zc) < 2:
            raise ClassTooSmall(f"class {c} has {len(zc)} samples, need >= 2")
        means[c] = zc.mean(axis=0)
        priors[c] = len(zc) / n
        centered = zc - means[c]
        scatter += centered.T @ centered
    cov = scatter / (n - k)
    if lam is None:
        lam = 1e-3 * np.trace(cov) / d
    if lam <= 0:
        raise ValueError("lambda must be positive")
    cov = cov + lam * np.eye(d)
    return means, cov, priors


def lda_train(x: np.ndarray, y: np.ndarray, d: int | None = None) -> LdaModel:
    """Fit the full PCA -> LDA stack on flat feature vectors; d defaults to
    4 dimensions per label, at most p and one fewer than the samples."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x.reshape(len(x), -1)
    y = np.asarray(y, dtype=np.int64)
    _require_every_label(y)
    if d is None:
        d = min(4 * len(LABELS), x.shape[1], len(x) - 1)
    mean, basis = pca_fit(x, d)
    z = (x - mean) @ basis
    class_means, cov, priors = lda_fit(z, y, n_classes=len(LABELS))
    return LdaModel(pca_mean=mean, pca_basis=basis, class_means=class_means,
                    covariance=cov, priors=priors)


def lda_posterior(model: LdaModel, z: np.ndarray) -> np.ndarray:
    """Bayes posterior over classes in the projected space, log-space stable.

    Pr(Y=k | z) = pi_k N(z; mu_k, Sigma) / sum_l pi_l N(z; mu_l, Sigma). The
    Gaussian's normalizing constant is shared, and so, with one covariance for
    every class, is the z^T Sigma^-1 z term of each exponent; both cancel.
    What is left is the linear discriminant
    delta_k(z) = z^T Sigma^-1 mu_k - mu_k^T Sigma^-1 mu_k / 2 + log pi_k,
    scored as z @ B + c with the model's _discriminant. z is one projected
    sample (d,) or a batch (..., d); the result is (..., K). The product is
    an einsum, not BLAS, so a batch row equals that sample scored alone.
    """
    b, c = _discriminant(model)
    log_post = np.einsum("...d,dk->...k", np.asarray(z, dtype=np.float64), b)
    log_post += c
    return nn.softmax(log_post)


def _discriminant(model: LdaModel) -> tuple[np.ndarray, np.ndarray]:
    """B = Sigma^-1 M^T (d, K) and c_k = log pi_k - mu_k^T Sigma^-1 mu_k / 2,
    computed at the model's first score and kept on it while its means,
    covariance and priors are the very arrays they came from, which are
    then read-only: an in-place edit raises ValueError, not stale scores."""
    arrays = (model.class_means, model.covariance, model.priors)
    if model._linear and all(map(operator.is_, arrays, model._linear[0])):
        return model._linear[1]
    b = np.linalg.solve(model.covariance, model.class_means.T)
    with np.errstate(divide="ignore"):
        c = np.log(model.priors) - 0.5 * np.einsum("kd,dk->k", model.class_means, b)
    for a in arrays:
        a.flags.writeable = False
    model._linear = (arrays, (b, c))
    return b, c


def lda_predict(model: LdaModel, x: np.ndarray) -> EmotionScores:
    """Posterior scores for one flat (or square) grayscale sample."""
    return EmotionScores(probs=model.predict_proba(x)[0])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(model, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Accuracy and K x K confusion matrix (rows true, columns predicted)."""
    y = np.asarray(y, dtype=np.int64)
    if len(y) == 0:
        raise ValueError("dataset must be nonempty")
    preds = _batch_argmax(model, np.asarray(x))
    k = len(LABELS)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (y, preds), 1)
    accuracy = float(np.trace(confusion)) / len(y)
    return accuracy, confusion
