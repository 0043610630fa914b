"""Linear max-margin classification of feature matrices.

One-vs-rest L2-regularized hinge loss, trained by deterministic epoch-based
stochastic subgradient descent with averaged iterates (Pegasos-style step
sizes plus the ball projection). Features arrive one column per pattern, the
orientation the encoders emit; they are standardized internally with
training statistics so the loss scale is comparable across datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SeededRng


@dataclass(frozen=True)
class ClassifierParams:
    reg_lambda: float = 1e-4
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.reg_lambda <= 0:
            raise ValueError(f"reg_lambda must be positive, got {self.reg_lambda}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True)
class LinearClassifier:
    """One hyperplane per class; prediction is the argmax of class scores.

    ``weights`` is C x (F+1) with the bias in the last column. ``mean`` and
    ``scale`` are the training-set standardization applied before scoring.
    """

    weights: np.ndarray
    mean: np.ndarray
    scale: np.ndarray
    params: ClassifierParams

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Class scores, one row per class, one column per pattern."""
        features = np.asarray(features, dtype=float)
        if features.shape[0] != self.mean.shape[0]:
            raise ValueError(
                f"feature dim {features.shape[0]} != trained dim {self.mean.shape[0]}"
            )
        z = (features - self.mean[:, None]) / self.scale[:, None]
        return self.weights[:, :-1] @ z + self.weights[:, -1:]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class ids; ties break to the lowest class id."""
        return np.argmax(self.scores(features), axis=0)


@dataclass(frozen=True)
class EvalResult:
    """Classification outcome on one feature/label set."""

    error_rate: float
    misclassified: int
    total: int
    confusion: np.ndarray  # rows = truth, cols = prediction

    @property
    def accuracy(self) -> float:
        return 1.0 - self.error_rate


def _pegasos(x: np.ndarray, y: np.ndarray, params: ClassifierParams, rng: SeededRng) -> np.ndarray:
    """Averaged Pegasos on one binary problem; x is (p, F+1), y is +/-1."""
    lam = params.reg_lambda
    p = x.shape[0]
    w = np.zeros(x.shape[1])
    w_sum = np.zeros(x.shape[1])
    radius = 1.0 / np.sqrt(lam)
    rows = list(x)
    signs = y.tolist()
    g = rng.generator()
    t = 0
    for _ in range(params.epochs):
        for i in g.permutation(p).tolist():
            xi, yi = rows[i], signs[i]
            t += 1
            eta = 1.0 / (lam * t)
            margin = yi * (w @ xi)
            w *= 1.0 - 1.0 / t
            if margin < 1.0:
                w += eta * yi * xi
            # np.linalg.norm computes sqrt(w.dot(w)) for a real 1-D vector.
            norm = math.sqrt(w.dot(w))
            if norm > radius:
                w *= radius / norm
            w_sum += w
    return w_sum / t


def train_classifier(
    features: np.ndarray,
    labels: np.ndarray,
    params: ClassifierParams = ClassifierParams(),
) -> LinearClassifier:
    """Fit one-vs-rest hinge-loss hyperplanes on (F x p) features."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got ndim={features.ndim}")
    if labels.shape != (features.shape[1],):
        raise ValueError(
            f"label count {labels.shape} != feature column count {features.shape[1]}"
        )
    n_classes = int(labels.max()) + 1 if labels.size else 0
    if n_classes < 2 or len(np.unique(labels)) < 2:
        raise ValueError("classification needs at least 2 classes present")

    mean = features.mean(axis=1)
    std = features.std(axis=1)
    scale = np.where(std == 0.0, 1.0, std)
    z = (features - mean[:, None]) / scale[:, None]
    x = np.hstack([z.T, np.ones((z.shape[1], 1))])  # (p, F+1), bias appended

    rng = SeededRng(params.seed)
    weights = np.stack(
        [
            _pegasos(x, np.where(labels == c, 1.0, -1.0), params, rng.child(f"class{c}"))
            for c in range(n_classes)
        ]
    )
    return LinearClassifier(weights=weights, mean=mean, scale=scale, params=params)


def evaluate(
    c: LinearClassifier, features: np.ndarray, labels: np.ndarray
) -> EvalResult:
    """Error rate (misclassified / total) and confusion matrix."""
    labels = np.asarray(labels, dtype=int)
    predictions = c.predict(features)
    if labels.shape != predictions.shape:
        raise ValueError(f"label count {labels.shape} != pattern count {predictions.shape}")
    if labels.size and labels.max() >= c.n_classes:
        raise ValueError(
            f"label {labels.max()} out of range for {c.n_classes}-class classifier"
        )
    total = labels.shape[0]
    confusion = np.zeros((c.n_classes, c.n_classes), dtype=int)
    for truth, pred in zip(labels, predictions):
        confusion[truth, pred] += 1
    misclassified = int(total - np.trace(confusion))
    return EvalResult(
        error_rate=misclassified / total,
        misclassified=misclassified,
        total=total,
        confusion=confusion,
    )
