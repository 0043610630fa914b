"""Linear max-margin classification of feature matrices.

One-vs-rest L2-regularized hinge loss, trained by deterministic epoch-based
stochastic subgradient descent with averaged iterates (Pegasos-style step
sizes plus the ball projection). Features arrive one column per pattern, the
orientation the encoders emit; they are standardized internally with
training statistics so the loss scale is comparable across datasets.
:func:`train_classifiers` trains one such classifier per feature set of one
training set side by side, each bit-identical to training it alone.
"""

from __future__ import annotations

import itertools
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
        if not 1 <= self.epochs <= 10_000:  # 200 times the default
            raise ValueError(f"epochs must be in [1, 10000], got {self.epochs}")


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


@dataclass(frozen=True)
class Standardized:
    """Training features as the classifier trains on them.

    ``x`` is the (p, F+1) design, C-ordered: each feature standardized with
    the training ``mean`` and ``scale``, one row per pattern, a bias column of
    ones appended. It depends on the feature values only, not on the memory
    order they arrive in.
    """

    x: np.ndarray
    mean: np.ndarray
    scale: np.ndarray


def standardize(features: np.ndarray) -> Standardized:
    """Standardize (F x p) training features into the classifier's design.

    A reduction's summation order follows the memory order, so the
    statistics are taken on an F-ordered copy of the features, whatever their
    layout; the copy is then centred and scaled in place.
    """
    z = np.array(features, dtype=float, order="F")
    if z.ndim != 2:
        raise ValueError(f"features must be 2-D, got ndim={z.ndim}")
    mean = z.mean(axis=1)
    std = z.std(axis=1)
    scale = np.where(std == 0.0, 1.0, std)
    z -= mean[:, None]
    z /= scale[:, None]
    x = np.empty((z.shape[1], z.shape[0] + 1))  # (p, F+1), bias appended
    x[:, :-1] = z.T
    x[:, -1] = 1.0
    return Standardized(x=x, mean=mean, scale=scale)


# The lockstep loop gathers the rows of this many steps at a time.
_CHUNK = 8


def _runs(keys: list) -> list[tuple[object, slice]]:
    """(key, index slice) of each run of equal consecutive keys."""
    runs, start = [], 0
    for key, run in itertools.groupby(keys):
        stop = start + sum(1 for _ in run)
        runs.append((key, slice(start, stop)))
        start = stop
    return runs


def _pegasos_rows(
    designs: list[np.ndarray],
    labels: np.ndarray,
    n_classes: int,
    params: ClassifierParams,
) -> np.ndarray:
    """Averaged Pegasos on every one-vs-rest problem of every design, in lockstep.

    ``designs`` are (p, F+1) matrices with one pattern count p, as in
    :class:`Standardized`; ``labels`` are their p class ids. The averaged
    weights of problem c of design j (+1 where the label is c, -1 elsewhere)
    are returned at ``[j, c]``, zero beyond the design's width. Every
    design's problem c draws its permutations from the stream
    ``SeededRng(params.seed).child(f"class{c}")``.

    Each row runs the per-problem loop's operations in the same order: its
    margin and norm are one BLAS dot each (``np.matmul`` of (M, 1, F+1) by
    (M, F+1, 1) calls ddot once per row, as ``w @ xi`` does on a C-ordered
    design), over its own width only and on the unit-stride rows gathered
    from its design; the hinge step touches only the rows that take it. So
    each row equals a separate run of the loop on its problem bit for bit,
    whatever else is in the batch:
    - Rows narrower than the widest are zero-padded, and the elementwise
      steps leave the padding zero.
    - The gathered rows are multiplied by their labels. Negation is exact and
      rounding symmetric, so ``w @ (y*x)`` equals ``y * (w @ x)`` and
      ``eta * (y*x)`` equals ``(eta*y) * x``.
    - The projection multiplies every row by ``radius / fmax(norm, radius)``:
      that is the loop's ``radius / norm`` where ``norm > radius``, and
      exactly 1.0 (an exact product) where it is not, a NaN norm included.
    """
    p = labels.shape[0]
    widths = [x.shape[1] for x in designs]
    m, width = len(designs) * n_classes, max(widths)
    negative = labels != np.arange(n_classes)[:, None]  # (C, p)
    gens = [SeededRng(params.seed).child(f"class{c}").generator() for c in range(n_classes)]

    w = np.zeros((m, width))
    w_sum = np.zeros((m, width))
    step = np.empty((m, width))
    # Design-major, so that each design's rows of a chunk are one block.
    rows = np.zeros((m, _CHUNK, width))
    by_design = rows.reshape(len(designs), n_classes, _CHUNK, width)
    dots = np.empty((m, 1, 1))
    norms = np.empty((m, 1, 1))
    shrink = np.empty((m, 1))
    hinge = np.empty((m, 1), dtype=bool)
    # Per run of designs with one width, the (rows, 1, F+1) and (rows, F+1, 1)
    # operands and the output of its problems' margin and norm dots.
    margin_dots: list[list[tuple]] = [[] for _ in range(_CHUNK)]
    norm_dots: list[tuple] = []
    for f, run in _runs(widths):
        span = slice(run.start * n_classes, run.stop * n_classes)
        for k in range(_CHUNK):
            margin_dots[k].append((w[span, None, :f], rows[span, k, :f, None], dots[span]))
        norm_dots.append((w[span, None, :f], w[span, :f, None], norms[span]))
    margins, norms2 = dots[:, :, 0], norms[:, :, 0]
    reg_lambda = params.reg_lambda
    radius = 1.0 / np.sqrt(reg_lambda)
    t = 0
    for _ in range(params.epochs):
        picks = np.stack([g.permutation(p) for g in gens])  # (C, p) patterns in visit order
        flips = np.take_along_axis(negative, picks, axis=1)[:, :, None]
        for start in range(0, p, _CHUNK):
            stop = min(start + _CHUNK, p)
            size = stop - start
            chunk = by_design[:, :, :size]
            for x, out in zip(designs, chunk):
                # mode="clip" lets take write into ``out`` directly; picks are in range.
                x.take(picks[:, start:stop], axis=0, mode="clip", out=out[:, :, :x.shape[1]])
            np.negative(chunk, out=chunk, where=flips[:, start:stop])
            for k in range(size):
                t += 1
                for a, b, out in margin_dots[k]:
                    np.matmul(a, b, out)  # margins y_i * (w @ x_i)
                np.less(margins, 1.0, hinge)
                w *= 1.0 - 1.0 / t
                if np.count_nonzero(hinge):
                    np.multiply(rows[:, k], 1.0 / (reg_lambda * t), step)
                    np.add(w, step, out=w, where=hinge)
                # np.linalg.norm computes sqrt(w.dot(w)) for a real 1-D vector.
                for a, b, out in norm_dots:
                    np.matmul(a, b, out)
                np.sqrt(norms2, norms2)
                np.fmax(norms2, radius, norms2)
                np.divide(radius, norms2, shrink)
                w *= shrink
                w_sum += w
    w_sum /= t
    return w_sum.reshape(len(designs), n_classes, width)


def train_classifiers(
    designs: list[Standardized], labels: np.ndarray, params: ClassifierParams
) -> list[LinearClassifier]:
    """Fit one classifier per :func:`standardize` design, all on one training set's labels.

    Every design holds the same p patterns, in the order of ``labels``, and
    trains with ``params`` as in :func:`train_classifier`. All their binary
    problems train in one lockstep pass, and each classifier equals the one
    its design trains alone, bit for bit.
    """
    labels = np.asarray(labels, dtype=int)
    for design in designs:
        p = design.x.shape[0]
        if labels.shape != (p,):
            raise ValueError(f"label count {labels.shape} != feature column count {p}")
    n_classes = int(labels.max()) + 1 if labels.size else 0
    if n_classes < 2 or len(np.unique(labels)) < 2:
        raise ValueError("classification needs at least 2 classes present")
    weights = _pegasos_rows([d.x for d in designs], labels, n_classes, params)
    return [
        LinearClassifier(weights=w[:, :d.x.shape[1]].copy(), mean=d.mean, scale=d.scale,
                         params=params)
        for d, w in zip(designs, weights)
    ]


def train_classifier(
    features: np.ndarray,
    labels: np.ndarray,
    params: ClassifierParams = ClassifierParams(),
) -> LinearClassifier:
    """Fit one-vs-rest hinge-loss hyperplanes on (F x p) features.

    Features are standardized with their training mean and deviation (see
    :func:`standardize`); class c trains a +/-1 problem on the stream
    ``SeededRng(params.seed).child(f"class{c}")``.
    """
    return train_classifiers([standardize(features)], labels, params)[0]


def evaluate(
    c: LinearClassifier, features: np.ndarray, labels: np.ndarray
) -> EvalResult:
    """Error rate (misclassified / total) and confusion matrix.

    ``labels`` must hold at least one class id, each in [0, n_classes).
    """
    labels = np.asarray(labels, dtype=int)
    predictions = c.predict(features)
    if labels.shape != predictions.shape:
        raise ValueError(f"label count {labels.shape} != pattern count {predictions.shape}")
    if not labels.size:
        raise ValueError("no patterns to evaluate")
    bad = labels[(labels < 0) | (labels >= c.n_classes)]
    if bad.size:
        raise ValueError(f"label {bad[0]} out of range for {c.n_classes}-class classifier")
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
