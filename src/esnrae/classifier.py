"""Linear max-margin classification of feature matrices.

One-vs-rest L2-regularized hinge loss, trained by deterministic epoch-based
stochastic subgradient descent with averaged iterates (Pegasos-style step
sizes plus the ball projection). Features arrive one column per pattern, the
orientation the encoders emit; they are standardized internally with
training statistics so the loss scale is comparable across datasets.
:func:`train_classifiers` trains many such classifiers side by side, each
bit-identical to training it alone.
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
    problems: list[tuple[int, np.ndarray, SeededRng]],
    reg_lambda: float,
    epochs: int,
) -> list[np.ndarray]:
    """Averaged Pegasos on many binary problems in lockstep, one row each.

    ``designs`` are (p, F+1) matrices with one pattern count p, as in
    :class:`Standardized`. Problem m is (index into ``designs``, +/-1 labels,
    stream); its averaged weights are returned at index m.

    Each row runs the per-problem loop's operations in the same order: it
    draws its own permutation per epoch; its margin and norm are one BLAS dot
    each (``np.matmul`` of (M, 1, F+1) by (M, F+1, 1) calls ddot once per row,
    as ``w @ xi`` does on a C-ordered design), over its own width only and on
    the unit-stride rows gathered from its design; the hinge step touches only
    the rows that take it. So each row equals a separate run of the loop on
    its problem bit for bit, whatever else is in the batch:
    - Rows narrower than the widest are zero-padded, and the elementwise
      steps leave the padding zero.
    - The gathered rows are multiplied by their labels. Negation is exact and
      rounding symmetric, so ``w @ (y*x)`` equals ``y * (w @ x)`` and
      ``eta * (y*x)`` equals ``(eta*y) * x``.
    - The projection multiplies every row by ``radius / fmax(norm, radius)``:
      that is the loop's ``radius / norm`` where ``norm > radius``, and
      exactly 1.0 (an exact product) where it is not, a NaN norm included.
    """
    p = designs[0].shape[0]
    # By width, then by design: a run of one width shares its dot calls, and
    # a design's problems are adjacent.
    widths = [x.shape[1] for x in designs]
    order = sorted(range(len(problems)), key=lambda i: (widths[problems[i][0]], problems[i][0]))
    problems = [problems[i] for i in order]
    m, width = len(problems), max(widths)
    negative = np.stack([y < 0 for _, y, _ in problems])
    gens = [rng.generator() for _, _, rng in problems]

    w = np.zeros((m, width))
    w_sum = np.zeros((m, width))
    step = np.empty((m, width))
    # Problem-major, so that each design's rows of a chunk are one block.
    rows = np.zeros((m, _CHUNK, width))
    dots = np.empty((m, 1, 1))
    norms = np.empty((m, 1, 1))
    shrink = np.empty((m, 1))
    hinge = np.empty((m, 1), dtype=bool)
    # Per design, the span of its problems' rows; per run of problems with
    # one width, the (rows, 1, F+1) and (rows, F+1, 1) operands and the
    # output of its margin and norm dots.
    gathers = [(designs[j], span) for j, span in _runs([j for j, _, _ in problems])]
    margin_dots: list[list[tuple]] = [[] for _ in range(_CHUNK)]
    norm_dots: list[tuple] = []
    for f, span in _runs([widths[j] for j, _, _ in problems]):
        for k in range(_CHUNK):
            margin_dots[k].append((w[span, None, :f], rows[span, k, :f, None], dots[span]))
        norm_dots.append((w[span, None, :f], w[span, :f, None], norms[span]))
    margins, norms2 = dots[:, :, 0], norms[:, :, 0]
    radius = 1.0 / np.sqrt(reg_lambda)
    t = 0
    for _ in range(epochs):
        picks = np.stack([g.permutation(p) for g in gens])  # (M, p) patterns in visit order
        flips = np.take_along_axis(negative, picks, axis=1)[:, :, None]
        for start in range(0, p, _CHUNK):
            stop = min(start + _CHUNK, p)
            size = stop - start
            chunk = rows[:, :size]
            for x, span in gathers:
                # mode="clip" lets take write into ``out`` directly; picks are in range.
                x.take(picks[span, start:stop], axis=0, mode="clip",
                       out=chunk[span, :, :x.shape[1]])
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
    result: list[np.ndarray] = [np.empty(0)] * m
    for i, (j, _, _), row in zip(order, problems, w_sum):
        result[i] = row[:widths[j]].copy()
    return result


def train_classifiers(
    jobs: list[tuple[np.ndarray | Standardized, np.ndarray, ClassifierParams]],
) -> list[LinearClassifier]:
    """Fit one classifier per (features, labels, params) job.

    ``features`` is an F x p matrix, one column per pattern, or its
    :func:`standardize` result; a caller that keeps only the latter holds one
    copy of each job's training data. Each job trains as in
    :func:`train_classifier`. The binary problems of all jobs with one
    pattern count, ``reg_lambda`` and ``epochs`` train in one lockstep pass,
    and each classifier equals the one its job trains alone, bit for bit.
    """
    prepared = []
    for features, labels, _ in jobs:
        design = features if isinstance(features, Standardized) else standardize(features)
        labels = np.asarray(labels, dtype=int)
        p = design.x.shape[0]
        if labels.shape != (p,):
            raise ValueError(f"label count {labels.shape} != feature column count {p}")
        n_classes = int(labels.max()) + 1 if labels.size else 0
        if n_classes < 2 or len(np.unique(labels)) < 2:
            raise ValueError("classification needs at least 2 classes present")
        prepared.append((design, labels, n_classes))

    groups: dict[tuple, list[int]] = {}
    for j, ((design, _, _), (_, _, params)) in enumerate(zip(prepared, jobs)):
        key = (design.x.shape[0], params.reg_lambda, params.epochs)
        groups.setdefault(key, []).append(j)
    weights: dict[int, np.ndarray] = {}
    for (_, reg_lambda, epochs), members in groups.items():
        problems = [
            (slot, np.where(prepared[j][1] == c, 1.0, -1.0),
             SeededRng(jobs[j][2].seed).child(f"class{c}"))
            for slot, j in enumerate(members)
            for c in range(prepared[j][2])
        ]
        designs = [prepared[j][0].x for j in members]
        rows = iter(_pegasos_rows(designs, problems, reg_lambda, epochs))
        for j in members:
            weights[j] = np.stack([next(rows) for _ in range(prepared[j][2])])
    return [
        LinearClassifier(weights=weights[j], mean=design.mean, scale=design.scale, params=params)
        for j, ((design, _, _), (_, _, params)) in enumerate(zip(prepared, jobs))
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
    return train_classifiers([(features, labels, params)])[0]


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
