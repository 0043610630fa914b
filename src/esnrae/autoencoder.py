"""Reservoir autoencoders trained by pseudo-inverse readout regression.

Four variants share one training scheme:

* ``esn-rae``     single recurrent reservoir
* ``ml-esn-rae``  stacked recurrent reservoirs (all layers driven at once)
* ``elm-ae``      single feed-forward random layer
* ``ml-elm-ae``   stacked feed-forward random layers

Training sets the targets equal to the inputs, solves the readout in closed
form, picks a candidate network by its reconstruction error under a tie
rule (see :func:`fit`), ties the input weights to the transpose of that
readout, recomputes every layer's states under the new input map, and refits
the readout so the stored reconstruction error describes the final encoder.
The extracted features are the last layer's recomputed states.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace
from typing import BinaryIO, Callable, TypeVar

import numpy as np

from .data import Dataset
from .errors import FormatError, NumericalError, TrainingError
from .linalg import SeededRng, pinv
from .reservoir import (
    EsnWeights,
    ReservoirConfig,
    StateTrace,
    _read_block,
    _read_exact,
    _write_block,
    init_weights,
    load_weights,
    run_collect,
    save_weights,
)

T = TypeVar("T")

KINDS = ("esn-rae", "ml-esn-rae", "elm-ae", "ml-elm-ae")


def is_recurrent(kind: str) -> bool:
    return kind in ("esn-rae", "ml-esn-rae")


def is_multilayer(kind: str) -> bool:
    return kind in ("ml-esn-rae", "ml-elm-ae")


@dataclass(frozen=True)
class RaeTrainSpec:
    """Everything needed to train one autoencoder reproducibly."""

    cfg: ReservoirConfig
    n_candidates: int = 10
    seed: int = 0
    reset_policy: str = "carry"
    pinv_tolerance: float | None = None

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ValueError(f"n_candidates must be >= 1, got {self.n_candidates}")
        if self.reset_policy not in ("carry", "reset"):
            raise ValueError(f"reset_policy must be carry|reset, got {self.reset_policy!r}")
        if self.pinv_tolerance is not None and not self.pinv_tolerance >= 0:
            raise ValueError(f"pinv_tolerance must be >= 0, got {self.pinv_tolerance}")


@dataclass(frozen=True)
class TrainedAutoencoder:
    """A fitted encoder: tied weights, readouts, and train features.

    ``w_out`` is the winning candidate's readout, the matrix whose transpose
    was copied into the input weights (so ``weights.w_in[:, 1:] == w_out.T``
    entry-exact). ``w_out_refit`` is the readout refit on the recomputed
    states; ``reconstruction_error`` pairs with it and describes the final
    network, while ``pre_tying_error`` is the winning selection score.
    ``candidate_errors`` holds the errors of the candidates scored, in index
    order; selection can decide before all ``spec.n_candidates`` are drawn.
    """

    kind: str
    weights: EsnWeights
    w_out: np.ndarray
    w_out_refit: np.ndarray
    reconstruction_error: float
    pre_tying_error: float
    candidate_errors: tuple[float, ...]
    chosen_candidate: int
    features_train: np.ndarray
    spec: RaeTrainSpec


def train_readout(
    h: StateTrace | np.ndarray,
    targets: np.ndarray,
    tolerance: float | None = None,
) -> np.ndarray:
    """Closed-form least-squares readout: returns W_out with y(n) = W_out x(n).

    ``h`` holds one state column per pattern (N x p); ``targets`` one pattern
    per row (p x K) - for autoencoding, the input patterns themselves. Solved
    as W_out = (pinv(H^T) U)^T, which is the least-norm exact interpolation
    when there are fewer patterns than hidden units. ``tolerance`` is the
    relative singular-value cutoff of the pseudo-inverse.
    """
    hm = h.h if isinstance(h, StateTrace) else np.asarray(h, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if hm.ndim != 2:
        raise ValueError(f"state matrix must be 2-D, got ndim={hm.ndim}")
    if targets.ndim != 2 or targets.shape[0] != hm.shape[1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match {hm.shape[1]} patterns"
        )
    if not np.any(hm):
        raise NumericalError("state matrix is identically zero; readout is undefined")
    return (pinv(hm.T, tolerance) @ targets).T


def reconstruction_error(
    w_out: np.ndarray, h: StateTrace | np.ndarray, targets: np.ndarray
) -> float:
    """Frobenius norm of the reconstruction residual, per pattern."""
    hm = h.h if isinstance(h, StateTrace) else np.asarray(h, dtype=float)
    targets = np.asarray(targets, dtype=float)
    p = hm.shape[1]
    if targets.shape[0] != p or w_out.shape != (targets.shape[1], hm.shape[0]):
        raise ValueError(
            f"inconsistent shapes: w_out {w_out.shape}, states {hm.shape}, "
            f"targets {targets.shape}"
        )
    return float(np.linalg.norm(w_out @ hm - targets.T, "fro") / p)


def _validate_kind(kind: str, cfg: ReservoirConfig) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown autoencoder kind {kind!r}; expected one of {KINDS}")
    if is_multilayer(kind) and cfg.n_layers < 2:
        raise ValueError(f"{kind} needs n_layers >= 2, got {cfg.n_layers}")
    if not is_multilayer(kind) and cfg.n_layers != 1:
        raise ValueError(f"{kind} needs n_layers == 1, got {cfg.n_layers}")


def _tie_input_weights(weights: EsnWeights, w_out: np.ndarray) -> EsnWeights:
    """Copy the readout transpose into the input columns (bias kept)."""
    n, k = weights.n_hidden, weights.input_dim
    if w_out.shape != (k, n):
        raise ValueError(
            f"readout shape {w_out.shape} cannot be tied into input map "
            f"({n} hidden, {k} inputs); layer sizes must all equal {n}"
        )
    w_in = weights.w_in.copy()
    w_in[:, 1:] = w_out.T
    return replace(weights, w_in=w_in)


# Candidates whose errors differ by less than RTOL times the error of the
# all-zero readout (||U||_F / p) are tied. With fewer patterns than hidden
# units every readout interpolates and the errors are round-off, about 1e-15
# of that scale; the tolerance sits six orders of magnitude above it.
RTOL = 1e-9


def _select(
    score: Callable[[int], tuple[float, T]], n_candidates: int, tol: float
) -> tuple[int, T, list[float]]:
    """Choose among candidates 0, 1, ... scored lazily in index order.

    The rule: the chosen candidate is the lowest index whose error is within
    ``tol`` of the minimum. ``score(c)`` returns candidate c's error and a
    payload, or raises NumericalError for a degenerate candidate (error inf).
    Scoring stops after candidate c once ``err_c <= tol`` and every earlier
    error is above ``err_c + tol``: errors are >= 0, so c is then within
    ``tol`` of any minimum and no earlier candidate can be, whatever the
    unscored candidates would give. Only the payloads of candidates within
    ``tol`` of the running minimum are kept; the minimum only falls, so a
    dropped payload never becomes the choice again.

    Returns the chosen index, its payload and the errors of the candidates
    scored, in index order. Raises TrainingError when all are degenerate.
    """
    errors: list[float] = []
    tied: dict[int, T] = {}
    for c in range(n_candidates):
        try:
            err, payload = score(c)
        except NumericalError:
            errors.append(math.inf)
            continue
        errors.append(err)
        floor = min(errors) + tol
        tied = {i: kept for i, kept in tied.items() if errors[i] <= floor}
        if err <= floor:
            tied[c] = payload
        if err <= tol and all(e > err + tol for e in errors[:-1]):
            break
    if not tied:
        raise TrainingError(f"all {n_candidates} candidate networks were degenerate")
    best = min(tied)
    return best, tied[best], errors


def fit(d_train: Dataset, spec: RaeTrainSpec, kind: str) -> TrainedAutoencoder:
    """Train one autoencoder of the given kind on a training set.

    Draws candidate networks in index order and scores each by its readout
    reconstruction error, until :func:`_select`'s rule has decided: the
    lowest index within ``RTOL * ||U||_F / p`` of the minimum error wins. With
    fewer patterns than hidden units the readout interpolates, so the first
    non-degenerate candidate is chosen and no other is drawn; otherwise all
    ``n_candidates`` are scored. Then ties the input weights to the winner's
    readout transpose, recomputes all layer states in one pass, and refits the
    readout on the recomputed states. ``candidate_errors`` holds the errors of
    the candidates scored.
    """
    _validate_kind(kind, spec.cfg)
    if spec.cfg.input_dim != d_train.input_len:
        raise ValueError(
            f"config input_dim {spec.cfg.input_dim} != dataset length "
            f"{d_train.input_len}"
        )
    targets = d_train.patterns  # outputs are set equal to the inputs
    base = SeededRng(spec.seed)
    recurrent = is_recurrent(kind)

    def score(c: int) -> tuple[float, tuple[EsnWeights, np.ndarray]]:
        wts = init_weights(spec.cfg, base.child(f"cand{c}"), recurrent=recurrent)
        trace = run_collect(wts, targets, spec.reset_policy)
        w_out = train_readout(trace, targets, spec.pinv_tolerance)
        return reconstruction_error(w_out, trace, targets), (wts, w_out)

    tol = RTOL * float(np.linalg.norm(targets, "fro")) / targets.shape[0]
    best, (wts, w_out), errors = _select(score, spec.n_candidates, tol)

    tied = _tie_input_weights(wts, w_out)
    trace = run_collect(tied, targets, spec.reset_policy)
    w_out_refit = train_readout(trace, targets, spec.pinv_tolerance)
    final_err = reconstruction_error(w_out_refit, trace, targets)

    return TrainedAutoencoder(
        kind=kind,
        weights=tied,
        w_out=w_out,
        w_out_refit=w_out_refit,
        reconstruction_error=final_err,
        pre_tying_error=errors[best],
        candidate_errors=tuple(errors),
        chosen_candidate=best,
        features_train=trace.h.copy(),
        spec=spec,
    )


def encode(t: TrainedAutoencoder, d: Dataset) -> np.ndarray:
    """New representation of a dataset: last-layer states, one column per pattern."""
    if d.input_len != t.weights.input_dim:
        raise ValueError(
            f"dataset length {d.input_len} != encoder input dim {t.weights.input_dim}"
        )
    return run_collect(t.weights, d.patterns, t.spec.reset_policy).h


# ---------------------------------------------------------------------------
# Trained-encoder envelope: a JSON metadata header followed by the binary
# weight container, the two readout blocks, and the train-feature block.
#
# Layout (little-endian):
#   magic   8 bytes  b"ESNRAE\x00\x01"
#   u32     JSON header length in bytes, then that many UTF-8 bytes
#   weight container (see reservoir module)
#   w_out, w_out_refit, feature blocks, in the weight container's block format:
#   u32 rows, u32 cols, float64 row-major
# ---------------------------------------------------------------------------

_MAGIC = b"ESNRAE\x00\x01"


def save_autoencoder(t: TrainedAutoencoder, path: str) -> None:
    """Write a trained encoder (metadata, weights, readout, features) to disk."""
    meta = {
        "kind": t.kind,
        "seed": t.spec.seed,
        "n_candidates": t.spec.n_candidates,
        "reset_policy": t.spec.reset_policy,
        "pinv_tolerance": t.spec.pinv_tolerance,
        "reconstruction_error": t.reconstruction_error,
        "pre_tying_error": t.pre_tying_error,
        "candidate_errors": list(t.candidate_errors),
        "chosen_candidate": t.chosen_candidate,
        "config": {
            "n_hidden": t.spec.cfg.n_hidden,
            "input_dim": t.spec.cfg.input_dim,
            "connectivity": t.spec.cfg.connectivity,
            "spectral_radius_target": t.spec.cfg.spectral_radius_target,
            "n_layers": t.spec.cfg.n_layers,
            "input_scaling": t.spec.cfg.input_scaling,
        },
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        save_weights(t.weights, fh)
        _write_block(fh, t.w_out)
        _write_block(fh, t.w_out_refit)
        _write_block(fh, t.features_train)


def _read_meta(fh: BinaryIO, path: str) -> dict:
    header = fh.read(4)
    if len(header) != 4:
        raise FormatError(f"{path}: encoder envelope truncated (header length)")
    (hlen,) = struct.unpack("<I", header)
    blob = _read_exact(fh, hlen, f"{path}: encoder envelope metadata")
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable encoder metadata: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise FormatError(f"{path}: encoder metadata has no config object")
    return meta


def _is_int(value: object) -> bool:
    return type(value) is int


def _is_number(value: object) -> bool:
    return type(value) in (int, float)


def _check_training_meta(meta: dict, path: str) -> None:
    """Types of the training metadata, and the selection fields against each other."""
    errors = meta.get("candidate_errors")
    for key, value, ok, expected in (
        ("seed", meta.get("seed"), _is_int, "an integer"),
        ("n_candidates", meta.get("n_candidates"), _is_int, "an integer"),
        ("chosen_candidate", meta.get("chosen_candidate"), _is_int, "an integer"),
        ("reconstruction_error", meta.get("reconstruction_error"), _is_number, "a number"),
        ("pre_tying_error", meta.get("pre_tying_error"), _is_number, "a number"),
        ("pinv_tolerance", meta.get("pinv_tolerance"),
         lambda v: v is None or _is_number(v), "a number or null"),
        ("config.input_scaling", meta["config"].get("input_scaling"), _is_number, "a number"),
        ("candidate_errors", errors,
         lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers"),
    ):
        if not ok(value):
            raise FormatError(f"{path}: metadata {key}={value!r} is not {expected}")
    n_candidates, chosen = meta["n_candidates"], meta["chosen_candidate"]
    if not 1 <= len(errors) <= n_candidates:
        raise FormatError(
            f"{path}: metadata holds {len(errors)} candidate errors for "
            f"n_candidates={n_candidates}"
        )
    if not 0 <= chosen < len(errors):
        raise FormatError(
            f"{path}: metadata chosen_candidate={chosen!r} is not an index into "
            f"{len(errors)} candidate errors"
        )


def load_autoencoder(path: str) -> TrainedAutoencoder:
    """Inverse of :func:`save_autoencoder`, bit-exact.

    A file that is not a complete, self-consistent envelope raises
    FormatError; that includes metadata whose reservoir config disagrees with
    the stored weight dimensions, ill-typed training metadata, and a
    ``chosen_candidate`` or ``candidate_errors`` that do not fit together or
    with ``n_candidates``.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise FormatError(f"{path}: not an encoder envelope (magic {magic!r})")
        meta = _read_meta(fh, path)
        weights = load_weights(fh)
        w_out = _read_block(fh, "encoder envelope")
        w_out_refit = _read_block(fh, "encoder envelope")
        features = _read_block(fh, "encoder envelope")
    config = meta["config"]
    for key, actual in (
        ("n_hidden", weights.n_hidden),
        ("input_dim", weights.input_dim),
        ("n_layers", weights.n_layers),
    ):
        value = config.get(key)
        if type(value) is not int or value != actual:
            raise FormatError(
                f"{path}: metadata config {key}={value!r} disagrees with the "
                f"stored weights ({actual})"
            )
    if meta.get("kind") not in KINDS:
        raise FormatError(f"{path}: unknown autoencoder kind {meta.get('kind')!r}")
    _check_training_meta(meta, path)
    try:
        spec = RaeTrainSpec(
            cfg=ReservoirConfig(**config),
            n_candidates=meta["n_candidates"],
            seed=meta["seed"],
            reset_policy=meta["reset_policy"],
            pinv_tolerance=meta["pinv_tolerance"],
        )
        return TrainedAutoencoder(
            kind=meta["kind"],
            weights=weights,
            w_out=w_out,
            w_out_refit=w_out_refit,
            reconstruction_error=meta["reconstruction_error"],
            pre_tying_error=meta["pre_tying_error"],
            candidate_errors=tuple(meta["candidate_errors"]),
            chosen_candidate=meta["chosen_candidate"],
            features_train=features,
            spec=spec,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: invalid encoder metadata: {exc!r}") from exc
