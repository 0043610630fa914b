"""Reservoir autoencoders trained by pseudo-inverse readout regression.

Four variants share one training scheme:

* ``esn-rae``     single recurrent reservoir
* ``ml-esn-rae``  stacked recurrent reservoirs (all layers driven at once)
* ``elm-ae``      single feed-forward random layer
* ``ml-elm-ae``   stacked feed-forward random layers

Training sets the targets equal to the inputs, solves the readout in closed
form, picks the candidate network with the smallest reconstruction error,
ties the input weights to the transpose of that readout, recomputes every
layer's states under the new input map, and refits the readout so the stored
reconstruction error describes the final encoder. The extracted features are
the last layer's recomputed states.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from typing import BinaryIO

import numpy as np

from .data import Dataset
from .errors import FormatError, NumericalError, TrainingError
from .linalg import SeededRng, pinv
from .reservoir import (
    EsnWeights,
    ReservoirConfig,
    StateTrace,
    _read_exact,
    init_weights,
    load_weights,
    run_collect,
    save_weights,
)

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


@dataclass(frozen=True)
class TrainedAutoencoder:
    """A fitted encoder: tied weights, readouts, and train features.

    ``w_out`` is the winning candidate's readout, the matrix whose transpose
    was copied into the input weights (so ``weights.w_in[:, 1:] == w_out.T``
    entry-exact). ``w_out_refit`` is the readout refit on the recomputed
    states; ``reconstruction_error`` pairs with it and describes the final
    network, while ``pre_tying_error`` is the winning selection score.
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


def fit(d_train: Dataset, spec: RaeTrainSpec, kind: str) -> TrainedAutoencoder:
    """Train one autoencoder of the given kind on a training set.

    Generates ``n_candidates`` random networks, scores each by its readout
    reconstruction error, keeps the best (ties break to the lowest index),
    ties the input weights to the readout transpose, recomputes all layer
    states in one pass, and refits the readout on the recomputed states.
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

    candidates: list[tuple[EsnWeights, np.ndarray, float] | None] = []
    errors: list[float] = []
    for c in range(spec.n_candidates):
        try:
            wts = init_weights(spec.cfg, base.child(f"cand{c}"), recurrent=recurrent)
            trace = run_collect(wts, targets, spec.reset_policy)
            w_out = train_readout(trace, targets, spec.pinv_tolerance)
            err = reconstruction_error(w_out, trace, targets)
        except NumericalError:
            candidates.append(None)
            errors.append(float("inf"))
            continue
        candidates.append((wts, w_out, err))
        errors.append(err)

    best = int(np.argmin(errors))
    if candidates[best] is None:
        raise TrainingError(
            f"all {spec.n_candidates} candidate networks were degenerate"
        )
    wts, w_out, pre_err = candidates[best]

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
        pre_tying_error=pre_err,
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
#   w_out, w_out_refit, feature blocks: u32 rows, u32 cols, float64 row-major
# ---------------------------------------------------------------------------

_MAGIC = b"ESNRAE\x00\x01"


def _write_matrix(fh: BinaryIO, a: np.ndarray) -> None:
    a2 = np.ascontiguousarray(np.asarray(a, dtype="<f8"))
    fh.write(struct.pack("<II", a2.shape[0], a2.shape[1]))
    fh.write(a2.tobytes())


def _read_matrix(fh: BinaryIO) -> np.ndarray:
    header = fh.read(8)
    if len(header) != 8:
        raise FormatError("encoder envelope truncated (matrix header)")
    rows, cols = struct.unpack("<II", header)
    raw = _read_exact(fh, rows * cols * 8, "encoder envelope matrix data")
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(rows, cols)


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
            "hidden_activation": t.spec.cfg.hidden_activation,
            "output_activation": t.spec.cfg.output_activation,
            "input_scaling": t.spec.cfg.input_scaling,
        },
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        save_weights(t.weights, fh)
        _write_matrix(fh, t.w_out)
        _write_matrix(fh, t.w_out_refit)
        _write_matrix(fh, t.features_train)


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


def load_autoencoder(path: str) -> TrainedAutoencoder:
    """Inverse of :func:`save_autoencoder`, bit-exact.

    A file that is not a complete, self-consistent envelope raises
    FormatError; that includes metadata whose reservoir config disagrees with
    the stored weight dimensions.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise FormatError(f"{path}: not an encoder envelope (magic {magic!r})")
        meta = _read_meta(fh, path)
        weights = load_weights(fh)
        w_out = _read_matrix(fh)
        w_out_refit = _read_matrix(fh)
        features = _read_matrix(fh)
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
