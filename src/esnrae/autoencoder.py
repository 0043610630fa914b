"""Reservoir autoencoders trained by pseudo-inverse readout regression.

Four variants share one training scheme:

* ``esn-rae``     single recurrent reservoir
* ``ml-esn-rae``  stacked recurrent reservoirs (all layers driven at once)
* ``elm-ae``      single feed-forward random layer
* ``ml-elm-ae``   stacked feed-forward random layers

Training draws one random network, sets the targets equal to the inputs,
solves the readout in closed form, ties the input weights to the transpose
of that readout, recomputes every layer's states under the new input map,
and refits the readout so the stored reconstruction error describes the
final encoder. A draw that training cannot use is skipped (see :func:`fit`).
The extracted features are the last layer's recomputed states.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, replace
from typing import BinaryIO

import numpy as np

from .data import Dataset
from .errors import FormatError, NumericalError, TrainingError
from .linalg import SeededRng, pinv
from .reservoir import (
    EsnWeights,
    ReservoirConfig,
    _read_block,
    _read_exact,
    _write_block,
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
    seed: int = 0


@dataclass(frozen=True)
class TrainedAutoencoder:
    """A fitted encoder: tied weights, refit readout, and train features.

    ``weights.w_in[:, 1:]`` holds the transpose of the chosen draw's readout,
    entry-exact. ``w_out_refit`` is the readout refit on the recomputed
    states; ``reconstruction_error`` pairs with it and describes the final
    network, while ``pre_tying_error`` is the chosen draw's error before
    tying. ``chosen_candidate`` is the index of the draw used, which is also
    the number of unusable draws skipped before it.
    """

    kind: str
    weights: EsnWeights
    w_out_refit: np.ndarray
    reconstruction_error: float
    pre_tying_error: float
    chosen_candidate: int
    features_train: np.ndarray
    spec: RaeTrainSpec


def train_readout(h: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Closed-form least-squares readout: returns W_out with y(n) = W_out x(n).

    ``h`` holds one state column per pattern (N x p); ``targets`` one pattern
    per row (p x K) - for autoencoding, the input patterns themselves. Solved
    as W_out = (pinv(H^T) U)^T, which is the least-norm exact interpolation
    when there are fewer patterns than hidden units.
    """
    hm = np.asarray(h, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if hm.ndim != 2:
        raise ValueError(f"state matrix must be 2-D, got ndim={hm.ndim}")
    if targets.ndim != 2 or targets.shape[0] != hm.shape[1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match {hm.shape[1]} patterns"
        )
    if not np.any(hm):
        raise NumericalError("state matrix is identically zero; readout is undefined")
    return (pinv(hm.T) @ targets).T


def reconstruction_error(w_out: np.ndarray, h: np.ndarray, targets: np.ndarray) -> float:
    """Frobenius norm of the reconstruction residual, per pattern."""
    hm = np.asarray(h, dtype=float)
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


# Network draws fit tries before it gives up. A draw is unusable when one of
# its recurrent layers stays nilpotent through every init_weights retry, as
# about one seed in seven does at the oliveoil preset (N = 300, beta = 0.001).
MAX_DRAWS = 10


def fit(d_train: Dataset, spec: RaeTrainSpec, kind: str) -> TrainedAutoencoder:
    """Train one autoencoder of the given kind on a training set.

    Draws networks from the streams ``cand0``, ``cand1``, ... and keeps the
    first whose draw, states and readout raise no NumericalError; after
    :data:`MAX_DRAWS` unusable draws it raises TrainingError. Then ties the
    input weights to that readout's transpose, recomputes all layer states in
    one pass, and refits the readout on the recomputed states.
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

    for chosen in range(MAX_DRAWS):
        try:
            wts = init_weights(spec.cfg, base.child(f"cand{chosen}"), recurrent=recurrent)
            h = run_collect(wts, targets)
            w_out = train_readout(h, targets)
        except NumericalError:
            continue
        break
    else:
        raise TrainingError(f"all {MAX_DRAWS} network draws were degenerate")
    pre_tying_error = reconstruction_error(w_out, h, targets)
    del h  # so the recompute below holds one state matrix, not two

    tied = _tie_input_weights(wts, w_out)
    del wts, w_out  # the tie replaced the drawn input map and copied the readout
    h = run_collect(tied, targets)
    w_out_refit = train_readout(h, targets)
    final_err = reconstruction_error(w_out_refit, h, targets)

    return TrainedAutoencoder(
        kind=kind,
        weights=tied,
        w_out_refit=w_out_refit,
        reconstruction_error=final_err,
        pre_tying_error=pre_tying_error,
        chosen_candidate=chosen,
        features_train=h,
        spec=spec,
    )


def encode(t: TrainedAutoencoder, d: Dataset) -> np.ndarray:
    """New representation of a dataset: last-layer states, one column per pattern."""
    return run_collect(t.weights, d.patterns)


# ---------------------------------------------------------------------------
# Trained-encoder envelope: a JSON metadata header followed by the binary
# weight container, the refit readout block, and the train-feature block.
#
# Layout (little-endian):
#   magic   8 bytes  b"ESNRAE\x00\x02"
#   u32     JSON header length in bytes, then that many UTF-8 bytes
#   weight container (see reservoir module)
#   w_out_refit, feature blocks, in the weight container's block format:
#   u32 rows, u32 cols, float64 row-major
# Version 1 also stored the chosen draw's readout, a copy of the tied
# input columns, and the reset_policy and pinv_tolerance settings; it is
# refused rather than read.
# ---------------------------------------------------------------------------

_MAGIC = b"ESNRAE\x00\x02"
_MAGIC_V1 = b"ESNRAE\x00\x01"


def save_autoencoder(t: TrainedAutoencoder, path: str) -> None:
    """Write a trained encoder (metadata, weights, readout, features) to disk."""
    meta = {
        "kind": t.kind,
        "seed": t.spec.seed,
        "reconstruction_error": t.reconstruction_error,
        "pre_tying_error": t.pre_tying_error,
        "chosen_candidate": t.chosen_candidate,
        "config": asdict(t.spec.cfg),
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        save_weights(t.weights, fh)
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
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: unreadable encoder metadata: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise FormatError(f"{path}: encoder metadata has no config object")
    return meta


def _is_int(value: object) -> bool:
    return type(value) is int


def _is_number(value: object) -> bool:
    return type(value) in (int, float)


def _check_training_meta(meta: dict, path: str) -> None:
    """Types of the training metadata; the chosen draw index is not negative."""
    for key, value, ok, expected in (
        ("seed", meta.get("seed"), _is_int, "an integer"),
        ("chosen_candidate", meta.get("chosen_candidate"),
         lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
        ("reconstruction_error", meta.get("reconstruction_error"), _is_number, "a number"),
        ("pre_tying_error", meta.get("pre_tying_error"), _is_number, "a number"),
        ("config.input_scaling", meta["config"].get("input_scaling"), _is_number, "a number"),
    ):
        if not ok(value):
            raise FormatError(f"{path}: metadata {key}={value!r} is not {expected}")


def load_autoencoder(path: str) -> TrainedAutoencoder:
    """Inverse of :func:`save_autoencoder`, bit-exact.

    A file that is not a complete, self-consistent envelope raises
    FormatError; that includes metadata whose reservoir config disagrees with
    the stored weight dimensions, a kind whose layer count disagrees with the
    weights, and ill-typed training metadata. Metadata keys the envelope no
    longer writes are ignored.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic == _MAGIC_V1:
            raise FormatError(
                f"{path}: encoder envelope version 1 is no longer read (it held a "
                "copy of the tied input weights and two retired settings); re-run "
                "`esnrae encode` to write version 2"
            )
        if magic != _MAGIC:
            raise FormatError(f"{path}: not an encoder envelope (magic {magic!r})")
        meta = _read_meta(fh, path)
        weights = load_weights(fh)
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
    _check_training_meta(meta, path)
    try:
        spec = RaeTrainSpec(cfg=ReservoirConfig(**config), seed=meta["seed"])
        _validate_kind(meta["kind"], spec.cfg)
        return TrainedAutoencoder(
            kind=meta["kind"],
            weights=weights,
            w_out_refit=w_out_refit,
            reconstruction_error=meta["reconstruction_error"],
            pre_tying_error=meta["pre_tying_error"],
            chosen_candidate=meta["chosen_candidate"],
            features_train=features,
            spec=spec,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: invalid encoder metadata: {exc!r}") from exc
