"""Reservoir autoencoders trained by pseudo-inverse readout regression.

Four variants share one training scheme:

* ``esn-rae``     single recurrent reservoir
* ``ml-esn-rae``  stacked recurrent reservoirs (all layers driven at once)
* ``elm-ae``      single feed-forward random layer
* ``ml-elm-ae``   stacked feed-forward random layers

Training draws one random network, sets the targets equal to the inputs,
solves the readout in closed form, ties the input weights to the transpose
of that readout, and recomputes every layer's states under the new input map.
The stored reconstruction error is that of a readout refit on the recomputed
states. A draw that training cannot use is skipped (see :func:`fit`).
The extracted features are the last layer's recomputed states, one row per
pattern (p x N), the orientation of the patterns themselves.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, fields, replace
from typing import BinaryIO

import numpy as np

from .data import Dataset
from .errors import FormatError, NumericalError, TrainingError, check_field_types
from .linalg import SeededRng, pinv, rank
from .reservoir import (
    EsnWeights,
    ReservoirConfig,
    _read_exact,
    _recurrent_layers,
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
class TrainedAutoencoder:
    """A fitted encoder: tied weights, how well they reconstruct, and their origin.

    ``weights.w_in[:, 1:]`` holds the transpose of the chosen draw's readout,
    entry-exact. ``reconstruction_error`` is the residual of the readout
    refit on the recomputed states and describes the final network, while
    ``pre_tying_error`` is the chosen draw's error before tying. Each is
    exactly ``0.0`` when its states have full row rank, where the readout
    interpolates every pattern. ``chosen_candidate`` is the index of the draw
    used, which is also the number of unusable draws skipped before it.
    ``config`` and ``seed`` are what :func:`fit` drew the network from. The
    fields other than ``weights`` are the envelope's metadata keys.
    """

    kind: str
    weights: EsnWeights
    reconstruction_error: float
    pre_tying_error: float
    chosen_candidate: int
    config: ReservoirConfig
    seed: int

    def __post_init__(self):
        check_field_types(self)
        _validate_kind(self.kind, self.config)
        if self.chosen_candidate < 0:
            raise ValueError(f"chosen_candidate must be >= 0, got {self.chosen_candidate}")
        for key in ("n_hidden", "input_dim", "n_layers"):
            value, actual = getattr(self.config, key), getattr(self.weights, key)
            if value != actual:
                raise ValueError(f"config {key}={value!r} disagrees with the weights ({actual})")
        need = "recurrent" if is_recurrent(self.kind) else "feed-forward"
        layers = ["recurrent" if r else "feed-forward" for r in _recurrent_layers(self.weights)]
        if set(layers) != {need}:
            raise ValueError(f"{self.kind} needs {need} layers, got {layers}")


def train_readout(h: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, int]:
    """Closed-form least-squares readout W_out with y(n) = W_out x(n), and rank(H).

    ``h`` holds one state row per pattern (p x N); ``targets`` one pattern
    per row (p x K) - for autoencoding, the input patterns themselves. Solved
    as W_out = (pinv(H) U)^T, which interpolates exactly (least-norm) when
    the rank, taken under :func:`~esnrae.linalg.pinv`'s cutoff, equals p.
    """
    hm = np.asarray(h, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if hm.ndim != 2:
        raise ValueError(f"state matrix must be 2-D, got ndim={hm.ndim}")
    if targets.ndim != 2 or targets.shape[0] != hm.shape[0]:
        raise ValueError(
            f"targets shape {targets.shape} does not match {hm.shape[0]} patterns"
        )
    if not np.any(hm):
        raise NumericalError("state matrix is identically zero; readout is undefined")
    h_pinv, h_rank = pinv(hm)
    return (h_pinv @ targets).T, h_rank


def reconstruction_error(w_out: np.ndarray, h: np.ndarray, targets: np.ndarray) -> float:
    """Frobenius norm of the reconstruction residual per pattern; ``h`` is p x N."""
    hm = np.asarray(h, dtype=float)
    targets = np.asarray(targets, dtype=float)
    p = hm.shape[0]
    if targets.shape[0] != p or w_out.shape != (targets.shape[1], hm.shape[1]):
        raise ValueError(
            f"inconsistent shapes: w_out {w_out.shape}, states {hm.shape}, "
            f"targets {targets.shape}"
        )
    return float(np.linalg.norm(w_out @ hm.T - targets.T, "fro") / p)


def _validate_kind(kind: str, cfg: ReservoirConfig) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown autoencoder kind {kind!r}; expected one of {KINDS}")
    if is_multilayer(kind) and cfg.n_layers < 2:
        raise ValueError(f"{kind} needs n_layers >= 2, got {cfg.n_layers}")
    if not is_multilayer(kind) and cfg.n_layers != 1:
        raise ValueError(f"{kind} needs n_layers == 1, got {cfg.n_layers}")


# Network draws fit tries before it gives up. A draw is unusable when one of
# its recurrent layers stays nilpotent through every init_weights retry, as
# about one seed in seven does at the oliveoil preset (N = 300, beta = 0.001).
MAX_DRAWS = 10


def fit(
    d_train: Dataset, config: ReservoirConfig, kind: str, seed: int = 0
) -> tuple[TrainedAutoencoder, np.ndarray]:
    """Train one autoencoder of the given kind; returns it and its train features.

    Draws networks from the streams ``cand0``, ``cand1``, ... of
    ``SeededRng(seed)``, which refuses a seed outside the signed 64-bit range
    before any draw, and keeps the first whose draw, states and readout raise
    no NumericalError; after :data:`MAX_DRAWS` unusable draws it raises
    TrainingError. Then ties the input weights to that readout's transpose and
    recomputes all layer states in one pass; the last layer's states (p x N)
    are the train features.
    A readout on states of full row rank p interpolates, so its error is
    recorded as exactly 0.0 without a residual or, after tying, a refit.
    """
    _validate_kind(kind, config)
    if config.input_dim != d_train.input_len:
        raise ValueError(
            f"config input_dim {config.input_dim} != dataset length "
            f"{d_train.input_len}"
        )
    targets = d_train.patterns  # outputs are set equal to the inputs
    p = len(targets)
    base = SeededRng(seed)
    recurrent = is_recurrent(kind)

    for chosen in range(MAX_DRAWS):
        try:
            wts = init_weights(config, base.child(f"cand{chosen}"), recurrent=recurrent)
            h = run_collect(wts, targets)
            # Tying keeps only the bias column of the drawn input map.
            wts = replace(wts, w_in=wts.w_in[:, :1].copy())
            w_out, h_rank = train_readout(h, targets)
        except NumericalError:
            continue
        break
    else:
        raise TrainingError(f"all {MAX_DRAWS} network draws were degenerate")
    pre_tying_error = 0.0 if h_rank == p else reconstruction_error(w_out, h, targets)
    del h  # so the recompute below holds one state matrix, not two

    tied = replace(wts, w_in=np.hstack((wts.w_in, w_out.T)))  # bias, then readout^T
    del wts, w_out
    h = run_collect(tied, targets)
    full_rank = p <= h.shape[1] and rank(h) == p
    final_err = 0.0 if full_rank else reconstruction_error(train_readout(h, targets)[0], h, targets)

    return TrainedAutoencoder(
        kind=kind,
        weights=tied,
        reconstruction_error=final_err,
        pre_tying_error=pre_tying_error,
        chosen_candidate=chosen,
        config=config,
        seed=seed,
    ), h


def encode(t: TrainedAutoencoder, d: Dataset) -> np.ndarray:
    """New representation of a dataset: last-layer states, one row per pattern."""
    return run_collect(t.weights, d.patterns)


# ---------------------------------------------------------------------------
# Trained-encoder envelope: a JSON metadata header followed by the binary
# weight container, and nothing after it.
#
# Layout (little-endian):
#   magic   8 bytes  b"ESNRAE\x00\x03"
#   u32     JSON header length in bytes, then that many UTF-8 bytes
#   weight container (see reservoir module)
# ---------------------------------------------------------------------------

_MAGIC = b"ESNRAE\x00\x03"
_META_KEYS = {f.name for f in fields(TrainedAutoencoder)} - {"weights"}


def save_autoencoder(t: TrainedAutoencoder, path: str) -> None:
    """Write a trained encoder (metadata and weights) to disk."""
    meta = {key: getattr(t, key) for key in _META_KEYS}
    meta["config"] = asdict(t.config)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        save_weights(t.weights, fh)


def _read_meta(fh: BinaryIO, path: str) -> dict:
    (hlen,) = struct.unpack("<I", _read_exact(fh, 4, f"{path}: encoder envelope header length"))
    blob = _read_exact(fh, hlen, f"{path}: encoder envelope metadata")
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: unreadable encoder metadata: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise FormatError(f"{path}: encoder metadata has no config object")
    return meta


def load_autoencoder(path: str) -> TrainedAutoencoder:
    """Inverse of :func:`save_autoencoder`, bit-exact.

    A file that is not a complete, self-consistent envelope raises
    FormatError; that includes bytes after the weight container, metadata
    whose reservoir config disagrees with the stored weight dimensions, a kind
    whose layer count or recurrence disagrees with the weights, ill-typed or
    missing training metadata and any top-level key that
    :func:`save_autoencoder` does not write.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise FormatError(f"{path}: not an encoder envelope (magic {magic!r})")
        meta = _read_meta(fh, path)
        weights = load_weights(fh)
        if fh.read(1):
            raise FormatError(f"{path}: bytes follow the weight container")
    unknown = sorted(set(meta) - _META_KEYS)
    if unknown:
        raise FormatError(f"{path}: unknown encoder metadata keys {unknown}")
    try:
        meta["config"] = ReservoirConfig(**meta["config"])
        return TrainedAutoencoder(weights=weights, **meta)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: invalid encoder metadata: {exc!r}") from exc
