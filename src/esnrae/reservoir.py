"""Reservoir encoders: single- and multi-layer echo state machines.

A network is a stack of M reservoirs of equal size N. Layer 1 is driven by
the K input values plus a constant bias input; layer k > 1 is driven by the
current state of layer k-1 through a dense inter-layer matrix. Each layer
also feeds back on itself through a sparse recurrent matrix scaled to a
spectral radius below 1 (the echo state property). With the recurrent
matrices zeroed the same machinery computes the feed-forward ELM variants.

Weight layout: ``w_in`` is N x (K+1) with the bias in column 0 and the K
input columns after it, so that tying can copy a K x N readout transpose
into ``w_in[:, 1:]`` exactly.

:func:`run_collect` feeds a whole split layer by layer: a pattern's input
product does not depend on the state, so it computes every pattern's product
one cache-sized row block at a time and only then steps the recurrence. Its
input (p x K) and its result (p x N) both hold one row per pattern, the
orientation of every feature matrix in the package.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import BinaryIO, Iterator

import numpy as np

from .errors import DegenerateMatrixError, FormatError, check_field_types
from .linalg import SeededRng, sparse_random_matrix, spectral_radius

# Retries per layer when a sparse draw happens to be nilpotent.
_MAX_DEGENERATE_RETRIES = 5

# Reservoir size N and connectivity beta tuned per benchmark dataset.
PRESETS: dict[str, dict[str, float]] = {
    "ecg200": {"n_hidden": 150, "connectivity": 0.1},
    "breastcancer": {"n_hidden": 50, "connectivity": 0.05},
    "coffee": {"n_hidden": 100, "connectivity": 0.1},
    "oliveoil": {"n_hidden": 300, "connectivity": 0.001},
    "earthquakes": {"n_hidden": 600, "connectivity": 0.002},
    "meat": {"n_hidden": 250, "connectivity": 0.01},
    "ecgfivedays": {"n_hidden": 100, "connectivity": 0.04},
}


def resolve_preset(name: str) -> tuple[int, float]:
    """(n_hidden, connectivity) of a preset; case, ``_`` and ``-`` are ignored.

    An unknown name raises FormatError listing the available presets.
    """
    key = name.lower().replace("_", "").replace("-", "")
    if key not in PRESETS:
        raise FormatError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return int(PRESETS[key]["n_hidden"]), PRESETS[key]["connectivity"]


@dataclass(frozen=True)
class ReservoirConfig:
    """Structural parameters of the encoder."""

    n_hidden: int
    input_dim: int
    connectivity: float = 0.1
    spectral_radius_target: float = 0.9
    n_layers: int = 1
    input_scaling: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        if self.n_hidden < 1:
            raise ValueError(f"n_hidden must be >= 1, got {self.n_hidden}")
        if self.n_hidden ** 2 * 8 > np.iinfo(np.intp).max:
            raise FormatError(
                f"n_hidden {self.n_hidden} is too large: an N x N float64 matrix "
                f"would exceed the {np.iinfo(np.intp).max} bytes numpy can address"
            )
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if not 0.0 < self.connectivity <= 1.0:
            raise ValueError(f"connectivity must be in (0, 1], got {self.connectivity}")
        if not 0.0 < self.spectral_radius_target < 1.0:
            raise ValueError(
                "spectral_radius_target must be in (0, 1) for the echo state "
                f"property, got {self.spectral_radius_target}"
            )
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")


@dataclass(frozen=True)
class EsnWeights:
    """All weight matrices of one (possibly multi-layer) encoder.

    ``w[i]`` is the recurrent matrix of layer i (zero for ELM variants),
    ``w_inter[i]`` connects layer i to layer i+1 and ``b_e[i]`` is layer i's
    bias vector.
    """

    w_in: np.ndarray
    w: tuple[np.ndarray, ...]
    w_inter: tuple[np.ndarray, ...]
    b_e: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(self.w))
        object.__setattr__(self, "w_inter", tuple(self.w_inter))
        object.__setattr__(self, "b_e", tuple(self.b_e))
        n = self.w_in.shape[0]
        m = len(self.w)
        if len(self.w_inter) != m - 1:
            raise ValueError(f"{m} layers need {m - 1} inter-layer matrices")
        if len(self.b_e) != m:
            raise ValueError(f"{m} layers need {m} bias vectors")
        for a in (*self.w, *self.w_inter):
            if a.shape != (n, n):
                raise ValueError(f"layer matrix shape {a.shape} != ({n}, {n})")
        for b in self.b_e:
            if b.shape != (n,):
                raise ValueError(f"bias shape {b.shape} != ({n},)")

    @property
    def n_hidden(self) -> int:
        return self.w_in.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_in.shape[1] - 1

    @property
    def n_layers(self) -> int:
        return len(self.w)


# Spectral radii of recurrent draws, shared while a radius_memo() scope is
# open. A draw is fixed by (seed, stream, N, connectivity), so its radius is
# too; only floats are kept, never the matrices.
_radius_memo: dict[tuple[int, str, int, float], float] | None = None


@contextmanager
def radius_memo() -> Iterator[None]:
    """Share the spectral radius of identical recurrent draws within a scope.

    The memo closes when the scope does, also by an exception. Outside a
    scope each draw computes its own radius.
    """
    global _radius_memo
    _radius_memo = {}
    try:
        yield
    finally:
        _radius_memo = None


def _draw_radius(candidate: np.ndarray, stream: SeededRng, connectivity: float) -> float:
    """Spectral radius of a fresh sparse draw, through the memo when one is open."""
    memo = _radius_memo
    if memo is None:
        return spectral_radius(candidate)
    key = (stream.seed, stream.stream, candidate.shape[0], connectivity)
    rho = memo.get(key)
    if rho is None:
        rho = memo[key] = spectral_radius(candidate)
    return rho


def init_weights(
    cfg: ReservoirConfig,
    rng: SeededRng,
    recurrent: bool = True,
) -> EsnWeights:
    """Draw a random weight set for the configuration.

    The input map and inter-layer matrices are dense uniform [-1, 1); each
    recurrent matrix is sparse at the configured connectivity and rescaled to
    the spectral radius target. A sparse draw with zero spectral radius is
    regenerated from the next sub-stream (bounded retries). ``recurrent=False``
    zeroes the recurrent matrices, which turns the network into the
    feed-forward ELM variant. Inside :func:`radius_memo` a draw seen before
    reuses its spectral radius; the weights are the same bits.
    """
    n, k, m = cfg.n_hidden, cfg.input_dim, cfg.n_layers

    w_in = rng.child("win").generator().uniform(-1.0, 1.0, (n, k + 1))
    w_in[:, 1:] *= cfg.input_scaling

    w = []
    for i in range(1, m + 1):
        if not recurrent:
            w.append(np.zeros((n, n)))
            continue
        for attempt in range(_MAX_DEGENERATE_RETRIES + 1):
            stream = rng.child(f"w{i}" if attempt == 0 else f"w{i}#retry{attempt}")
            candidate = sparse_random_matrix(n, n, cfg.connectivity, -1.0, 1.0, stream)
            rho = _draw_radius(candidate, stream, cfg.connectivity)
            if rho > 0.0:
                candidate *= cfg.spectral_radius_target / rho
                w.append(candidate)
                break
        else:
            raise DegenerateMatrixError(
                f"layer {i}: all {_MAX_DEGENERATE_RETRIES + 1} sparse draws had "
                f"zero spectral radius (n={n}, connectivity={cfg.connectivity})"
            )

    w_inter = [
        rng.child(f"winter{i}").generator().uniform(-1.0, 1.0, (n, n))
        for i in range(1, m)
    ]
    b_e = [rng.child(f"be{i}").generator().uniform(-1.0, 1.0, n) for i in range(1, m + 1)]
    return EsnWeights(w_in=w_in, w=tuple(w), w_inter=tuple(w_inter), b_e=tuple(b_e))


def _recurrent_layers(weights: EsnWeights) -> tuple[bool, ...]:
    """Per layer, whether its recurrent matrix has a nonzero entry."""
    return tuple(bool(np.any(a)) for a in weights.w)


# Rows of a layer's input map per block in run_collect. OpenBLAS's gemv dots
# the rows in groups of 4, so a block that is a multiple of 4 gives each row
# the bits of the whole-matrix product; 152 rows of a 600-wide map (0.7 MB)
# stay in L2 while every pattern passes through them, and a layer of up to
# 152 units (the ECG200 preset's 150) stays one block.
_ROW_BLOCK = 152


def _fill_drives(mat: np.ndarray, inputs: np.ndarray, out: np.ndarray) -> None:
    """``out[j] = mat @ inputs[j]`` for every row j, one gemv per row block."""
    for r0 in range(0, mat.shape[0], _ROW_BLOCK):
        block = mat[r0 : r0 + _ROW_BLOCK]
        rows = out[:, r0 : r0 + _ROW_BLOCK]
        for j in range(len(inputs)):
            np.matmul(block, inputs[j], out=rows[j])


def run_collect(weights: EsnWeights, patterns: np.ndarray) -> np.ndarray:
    """Feed every pattern (one row each) and return the last layer's states.

    The result is the p x N feature matrix, one row per pattern, in C
    order. The state starts at zero and flows from one pattern to the next,
    so row n depends on all patterns up to n. (Zeroing it before each
    pattern instead would drop the recurrent term and give exactly the
    features of the same draw without recurrence, the ELM variant.)

    The work goes layer by layer. A pattern's input product does not depend
    on the state, so each layer first fills a p x N drive buffer with every
    pattern's product, row block by row block; then a recurrent layer steps
    the patterns in order, and a layer without recurrence takes its bias
    and ``tanh`` over the whole buffer at once. Each pattern gets the same
    products and sums, in the same order, as when stepped alone through
    every layer (the input or inter-layer product, then ``+ w[i] @ x`` where
    the layer recurs, then the bias and ``tanh``), so the rows equal those of
    a pattern-at-a-time loop bit for bit. The last layer's buffer is the
    result.
    """
    patterns = np.asarray(patterns, dtype=float)
    if patterns.ndim != 2 or patterns.shape[1] != weights.input_dim:
        raise ValueError(
            f"patterns shape {patterns.shape} incompatible with input dim "
            f"{weights.input_dim}"
        )
    p, n = patterns.shape[0], weights.n_hidden
    states = patterns
    for i, recurrent in enumerate(_recurrent_layers(weights)):
        drive = np.empty((p, n))
        if i == 0:
            _fill_drives(weights.w_in[:, 1:], states, drive)
            drive += weights.w_in[:, 0]
        else:
            _fill_drives(weights.w_inter[i - 1], states, drive)
        del states  # the previous layer's buffer; at most two are held
        if recurrent:
            w, b = weights.w[i], weights.b_e[i]
            x = np.zeros(n)
            for row in drive:
                row += w @ x
                row += b
                np.tanh(row, out=row)
                x = row
        else:
            drive += weights.b_e[i]
            np.tanh(drive, out=drive)
        states = drive
    return states


# ---------------------------------------------------------------------------
# Binary weight container.
#
# Layout (all little-endian):
#   magic   8 bytes  b"ESNWGT\x00\x02"
#   u32     layer count M
#   u32     reservoir size N
#   u32     input length K
#   blocks: w_in, w[0..M-1], w_inter[0..M-2], b_e[0..M-1]
# Each block is u32 rows, u32 cols, then rows*cols float64 row-major.
# ---------------------------------------------------------------------------

_MAGIC = b"ESNWGT\x00\x02"


def _write_block(fh: BinaryIO, a: np.ndarray) -> None:
    """Write one float64 block of the weight container."""
    a2 = np.ascontiguousarray(np.atleast_2d(np.asarray(a, dtype="<f8")))
    fh.write(struct.pack("<II", a2.shape[0], a2.shape[1]))
    fh.write(a2.tobytes())


def _read_exact(fh: BinaryIO, size: int, what: str) -> bytes:
    """Read exactly ``size`` bytes or raise FormatError naming ``what``.

    A size taken from a corrupt header can be far larger than the file; on a
    seekable stream it is checked against the bytes left before any read, so
    no buffer of that size is ever requested.
    """
    if fh.seekable():
        here = fh.tell()
        left = fh.seek(0, 2) - here
        fh.seek(here)
        if size > left:
            raise FormatError(f"{what} truncated ({size} bytes declared, {left} left)")
    raw = fh.read(size)
    if len(raw) != size:
        raise FormatError(f"{what} truncated")
    return raw


def _read_block(fh: BinaryIO) -> np.ndarray:
    """Inverse of :func:`_write_block`; a 1-D array comes back as one row."""
    rows, cols = struct.unpack("<II", _read_exact(fh, 8, "weight container block header"))
    raw = _read_exact(fh, rows * cols * 8, "weight container block data")
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(rows, cols)


def save_weights(weights: EsnWeights, fh: BinaryIO) -> None:
    """Serialize the weight set to an open binary stream, bit-exactly."""
    fh.write(_MAGIC)
    fh.write(struct.pack("<III", weights.n_layers, weights.n_hidden, weights.input_dim))
    _write_block(fh, weights.w_in)
    for a in weights.w:
        _write_block(fh, a)
    for a in weights.w_inter:
        _write_block(fh, a)
    for b in weights.b_e:
        _write_block(fh, b)


def load_weights(fh: BinaryIO) -> EsnWeights:
    """Inverse of :func:`save_weights`."""
    magic = fh.read(len(_MAGIC))
    if magic != _MAGIC:
        raise FormatError(f"not a weight container (magic {magic!r})")
    m, n, k = struct.unpack("<III", _read_exact(fh, 12, "weight container dimensions"))
    w_in = _read_block(fh)
    w = tuple(_read_block(fh) for _ in range(m))
    w_inter = tuple(_read_block(fh) for _ in range(m - 1))
    b_e = tuple(_read_block(fh).reshape(-1) for _ in range(m))
    try:
        loaded = EsnWeights(w_in=w_in, w=w, w_inter=w_inter, b_e=b_e)
    except ValueError as exc:
        raise FormatError(f"weight container blocks are inconsistent: {exc}") from exc
    if loaded.n_hidden != n or loaded.input_dim != k:
        raise FormatError("weight container dimensions disagree with blocks")
    return loaded
