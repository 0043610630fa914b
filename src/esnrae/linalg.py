"""Deterministic matrix kernels used by every other module.

All randomness flows through :class:`SeededRng`, which derives an independent,
platform-stable generator for each named sub-stream, so every weight family
(input weights, each reservoir, each inter-layer matrix, ...) is reproducible
in isolation.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, check_field_types

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeededRng:
    """A (seed, stream) pair naming one reproducible random sequence.

    Identical pairs yield bit-identical sequences across runs and platforms
    (SHA-256 stream hashing -> SeedSequence -> PCG64). Derive one child per
    random object; a stream is a fresh sequence each time ``generator()`` is
    called, so never draw from the same stream twice for different purposes.
    The seed must lie in the signed 64-bit range, so no two seeds share a
    sequence; a negative seed is taken modulo 2**64.
    """

    seed: int
    stream: str = ""

    def __post_init__(self):
        check_field_types(self)

    def child(self, name: str) -> "SeededRng":
        """Return the sub-stream ``name`` rooted at this stream."""
        return SeededRng(self.seed, f"{self.stream}/{name}" if self.stream else name)

    def generator(self) -> np.random.Generator:
        """Instantiate the numpy generator for this stream."""
        words = struct.unpack("<8I", hashlib.sha256(self.stream.encode()).digest())
        seq = np.random.SeedSequence([self.seed & _MASK64, *words])
        return np.random.Generator(np.random.PCG64(seq))


def sparse_random_matrix(
    rows: int,
    cols: int,
    density: float,
    low: float,
    high: float,
    rng: SeededRng,
) -> np.ndarray:
    """Random matrix with an exact number of nonzero entries.

    Exactly ``round(density * rows * cols)`` positions, chosen uniformly
    without replacement, receive values uniform in [low, high); the rest are
    zero. The count is exact (not Bernoulli) so connectivity is assertable.
    Draws that land on exactly 0.0 are redrawn to keep the count honest.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix shape must be positive, got {rows}x{cols}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if not low < high:
        raise ValueError(f"invalid value range [{low}, {high})")

    n_nonzero = int(round(density * rows * cols))
    g = rng.generator()
    flat = np.zeros(rows * cols)
    positions = g.choice(rows * cols, size=n_nonzero, replace=False)
    values = g.uniform(low, high, size=n_nonzero)
    while np.any(values == 0.0):
        zeros = values == 0.0
        values[zeros] = g.uniform(low, high, size=int(zeros.sum()))
    flat[positions] = values
    return flat.reshape(rows, cols)


def _svd(m: np.ndarray, compute_uv: bool):
    """numpy's thin SVD of a finite 2-D matrix, and the mask of its singular
    values above ``1e-12 * max(rows, cols) * sigma_max`` (the others count as zero)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    try:
        svd = np.linalg.svd(m, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed to converge for {m.shape[0]}x{m.shape[1]} matrix "
            f"(|max|={np.abs(m).max():.3e}): {exc}"
        ) from exc
    s = svd[1] if compute_uv else svd
    return svd, s > 1e-12 * max(m.shape) * np.max(s)


def pinv(m: np.ndarray) -> tuple[np.ndarray, int]:
    """Moore-Penrose pseudo-inverse via SVD, and the rank it was taken at.

    Singular values at or below the :func:`_svd` cutoff count as zero, which
    gives the least-norm solution when there are fewer samples than hidden
    units. Bit for bit ``np.linalg.pinv(m, rcond=1e-12 * max(m.shape))``.
    """
    (u, s, vt), large = _svd(m, compute_uv=True)
    np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return np.matmul(vt.T, s[:, None] * u.T), int(np.count_nonzero(large))


def rank(m: np.ndarray) -> int:
    """Rank of ``m`` under :func:`pinv`'s cutoff, from its singular values only."""
    return int(np.count_nonzero(_svd(m, compute_uv=False)[1]))


def spectral_radius(w: np.ndarray) -> float:
    """Largest absolute eigenvalue of a square matrix."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"spectral radius needs a square matrix, got shape {w.shape}")
    try:
        eigvals = np.linalg.eigvals(w)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed for {w.shape[0]}x{w.shape[0]} matrix: {exc}"
        ) from exc
    return float(np.max(np.abs(eigvals)))

