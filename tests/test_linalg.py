import subprocess
import sys

import numpy as np
import pytest

from esnrae import (
    SeededRng,
    pinv,
    sparse_random_matrix,
    spectral_radius,
)
from esnrae.linalg import rank


def gelfand_radius(a, squarings=60):
    """Spectral radius via repeated squaring: rho = lim ||A^m||^(1/m).

    Independent of any eigensolver; each squaring doubles m, and the norms
    are renormalized to avoid overflow/underflow.
    """
    m = np.array(a, dtype=float)
    log_rho = 0.0
    for i in range(1, squarings + 1):
        m = m @ m
        norm = np.linalg.norm(m)
        if norm == 0.0:
            return 0.0
        log_rho += np.log(norm) / 2.0**i
        m /= norm
    return float(np.exp(log_rho))


class TestSeededRng:
    def test_same_stream_same_sequence(self):
        a = SeededRng(42).child("w").generator().uniform(size=100)
        b = SeededRng(42).child("w").generator().uniform(size=100)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = SeededRng(42).child("w1").generator().uniform(size=100)
        b = SeededRng(42).child("w2").generator().uniform(size=100)
        assert not np.array_equal(a, b)

    def test_nested_children_are_namespaced(self):
        assert SeededRng(1).child("a").child("b").stream == "a/b"
        a = SeededRng(1).child("a/b").generator().uniform(size=10)
        b = SeededRng(1).child("a").child("b").generator().uniform(size=10)
        assert np.array_equal(a, b)

    def test_deterministic_across_processes(self):
        snippet = (
            "import hashlib, numpy as np\n"
            "from esnrae import SeededRng, sparse_random_matrix\n"
            "m = sparse_random_matrix(40, 40, 0.3, -1, 1, SeededRng(9).child('x'))\n"
            "print(hashlib.sha256(m.tobytes()).hexdigest())\n"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", snippet], capture_output=True, text=True, check=True
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    # Recorded under numpy 2.4.6. NEP 19 keeps PCG64's raw stream and
    # SeedSequence stable across numpy versions, but a feature release may
    # change a Generator method's algorithm and so every weight, noise or
    # synth value drawn through it. Each method the package draws with is
    # pinned here; choice(replace=False) takes one path for small
    # populations and another above 10000 (the sparse recurrent matrices).
    PINNED_DRAWS = {
        "random_raw": (
            lambda g: g.bit_generator.random_raw(3),
            [8188906667297244905, 7336551786519051492, 18000109769579628319],
        ),
        "uniform": (
            lambda g: g.uniform(-1.0, 1.0, 3),
            [-0.07990404931737749, -0.22375838987184782, -0.3406384930512649],
        ),
        "choice": (lambda g: g.choice(100, 4, replace=False), [84, 69, 99, 2]),
        "choice_tail_shuffle": (
            lambda g: g.choice(20000, 500, replace=False)[:4],
            [7001, 5392, 4989, 4637],
        ),
        "permutation": (lambda g: g.permutation(8), [6, 7, 4, 3, 0, 1, 2, 5]),
        "standard_normal": (
            lambda g: g.standard_normal(3),
            [0.5439508341682527, -0.4062721989675031, 1.2875610359193823],
        ),
    }

    @pytest.mark.parametrize("method", list(PINNED_DRAWS))
    def test_pinned_draws_per_method(self, method):
        draw, expected = self.PINNED_DRAWS[method]
        got = draw(SeededRng(2018).child(f"pin/{method}").generator()).tolist()
        assert got == expected, f"{method} draws other values under numpy {np.__version__}"


class TestSparseRandomMatrix:
    def test_full_density_every_entry_nonzero(self):
        m = sparse_random_matrix(3, 3, 1.0, -1.0, 1.0, SeededRng(7).child("m"))
        assert np.count_nonzero(m) == 9
        assert np.all(np.abs(m) <= 1.0)

    def test_ecg200_sized_count(self):
        m = sparse_random_matrix(150, 150, 0.1, -1.0, 1.0, SeededRng(1).child("m"))
        assert np.count_nonzero(m) == 2250

    def test_count_by_full_scan(self):
        m = sparse_random_matrix(50, 50, 0.05, -1.0, 1.0, SeededRng(3).child("m"))
        scanned = sum(1 for row in m for v in row if v != 0.0)
        assert scanned == 125

    def test_values_within_range(self):
        m = sparse_random_matrix(30, 40, 0.5, 0.25, 0.75, SeededRng(2).child("m"))
        nz = m[m != 0.0]
        assert nz.min() >= 0.25 and nz.max() < 0.75

    @pytest.mark.parametrize("density", [0.0, -0.1, 1.5])
    def test_invalid_density_rejected(self, density):
        with pytest.raises(ValueError):
            sparse_random_matrix(5, 5, density, -1.0, 1.0, SeededRng(0))

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            sparse_random_matrix(5, 5, 0.5, 1.0, -1.0, SeededRng(0))


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(4))[0], np.eye(4), atol=1e-14)

    def test_singular_diagonal(self):
        got, rank = pinv(np.diag([2.0, 0.0]))
        assert np.allclose(got, np.diag([0.5, 0.0]), atol=1e-14)
        assert rank == 1

    def test_full_rank_rectangular(self):
        g = SeededRng(11).child("m").generator()
        m = g.standard_normal((10, 6))
        mp, rank = pinv(m)
        assert np.linalg.norm(m @ mp @ m - m) / np.linalg.norm(m) < 1e-10
        assert rank == 6

    def test_penrose_conditions_on_random_matrices(self):
        # Includes rank-deficient cases via low-rank products.
        g = SeededRng(13).child("penrose").generator()
        for i in range(100):
            rows = int(g.integers(1, 21))
            cols = int(g.integers(1, 21))
            if i % 3 == 0:
                r = int(g.integers(1, min(rows, cols) + 1))
                m = g.standard_normal((rows, r)) @ g.standard_normal((r, cols))
            else:
                m = g.standard_normal((rows, cols))
            mp = pinv(m)[0]
            scale = max(np.linalg.norm(m), 1e-30)
            assert np.linalg.norm(m @ mp @ m - m) / scale < 1e-8
            assert np.linalg.norm(mp @ m @ mp - mp) / max(np.linalg.norm(mp), 1e-30) < 1e-8
            assert np.linalg.norm((m @ mp).T - m @ mp) / max(np.linalg.norm(m @ mp), 1e-30) < 1e-8
            assert np.linalg.norm((mp @ m).T - mp @ m) / max(np.linalg.norm(mp @ m), 1e-30) < 1e-8

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pinv(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            rank(np.array([[1.0, np.inf], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(100, 150), (322, 600), (23, 100), (60, 32)])
    def test_equals_numpy_pinv_bit_for_bit(self, shape):
        # tanh states as train_readout passes them: p x N, C-ordered.
        g = SeededRng(17).child("states").generator()
        m = np.tanh(g.standard_normal(shape))
        got, full = pinv(m)
        assert np.array_equal(got, np.linalg.pinv(m, rcond=1e-12 * max(shape)))
        assert full == rank(m) == min(shape)

    def test_rank_counts_singular_values_above_the_cutoff(self):
        g = SeededRng(19).child("low-rank").generator()
        m = g.standard_normal((12, 3)) @ g.standard_normal((3, 20))
        assert pinv(m)[1] == rank(m) == rank(m.T) == 3
        assert rank(np.diag([1.0, 1e-11, 1e-13])) == 2  # cutoff 3e-12


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.3, -0.9])) == pytest.approx(0.9, abs=1e-12)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((5, 5))) == 0.0

    def test_matches_gelfand_oracle_on_sparse(self):
        for seed in range(20):
            m = sparse_random_matrix(20, 20, 0.3, -1.0, 1.0, SeededRng(seed).child("w"))
            expected = gelfand_radius(m)
            assert spectral_radius(m) == pytest.approx(expected, rel=1e-6, abs=1e-9)

    def test_complex_pair(self):
        # Rotation scaled by 0.7: eigenvalues 0.7 * exp(+-i theta).
        theta = 0.4
        m = 0.7 * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert spectral_radius(m) == pytest.approx(0.7, abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((3, 4)))

    def test_roundtrip_on_100_random_sparse(self):
        # init_weights' scaling of a sparse draw reaches the target radius.
        for seed in range(100):
            size = 10 + (seed % 40)
            m = sparse_random_matrix(size, size, 0.2, -1.0, 1.0, SeededRng(seed).child("w"))
            if spectral_radius(m) == 0.0:
                continue
            scaled = m * (0.9 / spectral_radius(m))
            assert abs(spectral_radius(scaled) - 0.9) < 1e-6
