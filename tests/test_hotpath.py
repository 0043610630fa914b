"""The hot-path shortcuts change no output bit.

Each shortcut (one spectral radius per distinct draw, a grid-scoped radius
memo, no product with an all-zero recurrent matrix, one shape check per
``run_collect``, the lockstep Pegasos loop) is pinned against the plain
computation it replaces.
"""

import numpy as np
import pytest

import esnrae.bench as bench_mod
import esnrae.reservoir as res_mod
from esnrae import (
    ExperimentSpec,
    ReservoirConfig,
    SeededRng,
    init_weights,
    run_collect,
    run_experiment,
    scale_to_spectral_radius,
    sparse_random_matrix,
    step,
)
from esnrae.classifier import (
    ClassifierParams,
    Standardized,
    _pegasos,
    standardize,
    train_classifiers,
)


def config(n=16, k=6, beta=0.25, layers=1):
    return ReservoirConfig(n_hidden=n, input_dim=k, connectivity=beta, n_layers=layers)


def stepped(weights, patterns, policy):
    """Column j of every layer by chaining public ``step`` calls."""
    n, m = weights.n_hidden, weights.n_layers
    zero = [np.zeros(n) for _ in range(m)]
    state = zero
    columns = []
    for u in patterns:
        state = step(weights, zero if policy == "reset" else state, u)
        columns.append(state)
    return [np.stack([c[i] for c in columns], axis=1) for i in range(m)]


class TestRunCollectEqualsStep:
    @pytest.mark.parametrize("recurrent", [True, False])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("policy", ["carry", "reset"])
    def test_columns_equal_chained_steps(self, recurrent, layers, policy):
        cfg = config(layers=layers)
        weights = init_weights(cfg, SeededRng(3), recurrent=recurrent)
        patterns = SeededRng(4).generator().standard_normal((9, cfg.input_dim))
        trace = run_collect(weights, patterns, policy)
        expected = stepped(weights, patterns, policy)
        assert len(trace.layers) == layers
        for got, want in zip(trace.layers, expected):
            assert np.array_equal(got, want)

    def test_step_matches_the_dense_formula_with_zero_recurrence(self):
        weights = init_weights(config(layers=2), SeededRng(5), recurrent=False)
        g = SeededRng(6).generator()
        prev = [g.standard_normal(16), g.standard_normal(16)]
        u = g.standard_normal(6)
        got = step(weights, prev, u)
        h1 = np.tanh(weights.w_in[:, 0] + weights.w_in[:, 1:] @ u
                     + weights.w[0] @ prev[0] + weights.b_e[0])
        h2 = np.tanh(weights.w_inter[0] @ h1 + weights.w[1] @ prev[1] + weights.b_e[1])
        assert np.array_equal(got[0], h1)
        assert np.array_equal(got[1], h2)


class TestRadiusMemo:
    def test_weights_equal_inside_and_outside_the_memo(self):
        cfg = config(n=30, layers=2)
        outside = init_weights(cfg, SeededRng(7).child("cand0"))
        with res_mod.radius_memo():
            first = init_weights(cfg, SeededRng(7).child("cand0"))
            hit = init_weights(cfg, SeededRng(7).child("cand0"))
        for w in (first, hit):
            for a, b in zip(w.w, outside.w):
                assert np.array_equal(a, b)

    def test_single_radius_equals_scale_to_spectral_radius(self):
        cfg = config(n=25)
        rng = SeededRng(8)
        raw = sparse_random_matrix(25, 25, cfg.connectivity, -1.0, 1.0, rng.child("w1"))
        expected = scale_to_spectral_radius(raw, cfg.spectral_radius_target)
        assert np.array_equal(init_weights(cfg, rng).w[0], expected)


def grid_spec(synth_files, **kw):
    train, test = synth_files
    defaults = dict(
        train_path=train,
        test_path=test,
        raw_baseline=False,
        n_hidden=20,
        connectivity=0.2,
        n_candidates=2,
        n_runs=2,
        noise_levels=(None, 10.0),
        epochs=5,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def count_radius_calls(monkeypatch):
    """Record the bytes of every matrix whose radius is computed."""
    seen = []
    original = res_mod.spectral_radius

    def counting(w):
        seen.append(np.asarray(w).tobytes())
        return original(w)

    monkeypatch.setattr(res_mod, "spectral_radius", counting)
    return seen


class TestGridSharesRadii:
    def test_one_radius_per_distinct_draw(self, synth_files, monkeypatch):
        seen = count_radius_calls(monkeypatch)
        draws = []
        original_draw = res_mod.sparse_random_matrix

        def drawing(*args):
            draws.append(1)
            return original_draw(*args)

        monkeypatch.setattr(res_mod, "sparse_random_matrix", drawing)
        report = run_experiment(grid_spec(synth_files))
        assert not report.invalid_cells
        # Per run: esn-rae draws w1 for each candidate; ml-esn-rae draws the
        # same w1 plus a w2. Every noise level repeats the clean level.
        distinct = 2 * 2 * 2  # runs x candidates x {w1, w2}
        assert len(draws) == 2 * 2 * 2 * 3  # levels x runs x candidates x layers drawn
        assert len(set(seen)) == distinct
        assert len(seen) == distinct

    def test_report_equals_unshared_cells(self, synth_files):
        spec = grid_spec(synth_files)
        report = run_experiment(spec)
        d_train, d_test = bench_mod._prepare_data(spec)
        for cell in report.cells:
            dtr, dte = bench_mod._noised(spec, d_train, d_test, cell.snr_db, cell.seed)
            alone = bench_mod._run_cell(
                spec, report.dataset, cell.method, cell.snr_db, cell.run, dtr, dte
            )
            assert (alone.er, alone.recon_error) == (cell.er, cell.recon_error)

    def test_memo_open_during_the_grid_and_gone_after(self, synth_files, monkeypatch):
        open_during = []
        real_fit = bench_mod.fit

        def watching_fit(d, spec, kind):
            open_during.append(res_mod._radius_memo is not None)
            return real_fit(d, spec, kind)

        monkeypatch.setattr(bench_mod, "fit", watching_fit)
        run_experiment(grid_spec(synth_files, n_runs=1, noise_levels=(None,)))
        assert open_during and all(open_during)
        assert res_mod._radius_memo is None

    def test_memo_gone_after_the_grid_raises(self, synth_files, monkeypatch):
        def crashing_fit(d, spec, kind):
            raise RuntimeError("not a cell error")

        monkeypatch.setattr(bench_mod, "fit", crashing_fit)
        with pytest.raises(RuntimeError):
            run_experiment(grid_spec(synth_files))
        assert res_mod._radius_memo is None


def reference_pegasos(x, y, params, rng):
    """The classifier's averaged Pegasos loop as first written."""
    lam = params.reg_lambda
    p = x.shape[0]
    w = np.zeros(x.shape[1])
    w_sum = np.zeros(x.shape[1])
    radius = 1.0 / np.sqrt(lam)
    g = rng.generator()
    t = 0
    for _ in range(params.epochs):
        for i in g.permutation(p):
            t += 1
            eta = 1.0 / (lam * t)
            margin = y[i] * (w @ x[i])
            w *= 1.0 - 1.0 / t
            if margin < 1.0:
                w += eta * y[i] * x[i]
            norm = np.linalg.norm(w)
            if norm > radius:
                w *= radius / norm
            w_sum += w
    return w_sum / t


class TestPegasos:
    @pytest.mark.parametrize("reg_lambda", [1e-4, 1e-1])
    def test_equals_reference_loop(self, reg_lambda):
        g = SeededRng(9).generator()
        x = np.hstack([g.standard_normal((60, 12)), np.ones((60, 1))])
        y = np.where(g.standard_normal(60) + x[:, 0] > 0, 1.0, -1.0)
        params = ClassifierParams(reg_lambda=reg_lambda, epochs=7, seed=0)
        rng = SeededRng(10).child("class0")
        assert np.array_equal(_pegasos(x, y, params, rng), reference_pegasos(x, y, params, rng))


def reference_design(features):
    """The classifier's standardized design as first written."""
    mean = features.mean(axis=1)
    std = features.std(axis=1)
    scale = np.where(std == 0.0, 1.0, std)
    z = (features - mean[:, None]) / scale[:, None]
    return np.hstack([z.T, np.ones((z.shape[1], 1))]), mean, scale


class TestLockstepPegasos:
    """One train_classifiers call equals the per-problem loop, row by row."""

    @staticmethod
    def job(g, width, n_classes, order, reg_lambda, seed, n_patterns=40):
        labels = np.arange(n_patterns) % n_classes
        g.shuffle(labels)
        features = g.standard_normal((width, n_patterns)) + labels
        features = np.asfortranarray(features) if order == "F" else np.ascontiguousarray(features)
        return features, labels, ClassifierParams(reg_lambda=reg_lambda, epochs=4, seed=seed)

    @pytest.mark.parametrize("reg_lambda", [1e-4, 1e-1])
    def test_each_row_equals_the_reference_loop(self, reg_lambda):
        g = SeededRng(11).generator()
        jobs = [
            self.job(g, width, n_classes, order, reg_lambda, seed, n_patterns)
            for seed, (width, n_classes, order, n_patterns) in enumerate(
                [(12, 2, "C", 40), (12, 3, "F", 40), (7, 3, "C", 40), (7, 2, "F", 40),
                 (12, 2, "F", 40), (12, 2, "C", 30)]
            )
        ]
        classifiers = train_classifiers(jobs)
        assert len(classifiers) == len(jobs)
        for (features, labels, params), clf in zip(jobs, classifiers):
            x, mean, scale = reference_design(features)
            # C-ordered features give a design with strided rows.
            assert x.flags.f_contiguous == features.flags.c_contiguous
            assert np.array_equal(clf.mean, mean) and np.array_equal(clf.scale, scale)
            assert clf.weights.shape == (labels.max() + 1, x.shape[1])
            for c, row in enumerate(clf.weights):
                y = np.where(labels == c, 1.0, -1.0)
                rng = SeededRng(params.seed).child(f"class{c}")
                assert np.array_equal(row, reference_pegasos(x, y, params, rng))

    def test_standardized_jobs_equal_feature_jobs(self):
        g = SeededRng(12).generator()
        jobs = [self.job(g, 9, 3, order, 1e-3, 5) for order in ("C", "F")]
        direct = train_classifiers(jobs)
        prepared = train_classifiers([(standardize(f), y, p) for f, y, p in jobs])
        for a, b in zip(direct, prepared):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.scale, b.scale)

    @staticmethod
    def margin_on_the_edge(params, y, seed):
        """A 2-pattern design whose second margin is 1.0 up to summation order.

        OpenBLAS sums ``w @ x`` in one order when both vectors have unit
        stride and in another when x is a row of an F-ordered matrix. The
        search returns a C-ordered design for which the two orders put the
        margin of the second step on opposite sides of 1.0, or None.
        """
        first, second = SeededRng(params.seed).child("class0").generator().permutation(2)
        g = SeededRng(seed).generator()
        for _ in range(400):
            x = np.empty((2, 40))
            x[first] = g.standard_normal(40)
            w = (1.0 / params.reg_lambda) * y[first] * x[first]
            norm = np.linalg.norm(w)
            if norm > 1.0 / np.sqrt(params.reg_lambda):
                w *= (1.0 / np.sqrt(params.reg_lambda)) / norm
            v = g.standard_normal(40)
            x[second] = y[second] * v / (w @ v)
            unit = y[second] * (w @ x[second])
            strided = y[second] * (w @ np.asfortranarray(x)[second])
            if (unit < 1.0) != (strided < 1.0):
                return x
        return None

    def test_margin_dot_keeps_the_row_stride(self):
        params = ClassifierParams(reg_lambda=0.1, epochs=1, seed=3)
        labels = np.array([0, 1])
        y = np.where(labels == 0, 1.0, -1.0)
        x = self.margin_on_the_edge(params, y, seed=13)
        if x is None:
            pytest.skip("this BLAS sums unit-stride and strided dots alike")
        x_f = np.asfortranarray(x)
        rng = SeededRng(params.seed).child("class0")
        by_rows = reference_pegasos(x, y, params, rng)
        by_strided_rows = reference_pegasos(x_f, y, params, rng)
        assert not np.array_equal(by_rows, by_strided_rows)
        assert np.array_equal(_pegasos(x, y, params, rng), by_rows)
        assert np.array_equal(_pegasos(x_f, y, params, rng), by_strided_rows)
        # Both layouts in one lockstep pass.
        stats = dict(mean=np.zeros(39), scale=np.ones(39))
        both = train_classifiers([
            (Standardized(x=x, strided_rows=False, **stats), labels, params),
            (Standardized(x=x, strided_rows=True, **stats), labels, params),
        ])
        assert np.array_equal(both[0].weights[0], by_rows)
        assert np.array_equal(both[1].weights[0], by_strided_rows)
