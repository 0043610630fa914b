"""The hot-path shortcuts change no output bit.

Each shortcut (one spectral radius per distinct draw, a grid-scoped radius
memo, no product with an all-zero recurrent matrix, one shape check per
``run_collect``, the lockstep Pegasos loop) is pinned against the plain
computation it replaces. The plain classifier computation is the
per-problem loop on the design of F-ordered features; the classifier
depends on the feature values only, so C-ordered features give the same
bits.
"""

import numpy as np
import pytest

import esnrae.bench as bench_mod
import esnrae.reservoir as res_mod
from esnrae import (
    Dataset,
    ExperimentSpec,
    ReservoirConfig,
    SeededRng,
    init_weights,
    parse_ucr_pair,
    run_collect,
    run_experiment,
    scale_to_spectral_radius,
    sparse_random_matrix,
    step,
)
from esnrae.autoencoder import RaeTrainSpec, fit
from esnrae.classifier import (
    ClassifierParams,
    Standardized,
    standardize,
    train_classifier,
    train_classifiers,
)


def config(n=16, k=6, beta=0.25, layers=1):
    return ReservoirConfig(n_hidden=n, input_dim=k, connectivity=beta, n_layers=layers)


def stepped(weights, patterns, policy):
    """Column j of the last layer by chaining public ``step`` calls.

    Under ``"reset"`` each pattern starts from the zero state instead.
    """
    n, m = weights.n_hidden, weights.n_layers
    zero = [np.zeros(n) for _ in range(m)]
    state = zero
    columns = []
    for u in patterns:
        state = step(weights, zero if policy == "reset" else state, u)
        columns.append(state[-1])
    return np.stack(columns, axis=1)


class TestRunCollectEqualsStep:
    @pytest.mark.parametrize("recurrent", [True, False])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("policy", ["carry", "reset"])
    def test_columns_equal_chained_steps(self, recurrent, layers, policy):
        # Stepping every pattern from the zero state gives exactly the states
        # of the same draw without recurrence: the ELM variant's features.
        cfg = config(layers=layers)
        weights = init_weights(cfg, SeededRng(3), recurrent=recurrent)
        collected = weights if policy == "carry" else init_weights(cfg, SeededRng(3), recurrent=False)
        patterns = SeededRng(4).generator().standard_normal((9, cfg.input_dim))
        assert np.array_equal(run_collect(collected, patterns), stepped(weights, patterns, policy))

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


class TestFeatureLayout:
    """Encoders emit C-ordered features; ``esnrae classify`` reads them F-ordered."""

    @pytest.mark.parametrize("recurrent", [True, False])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_run_collect_returns_c_ordered_features(self, recurrent, layers):
        cfg = config(layers=layers)
        weights = init_weights(cfg, SeededRng(7), recurrent=recurrent)
        patterns = SeededRng(8).generator().standard_normal((9, cfg.input_dim))
        h = run_collect(weights, patterns)
        assert h.shape == (cfg.n_hidden, 9)
        assert h.dtype == np.float64
        assert h.flags.c_contiguous


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
        # Per run: esn-rae draws w1; ml-esn-rae draws the same w1 plus a w2.
        # Every noise level repeats the clean level.
        distinct = 2 * 2  # runs x {w1, w2}
        assert len(draws) == 2 * 2 * 3  # levels x runs x layers drawn
        assert len(set(seen)) == distinct
        assert len(seen) == distinct

    def test_report_equals_unshared_cells(self, synth_files):
        spec = grid_spec(synth_files)
        report = run_experiment(spec)
        d_train, d_test = parse_ucr_pair(
            spec.train_path, spec.test_path, name=spec.dataset_name, normalized=spec.normalize
        )
        for cell in report.cells:
            dtr, dte = bench_mod._noised(spec, d_train, d_test, cell.snr_db, cell.seed)
            encoded = bench_mod._encode_cell(
                spec, report.dataset, cell.method, cell.snr_db, cell.run, dtr, dte
            )
            (alone,) = bench_mod._classify(spec, [encoded], dtr.labels, dte.labels, cell.seed)
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
        labels = np.where(y > 0, 0, 1)  # class 0 is the +1 problem
        params = ClassifierParams(reg_lambda=reg_lambda, epochs=7, seed=10)
        design = Standardized(x=x, mean=np.zeros(12), scale=np.ones(12))
        (clf,) = train_classifiers([design], labels, params)
        rng = SeededRng(10).child("class0")
        assert np.array_equal(clf.weights[0], reference_pegasos(x, y, params, rng))


def reference_design(features):
    """The classifier's standardized design as first written, on F-ordered features."""
    features = np.asfortranarray(features)
    mean = features.mean(axis=1)
    std = features.std(axis=1)
    scale = np.where(std == 0.0, 1.0, std)
    z = (features - mean[:, None]) / scale[:, None]
    return np.hstack([z.T, np.ones((z.shape[1], 1))]), mean, scale


class TestLockstepPegasos:
    """One train_classifiers call equals the per-problem loop, row by row."""

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("reg_lambda", [1e-4, 1e-1])
    def test_each_row_equals_the_reference_loop(self, reg_lambda, n_classes):
        g = SeededRng(11).generator()
        labels = np.arange(40) % n_classes
        g.shuffle(labels)
        params = ClassifierParams(reg_lambda=reg_lambda, epochs=4, seed=n_classes)
        # Interleaved widths, in no sorted order, in both memory orders.
        features = []
        for width, order in [(12, "C"), (7, "F"), (48, "C"), (7, "C"), (12, "F")]:
            f = g.standard_normal((width, len(labels))) + labels
            features.append(np.asfortranarray(f) if order == "F" else np.ascontiguousarray(f))
        classifiers = train_classifiers([standardize(f) for f in features], labels, params)
        assert len(classifiers) == len(features)
        for f, clf in zip(features, classifiers):
            x, mean, scale = reference_design(f)
            assert x.flags.c_contiguous  # unit-stride rows
            assert np.array_equal(clf.mean, mean) and np.array_equal(clf.scale, scale)
            assert clf.weights.shape == (n_classes, x.shape[1])
            for c, row in enumerate(clf.weights):
                y = np.where(labels == c, 1.0, -1.0)
                rng = SeededRng(params.seed).child(f"class{c}")
                assert np.array_equal(row, reference_pegasos(x, y, params, rng))
            alone = train_classifier(f, labels, params)
            assert np.array_equal(clf.weights, alone.weights)
            assert np.array_equal(clf.mean, alone.mean) and np.array_equal(clf.scale, alone.scale)

    @staticmethod
    def margin_on_the_edge(labels, seed):
        """Features and params whose second margin is 1.0 up to summation order.

        OpenBLAS sums ``w @ x`` in one order when both vectors have unit
        stride and in another when x is a row of an F-ordered matrix. Each
        draw standardizes random features and picks ``reg_lambda`` so that,
        after the first step (projected onto the ball), class 0's second
        margin is 1.0 in exact arithmetic. The search returns the first
        (features, params) for which the two orders put that margin on
        opposite sides of 1.0, or None.
        """
        y = np.where(labels == 0, 1.0, -1.0)
        first, second = SeededRng(0).child("class0").generator().permutation(len(labels))[:2]
        g = SeededRng(seed).generator()
        for _ in range(400):
            features = g.standard_normal((39, len(labels)))
            x = standardize(features).x
            # The projected first step is y1 * x1 scaled to length 1/sqrt(lam),
            # which puts the second margin at along / sqrt(lam).
            along = y[first] * y[second] * (x[first] @ x[second]) / np.linalg.norm(x[first])
            if along <= 0.0:
                continue
            params = ClassifierParams(reg_lambda=along * along, epochs=1, seed=0)
            lam, radius = params.reg_lambda, 1.0 / np.sqrt(params.reg_lambda)
            w = 1.0 / lam * y[first] * x[first]
            norm = np.linalg.norm(w)
            if norm > radius:
                w *= radius / norm
            unit = y[second] * (w @ x[second])
            strided = y[second] * (w @ np.asfortranarray(x)[second])
            if (unit < 1.0) != (strided < 1.0):
                return features, params
        return None

    @staticmethod
    def esn_rae_features():
        """esn-rae training features at ECG200 shape (N = 150, p = 100)."""
        g = SeededRng(14).generator()
        d = Dataset(name="ecg200", patterns=g.standard_normal((100, 96)),
                    labels=np.arange(100) % 2, label_names=(0, 1), split="train")
        cfg = ReservoirConfig(n_hidden=150, input_dim=96, connectivity=0.1)
        _, features = fit(d, RaeTrainSpec(cfg=cfg, seed=1), "esn-rae")
        return features, d.labels, ClassifierParams(seed=1)

    @pytest.mark.parametrize("case", ["margin-on-the-edge", "esn-rae-ecg200"])
    def test_layout_does_not_change_the_classifier(self, case):
        if case == "margin-on-the-edge":
            labels = np.array([0, 1, 1])
            found = self.margin_on_the_edge(labels, seed=13)
            if found is None:
                pytest.skip("this BLAS sums unit-stride and strided dots alike")
            features, params = found
        else:
            features, labels, params = self.esn_rae_features()
        c_order, f_order = np.ascontiguousarray(features), np.asfortranarray(features)
        a, b = standardize(c_order), standardize(f_order)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.scale, b.scale)
        assert np.array_equal(a.x, b.x)
        by_c = train_classifier(c_order, labels, params)
        by_f = train_classifier(f_order, labels, params)
        assert np.array_equal(by_c.mean, by_f.mean) and np.array_equal(by_c.scale, by_f.scale)
        assert np.array_equal(by_c.weights, by_f.weights)
        # Both equal the per-problem loop on the (C-ordered) design.
        for c, row in enumerate(by_c.weights):
            y = np.where(labels == c, 1.0, -1.0)
            rng = SeededRng(params.seed).child(f"class{c}")
            assert np.array_equal(row, reference_pegasos(a.x, y, params, rng))
