import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esnrae.autoencoder as ae_mod
from esnrae import (
    KINDS,
    Dataset,
    DegenerateMatrixError,
    FormatError,
    NumericalError,
    ReservoirConfig,
    SeededRng,
    TrainingError,
    encode,
    fit,
    load_autoencoder,
    make_synthetic,
    reconstruction_error,
    save_autoencoder,
    train_readout,
)


def random_dataset(p=40, k=24, seed=0, split="train", classes=2):
    g = SeededRng(seed).child("dataset").generator()
    return Dataset(
        name="rand",
        patterns=g.standard_normal((p, k)),
        labels=np.arange(p) % classes,
        label_names=tuple(range(classes)),
        split=split,
    )


def train_config(n=30, k=24, beta=0.2, layers=1):
    return ReservoirConfig(n_hidden=n, input_dim=k, connectivity=beta, n_layers=layers)


def chosen_draw_and_readout(t, d):
    """The chosen draw's weights and readout, recomputed from its stream."""
    rng = SeededRng(t.seed).child(f"cand{t.chosen_candidate}")
    wts = ae_mod.init_weights(t.config, rng, recurrent=ae_mod.is_recurrent(t.kind))
    return wts, train_readout(ae_mod.run_collect(wts, d.patterns), d.patterns)[0]


class TestTrainReadout:
    def test_identity_states_identity_targets(self):
        w, rank = train_readout(np.eye(3), np.eye(3))
        assert np.allclose(w, np.eye(3), atol=1e-12)
        assert rank == 3

    def test_underdetermined_interpolates_exactly(self):
        # Fewer patterns than hidden units: least-norm solution reproduces
        # the targets (the 28-pattern / 100-unit regime).
        g = SeededRng(1).child("h").generator()
        h = np.tanh(g.standard_normal((28, 100)))
        targets = g.standard_normal((28, 286))
        w, rank = train_readout(h, targets)
        assert rank == 28
        assert reconstruction_error(w, h, targets) < 1e-8

    def test_overdetermined_matches_normal_equations_oracle(self):
        g = SeededRng(2).child("h").generator()
        h = g.standard_normal((50, 10))
        targets = g.standard_normal((50, 7))
        w, rank = train_readout(h, targets)
        assert rank == 10
        # Independent route: solve the normal equations directly.
        w_oracle = np.linalg.solve(h.T @ h, h.T @ targets).T
        r_ours = np.linalg.norm(h @ w.T - targets)
        r_oracle = np.linalg.norm(h @ w_oracle.T - targets)
        assert abs(r_ours - r_oracle) < 1e-8

    def test_optimality_probe(self):
        # No small perturbation of the returned readout improves the fit.
        g = SeededRng(3).child("h").generator()
        h = g.standard_normal((30, 12))
        targets = g.standard_normal((30, 5))
        w, _ = train_readout(h, targets)
        base = reconstruction_error(w, h, targets)
        for i in range(50):
            delta = SeededRng(i).child("delta").generator().standard_normal(w.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert reconstruction_error(w + delta, h, targets) >= base

    def test_zero_states_rejected(self):
        with pytest.raises(NumericalError):
            train_readout(np.zeros((4, 5)), np.ones((4, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            train_readout(np.ones((5, 4)), np.ones((3, 2)))


class TestReconstructionError:
    def test_perfect_reconstruction_is_zero(self):
        h = np.eye(3)
        assert reconstruction_error(np.eye(3), h, np.eye(3)) == 0.0

    def test_zero_readout_closed_form(self):
        g = SeededRng(4).child("t").generator()
        targets = g.standard_normal((6, 9))
        h = g.standard_normal((6, 5))
        expected = np.linalg.norm(targets, "fro") / 6
        got = reconstruction_error(np.zeros((9, 5)), h, targets)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_trained_readout_beats_100_random_readouts(self):
        g = SeededRng(5).child("t").generator()
        h = np.tanh(g.standard_normal((40, 15)))
        targets = g.standard_normal((40, 8))
        trained = reconstruction_error(train_readout(h, targets)[0], h, targets)
        for i in range(100):
            w = SeededRng(i).child("rand").generator().uniform(-1, 1, (8, 15))
            assert reconstruction_error(w, h, targets) >= trained


class TestFit:
    def test_tying_is_entry_exact(self):
        d = random_dataset()
        for kind, layers in (("esn-rae", 1), ("ml-esn-rae", 2), ("elm-ae", 1), ("ml-elm-ae", 2)):
            t, _ = fit(d, train_config(layers=layers), kind)
            wts, w_out = chosen_draw_and_readout(t, d)
            assert np.array_equal(t.weights.w_in[:, 1:], w_out.T)
            assert np.array_equal(t.weights.w_in[:, 0], wts.w_in[:, 0])

    def test_single_candidate_still_ties_and_recomputes(self):
        d = random_dataset(seed=8)
        t, features = fit(d, train_config(), "esn-rae", 9)
        assert t.chosen_candidate == 0
        assert np.array_equal(t.weights.w_in[:, 1:], chosen_draw_and_readout(t, d)[1].T)
        # Recomputation happened: features come from the tied network.
        assert np.array_equal(encode(t, d), features)

    def test_refit_readout_is_optimal_for_returned_features(self):
        # p >= N: the recorded error is the optimal refit readout's residual.
        d = random_dataset(p=60, k=16, seed=10)
        t, features = fit(d, train_config(n=12, k=16), "esn-rae", 11)
        w_refit, _ = train_readout(features, d.patterns)
        base = reconstruction_error(w_refit, features, d.patterns)
        assert base == t.reconstruction_error
        for i in range(20):
            delta = SeededRng(i).child("d").generator().standard_normal(w_refit.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert reconstruction_error(w_refit + delta, features, d.patterns) >= base

    def test_feature_shape_and_range(self):
        d = random_dataset(p=100, k=96, seed=12)
        cfg = train_config(n=150, k=96, beta=0.1)
        _, features = fit(d, cfg, "esn-rae", 13)
        assert features.shape == (100, 150)
        assert np.abs(features).max() < 1.0

    def test_ml_kind_requires_multiple_layers(self):
        d = random_dataset()
        with pytest.raises(ValueError):
            fit(d, train_config(layers=1), "ml-esn-rae")
        with pytest.raises(ValueError):
            fit(d, train_config(layers=2), "esn-rae")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fit(random_dataset(), train_config(), "vae")

    def test_all_degenerate_candidates_raise_training_error(self, monkeypatch):
        def zero_states(weights, patterns):
            return np.zeros((patterns.shape[0], weights.n_hidden))

        monkeypatch.setattr(ae_mod, "run_collect", zero_states)
        with pytest.raises(TrainingError, match=f"all {ae_mod.MAX_DRAWS} network draws"):
            fit(random_dataset(), train_config(), "esn-rae")

    def test_deterministic(self):
        d = random_dataset(seed=14)
        a, features_a = fit(d, train_config(), "esn-rae", 15)
        b, features_b = fit(d, train_config(), "esn-rae", 15)
        assert np.array_equal(features_a, features_b)
        assert (a.pre_tying_error, a.chosen_candidate) == (b.pre_tying_error, b.chosen_candidate)


def counting_run_collect(monkeypatch, degenerate_calls=()):
    """Count run_collect calls; the listed calls return all-zero states."""
    calls = []
    real = ae_mod.run_collect

    def counted(weights, patterns):
        calls.append(len(calls))
        if len(calls) - 1 in degenerate_calls:
            return np.zeros((patterns.shape[0], weights.n_hidden))
        return real(weights, patterns)

    monkeypatch.setattr(ae_mod, "run_collect", counted)
    return calls


class TestSelectionRule:
    """fit keeps the first draw whose training raises no NumericalError."""

    def test_lazy_choice_equals_full_evaluation(self, monkeypatch):
        # Draws after the first usable one are never made, so only the number
        # of unusable draws (all-zero states) before it matters.
        d = random_dataset(p=6, k=3, seed=50)
        cfg = train_config(n=4, k=3, beta=1.0)
        for first in range(ae_mod.MAX_DRAWS):
            with monkeypatch.context() as m:
                calls = counting_run_collect(m, degenerate_calls=range(first))
                t, _ = fit(d, cfg, "esn-rae", 51)
            assert t.chosen_candidate == first
            assert len(calls) == first + 2  # the draws made, then the tied recompute

    def test_round_off_stops_after_first_non_degenerate(self, monkeypatch):
        calls = counting_run_collect(monkeypatch, degenerate_calls=(0, 1))
        d = random_dataset(p=20, k=12, seed=53)
        t, _ = fit(d, train_config(n=40, k=12), "esn-rae", 54)
        assert t.chosen_candidate == 2
        assert len(calls) == 4
        assert t.pre_tying_error == 0.0


class TestLazyFit:
    @pytest.mark.parametrize("kind", ["esn-rae", "elm-ae"])
    def test_interpolating_fit_trains_one_candidate(self, monkeypatch, kind):
        calls = counting_run_collect(monkeypatch)
        d = random_dataset(p=20, k=12, seed=51)
        t, _ = fit(d, train_config(n=40, k=12), kind, 52)
        assert len(calls) == 2  # one draw, then the tied recompute
        assert t.chosen_candidate == 0
        assert t.pre_tying_error == 0.0

    def test_more_patterns_than_units_trains_one_draw_too(self, monkeypatch):
        # p >= N: the readout no longer interpolates, and still only the first
        # usable draw is trained.
        calls = counting_run_collect(monkeypatch)
        d = random_dataset(p=50, k=12, seed=6)
        t, _ = fit(d, train_config(n=8, k=12), "esn-rae", 7)
        assert len(calls) == 2
        assert t.chosen_candidate == 0
        assert t.pre_tying_error > 0.1

    def test_degenerate_first_candidate_chooses_the_second(self):
        # The oliveoil preset (N = 300, beta = 0.001) at seed 11: every
        # init_weights retry of draw cand0 leaves the recurrent layer nilpotent.
        d = random_dataset(p=30, k=10, seed=53)
        cfg = ReservoirConfig(n_hidden=300, input_dim=10, connectivity=0.001)
        with pytest.raises(DegenerateMatrixError):
            ae_mod.init_weights(cfg, SeededRng(11).child("cand0"))
        t, _ = fit(d, cfg, "esn-rae", 11)
        assert t.chosen_candidate == 1
        draw = ae_mod.init_weights(cfg, SeededRng(11).child("cand1"))
        w_out, _ = train_readout(ae_mod.run_collect(draw, d.patterns), d.patterns)
        assert np.array_equal(t.weights.w_in[:, 0], draw.w_in[:, 0])
        assert np.array_equal(t.weights.w_in[:, 1:], w_out.T)
        assert all(map(np.array_equal, t.weights.w, draw.w))
        assert all(map(np.array_equal, t.weights.b_e, draw.b_e))

    def test_choice_is_the_full_evaluation_choice(self):
        # Train every draw by hand at a size where most sparse draws stay
        # nilpotent; seed 5 gives three unusable draws before a usable one.
        d = random_dataset(p=20, k=12, seed=55)
        cfg = train_config(n=30, k=12, beta=0.005)
        usable = []
        for c in range(ae_mod.MAX_DRAWS):
            try:
                wts = ae_mod.init_weights(cfg, SeededRng(5).child(f"cand{c}"))
                train_readout(ae_mod.run_collect(wts, d.patterns), d.patterns)
            except NumericalError:
                continue
            usable.append(c)
        assert usable[0] == 3
        assert fit(d, cfg, "esn-rae", 5)[0].chosen_candidate == usable[0]


def counting(monkeypatch, name):
    """Record the result of each call fit makes to the autoencoder module's ``name``."""
    results = []
    real = getattr(ae_mod, name)

    def counted(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(ae_mod, name, counted)
    return results


def old_errors(t, d):
    """(pre-tying, final) errors as fit computed them with a refit solve for each."""
    draw = ae_mod.init_weights(
        t.config,
        SeededRng(t.seed).child(f"cand{t.chosen_candidate}"),
        recurrent=ae_mod.is_recurrent(t.kind),
    )
    errors = []
    for weights in (draw, t.weights):
        h = ae_mod.run_collect(weights, d.patterns)
        h_pinv = np.linalg.pinv(h, rcond=1e-12 * max(h.shape))
        errors.append(reconstruction_error((h_pinv @ d.patterns).T, h, d.patterns))
    return tuple(errors)


class TestOneSolve:
    """A full-rank fit solves once; every other fit refits as before."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_full_rank_fit_solves_once_and_records_zero(self, monkeypatch, kind):
        pinvs = counting(monkeypatch, "pinv")
        residuals = counting(monkeypatch, "reconstruction_error")
        layers = 2 if ae_mod.is_multilayer(kind) else 1
        t, _ = fit(random_dataset(p=20, k=12, seed=60), train_config(n=40, k=12, layers=layers), kind)
        assert len(pinvs) == 1
        assert residuals == []
        assert (t.pre_tying_error, t.reconstruction_error) == (0.0, 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_more_patterns_than_units_refits_bit_for_bit(self, monkeypatch, kind):
        # The configs/synth-bench.json shape: p = 60, N = 32, length 64.
        d, _ = make_synthetic(n_train=60, n_test=2, length=64, seed=61)
        layers = 2 if ae_mod.is_multilayer(kind) else 1
        pinvs = counting(monkeypatch, "pinv")
        t, _ = fit(d, train_config(n=32, k=64, layers=layers), kind, 62)
        assert len(pinvs) == 2
        assert (t.pre_tying_error, t.reconstruction_error) == old_errors(t, d)
        assert t.reconstruction_error > 0.1

    def test_rank_deficient_fit_refits(self, monkeypatch):
        # Duplicated rows give duplicated feed-forward state rows, so the
        # states have rank 10 < p = 20 < N = 40.
        base = random_dataset(p=10, k=12, seed=63)
        d = Dataset(
            name=base.name,
            patterns=np.vstack([base.patterns, base.patterns]),
            labels=np.tile(base.labels, 2),
            label_names=base.label_names,
            split=base.split,
        )
        pinvs = counting(monkeypatch, "pinv")
        residuals = counting(monkeypatch, "reconstruction_error")
        t, _ = fit(d, train_config(n=40, k=12), "elm-ae", 64)
        assert [rank for _, rank in pinvs] == [10, 10]
        assert len(residuals) == 2
        assert (t.pre_tying_error, t.reconstruction_error) == old_errors(t, d)


class TestElmStructure:
    def test_feed_forward_ignores_pattern_order(self):
        # Shuffling the patterns permutes the feature rows identically.
        d = random_dataset(p=30, k=10, seed=16)
        t, _ = fit(d, train_config(n=20, k=10), "elm-ae", 17)
        g = SeededRng(18).child("perm").generator()
        perm = g.permutation(30)
        shuffled = Dataset(
            name=d.name,
            patterns=d.patterns[perm],
            labels=d.labels[perm],
            label_names=d.label_names,
            split=d.split,
        )
        assert np.array_equal(encode(t, shuffled), encode(t, d)[perm])

    def test_single_pattern_equals_batch_row(self):
        d = random_dataset(p=12, k=10, seed=19)
        t, _ = fit(d, train_config(n=20, k=10), "elm-ae", 20)
        full = encode(t, d)
        for j in (0, 5, 11):
            one = Dataset(
                name=d.name,
                patterns=d.patterns[j : j + 1],
                labels=d.labels[j : j + 1],
                label_names=d.label_names,
                split=d.split,
            )
            assert np.array_equal(encode(t, one)[0], full[j])

    def test_recurrent_matrices_unused(self):
        d = random_dataset(seed=21)
        t, _ = fit(d, train_config(), "elm-ae", 22)
        assert all(np.count_nonzero(w) == 0 for w in t.weights.w)

    def test_ml_elm_layers_are_feed_forward_too(self):
        d = random_dataset(p=20, k=10, seed=23)
        t, _ = fit(d, train_config(n=15, k=10, layers=2), "ml-elm-ae", 24)
        g = SeededRng(25).child("perm").generator()
        perm = g.permutation(20)
        shuffled = Dataset(
            name=d.name,
            patterns=d.patterns[perm],
            labels=d.labels[perm],
            label_names=d.label_names,
            split=d.split,
        )
        assert np.array_equal(encode(t, shuffled), encode(t, d)[perm])


class TestEncode:
    def test_train_encode_matches_stored_features_bit_exactly(self):
        d = random_dataset(seed=26)
        for kind, layers in (("esn-rae", 1), ("ml-esn-rae", 2)):
            t, features = fit(d, train_config(layers=layers), kind, 27)
            assert np.array_equal(encode(t, d), features)

    def test_carry_mode_is_causal(self):
        # Row j must not depend on later patterns.
        d = random_dataset(p=25, k=10, seed=28)
        t, _ = fit(d, train_config(n=20, k=10), "esn-rae", 29)
        full = encode(t, d)
        cut = 10
        g = SeededRng(30).child("tail").generator()
        patched = d.patterns.copy()
        patched[cut:] = g.standard_normal(patched[cut:].shape)
        altered = Dataset(
            name=d.name,
            patterns=patched,
            labels=d.labels,
            label_names=d.label_names,
            split=d.split,
        )
        got = encode(t, altered)
        assert np.array_equal(got[:cut], full[:cut])
        assert not np.array_equal(got[cut:], full[cut:])

    @pytest.mark.xfail(
        strict=False,
        reason="paired runs show no reliable near-zero-fraction gap between "
        "sparse and dense recurrence: after tying, the input drive dominates "
        "the state distribution, so connectivity barely moves it (measured "
        "~0.023 vs ~0.024 either way across seeds and datasets)",
    )
    def test_sparse_recurrence_yields_more_near_zero_features_than_dense(self):
        # Paired run, same seed, connectivity 0.1 vs 1.0.
        d = random_dataset(p=100, k=96, seed=31)
        fractions = {}
        for beta in (0.1, 1.0):
            cfg = train_config(n=150, k=96, beta=beta)
            _, features = fit(d, cfg, "esn-rae", 32)
            fractions[beta] = np.mean(np.abs(features) < 0.05)
        assert fractions[0.1] > fractions[1.0]

    def test_length_mismatch_rejected(self):
        d = random_dataset(k=24)
        t, _ = fit(d, train_config(), "esn-rae")
        with pytest.raises(ValueError):
            encode(t, random_dataset(k=23))


class TestEnvelope:
    def test_roundtrip_bit_exact(self, tmp_path):
        d = random_dataset(seed=33)
        t, _ = fit(d, train_config(layers=2), "ml-esn-rae", 34)
        path = str(tmp_path / "enc.esnae")
        save_autoencoder(t, path)
        back = load_autoencoder(path)
        assert back.kind == t.kind
        assert back.chosen_candidate == t.chosen_candidate
        assert back.reconstruction_error == t.reconstruction_error
        assert back.pre_tying_error == t.pre_tying_error
        assert (back.config, back.seed) == (t.config, t.seed)
        assert np.array_equal(back.weights.w_in, t.weights.w_in)
        for name in ("w", "w_inter", "b_e"):
            loaded, fitted = getattr(back.weights, name), getattr(t.weights, name)
            assert len(loaded) == len(fitted)
            assert all(map(np.array_equal, loaded, fitted))
        # Loaded encoder encodes identically.
        assert np.array_equal(encode(back, d), encode(t, d))

    def test_bad_magic(self, tmp_path):
        from esnrae import FormatError

        path = tmp_path / "junk.esnae"
        path.write_bytes(b"garbage!" * 4)
        with pytest.raises(FormatError):
            load_autoencoder(str(path))


class TestEnvelopeErrors:
    @pytest.fixture(scope="class")
    def envelope(self, tmp_path_factory):
        t, _ = fit(random_dataset(seed=40), train_config(), "esn-rae", 41)
        path = str(tmp_path_factory.mktemp("env") / "enc.esnae")
        save_autoencoder(t, path)
        with open(path, "rb") as fh:
            return fh.read()

    @staticmethod
    def split(raw):
        """(magic, metadata bytes, everything after the metadata)."""
        hlen = int.from_bytes(raw[8:12], "little")
        return raw[:8], raw[12:12 + hlen], raw[12 + hlen:]

    def load(self, tmp_path, raw):
        path = tmp_path / "bad.esnae"
        path.write_bytes(raw)
        return load_autoencoder(str(path))

    def rebuild(self, raw, meta_bytes):
        magic, _, rest = self.split(raw)
        return magic + len(meta_bytes).to_bytes(4, "little") + meta_bytes + rest

    @pytest.mark.parametrize("cut", [9, 20, 200, -8])
    def test_truncated_envelope(self, tmp_path, envelope, cut):
        from esnrae import FormatError

        with pytest.raises(FormatError):
            self.load(tmp_path, envelope[:cut])

    @pytest.mark.parametrize("extra", [1, 4000])
    def test_trailing_bytes_are_refused(self, tmp_path, envelope, extra):
        from esnrae import FormatError

        with pytest.raises(FormatError, match="follow the weight container"):
            self.load(tmp_path, envelope + b"\x00" * extra)

    def test_oversized_metadata_length(self, tmp_path, envelope):
        from esnrae import FormatError

        raw = envelope[:8] + b"\xff\xff\xff\xff" + envelope[12:]
        with pytest.raises(FormatError, match="declared"):
            self.load(tmp_path, raw)

    def test_corrupt_json(self, tmp_path, envelope):
        from esnrae import FormatError

        _, meta, _ = self.split(envelope)
        broken = meta.replace(b'"kind"', b'"kind ', 1)
        with pytest.raises(FormatError, match="metadata"):
            self.load(tmp_path, self.rebuild(envelope, broken))

    def test_non_utf8_metadata(self, tmp_path, envelope):
        from esnrae import FormatError

        _, meta, _ = self.split(envelope)
        with pytest.raises(FormatError, match="metadata"):
            self.load(tmp_path, self.rebuild(envelope, b"\xff" + meta[1:]))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.pop("config"),
            lambda m: m.update(config=[1, 2]),
            lambda m: m["config"].pop("n_hidden"),
            lambda m: m["config"].update(n_hidden="30"),
            lambda m: m["config"].update(n_hidden=31),
            lambda m: m["config"].update(input_dim=25),
            lambda m: m["config"].update(n_layers=2),
            lambda m: m["config"].update(bogus=1),
            lambda m: m.pop("seed"),
            lambda m: m.update(kind="vae"),
        ],
    )
    def test_bad_or_disagreeing_metadata(self, tmp_path, envelope, edit):
        import json

        from esnrae import FormatError

        _, meta_bytes, _ = self.split(envelope)
        meta = json.loads(meta_bytes)
        edit(meta)
        raw = self.rebuild(envelope, json.dumps(meta).encode())
        with pytest.raises(FormatError):
            self.load(tmp_path, raw)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda m: m.update(seed="s"), id="seed-string"),
            pytest.param(lambda m: m.update(seed=None), id="seed-null"),
            pytest.param(lambda m: m.update(seed=1.5), id="seed-float"),
            pytest.param(lambda m: m.update(chosen_candidate="a"), id="chosen-string"),
            pytest.param(lambda m: m.update(chosen_candidate=-1), id="chosen-negative"),
            pytest.param(lambda m: m.update(reconstruction_error="a"), id="recon-string"),
            pytest.param(lambda m: m.update(pre_tying_error=None), id="pre_tying-null"),
            pytest.param(lambda m: m["config"].update(input_scaling="a"), id="input_scaling-string"),
        ],
    )
    def test_ill_typed_training_metadata(self, tmp_path, envelope, edit):
        import json

        from esnrae import FormatError

        _, meta_bytes, _ = self.split(envelope)
        meta = json.loads(meta_bytes)
        edit(meta)
        with pytest.raises(FormatError):
            self.load(tmp_path, self.rebuild(envelope, json.dumps(meta).encode()))

    @pytest.mark.parametrize("kind", ["esn-rae", "elm-ae"])
    def test_kind_contradicting_the_layer_count(self, tmp_path, kind):
        import json

        t, _ = fit(random_dataset(seed=42), train_config(layers=2), "ml-esn-rae", 43)
        path = str(tmp_path / "ml.esnae")
        save_autoencoder(t, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        _, meta_bytes, _ = self.split(raw)
        meta = json.loads(meta_bytes)
        meta["kind"] = kind
        with pytest.raises(FormatError, match=f"{kind} needs n_layers == 1"):
            self.load(tmp_path, self.rebuild(raw, json.dumps(meta).encode()))

    @pytest.mark.parametrize(
        "fitted, edited, message",
        [
            ("esn-rae", "elm-ae", "elm-ae needs feed-forward layers, got ['recurrent']"),
            ("elm-ae", "esn-rae", "esn-rae needs recurrent layers, got ['feed-forward']"),
        ],
        ids=["esn-rae-as-elm-ae", "elm-ae-as-esn-rae"],
    )
    def test_kind_contradicting_the_recurrence(self, tmp_path, fitted, edited, message):
        import json

        t, _ = fit(random_dataset(seed=46), train_config(), fitted, 47)
        raw = saved_envelope(t, tmp_path / "enc.esnae")
        _, meta_bytes, _ = self.split(raw)
        meta = json.loads(meta_bytes)
        meta["kind"] = edited
        with pytest.raises(FormatError, match=re.escape(message)):
            self.load(tmp_path, self.rebuild(raw, json.dumps(meta).encode()))

    def test_metadata_keys_are_the_encoder_fields_but_weights(self, envelope):
        import dataclasses
        import json

        _, meta_bytes, _ = self.split(envelope)
        fields = {f.name for f in dataclasses.fields(ae_mod.TrainedAutoencoder)}
        assert set(json.loads(meta_bytes)) == fields - {"weights"}

    @pytest.mark.parametrize("key", ["input_scaling", "connectivity", "spectral_radius_target"])
    def test_boolean_config_number_is_refused(self, tmp_path, envelope, key):
        import json

        _, meta_bytes, _ = self.split(envelope)
        meta = json.loads(meta_bytes)
        meta["config"][key] = True
        with pytest.raises(FormatError, match=rf"{key} must be a finite number, got True"):
            self.load(tmp_path, self.rebuild(envelope, json.dumps(meta).encode()))

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_envelope_versions_are_refused(self, tmp_path, envelope, version):
        magic = b"ESNRAE\x00" + bytes([version])
        with pytest.raises(FormatError, match=re.escape(f"not an encoder envelope (magic {magic!r})")):
            self.load(tmp_path, magic + envelope[8:])


    def test_deeply_nested_metadata_is_a_format_error(self, tmp_path, envelope):
        from esnrae import FormatError

        with pytest.raises(FormatError, match="unreadable encoder metadata"):
            self.load(tmp_path, self.rebuild(envelope, b"[" * 100000))

    def test_version_3_holds_metadata_and_weights_only(self, envelope):
        import io
        import json

        from esnrae.reservoir import load_weights

        magic, meta_bytes, rest = self.split(envelope)
        assert magic == b"ESNRAE\x00\x03"
        meta = json.loads(meta_bytes)
        retired = {"reset_policy", "pinv_tolerance", "n_candidates", "candidate_errors"}
        assert not retired & set(meta)
        fh = io.BytesIO(rest)
        assert load_weights(fh).n_hidden == 30
        assert fh.read() == b""

    def test_metadata_keys_the_writer_does_not_write_are_refused(self, tmp_path, envelope):
        import json

        # n_candidates and candidate_errors were written before candidate
        # selection was removed; no current writer emits them.
        _, meta_bytes, _ = self.split(envelope)
        meta = json.loads(meta_bytes)
        meta.update(n_candidates=10, candidate_errors=[1e-15])
        with pytest.raises(
            FormatError,
            match=re.escape("unknown encoder metadata keys ['candidate_errors', 'n_candidates']"),
        ):
            self.load(tmp_path, self.rebuild(envelope, json.dumps(meta).encode()))

    def test_untouched_envelope_still_loads(self, tmp_path, envelope):
        import json

        _, meta_bytes, _ = self.split(envelope)
        raw = self.rebuild(envelope, json.dumps(json.loads(meta_bytes)).encode())
        assert self.load(tmp_path, raw).weights.n_hidden == 30


class TestTrainedAutoencoderChecks:
    @pytest.fixture(scope="class")
    def trained(self):
        return fit(random_dataset(seed=44), train_config(), "esn-rae", 45)[0]

    @pytest.mark.parametrize(
        "changes, cfg_changes, message",
        [
            ({"chosen_candidate": -1}, {}, "chosen_candidate must be >= 0, got -1"),
            ({"kind": "ml-esn-rae"}, {}, "ml-esn-rae needs n_layers >= 2, got 1"),
            ({}, {"n_hidden": 31}, "config n_hidden=31 disagrees with the weights (30)"),
            ({}, {"input_dim": 23}, "config input_dim=23 disagrees with the weights (24)"),
            ({"kind": "elm-ae"}, {}, "elm-ae needs feed-forward layers, got ['recurrent']"),
        ],
        ids=["negative-draw", "kind", "n_hidden", "input_dim", "recurrence"],
    )
    def test_inconsistent_encoder_is_refused(self, trained, changes, cfg_changes, message):
        from dataclasses import replace

        config = replace(trained.config, **cfg_changes)
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(trained, config=config, **changes)


def saved_envelope(t, path):
    save_autoencoder(t, str(path))
    return path.read_bytes()


class TestEnvelopeProperties:
    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        """A scratch directory and a small valid envelope (a few hundred bytes of blocks)."""
        d = tmp_path_factory.mktemp("envprop")
        t, _ = fit(random_dataset(p=6, k=3, seed=50), train_config(n=4, k=3, beta=1.0), "esn-rae", 51)
        return d, saved_envelope(t, d / "valid.esnae")

    @staticmethod
    def load_bytes(d, raw):
        path = d / "case.esnae"
        path.write_bytes(raw)
        return load_autoencoder(str(path))

    def test_every_truncation_is_refused(self, work):
        d, valid = work
        for cut in range(len(valid)):
            with pytest.raises(FormatError):
                self.load_bytes(d, valid[:cut])

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_any_bytes_load_or_raise_format_error(self, work, data):
        d, valid = work
        raw = data.draw(
            st.one_of(
                st.binary(max_size=400),
                st.binary(max_size=400).map(lambda b: valid[:8] + b),
                st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
                    lambda e: valid[: e[0]] + bytes([e[1]]) + valid[e[0] + 1 :]
                ),
            )
        )
        try:
            self.load_bytes(d, raw)
        except FormatError:
            pass

    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_save_load_save_is_byte_identical(self, work, kind, seed):
        d, _ = work
        layers = 2 if ae_mod.is_multilayer(kind) else 1
        cfg = train_config(n=4, k=3, beta=1.0, layers=layers)
        first = saved_envelope(fit(random_dataset(p=6, k=3, seed=seed), cfg, kind, seed)[0], d / "a.esnae")
        again = saved_envelope(load_autoencoder(str(d / "a.esnae")), d / "b.esnae")
        assert again == first

    def test_envelope_holding_a_version_1_container_is_refused(self, work):
        d, valid = work
        hlen = int.from_bytes(valid[8:12], "little")
        at = 12 + hlen  # the weight container starts after the metadata
        assert valid[at : at + 8] == b"ESNWGT\x00\x02"
        v1 = valid[:at] + b"ESNWGT\x00\x01" + valid[at + 8 :]
        with pytest.raises(FormatError, match=re.escape(f"not a weight container (magic {v1[at : at + 8]!r})")):
            self.load_bytes(d, v1)
