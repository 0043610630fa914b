import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esnrae.autoencoder as ae_mod
from esnrae import (
    KINDS,
    Dataset,
    FormatError,
    NumericalError,
    RaeTrainSpec,
    ReservoirConfig,
    SeededRng,
    StateTrace,
    TrainingError,
    encode,
    fit,
    load_autoencoder,
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


def train_spec(n=30, k=24, beta=0.2, layers=1, candidates=3, seed=0, policy="carry"):
    cfg = ReservoirConfig(
        n_hidden=n, input_dim=k, connectivity=beta, n_layers=layers
    )
    return RaeTrainSpec(cfg=cfg, n_candidates=candidates, seed=seed, reset_policy=policy)


class TestTrainReadout:
    def test_identity_states_identity_targets(self):
        w = train_readout(np.eye(3), np.eye(3))
        assert np.allclose(w, np.eye(3), atol=1e-12)

    def test_underdetermined_interpolates_exactly(self):
        # Fewer patterns than hidden units: least-norm solution reproduces
        # the targets (the 28-pattern / 100-unit regime).
        g = SeededRng(1).child("h").generator()
        h = np.tanh(g.standard_normal((100, 28)))
        targets = g.standard_normal((28, 286))
        w = train_readout(h, targets)
        assert reconstruction_error(w, h, targets) < 1e-8

    def test_overdetermined_matches_normal_equations_oracle(self):
        g = SeededRng(2).child("h").generator()
        h = g.standard_normal((10, 50))
        targets = g.standard_normal((50, 7))
        w = train_readout(h, targets)
        # Independent route: solve the normal equations directly.
        w_oracle = np.linalg.solve(h @ h.T, h @ targets).T
        r_ours = np.linalg.norm(w @ h - targets.T)
        r_oracle = np.linalg.norm(w_oracle @ h - targets.T)
        assert abs(r_ours - r_oracle) < 1e-8

    def test_optimality_probe(self):
        # No small perturbation of the returned readout improves the fit.
        g = SeededRng(3).child("h").generator()
        h = g.standard_normal((12, 30))
        targets = g.standard_normal((30, 5))
        w = train_readout(h, targets)
        base = reconstruction_error(w, h, targets)
        for i in range(50):
            delta = SeededRng(i).child("delta").generator().standard_normal(w.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert reconstruction_error(w + delta, h, targets) >= base

    def test_zero_states_rejected(self):
        with pytest.raises(NumericalError):
            train_readout(np.zeros((5, 4)), np.ones((4, 3)))

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
        h = g.standard_normal((5, 6))
        expected = np.linalg.norm(targets, "fro") / 6
        got = reconstruction_error(np.zeros((9, 5)), h, targets)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_trained_readout_beats_100_random_readouts(self):
        g = SeededRng(5).child("t").generator()
        h = np.tanh(g.standard_normal((15, 40)))
        targets = g.standard_normal((40, 8))
        trained = reconstruction_error(train_readout(h, targets), h, targets)
        for i in range(100):
            w = SeededRng(i).child("rand").generator().uniform(-1, 1, (8, 15))
            assert reconstruction_error(w, h, targets) >= trained


class TestFit:
    def test_tying_is_entry_exact(self):
        d = random_dataset()
        for kind, layers in (("esn-rae", 1), ("ml-esn-rae", 2), ("elm-ae", 1), ("ml-elm-ae", 2)):
            t = fit(d, train_spec(layers=layers), kind)
            assert np.array_equal(t.weights.w_in[:, 1:], t.w_out.T)

    def test_selection_picks_minimum_error(self):
        d = random_dataset(p=50, k=12, seed=6)
        t = fit(d, train_spec(n=8, k=12, candidates=6, seed=7), "esn-rae")
        assert t.chosen_candidate == int(np.argmin(t.candidate_errors))
        assert t.pre_tying_error == min(t.candidate_errors)
        assert all(t.pre_tying_error <= err for err in t.candidate_errors)

    def test_single_candidate_still_ties_and_recomputes(self):
        d = random_dataset(seed=8)
        t = fit(d, train_spec(candidates=1, seed=9), "esn-rae")
        assert t.chosen_candidate == 0
        assert len(t.candidate_errors) == 1
        assert np.array_equal(t.weights.w_in[:, 1:], t.w_out.T)
        # Recomputation happened: features come from the tied network.
        trace = encode(t, d)
        assert np.array_equal(trace, t.features_train)

    def test_refit_readout_is_optimal_for_stored_features(self):
        d = random_dataset(p=60, k=16, seed=10)
        t = fit(d, train_spec(n=12, k=16, seed=11), "esn-rae")
        base = reconstruction_error(t.w_out_refit, t.features_train, d.patterns)
        assert base == pytest.approx(t.reconstruction_error, rel=1e-12)
        for i in range(20):
            delta = SeededRng(i).child("d").generator().standard_normal(t.w_out_refit.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert reconstruction_error(t.w_out_refit + delta, t.features_train, d.patterns) >= base

    def test_feature_shape_and_range(self):
        d = random_dataset(p=100, k=96, seed=12)
        spec = train_spec(n=150, k=96, beta=0.1, candidates=2, seed=13)
        t = fit(d, spec, "esn-rae")
        assert t.features_train.shape == (150, 100)
        assert np.abs(t.features_train).max() < 1.0

    def test_ml_kind_requires_multiple_layers(self):
        d = random_dataset()
        with pytest.raises(ValueError):
            fit(d, train_spec(layers=1), "ml-esn-rae")
        with pytest.raises(ValueError):
            fit(d, train_spec(layers=2), "esn-rae")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fit(random_dataset(), train_spec(), "vae")

    def test_all_degenerate_candidates_raise_training_error(self, monkeypatch):
        def zero_trace(weights, patterns, policy):
            return StateTrace(layers=(np.zeros((weights.n_hidden, patterns.shape[0])),))

        monkeypatch.setattr(ae_mod, "run_collect", zero_trace)
        with pytest.raises(TrainingError):
            fit(random_dataset(), train_spec(candidates=3), "esn-rae")

    def test_deterministic(self):
        d = random_dataset(seed=14)
        a = fit(d, train_spec(seed=15), "ml-esn-rae" if False else "esn-rae")
        b = fit(d, train_spec(seed=15), "esn-rae")
        assert np.array_equal(a.features_train, b.features_train)
        assert a.candidate_errors == b.candidate_errors


def full_choice(errors, tol):
    """The selection rule over every candidate: lowest index within tol of the minimum."""
    best = min(errors)
    return min(i for i, e in enumerate(errors) if e <= best + tol)


class TestSelectionRule:
    TOL = 1e-9

    def scripted(self, errors):
        def score(c):
            if np.isinf(errors[c]):
                raise NumericalError("degenerate")
            return errors[c], c

        return score

    def random_errors(self, g):
        n = int(g.integers(1, 11))
        regime = g.integers(4)
        errors = []
        for _ in range(n):
            if g.random() < 0.25:
                errors.append(float("inf"))
            elif regime == 0:  # round-off, as when the readout interpolates
                errors.append(float(g.uniform(0.0, 6e-15)))
            elif regime == 1:  # near-ties around one value
                errors.append(0.3 + float(g.uniform(-1.5, 1.5)) * self.TOL)
            elif regime == 2:  # near-ties at the tolerance itself
                errors.append(float(g.uniform(0.0, 2.5)) * self.TOL)
            else:  # well separated
                errors.append(float(g.uniform(0.0, 1.0)))
        return errors

    def test_lazy_choice_equals_full_evaluation(self):
        g = SeededRng(50).child("errors").generator()
        for _ in range(2000):
            errors = self.random_errors(g)
            if all(np.isinf(errors)):
                with pytest.raises(TrainingError):
                    ae_mod._select(self.scripted(errors), len(errors), self.TOL)
                continue
            chosen, payload, seen = ae_mod._select(self.scripted(errors), len(errors), self.TOL)
            assert chosen == payload == full_choice(errors, self.TOL)
            assert seen == errors[: len(seen)]
            assert chosen < len(seen)

    def test_round_off_stops_after_first_non_degenerate(self):
        errors = [float("inf"), float("inf"), 3e-15, 1e-15, 2e-15]
        chosen, _, seen = ae_mod._select(self.scripted(errors), len(errors), self.TOL)
        assert chosen == 2
        assert seen == errors[:3]

    def test_near_tie_goes_to_lowest_index_in_reach_of_the_minimum(self):
        # 0 is within tol of 1 but not of 2, the minimum; 1 is within tol of 2.
        t = self.TOL
        errors = [0.5, 0.5 - 0.9 * t, 0.5 - 1.5 * t]
        chosen, payload, seen = ae_mod._select(self.scripted(errors), 3, t)
        assert chosen == payload == 1
        assert seen == errors


class TestLazyFit:
    def counting_run_collect(self, monkeypatch, degenerate_calls=()):
        calls = []
        real = ae_mod.run_collect

        def counted(weights, patterns, policy):
            calls.append(len(calls))
            if len(calls) - 1 in degenerate_calls:
                return StateTrace(layers=(np.zeros((weights.n_hidden, patterns.shape[0])),))
            return real(weights, patterns, policy)

        monkeypatch.setattr(ae_mod, "run_collect", counted)
        return calls

    @pytest.mark.parametrize("kind", ["esn-rae", "elm-ae"])
    def test_interpolating_fit_trains_one_candidate(self, monkeypatch, kind):
        calls = self.counting_run_collect(monkeypatch)
        d = random_dataset(p=20, k=12, seed=51)
        t = fit(d, train_spec(n=40, k=12, candidates=6, seed=52), kind)
        assert len(calls) == 2  # one candidate, then the tied recompute
        assert t.chosen_candidate == 0
        assert len(t.candidate_errors) == 1
        assert t.spec.n_candidates == 6
        assert t.pre_tying_error == t.candidate_errors[0]

    def test_separated_errors_score_every_candidate(self, monkeypatch):
        calls = self.counting_run_collect(monkeypatch)
        d = random_dataset(p=50, k=12, seed=6)
        t = fit(d, train_spec(n=8, k=12, candidates=6, seed=7), "esn-rae")
        assert len(calls) == 7
        assert len(t.candidate_errors) == 6

    def test_degenerate_first_candidate_chooses_the_second(self, monkeypatch):
        calls = self.counting_run_collect(monkeypatch, degenerate_calls=(0,))
        d = random_dataset(p=20, k=12, seed=53)
        t = fit(d, train_spec(n=40, k=12, candidates=6, seed=54), "esn-rae")
        assert t.chosen_candidate == 1
        assert len(t.candidate_errors) == 2
        assert np.isinf(t.candidate_errors[0])
        assert len(calls) == 3

    def test_choice_is_the_full_evaluation_choice(self):
        # Score all candidates by hand and apply the rule to every error.
        d = random_dataset(p=20, k=12, seed=55)
        spec = train_spec(n=40, k=12, candidates=4, seed=56)
        errors = []
        for c in range(spec.n_candidates):
            wts = ae_mod.init_weights(spec.cfg, SeededRng(spec.seed).child(f"cand{c}"))
            trace = ae_mod.run_collect(wts, d.patterns, spec.reset_policy)
            errors.append(reconstruction_error(train_readout(trace, d.patterns), trace, d.patterns))
        tol = ae_mod.RTOL * np.linalg.norm(d.patterns, "fro") / d.n_patterns
        assert max(errors) <= tol
        t = fit(d, spec, "esn-rae")
        assert t.chosen_candidate == full_choice(errors, tol) == 0
        assert t.candidate_errors == tuple(errors[:1])


class TestElmStructure:
    def test_feed_forward_ignores_pattern_order(self):
        # Shuffling the patterns permutes the feature columns identically.
        d = random_dataset(p=30, k=10, seed=16)
        t = fit(d, train_spec(n=20, k=10, seed=17), "elm-ae")
        g = SeededRng(18).child("perm").generator()
        perm = g.permutation(30)
        shuffled = Dataset(
            name=d.name,
            patterns=d.patterns[perm],
            labels=d.labels[perm],
            label_names=d.label_names,
            split=d.split,
        )
        assert np.array_equal(encode(t, shuffled), encode(t, d)[:, perm])

    def test_single_pattern_equals_batch_column(self):
        d = random_dataset(p=12, k=10, seed=19)
        t = fit(d, train_spec(n=20, k=10, seed=20), "elm-ae")
        full = encode(t, d)
        for j in (0, 5, 11):
            one = Dataset(
                name=d.name,
                patterns=d.patterns[j : j + 1],
                labels=d.labels[j : j + 1],
                label_names=d.label_names,
                split=d.split,
            )
            assert np.array_equal(encode(t, one)[:, 0], full[:, j])

    def test_recurrent_matrices_unused(self):
        d = random_dataset(seed=21)
        t = fit(d, train_spec(seed=22), "elm-ae")
        assert all(np.count_nonzero(w) == 0 for w in t.weights.w)

    def test_ml_elm_layers_are_feed_forward_too(self):
        d = random_dataset(p=20, k=10, seed=23)
        t = fit(d, train_spec(n=15, k=10, layers=2, seed=24), "ml-elm-ae")
        g = SeededRng(25).child("perm").generator()
        perm = g.permutation(20)
        shuffled = Dataset(
            name=d.name,
            patterns=d.patterns[perm],
            labels=d.labels[perm],
            label_names=d.label_names,
            split=d.split,
        )
        assert np.array_equal(encode(t, shuffled), encode(t, d)[:, perm])


class TestEncode:
    def test_train_encode_matches_stored_features_bit_exactly(self):
        d = random_dataset(seed=26)
        for kind, layers in (("esn-rae", 1), ("ml-esn-rae", 2)):
            t = fit(d, train_spec(layers=layers, seed=27), kind)
            assert np.array_equal(encode(t, d), t.features_train)

    def test_carry_mode_is_causal(self):
        # Column j must not depend on later patterns.
        d = random_dataset(p=25, k=10, seed=28)
        t = fit(d, train_spec(n=20, k=10, seed=29), "esn-rae")
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
        assert np.array_equal(got[:, :cut], full[:, :cut])
        assert not np.array_equal(got[:, cut:], full[:, cut:])

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
            spec = train_spec(n=150, k=96, beta=beta, candidates=3, seed=32)
            t = fit(d, spec, "esn-rae")
            fractions[beta] = np.mean(np.abs(t.features_train) < 0.05)
        assert fractions[0.1] > fractions[1.0]

    def test_length_mismatch_rejected(self):
        d = random_dataset(k=24)
        t = fit(d, train_spec(), "esn-rae")
        with pytest.raises(ValueError):
            encode(t, random_dataset(k=23))


class TestEnvelope:
    def test_roundtrip_bit_exact(self, tmp_path):
        d = random_dataset(seed=33)
        t = fit(d, train_spec(layers=2, seed=34), "ml-esn-rae")
        path = str(tmp_path / "enc.esnae")
        save_autoencoder(t, path)
        back = load_autoencoder(path)
        assert back.kind == t.kind
        assert back.chosen_candidate == t.chosen_candidate
        assert back.reconstruction_error == t.reconstruction_error
        assert back.candidate_errors == t.candidate_errors
        assert back.spec == t.spec
        assert np.array_equal(back.w_out, t.w_out)
        assert np.array_equal(back.w_out_refit, t.w_out_refit)
        assert np.array_equal(back.features_train, t.features_train)
        assert np.array_equal(back.weights.w_in, t.weights.w_in)
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
        t = fit(random_dataset(seed=40), train_spec(seed=41), "esn-rae")
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
            pytest.param(lambda m: m.update(n_candidates=2.5), id="n_candidates-float"),
            pytest.param(lambda m: m.update(chosen_candidate="a"), id="chosen-string"),
            pytest.param(lambda m: m.update(chosen_candidate=3), id="chosen-past-errors"),
            pytest.param(lambda m: m.update(chosen_candidate=-1), id="chosen-negative"),
            pytest.param(lambda m: m.update(pinv_tolerance="a"), id="pinv_tolerance-string"),
            pytest.param(lambda m: m.update(reconstruction_error="a"), id="recon-string"),
            pytest.param(lambda m: m.update(pre_tying_error=None), id="pre_tying-null"),
            pytest.param(lambda m: m.update(candidate_errors=[]), id="errors-empty"),
            pytest.param(lambda m: m.update(candidate_errors=[0.1] * 4), id="errors-too-many"),
            pytest.param(lambda m: m.update(candidate_errors=["a", 0.1, 0.2]), id="errors-string"),
            pytest.param(lambda m: m.update(candidate_errors=0.1), id="errors-not-a-list"),
            pytest.param(lambda m: m["config"].update(input_scaling="a"), id="input_scaling-string"),
        ],
    )
    def test_ill_typed_training_metadata(self, tmp_path, envelope, edit):
        import json

        from esnrae import FormatError

        _, meta_bytes, _ = self.split(envelope)
        meta = json.loads(meta_bytes)
        assert meta["n_candidates"] == 3 and len(meta["candidate_errors"]) == 3
        edit(meta)
        with pytest.raises(FormatError):
            self.load(tmp_path, self.rebuild(envelope, json.dumps(meta).encode()))

    def test_fewer_errors_than_candidates_loads(self, tmp_path, envelope):
        import json

        _, meta_bytes, _ = self.split(envelope)
        meta = json.loads(meta_bytes)
        meta.update(candidate_errors=[1e-15], chosen_candidate=0, pinv_tolerance=1e-10)
        back = self.load(tmp_path, self.rebuild(envelope, json.dumps(meta).encode()))
        assert back.candidate_errors == (1e-15,) and back.spec.n_candidates == 3

    def test_untouched_envelope_still_loads(self, tmp_path, envelope):
        import json

        _, meta_bytes, _ = self.split(envelope)
        raw = self.rebuild(envelope, json.dumps(json.loads(meta_bytes)).encode())
        assert self.load(tmp_path, raw).weights.n_hidden == 30


def saved_envelope(t, path):
    save_autoencoder(t, str(path))
    return path.read_bytes()


class TestEnvelopeProperties:
    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        """A scratch directory and a small valid envelope (a few hundred bytes of blocks)."""
        d = tmp_path_factory.mktemp("envprop")
        t = fit(random_dataset(p=6, k=3, seed=50), train_spec(n=4, k=3, beta=1.0, seed=51), "esn-rae")
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

    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**31), candidates=st.integers(1, 3))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_save_load_save_is_byte_identical(self, work, kind, seed, candidates):
        d, _ = work
        layers = 2 if ae_mod.is_multilayer(kind) else 1
        spec = train_spec(n=4, k=3, beta=1.0, layers=layers, candidates=candidates, seed=seed)
        first = saved_envelope(fit(random_dataset(p=6, k=3, seed=seed), spec, kind), d / "a.esnae")
        again = saved_envelope(load_autoencoder(str(d / "a.esnae")), d / "b.esnae")
        assert again == first

    def test_envelope_holding_a_version_1_container_is_refused(self, work):
        d, valid = work
        hlen = int.from_bytes(valid[8:12], "little")
        at = 12 + hlen  # the weight container starts after the metadata
        assert valid[at : at + 8] == b"ESNWGT\x00\x02"
        v1 = valid[:at] + b"ESNWGT\x00\x01" + valid[at + 8 :]
        with pytest.raises(FormatError, match="version 1.*esnrae encode"):
            self.load_bytes(d, v1)
