import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esnrae.bench as bench_mod
from esnrae import (
    ExperimentReport,
    ExperimentSpec,
    FormatError,
    NoiseSpec,
    NumericalError,
    emit_csv,
    emit_markdown,
    inject_noise,
    parse_ucr_pair,
    ratio_table,
    run_experiment,
    write_ucr,
)
from esnrae.bench import CellResult, parse_csv


def small_spec(synth_files, **kw):
    train, test = synth_files
    defaults = dict(
        train_path=train,
        test_path=test,
        methods=("esn-rae", "elm-ae"),
        raw_baseline=True,
        n_hidden=20,
        connectivity=0.2,
        n_runs=2,
        noise_levels=(None,),
        epochs=20,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def cell_of(report, method, level, run):
    """The report's one cell of (method, level, run)."""
    (cell,) = [c for c in report.cells if (c.method, c.snr_db, c.run) == (method, level, run)]
    return cell


def fixture_report(ers_by_method, dataset="ecg200", level=None):
    """Hand-built single-run report used for pure-arithmetic ratio checks."""
    cells = tuple(
        CellResult(dataset=dataset, method=m, snr_db=level, run=0, seed=0, er=er)
        for m, er in ers_by_method.items()
    )
    spec = ExperimentSpec(
        train_path="unused_TRAIN.txt",
        test_path="unused_TEST.txt",
        methods=tuple(ers_by_method),
        raw_baseline=False,
        n_runs=1,
        noise_levels=(level,),
    )
    return ExperimentReport(spec=spec, dataset=dataset, cells=cells, total_seconds=0.0)


class TestRunExperiment:
    def test_single_cell_raw_baseline_on_separable_data(self, synth_files):
        spec = small_spec(synth_files, methods=(), raw_baseline=True, n_runs=1)
        report = run_experiment(spec)
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert cell.method == "raw" and cell.valid
        assert cell.er == 0.0

    def test_grid_is_complete_and_keyed(self, synth_files):
        spec = small_spec(synth_files, noise_levels=(None, 10.0), n_runs=2)
        report = run_experiment(spec)
        # 3 methods (2 + raw) x 2 levels x 2 runs
        assert len(report.cells) == 12
        for method in spec.all_methods():
            for level in spec.noise_levels:
                for run in range(2):
                    cell = cell_of(report, method, level, run)
                    assert cell.seed == spec.base_seed + run

    def test_means_match_recomputation_oracle(self, synth_files):
        spec = small_spec(synth_files, noise_levels=(None, 5.0), n_runs=3)
        report = run_experiment(spec)
        for method in spec.all_methods():
            for level in spec.noise_levels:
                ers = report.run_ers(method, level)
                assert len(ers) == 3
                assert report.mean_er(method, level) == float(np.mean(ers))

    def test_cell_timings_add_up_to_at_most_the_total(self, synth_files):
        report = run_experiment(small_spec(synth_files, noise_levels=(None, 10.0)))
        summed_ms = sum(c.fit_ms + c.encode_ms + c.classify_ms for c in report.cells)
        assert 0.0 < summed_ms <= report.total_seconds * 1e3

    def test_replay_determinism(self, synth_files, tmp_path):
        paths = []
        for i in range(2):
            report = run_experiment(small_spec(synth_files))
            path = tmp_path / f"r{i}.csv"
            emit_csv(report, str(path), include_timings=False)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_noise_resampled_per_run_but_shared_across_methods(self, synth_files):
        spec = small_spec(synth_files, noise_levels=(1.0,), n_runs=2)
        report = run_experiment(spec)
        # Same (level, run) cells across methods saw identical data, so a
        # deterministic pipeline stage (the raw baseline) must agree between
        # reruns of the same spec, while different runs use different draws.
        again = run_experiment(spec)
        for cell, cell2 in zip(report.cells, again.cells):
            assert cell.er == cell2.er

    def test_invalid_cells_are_recorded_not_dropped(self, synth_files, monkeypatch):
        real_fit = bench_mod.fit

        def failing_fit(d, config, kind, seed):
            if kind == "elm-ae":
                raise NumericalError("synthetic failure for test")
            return real_fit(d, config, kind, seed)

        monkeypatch.setattr(bench_mod, "fit", failing_fit)
        report = run_experiment(small_spec(synth_files))
        bad = [c for c in report.cells if c.method == "elm-ae"]
        assert bad and all(not c.valid for c in bad)
        assert all("synthetic failure" in c.error for c in bad)
        assert math.isnan(report.mean_er("elm-ae", None))
        good = [c for c in report.cells if c.method == "esn-rae"]
        assert all(c.valid for c in good)

    def test_failed_cell_leaves_its_runs_other_cells_unchanged(self, synth_files, monkeypatch):
        spec = small_spec(synth_files, noise_levels=(None, 10.0))
        clean = run_experiment(spec)
        real_fit = bench_mod.fit

        def failing_fit(d, config, kind, seed):
            if kind == "elm-ae":
                raise NumericalError("synthetic failure for test")
            return real_fit(d, config, kind, seed)

        monkeypatch.setattr(bench_mod, "fit", failing_fit)
        failed = run_experiment(spec)
        for before, after in zip(clean.cells, failed.cells):
            if after.method == "elm-ae":
                assert after.error == "NumericalError: synthetic failure for test"
                assert after.er is None
            else:
                assert after.valid
                assert (after.er, after.recon_error) == (before.er, before.recon_error)

    def test_out_of_memory_in_a_fit_marks_its_cells_invalid(self, synth_files, monkeypatch):
        import esnrae.autoencoder as ae_mod

        real_init = ae_mod.init_weights

        def init_too_big(cfg, rng, recurrent=True):
            if not recurrent:
                raise MemoryError("Unable to allocate 2.00 EiB for an array")
            return real_init(cfg, rng, recurrent=recurrent)

        monkeypatch.setattr(ae_mod, "init_weights", init_too_big)
        report = run_experiment(small_spec(synth_files))
        for c in report.cells:
            if c.method == "elm-ae":
                assert c.error == "MemoryError: Unable to allocate 2.00 EiB for an array"
                assert c.er is None
            else:
                assert c.valid

    def test_out_of_memory_in_training_marks_the_runs_cells_invalid(self, synth_files, monkeypatch):
        # Both runs share one training pass, so its failure marks all their cells.
        calls = []

        def train_too_big(designs, labels, params):
            calls.append(len(designs))
            raise MemoryError("Unable to allocate 1.00 EiB for an array")

        monkeypatch.setattr(bench_mod, "train_classifiers", train_too_big)
        report = run_experiment(small_spec(synth_files, n_runs=2))
        assert calls == [6]
        assert [c.error for c in report.cells] == [
            "MemoryError: Unable to allocate 1.00 EiB for an array"
        ] * 6

    def test_one_training_pass_per_batch_on_the_training_labels(self, synth_files, monkeypatch):
        from esnrae import parse_ucr_pair

        calls = []
        real_train = bench_mod.train_classifiers

        def recording(designs, labels, params):
            calls.append(([d.x.shape[1] for d in designs], labels, params))
            return real_train(designs, labels, params)

        monkeypatch.setattr(bench_mod, "train_classifiers", recording)
        spec = small_spec(synth_files, n_runs=3, base_seed=7, noise_levels=(None, 10.0))
        # A cap of two runs' features: runs 0-1 share a pass, run 2 has its own.
        monkeypatch.setattr(bench_mod, "_BATCH_BYTES", 2 * held_bytes(spec, 40, 40, 32))
        report = run_experiment(spec)
        assert not report.invalid_cells
        d_train, _ = parse_ucr_pair(spec.train_path, spec.test_path, normalized=spec.normalize)
        # Per run, (2 methods + raw) x 2 levels; the encoders' designs (N + 1
        # wide) go first and the raw ones (K + 1) last.
        assert [widths for widths, _, _ in calls] == [[21] * 8 + [33] * 4, [21] * 4 + [33] * 2]
        assert [[q.seed for q in params] for _, _, params in calls] == [
            [7] * 4 + [8] * 4 + [7, 7, 8, 8],
            [9] * 6,
        ]
        for _, labels, params in calls:
            assert np.array_equal(labels, d_train.labels)
            for q in params:
                assert (q.reg_lambda, q.epochs) == (spec.reg_lambda, spec.epochs)

    def test_n_hidden_numpy_cannot_address_is_a_format_error(self, synth_files):
        with pytest.raises(FormatError, match="n_hidden"):
            small_spec(synth_files, n_hidden=2**62)
        small_spec(synth_files, n_hidden=2**62, methods=())  # no cell draws a reservoir

    def test_n_layers_ml_only_checked_when_a_multilayer_method_runs(self, synth_files):
        small_spec(synth_files, n_layers_ml=1)
        with pytest.raises(ValueError, match="n_layers"):
            small_spec(synth_files, n_layers_ml=1, methods=("ml-elm-ae",))

    def test_unknown_method_rejected_before_compute(self, synth_files):
        with pytest.raises(ValueError, match="unknown autoencoder kind 'transformer'"):
            small_spec(synth_files, methods=("esn-rae", "transformer"))

    def test_duplicate_noise_levels_rejected(self, synth_files):
        with pytest.raises(ValueError):
            small_spec(synth_files, noise_levels=(10.0, 10.0))

    @pytest.mark.parametrize(
        "levels",
        [("10",), (True,), (None, False), (None, [1.0]),
         (math.nan,), (None, -math.inf), (np.float64(math.inf),)],
    )
    def test_non_number_noise_levels_rejected(self, synth_files, levels):
        with pytest.raises(ValueError, match="noise_levels must be a list of numbers or nulls"):
            small_spec(synth_files, noise_levels=levels)

    def test_numpy_scalar_levels_are_stored_as_python_floats(self, tmp_path):
        spec = ExperimentSpec(
            train_path="a", test_path="b", noise_levels=[None, np.float64(10.0), np.int64(1)]
        )
        assert spec.noise_levels == (None, 10.0, 1.0)
        assert [type(x) for x in spec.noise_levels[1:]] == [float, float]
        doc = tmp_path / "spec.json"
        doc.write_text('{"train_path": "a", "test_path": "b", "noise_levels": [null, 10, 1]}')
        spec_lines = []
        for s in (spec, bench_mod.load_spec(str(doc))):
            out = tmp_path / "r.csv"
            emit_csv(ExperimentReport(spec=s, dataset="a", cells=(), total_seconds=0.0), str(out))
            spec_lines.append(out.read_text().split("\n")[0])
        assert spec_lines[0] == spec_lines[1]
        assert '"noise_levels": [null, 10.0, 1.0]' in spec_lines[0]

    @pytest.mark.parametrize("epochs", [10_001, 2**62])
    def test_epochs_above_bound_rejected(self, epochs):
        with pytest.raises(ValueError, match=r"epochs must be in \[1, 10000\]"):
            ExperimentSpec(train_path="a", test_path="b", epochs=epochs)


def held_bytes(spec, p_train, p_test, input_len):
    """Bytes of features one run of ``spec`` holds until its classifiers train:
    each cell's (p_train, F+1) design and (p_test, F) test features."""
    total = 0
    for method in spec.all_methods():
        f = input_len if method == "raw" else spec.n_hidden
        total += 8 * (p_train * (f + 1) + p_test * f) * len(spec.noise_levels)
    return total


class TestNoiseTargets:
    @pytest.mark.parametrize("targets", ["train", "test", "both"])
    def test_only_the_targeted_splits_are_noised(self, synth_files, targets):
        spec = small_spec(synth_files, noise_levels=(None, 10.0), noise_targets=targets)
        clean = parse_ucr_pair(spec.train_path, spec.test_path, normalized=True)
        noised = bench_mod._noised(spec, *clean, 10.0, 3)
        for split, d, got in zip(("train", "test"), clean, noised):
            if targets in (split, "both"):
                # The split's own noise stream, as inject_noise draws it alone.
                expected = inject_noise(d, NoiseSpec(snr_db=10.0, seed=3)).patterns
                assert not np.array_equal(got.patterns, d.patterns)
                assert got.patterns.tobytes() == expected.tobytes()
            else:
                assert got.patterns.tobytes() == d.patterns.tobytes()


class TestRunBatches:
    # (p_train, p_test, K, N, noise levels, runs) and the batch sizes expected.
    SHAPES = {
        "ecg200-grid": ((100, 100, 96, 150, (None, 10.0), 2), [2]),
        "ecg200-sweep": ((100, 100, 96, 150, (None, 50.0, 10.0, 1.0, 0.5), 10), [2] * 5),
        "earthquakes": ((322, 139, 512, 600, (None,), 3), [1] * 3),
        "earthquakes-noisy": ((322, 139, 512, 600, (None, 10.0), 2), [1] * 2),
    }

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_no_batch_of_several_runs_exceeds_the_cap(self, name):
        (p_train, p_test, k, n, levels, runs), sizes = self.SHAPES[name]
        spec = ExperimentSpec(train_path="a", test_path="b", n_hidden=n,
                              noise_levels=levels, n_runs=runs)
        batches = bench_mod._run_batches(spec, p_train, p_test, k)
        assert [run for batch in batches for run in batch] == list(range(runs))
        assert [len(batch) for batch in batches] == sizes
        run_bytes = held_bytes(spec, p_train, p_test, k)
        for batch in batches:
            assert len(batch) == 1 or len(batch) * run_bytes <= bench_mod._BATCH_BYTES
        # Each batch is as large as the cap allows.
        assert len(batches) == 1 or (batches[0].stop + 1) * run_bytes > bench_mod._BATCH_BYTES

    def test_report_rows_follow_the_grid_across_batches(self, synth_files, tmp_path, monkeypatch):
        spec = small_spec(synth_files, n_runs=3, noise_levels=(None, 10.0))
        monkeypatch.setattr(bench_mod, "_BATCH_BYTES", 2 * held_bytes(spec, 40, 40, 32))
        assert [len(b) for b in bench_mod._run_batches(spec, 40, 40, 32)] == [2, 1]
        # The noise level of each training split a fit sees (the clean split is
        # passed through as it is).
        level_of = {}
        fits = []
        real_noised, real_fit = bench_mod._noised, bench_mod.fit

        def noised(spec_, d_train, d_test, level, seed):
            pair = real_noised(spec_, d_train, d_test, level, seed)
            level_of[id(pair[0])] = level
            return pair

        def fitting(d, config, kind, seed):
            fits.append((kind, level_of[id(d)], seed))
            return real_fit(d, config, kind, seed)

        monkeypatch.setattr(bench_mod, "_noised", noised)
        monkeypatch.setattr(bench_mod, "fit", fitting)
        report = run_experiment(spec)
        assert not report.invalid_cells
        # Each run's encoders fit on that run's data at each level, run by run.
        assert fits == [
            (method, level, run)
            for run in range(3)
            for method in ("esn-rae", "elm-ae")
            for level in (None, 10.0)
        ]
        # The report lists method, then level, then run, whatever the batches.
        grid = [
            (method, level, run)
            for method in ("esn-rae", "elm-ae", "raw")
            for level in (None, 10.0)
            for run in range(3)
        ]
        assert [(c.method, c.snr_db, c.run) for c in report.cells] == grid
        path = tmp_path / "report.csv"
        emit_csv(report, str(path), include_timings=False)
        assert [(r["method"], r["snr_db"], r["run"]) for r in parse_csv(str(path))] == [
            (method, "" if level is None else repr(level), str(run))
            for method, level, run in grid
        ]

    def test_split_report_equals_unshared_cells(self, synth_files, monkeypatch):
        from esnrae import parse_ucr_pair

        spec = small_spec(synth_files, n_runs=3, noise_levels=(None, 10.0))
        monkeypatch.setattr(bench_mod, "_BATCH_BYTES", 2 * held_bytes(spec, 40, 40, 32))
        assert [len(b) for b in bench_mod._run_batches(spec, 40, 40, 32)] == [2, 1]
        passes = []
        real_train = bench_mod.train_classifiers

        def recording(designs, labels, params):
            passes.append((designs, labels, params, real_train(designs, labels, params)))
            return passes[-1][-1]

        monkeypatch.setattr(bench_mod, "train_classifiers", recording)
        report = run_experiment(spec)
        assert not report.invalid_cells
        # Every classifier of a shared pass has the bits of its design trained alone.
        assert len(passes) == 2
        for designs, labels, params, classifiers in passes:
            for design, q, clf in zip(designs, params, classifiers):
                (alone,) = real_train([design], labels, [q])
                assert np.array_equal(clf.weights, alone.weights)
        d_train, d_test = parse_ucr_pair(spec.train_path, spec.test_path, normalized=spec.normalize)
        for cell in report.cells:
            dtr, dte = bench_mod._noised(spec, d_train, d_test, cell.snr_db, cell.seed)
            fresh = CellResult(dataset=report.dataset, method=cell.method,
                               snr_db=cell.snr_db, run=cell.run, seed=cell.seed)
            encoded, data = bench_mod._encode_cell(spec, fresh, dtr, dte)
            slots = [encoded]
            bench_mod._classify(spec, slots, [(0, *data)], dtr.labels, dte.labels)
            (alone,) = slots
            assert (alone.er, alone.recon_error) == (cell.er, cell.recon_error)


class TestNoiseMonotonicity:
    @staticmethod
    def marginal_dataset(n, length, seed, split):
        # A class offset that is small relative to the carrier power, so
        # per-pattern-SNR noise genuinely buries the margin at 0.5 dB.
        from esnrae import Dataset, SeededRng

        g = SeededRng(seed).child(f"marginal/{split}").generator()
        t = np.linspace(0.0, 1.0, length)
        patterns = np.empty((n, length))
        labels = np.empty(n, dtype=int)
        for i in range(n):
            labels[i] = i % 2
            wave = np.sin(2.0 * np.pi * 3.0 * t + g.uniform(0.0, 2.0 * np.pi))
            patterns[i] = wave + 0.5 * labels[i]
        return Dataset(
            name="marginal", patterns=patterns, labels=labels, label_names=(0, 1), split=split
        )

    def test_heavy_noise_never_beats_clean_on_average(self, tmp_path):
        train = self.marginal_dataset(60, 16, seed=1, split="train")
        test = self.marginal_dataset(60, 16, seed=2, split="test")
        train_path, test_path = str(tmp_path / "tr.txt"), str(tmp_path / "te.txt")
        write_ucr(train, train_path)
        write_ucr(test, test_path)
        spec = ExperimentSpec(
            train_path=train_path,
            test_path=test_path,
            methods=("esn-rae", "elm-ae"),
            raw_baseline=True,
            n_hidden=20,
            connectivity=0.2,
            n_runs=3,
            noise_levels=(None, 0.5),
            epochs=20,
        )
        report = run_experiment(spec)
        for method in spec.all_methods():
            assert report.mean_er(method, 0.5) >= report.mean_er(method, None)
            assert report.mean_er(method, None) <= 0.05  # clean stays easy


class TestRatioTable:
    def test_reference_row_arithmetic(self):
        # Published mean ERs for the clean ECG200 row.
        report = fixture_report(
            {"esn-rae": 0.154, "ml-esn-rae": 0.113, "elm-ae": 0.190, "ml-elm-ae": 0.189}
        )
        p1, p2, p3 = ratio_table(report)[None]
        assert p1 == pytest.approx(73.38, abs=0.005)
        assert abs(p1 - 73.33) <= 0.1
        assert p2 == pytest.approx(59.79, abs=0.005)
        assert p3 == pytest.approx(81.05, abs=0.005)

    def test_ratio_consistency_identity(self):
        report = fixture_report(
            {"esn-rae": 0.154, "ml-esn-rae": 0.113, "elm-ae": 0.190, "ml-elm-ae": 0.189}
        )
        p1, _, _ = ratio_table(report)[None]
        assert abs(p1 * 0.154 - 100.0 * 0.113) < 1e-12

    def test_equal_errors_give_100(self):
        report = fixture_report({m: 0.25 for m in ("esn-rae", "ml-esn-rae", "elm-ae", "ml-elm-ae")})
        assert ratio_table(report)[None] == (100.0, 100.0, 100.0)

    def test_zero_numerator_gives_zero(self):
        report = fixture_report(
            {"esn-rae": 0.2, "ml-esn-rae": 0.0, "elm-ae": 0.3, "ml-elm-ae": 0.25}
        )
        p1, p2, _ = ratio_table(report)[None]
        assert p1 == 0.0 and p2 == 0.0

    def test_zero_denominator_gives_nan_not_crash(self):
        report = fixture_report(
            {"esn-rae": 0.0, "ml-esn-rae": 0.1, "elm-ae": 0.3, "ml-elm-ae": 0.25}
        )
        p1, _, _ = ratio_table(report)[None]
        assert math.isnan(p1)

    def test_missing_method_named_in_error(self):
        report = fixture_report({"esn-rae": 0.1, "ml-esn-rae": 0.1, "elm-ae": 0.1})
        with pytest.raises(ValueError, match="ml-elm-ae"):
            ratio_table(report)


class TestEmission:
    def test_single_cell_csv_row_count(self, synth_files, tmp_path):
        spec = small_spec(synth_files, methods=(), raw_baseline=True, n_runs=1)
        report = run_experiment(spec)
        path = tmp_path / "one.csv"
        emit_csv(report, str(path))
        rows = parse_csv(str(path))
        assert len(rows) == 1

    def test_csv_roundtrip_reproduces_ers_bit_exactly(self, synth_files, tmp_path):
        spec = small_spec(synth_files, noise_levels=(None, 3.0))
        report = run_experiment(spec)
        path = tmp_path / "r.csv"
        emit_csv(report, str(path))
        rows = parse_csv(str(path))
        assert len(rows) == len(report.cells)
        for row, cell in zip(rows, report.cells):
            assert float(row["er"]) == cell.er
            assert row["method"] == cell.method
            assert int(row["run"]) == cell.run
            if cell.snr_db is None:
                assert row["snr_db"] == ""
            else:
                assert float(row["snr_db"]) == cell.snr_db

    def test_sweep_row_count(self, tmp_path):
        # 5 levels x 4 methods x 10 runs = 200 data rows.
        cells = tuple(
            CellResult(dataset="d", method=m, snr_db=level, run=r, seed=r, er=0.1)
            for m in ("esn-rae", "ml-esn-rae", "elm-ae", "ml-elm-ae")
            for level in (None, 50.0, 10.0, 1.0, 0.5)
            for r in range(10)
        )
        spec = ExperimentSpec(
            train_path="x_TRAIN.txt",
            test_path="x_TEST.txt",
            raw_baseline=False,
            n_runs=10,
            noise_levels=(None, 50.0, 10.0, 1.0, 0.5),
        )
        report = ExperimentReport(spec=spec, dataset="d", cells=cells, total_seconds=0.0)
        path = tmp_path / "sweep.csv"
        emit_csv(report, str(path))
        assert len(parse_csv(str(path))) == 200

    def test_markdown_contains_tables_and_config(self, synth_files, tmp_path):
        spec = small_spec(synth_files, noise_levels=(None, 10.0))
        report = run_experiment(spec)
        path = tmp_path / "r.md"
        emit_markdown(report, str(path))
        text = path.read_text()
        assert "Mean error rate" in text
        assert "| clean |" in text and "| 10 dB |" in text
        assert "Per-run spread" in text
        assert '"n_hidden": 20' in text
        assert "Seeds per run" in text

    def test_markdown_ratio_table_present_with_all_methods(self, tmp_path):
        report = fixture_report(
            {"esn-rae": 0.154, "ml-esn-rae": 0.113, "elm-ae": 0.190, "ml-elm-ae": 0.189}
        )
        path = tmp_path / "r.md"
        emit_markdown(report, str(path))
        assert "| P1 | P2 | P3 |" in path.read_text()

    def test_invalid_cell_marked_in_outputs(self, synth_files, tmp_path, monkeypatch):
        def always_fail(d, config, kind, seed):
            raise NumericalError("bad, bad network")

        monkeypatch.setattr(bench_mod, "fit", always_fail)
        spec = small_spec(synth_files, methods=("esn-rae",), raw_baseline=False, n_runs=1)
        report = run_experiment(spec)
        csv_path, md_path = tmp_path / "r.csv", tmp_path / "r.md"
        emit_csv(report, str(csv_path))
        emit_markdown(report, str(md_path))
        rows = parse_csv(str(csv_path))
        assert rows[0]["er"] == "" and "bad" in rows[0]["error"]
        assert "Invalid cells" in md_path.read_text()

    @pytest.mark.parametrize(
        "dataset, text",
        [("a,b\nc", "a;b c"), ("a,b\rc", "a;b c"), ("a\u2028b", "a b")],
        ids=["newline", "carriage-return", "line-separator"],
    )
    def test_comma_in_dataset_name_keeps_the_columns(self, tmp_path, dataset, text):
        report = fixture_report({"elm-ae": 0.25}, dataset=dataset)
        out = tmp_path / "r.csv"
        emit_csv(report, str(out), include_timings=False)
        (row,) = parse_csv(str(out))
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3  # spec, header, row
        assert row["dataset"] == text
        assert (row["method"], row["snr_db"], row["run"], row["er"]) == ("elm-ae", "", "0", "0.25")

    @pytest.mark.parametrize("include_timings", [True, False])
    def test_every_column_text_is_pinned(self, tmp_path, include_timings):
        cells = (
            CellResult(
                dataset="x", method="esn-rae", snr_db=None, run=0, seed=7, er=0.25,
                recon_error=0.0123, fit_ms=1.23456, encode_ms=2.0, classify_ms=0.0004,
            ),
            CellResult(
                dataset="x", method="esn-rae", snr_db=10.0, run=1, seed=8, er=0.1,
                recon_error=1e-20, fit_ms=10.5, encode_ms=0.0, classify_ms=3.14159,
            ),
            CellResult(
                dataset="x", method="raw", snr_db=10.0, run=0, seed=7,
                error="NumericalError: bad, bad\nnetwork",
            ),
        )
        spec = ExperimentSpec(
            train_path="x_TRAIN.txt", test_path="x_TEST.txt", methods=("esn-rae",),
            n_runs=2, noise_levels=(None, 10.0),
        )
        report = ExperimentReport(spec=spec, dataset="x", cells=cells, total_seconds=0.0)
        out = tmp_path / "r.csv"
        emit_csv(report, str(out), include_timings=include_timings)
        lines = out.read_text().split("\n")
        assert lines[0].startswith("# spec: {")
        if include_timings:
            expected = [
                "dataset,method,snr_db,run,seed,er,recon_error,fit_ms,encode_ms,classify_ms,error",
                "x,esn-rae,,0,7,0.25,0.0123,1.235,2.000,0.000,",
                "x,esn-rae,10.0,1,8,0.1,1e-20,10.500,0.000,3.142,",
                "x,raw,10.0,0,7,,,0.000,0.000,0.000,NumericalError: bad; bad network",
                "",
            ]
        else:
            expected = [
                "dataset,method,snr_db,run,seed,er,recon_error,error",
                "x,esn-rae,,0,7,0.25,0.0123,",
                "x,esn-rae,10.0,1,8,0.1,1e-20,",
                "x,raw,10.0,0,7,,,NumericalError: bad; bad network",
                "",
            ]
        assert lines[1:] == expected

    def test_non_utf8_csv_is_a_format_error_naming_it(self, tmp_path):
        from esnrae import FormatError

        path = tmp_path / "r.csv"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(FormatError, match=r"r\.csv: not UTF-8"):
            parse_csv(str(path))


class TestLoadSpec:
    def test_roundtrip_with_overrides(self, synth_files, tmp_path):
        import json

        train, test = synth_files
        doc = {
            "train_path": train,
            "test_path": test,
            "methods": ["esn-rae"],
            "n_runs": 4,
            "noise_levels": [None, 10],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = bench_mod.load_spec(str(path), {"n_runs": 2, "base_seed": 5})
        assert spec.n_runs == 2 and spec.base_seed == 5
        assert spec.noise_levels == (None, 10.0)

    def test_workers_key_is_ignored(self, synth_files, tmp_path):
        import json

        train, test = synth_files
        doc = {
            "train_path": train,
            "test_path": test,
            "methods": ["esn-rae"],
            "n_hidden": 20,
            "connectivity": 0.2,
            "n_runs": 2,
            "epochs": 20,
        }
        reports = []
        for name, extra in (("plain", {}), ("pooled", {"workers": 4})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**doc, **extra}))
            spec = bench_mod.load_spec(str(path))
            out = tmp_path / f"{name}.csv"
            emit_csv(run_experiment(spec), str(out), include_timings=False)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_perfbench_grid_specs_load(self, tmp_path, monkeypatch):
        # perfbench writes "workers": 1 into every grid spec, which is why
        # load_spec still ignores that key.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        from perfbench.workloads import WORKLOADS, GridWorkload

        grids = [w for w in WORKLOADS.values() if isinstance(w, GridWorkload)]
        assert grids
        for workload in grids:
            d = tmp_path / workload.name
            d.mkdir()
            workload._write_spec(str(d / "train.txt"), str(d / "test.txt"))
            spec = bench_mod.load_spec(str(d / "spec.json"))
            assert spec.n_runs == workload.n_runs

    @pytest.mark.parametrize("key", ["n_hidden", "n_layers_ml", "n_runs", "base_seed", "epochs"])
    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), 2**63], ids=["10**400", "-10**400", "2**63"]
    )
    def test_integer_beyond_64_bits_is_a_format_error_naming_the_file(self, tmp_path, key, value):
        from esnrae import FormatError

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"train_path": "a", "test_path": "b", key: value}))
        with pytest.raises(FormatError, match=rf"spec\.json: {key} must be an integer in the signed"):
            bench_mod.load_spec(str(path))

    @pytest.mark.parametrize("value", [2**63 - 1, -(2**63)])
    def test_seed_at_the_64_bit_limits_loads(self, tmp_path, value):
        # One run, so the base seed is also the last run's seed.
        path = tmp_path / "spec.json"
        spec = {"train_path": "a", "test_path": "b", "base_seed": value, "n_runs": 1}
        path.write_text(json.dumps(spec))
        assert bench_mod.load_spec(str(path)).base_seed == value

    @pytest.mark.parametrize(
        "config", sorted(Path(__file__).parent.parent.glob("configs/*.json")), ids=lambda p: p.name
    )
    def test_shipped_config_loads_without_retired_keys(self, config):
        assert isinstance(bench_mod.load_spec(str(config)), ExperimentSpec)
        retired = {"workers", "reset_policy", "pinv_tolerance", "n_candidates"}
        assert not retired & set(json.loads(config.read_text()))

    @pytest.mark.parametrize(
        "extra",
        [
            '"reset_policy": "carry"',
            '"reset_policy": "reset"',
            '"reset_policy": "bounce"',
            '"reset_policy": null',
            '"pinv_tolerance": null',
            '"pinv_tolerance": 1e-10',
            '"pinv_tolerance": 0',
            '"n_candidates": 5',
            '"n_candidates": 0',
            '"n_candidates": 2.5',
            '"n_candidates": "x"',
            '"n_candidates": null',
        ],
    )
    def test_retired_keys_are_unknown_keys(self, tmp_path, extra):
        from esnrae import FormatError

        path = tmp_path / "spec.json"
        path.write_text('{"train_path": "a", "test_path": "b", ' + extra + "}")
        key = extra.split('"')[1]
        with pytest.raises(FormatError, match=rf"spec\.json: unknown spec keys \['{key}'\]"):
            bench_mod.load_spec(str(path))

    def test_noise_level_too_large_for_a_float_is_a_format_error(self, tmp_path):
        from esnrae import FormatError

        path = tmp_path / "spec.json"
        path.write_text('{"train_path": "a", "test_path": "b", "noise_levels": [1' + "0" * 400 + "]}")
        with pytest.raises(
            FormatError, match=r"spec\.json: noise_levels must be a list of numbers or nulls"
        ):
            bench_mod.load_spec(str(path))

    def test_deeply_nested_json_is_a_format_error(self, tmp_path):
        from esnrae import FormatError

        path = tmp_path / "spec.json"
        path.write_text("[" * 100000)
        with pytest.raises(FormatError, match=r"spec\.json: invalid JSON"):
            bench_mod.load_spec(str(path))

    def test_non_utf8_spec_is_a_format_error_naming_it(self, tmp_path):
        from esnrae import FormatError

        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(FormatError, match=r"spec\.json: not UTF-8"):
            bench_mod.load_spec(str(path))

    def test_unknown_keys_rejected(self, tmp_path):
        from esnrae import FormatError

        path = tmp_path / "spec.json"
        path.write_text('{"train_path": "a", "test_path": "b", "kernel": "rbf"}')
        with pytest.raises(FormatError, match="kernel"):
            bench_mod.load_spec(str(path))

    def test_unknown_method_rejected(self, tmp_path):
        from esnrae import FormatError

        path = tmp_path / "spec.json"
        path.write_text(
            '{"train_path": "a", "test_path": "b", "methods": ["esn-rae", "cnn"]}'
        )
        with pytest.raises(FormatError, match="cnn"):
            bench_mod.load_spec(str(path))

    def test_missing_required_keys(self, tmp_path):
        from esnrae import FormatError

        path = tmp_path / "spec.json"
        path.write_text('{"train_path": "a"}')
        with pytest.raises(FormatError, match="test_path"):
            bench_mod.load_spec(str(path))

    @pytest.mark.parametrize(
        "extra",
        [
            '"methods": 5',
            '"noise_levels": 5',
            '"noise_levels": ["x"]',
            '"noise_levels": ["10", true]',
            '"noise_levels": [null, false]',
            '"epochs": 10001',
            '"n_runs": 2.5',
            '"n_hidden": 20.5',
            '"epochs": "50"',
            '"connectivity": "a"',
            '"normalize": "no"',
            '"pinv_tolerance": "a"',
        ],
    )
    def test_ill_typed_values_are_format_errors_naming_the_file(self, tmp_path, extra):
        from esnrae import FormatError

        path = tmp_path / "spec.json"
        path.write_text('{"train_path": "a", "test_path": "b", ' + extra + "}")
        with pytest.raises(FormatError, match="spec.json"):
            bench_mod.load_spec(str(path))


    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("dataset_name", 5, "dataset_name must be a string"),
            ("dataset_name", "a/b", "dataset_name must not hold"),
            ("dataset_name", "../escape", "dataset_name must not hold"),
            ("dataset_name", "a\\b", "dataset_name must not hold"),
            ("dataset_name", "a\u0000b", "dataset_name must not hold"),
            ("train_path", 5, "train_path must be a string"),
            ("test_path", True, "test_path must be a string"),
            ("methods", "esn-rae", "methods must be a list"),
            ("noise_levels", "10", "noise_levels must be a list"),
        ],
    )
    def test_ill_typed_strings_and_lists_are_format_errors_naming_the_file(
        self, tmp_path, key, value, message
    ):
        from esnrae import FormatError

        doc = {"train_path": "a", "test_path": "b", key: value}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=rf"spec\.json: {message}"):
            bench_mod.load_spec(str(path))


class TestSharedClassIds:
    def test_test_split_ids_follow_training_labels(self, synth_files, tmp_path):
        from esnrae import parse_ucr, parse_ucr_pair

        train, _ = synth_files
        d = parse_ucr(train)
        ones = d.patterns[d.labels == 1]
        test = str(tmp_path / "ones_TEST.txt")
        with open(test, "w", encoding="utf-8") as fh:
            for row in ones:
                fh.write(",".join(["1", *map(repr, map(float, row))]) + "\n")
        d_train, d_test = parse_ucr_pair(train, test, normalized=True)
        assert d_test.label_names == d_train.label_names
        assert set(d_test.labels.tolist()) == {1}

    def test_unknown_test_label_is_a_format_error(self, synth_files, tmp_path):
        from esnrae import FormatError

        test = tmp_path / "odd_TEST.txt"
        test.write_text("7," + ",".join(["0.5"] * 32) + "\n")
        with pytest.raises(FormatError, match=r"\[7\]"):
            run_experiment(small_spec(synth_files, test_path=str(test)))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("benchprop")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# Spec-shaped objects: the required keys plus any of the known ones, each with
# an arbitrary JSON value, so examples reach the field checks.
_SPEC_DOCS = st.fixed_dictionaries(
    {"train_path": st.just("a"), "test_path": st.just("b")},
    optional={
        key: _JSON_VALUES
        for key in (
            *ExperimentSpec.__dataclass_fields__,
            "workers",
            "n_candidates",
            "reset_policy",
            "pinv_tolerance",
        )
        if key not in ("train_path", "test_path")
    },
)


class TestReaderProperties:
    @given(
        raw=st.one_of(
            st.binary(max_size=300),
            _JSON_VALUES.map(lambda v: json.dumps(v).encode()),
            _SPEC_DOCS.map(lambda v: json.dumps(v).encode()),
        )
    )
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_load_spec_loads_or_raises_format_error(self, scratch, raw):
        from esnrae import FormatError

        path = scratch / "spec.json"
        path.write_bytes(raw)
        try:
            assert isinstance(bench_mod.load_spec(str(path)), ExperimentSpec)
        except FormatError:
            pass

    @given(
        raw=st.one_of(
            st.binary(max_size=300),
            st.lists(st.sampled_from(["# spec: {}", "dataset,er", "a,b,c", "x", "", ",,"]))
            .map(lambda lines: "\n".join(lines).encode()),
        )
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_parse_csv_loads_or_raises_format_error(self, scratch, raw):
        from esnrae import FormatError

        path = scratch / "report.csv"
        path.write_bytes(raw)
        try:
            rows = parse_csv(str(path))
        except FormatError:
            return
        assert all(isinstance(row, dict) for row in rows)
