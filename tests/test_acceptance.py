"""Acceptance suite: one printed PASS/FAIL/SKIP line per criterion.

Run with ``pytest tests/test_acceptance.py -s``. Criteria that exercise the
published benchmark numbers need the corresponding UCR datasets fetched by
the user into $UCR_DATA_DIR or ./data (see README); they skip with a warning
when the files are absent.
"""

import time

import numpy as np
import pytest

from esnrae import (
    Dataset,
    ExperimentReport,
    ExperimentSpec,
    NoiseSpec,
    RaeTrainSpec,
    ReservoirConfig,
    SeededRng,
    emit_csv,
    encode,
    fit,
    init_weights,
    inject_noise,
    make_synthetic,
    measured_snr,
    normalize,
    parse_ucr,
    pinv,
    ratio_table,
    run_collect,
    run_experiment,
    scale_to_spectral_radius,
    sparse_random_matrix,
    spectral_radius,
    step,
    train_readout,
)
from esnrae.bench import CellResult
from esnrae.reservoir import PRESETS

from conftest import find_ucr

ALL_KINDS = ("esn-rae", "ml-esn-rae", "elm-ae", "ml-elm-ae")
SWEEP_LEVELS = (None, 50.0, 10.0, 1.0, 0.5)

# (UCR archive file name, preset key); BreastCancer must be provided in the
# same text format even though it originates elsewhere.
BENCHMARK_DATASETS = (
    ("ECG200", "ecg200"),
    ("BreastCancer", "breastcancer"),
    ("Coffee", "coffee"),
    ("OliveOil", "oliveoil"),
    ("Earthquakes", "earthquakes"),
    ("Meat", "meat"),
    ("ECGFiveDays", "ecgfivedays"),
)


def announce(num, name, status, detail=""):
    print(f"\n[ACCEPTANCE {num}] {name}: {status}" + (f" ({detail})" if detail else ""))


def check(num, name, ok, detail=""):
    announce(num, name, "PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def skip(num, name, reason):
    announce(num, name, "SKIP", reason)
    pytest.skip(f"criterion {num} ({name}): {reason}")


def preset_spec(name, preset_key, **kw):
    found = find_ucr(name)
    assert found is not None
    preset = PRESETS[preset_key]
    defaults = dict(
        train_path=found[0],
        test_path=found[1],
        dataset_name=name,
        n_hidden=int(preset["n_hidden"]),
        connectivity=preset["connectivity"],
        n_runs=10,
        base_seed=0,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


@pytest.fixture(scope="module")
def ecg200_sweep():
    if find_ucr("ECG200") is None:
        return None
    spec = preset_spec(
        "ECG200", "ecg200", methods=ALL_KINDS, raw_baseline=True, noise_levels=SWEEP_LEVELS
    )
    return run_experiment(spec)


@pytest.fixture(scope="module")
def coffee_sweep():
    if find_ucr("Coffee") is None:
        return None
    spec = preset_spec(
        "Coffee", "coffee", methods=ALL_KINDS, raw_baseline=True, noise_levels=SWEEP_LEVELS
    )
    return run_experiment(spec)


class TestCriterion1PropertySuite:
    def test_property_suite(self, tmp_path):
        started = time.perf_counter()
        failures = []

        # Pseudo-inverse: all four defining conditions on 100 random matrices.
        g = SeededRng(101).child("penrose").generator()
        worst = 0.0
        for i in range(100):
            rows, cols = int(g.integers(1, 21)), int(g.integers(1, 21))
            if i % 3 == 0:
                r = int(g.integers(1, min(rows, cols) + 1))
                m = g.standard_normal((rows, r)) @ g.standard_normal((r, cols))
            else:
                m = g.standard_normal((rows, cols))
            mp = pinv(m)[0]
            s = max(np.linalg.norm(m), 1e-30)
            sp = max(np.linalg.norm(mp), 1e-30)
            worst = max(
                worst,
                np.linalg.norm(m @ mp @ m - m) / s,
                np.linalg.norm(mp @ m @ mp - mp) / sp,
                np.linalg.norm((m @ mp).T - m @ mp) / max(np.linalg.norm(m @ mp), 1e-30),
                np.linalg.norm((mp @ m).T - mp @ m) / max(np.linalg.norm(mp @ m), 1e-30),
            )
        if worst >= 1e-8:
            failures.append(f"pseudo-inverse residual {worst:.2e}")

        # Spectral-radius scaling on 100 sparse matrices.
        worst = 0.0
        for seed in range(100):
            size = 10 + (seed % 40)
            m = sparse_random_matrix(size, size, 0.2, -1.0, 1.0, SeededRng(seed).child("w"))
            if spectral_radius(m) == 0.0:
                continue
            worst = max(worst, abs(spectral_radius(scale_to_spectral_radius(m, 0.9)) - 0.9))
        if worst >= 1e-6:
            failures.append(f"scaling error {worst:.2e}")

        # Echo-state fading memory at radius 0.9.
        cfg = ReservoirConfig(n_hidden=50, input_dim=16, connectivity=0.2)
        w = init_weights(cfg, SeededRng(102))
        g = SeededRng(103).child("probe").generator()
        warm = g.uniform(-1, 1, (100, 16))
        s1, s2 = [g.uniform(-1, 1, 50)], [g.uniform(-1, 1, 50)]
        for row in warm:
            s1, s2 = step(w, s1, row), step(w, s2, row)
        gap = float(np.linalg.norm(s1[0] - s2[0]))
        if gap >= 1e-6:
            failures.append(f"fading-memory gap {gap:.2e}")

        # SNR round-trip at the four studied levels.
        clean, _ = make_synthetic(n_train=100, n_test=2, length=128, seed=104)
        for level in (50.0, 10.0, 1.0, 0.5):
            noised = inject_noise(clean, NoiseSpec(snr_db=level, seed=105))
            got = measured_snr(clean, noised)
            if abs(got - level) > 0.5:
                failures.append(f"SNR {level} dB measured {got:.3f}")

        # Tying invariant, entry-exact, for all four autoencoder kinds: the
        # input columns hold the transpose of the chosen draw's readout,
        # recomputed here from that draw.
        d = Dataset(
            name="t",
            patterns=SeededRng(106).child("d").generator().standard_normal((30, 20)),
            labels=np.arange(30) % 2,
            label_names=(0, 1),
            split="train",
        )
        for kind in ALL_KINDS:
            layers = 2 if kind.startswith("ml") else 1
            cfg = ReservoirConfig(n_hidden=15, input_dim=20, connectivity=0.2, n_layers=layers)
            t, _ = fit(d, RaeTrainSpec(cfg=cfg, seed=107), kind)
            draw = init_weights(
                cfg,
                SeededRng(107).child(f"cand{t.chosen_candidate}"),
                recurrent=not kind.endswith("elm-ae"),
            )
            w_out, _ = train_readout(run_collect(draw, d.patterns), d.patterns)
            gap = np.abs(t.weights.w_in[:, 1:] - w_out.T).max()
            if gap != 0.0:
                failures.append(f"tying gap {gap} for {kind}")

        # Error-rate arithmetic against a brute-force recount.
        g = SeededRng(108).child("er").generator()
        truth = g.integers(0, 3, size=500)
        pred = g.integers(0, 3, size=500)
        from esnrae import evaluate

        class Stub:
            n_classes = 3

            def predict(self, features):
                return pred

        got = evaluate(Stub(), np.zeros((1, 500)), truth)
        oracle_mis = int(sum(1 for p, t in zip(pred, truth) if p != t))
        if got.misclassified != oracle_mis or got.error_rate != oracle_mis / 500:
            failures.append("error-rate recount mismatch")

        # Replay determinism: byte-identical csv across two executions.
        train, test = make_synthetic(n_train=20, n_test=20, length=24, seed=109, offset=2.0)
        from esnrae import write_ucr

        tr, te = str(tmp_path / "tr.txt"), str(tmp_path / "te.txt")
        write_ucr(train, tr)
        write_ucr(test, te)
        spec = ExperimentSpec(
            train_path=tr,
            test_path=te,
            methods=("esn-rae", "elm-ae"),
            n_hidden=12,
            connectivity=0.3,
            n_runs=2,
            noise_levels=(None, 10.0),
            epochs=15,
        )
        blobs = []
        for i in range(2):
            path = tmp_path / f"replay{i}.csv"
            emit_csv(run_experiment(spec), str(path), include_timings=False)
            blobs.append(path.read_bytes())
        if blobs[0] != blobs[1]:
            failures.append("replay csv differs")

        elapsed = time.perf_counter() - started
        if elapsed >= 60.0:
            failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
        check(1, "property suite", not failures, "; ".join(failures) or f"{elapsed:.1f}s")


class TestCriterion2Ecg200Clean:
    def test_ecg200_clean_error_rates(self, ecg200_sweep):
        if ecg200_sweep is None:
            skip(2, "ECG200 clean reproduction", "ECG200 not found in $UCR_DATA_DIR or ./data")
        basic = ecg200_sweep.mean_er("esn-rae", None)
        ml = ecg200_sweep.mean_er("ml-esn-rae", None)
        detail = (
            f"ESN-RAE {basic:.3f} (reference 0.154 +/- 0.05 soft), "
            f"ML-ESN-RAE {ml:.3f} (reference 0.113 +/- 0.05 soft)"
        )
        check(2, "ECG200 clean reproduction", basic <= 0.20 and ml <= basic, detail)


class TestCriterion3CrossDatasetOrdering:
    def test_ordering_across_benchmarks(self):
        missing = [name for name, _ in BENCHMARK_DATASETS if find_ucr(name) is None]
        if missing:
            skip(
                3,
                "cross-dataset ordering",
                f"missing user-fetched datasets: {', '.join(missing)}",
            )
        ml_wins = 0
        encoder_wins = 0
        details = []
        for name, preset_key in BENCHMARK_DATASETS:
            spec = preset_spec(
                name,
                preset_key,
                methods=("esn-rae", "ml-esn-rae"),
                raw_baseline=True,
                noise_levels=(None,),
            )
            report = run_experiment(spec)
            basic = report.mean_er("esn-rae", None)
            ml = report.mean_er("ml-esn-rae", None)
            raw = report.mean_er("raw", None)
            ml_wins += ml <= basic
            encoder_wins += basic <= raw
            details.append(f"{name}: raw {raw:.3f} basic {basic:.3f} ml {ml:.3f}")
        print("\n".join(details))
        check(
            3,
            "cross-dataset ordering",
            ml_wins >= 5 and encoder_wins >= 5,
            f"ml<=basic on {ml_wins}/7, basic<=raw on {encoder_wins}/7",
        )


class TestCriterion4RecurrentVsFeedForward:
    def test_ml_esn_vs_ml_elm_under_noise(self, ecg200_sweep, coffee_sweep):
        missing = [
            name
            for name, sweep in (("ECG200", ecg200_sweep), ("Coffee", coffee_sweep))
            if sweep is None
        ]
        if missing:
            skip(
                4,
                "recurrent vs feed-forward under noise",
                f"missing user-fetched datasets: {', '.join(missing)}",
            )
        bad = []
        for name, sweep in (("ECG200", ecg200_sweep), ("Coffee", coffee_sweep)):
            for level in SWEEP_LEVELS:
                ml_esn = sweep.mean_er("ml-esn-rae", level)
                ml_elm = sweep.mean_er("ml-elm-ae", level)
                if not ml_esn <= ml_elm + 0.03:
                    bad.append(f"{name}@{level}: {ml_esn:.3f} vs {ml_elm:.3f}")
        check(4, "recurrent vs feed-forward under noise", not bad, "; ".join(bad) or "10/10 cells")


class TestCriterion5NoiseMonotonicity:
    def test_heavy_noise_never_helps_on_ecg200(self, ecg200_sweep):
        if ecg200_sweep is None:
            skip(5, "noise monotonicity", "ECG200 not found in $UCR_DATA_DIR or ./data")
        bad = []
        for method in ALL_KINDS + ("raw",):
            clean = ecg200_sweep.mean_er(method, None)
            noisy = ecg200_sweep.mean_er(method, 0.5)
            if not noisy >= clean:
                bad.append(f"{method}: clean {clean:.3f} vs 0.5 dB {noisy:.3f}")
        check(5, "noise monotonicity", not bad, "; ".join(bad) or "all methods degrade")


class TestCriterion6RatioArithmetic:
    def test_reference_ratio_row(self):
        # Pure arithmetic on the published mean error rates; independent of
        # any training.
        reference = {
            "esn-rae": 0.154,
            "ml-esn-rae": 0.113,
            "elm-ae": 0.190,
            "ml-elm-ae": 0.189,
        }
        cells = tuple(
            CellResult(dataset="ecg200", method=m, snr_db=None, run=0, seed=0, er=er)
            for m, er in reference.items()
        )
        spec = ExperimentSpec(
            train_path="fixture_TRAIN.txt",
            test_path="fixture_TEST.txt",
            raw_baseline=False,
            n_runs=1,
        )
        report = ExperimentReport(spec=spec, dataset="ecg200", cells=cells, total_seconds=0.0)
        p1, p2, p3 = ratio_table(report)[None]
        consistent = abs(p1 * reference["esn-rae"] - 100.0 * reference["ml-esn-rae"]) < 1e-12
        check(
            6,
            "ratio-table arithmetic",
            abs(p1 - 73.33) <= 0.1 and consistent,
            f"P1 {p1:.2f} P2 {p2:.2f} P3 {p3:.2f}",
        )


class TestCriterion7FeatureRangeAndSparsity:
    def test_feature_range_and_near_zero_fraction(self):
        available = [
            (name, key) for name, key in BENCHMARK_DATASETS if find_ucr(name) is not None
        ]
        if not available:
            skip(
                7,
                "feature range/sparsity on presets",
                "no user-fetched benchmark datasets found",
            )
        bad = []
        details = []
        for name, key in available:
            train_path, test_path = find_ucr(name)
            d_train = parse_ucr(train_path, name=name, split="train")
            d_test = parse_ucr(test_path, name=name, split="test")
            stats = d_train
            d_train = normalize(d_train, stats)
            d_test = normalize(d_test, stats)
            preset = PRESETS[key]
            cfg = ReservoirConfig(
                n_hidden=int(preset["n_hidden"]),
                input_dim=d_train.input_len,
                connectivity=preset["connectivity"],
            )
            t, f_train = fit(d_train, RaeTrainSpec(cfg=cfg, seed=0), "esn-rae")
            features = np.hstack([f_train, encode(t, d_test)])
            in_range = np.abs(features).max() < 1.0
            near_zero = float(np.mean(np.abs(features) < 0.05))
            details.append(f"{name}: near-zero {near_zero:.3f}")
            if not in_range:
                bad.append(f"{name}: feature outside (-1, 1)")
            if near_zero < 0.10:
                bad.append(f"{name}: near-zero fraction {near_zero:.3f} < 0.10")
        check(
            7,
            "feature range/sparsity on presets",
            not bad,
            "; ".join(bad) if bad else "; ".join(details),
        )


class TestPublishedShapes:
    """Dataset-geometry spot checks from the benchmark's documentation."""

    def test_ecg200_shapes(self):
        found = find_ucr("ECG200")
        if found is None:
            pytest.skip("ECG200 not available")
        train = parse_ucr(found[0], split="train")
        test = parse_ucr(found[1], split="test")
        assert train.n_patterns == 100 and train.input_len == 96 and train.n_classes == 2
        assert test.n_patterns == 100

    def test_ecgfivedays_shapes_and_feature_matrix(self):
        found = find_ucr("ECGFiveDays")
        if found is None:
            pytest.skip("ECGFiveDays not available")
        train = parse_ucr(found[0], split="train")
        test = parse_ucr(found[1], split="test")
        assert train.n_patterns == 23 and test.n_patterns == 861
        assert test.input_len == 136
        preset = PRESETS["ecgfivedays"]
        cfg = ReservoirConfig(
            n_hidden=int(preset["n_hidden"]),
            input_dim=136,
            connectivity=preset["connectivity"],
        )
        t, _ = fit(normalize(train, train), RaeTrainSpec(cfg=cfg, seed=0), "esn-rae")
        features = encode(t, normalize(test, train))
        assert features.shape == (100, 861)

    def test_coffee_shapes(self):
        found = find_ucr("Coffee")
        if found is None:
            pytest.skip("Coffee not available")
        train = parse_ucr(found[0], split="train")
        test = parse_ucr(found[1], split="test")
        assert train.n_patterns == 28 and test.n_patterns == 28
        assert train.input_len == 286
