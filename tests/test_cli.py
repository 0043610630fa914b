import json
import subprocess
import sys
import time

import numpy as np
import pytest

from esnrae import load_autoencoder, parse_ucr
from esnrae.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncodeCommand:
    def test_encode_writes_envelope_and_feature_files(self, synth_files, tmp_path, capsys):
        train, test = synth_files
        out = str(tmp_path / "out")
        code, stdout, _ = run_cli(
            [
                "encode", "--train", train, "--test", test,
                "--n-hidden", "20", "--connectivity", "0.2",
                "--out-dir", out,
            ],
            capsys,
        )
        assert code == 0
        assert "resolved config" in stdout
        assert "reconstruction error" in stdout
        enc = load_autoencoder(f"{out}/synth_esn-rae.esnae")
        assert enc.kind == "esn-rae"
        ftr = parse_ucr(f"{out}/synth_esn-rae_train_features.csv")
        fte = parse_ucr(f"{out}/synth_esn-rae_test_features.csv")
        assert ftr.input_len == 20 and fte.input_len == 20
        assert ftr.n_patterns == 40 and fte.n_patterns == 40

    def test_missing_file_exits_2_and_names_path(self, capsys):
        code, _, stderr = run_cli(
            ["encode", "--train", "nope_TRAIN.txt", "--test", "nope_TEST.txt",
             "--n-hidden", "8", "--connectivity", "0.5"],
            capsys,
        )
        assert code == 2
        assert "nope_TRAIN.txt" in stderr

    def test_rerun_is_byte_identical(self, synth_files, tmp_path, capsys):
        train, test = synth_files
        blobs = []
        for i in range(2):
            out = tmp_path / f"out{i}"
            code, _, _ = run_cli(
                ["encode", "--train", train, "--test", test,
                 "--n-hidden", "16", "--connectivity", "0.25",
                 "--out-dir", str(out)],
                capsys,
            )
            assert code == 0
            blobs.append(
                tuple(
                    (out / f"synth_esn-rae{suffix}").read_bytes()
                    for suffix in (".esnae", "_train_features.csv", "_test_features.csv")
                )
            )
        assert blobs[0] == blobs[1]

    def test_preset_sets_reservoir_shape(self, synth_files, tmp_path, capsys):
        train, test = synth_files
        out = str(tmp_path / "out")
        code, stdout, _ = run_cli(
            ["encode", "--train", train, "--test", test, "--preset", "ecgfivedays",
             "--out-dir", out],
            capsys,
        )
        assert code == 0
        assert '"n_hidden": 100' in stdout
        assert '"connectivity": 0.04' in stdout

    def test_unknown_preset_exits_2(self, synth_files, capsys):
        train, test = synth_files
        code, _, stderr = run_cli(
            ["encode", "--train", train, "--test", test, "--preset", "mnist"],
            capsys,
        )
        assert code == 2
        assert "mnist" in stderr

    def test_zero_layers_exits_2(self, synth_files, tmp_path, capsys):
        train, test = synth_files
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            ["encode", "--train", train, "--test", test, "--kind", "ml-esn-rae",
             "--layers", "0", "--n-hidden", "8", "--connectivity", "0.5",
             "--out-dir", str(out)],
            capsys,
        )
        assert code == 2
        assert "n_layers must be >= 1, got 0" in stderr
        assert not out.exists()

    def test_help_lists_no_reset_policy(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["encode", "--help"])
        out = capsys.readouterr().out
        assert exit_info.value.code == 0
        assert "--reset-policy" not in out and "--candidates" not in out

    def test_reports_the_chosen_draw(self, synth_files, tmp_path, capsys):
        train, test = synth_files
        code, stdout, _ = run_cli(
            ["encode", "--train", train, "--test", test, "--n-hidden", "60",
             "--connectivity", "0.2", "--out-dir", str(tmp_path / "out")],
            capsys,
        )
        assert code == 0
        assert "network draw 0)" in stdout
        assert "candidates" not in stdout


class TestClassifyCommand:
    def test_raw_classification(self, synth_files, capsys):
        train, test = synth_files
        code, stdout, _ = run_cli(["classify", "--train", train, "--test", test], capsys)
        assert code == 0
        assert "error rate: 0.0000" in stdout
        assert "confusion" in stdout

    def test_classify_encoded_features(self, synth_files, tmp_path, capsys):
        train, test = synth_files
        out = str(tmp_path / "out")
        run_cli(
            ["encode", "--train", train, "--test", test, "--n-hidden", "20",
             "--connectivity", "0.2", "--out-dir", out],
            capsys,
        )
        code, stdout, _ = run_cli(
            ["classify", "--train", f"{out}/synth_esn-rae_train_features.csv",
             "--test", f"{out}/synth_esn-rae_test_features.csv"],
            capsys,
        )
        assert code == 0
        assert "error rate" in stdout

    def test_epochs_above_bound_exits_2(self, synth_files, capsys):
        train, test = synth_files
        code, _, stderr = run_cli(
            ["classify", "--train", train, "--test", test, "--epochs", "10001"], capsys
        )
        assert code == 2
        assert "epochs must be in [1, 10000]" in stderr


class TestBenchCommand:
    def write_spec(self, tmp_path, synth_files, **extra):
        train, test = synth_files
        doc = {
            "train_path": train,
            "test_path": test,
            "methods": ["esn-rae", "elm-ae"],
            "n_hidden": 16,
            "connectivity": 0.25,
            "n_candidates": 2,
            "n_runs": 2,
            "noise_levels": [None, 10],
            "epochs": 20,
            "workers": 2,
        }
        doc.update(extra)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_smoke_run_under_ten_seconds(self, synth_files, tmp_path, capsys):
        spec = self.write_spec(tmp_path, synth_files)
        out = str(tmp_path / "reports")
        started = time.perf_counter()
        code, stdout, _ = run_cli(["bench", "--spec", spec, "--out-dir", out], capsys)
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 10.0
        assert "resolved config" in stdout
        assert (tmp_path / "reports" / "synth_report.csv").exists()
        assert (tmp_path / "reports" / "synth_report.md").exists()

    def test_unknown_method_exits_2_before_compute(self, synth_files, tmp_path, capsys):
        spec = self.write_spec(tmp_path, synth_files, methods=["esn-rae", "hologram"])
        code, _, stderr = run_cli(["bench", "--spec", spec], capsys)
        assert code == 2
        assert "hologram" in stderr

    def test_ill_typed_methods_exit_2_naming_the_spec(self, synth_files, tmp_path, capsys):
        spec = self.write_spec(tmp_path, synth_files, methods=5)
        code, _, stderr = run_cli(["bench", "--spec", spec], capsys)
        assert code == 2
        assert "spec.json" in stderr

    def test_unknown_preset_exits_2(self, synth_files, tmp_path, capsys):
        spec = self.write_spec(tmp_path, synth_files)
        code, _, stderr = run_cli(["bench", "--spec", spec, "--preset", "mnist"], capsys)
        assert code == 2
        assert "mnist" in stderr

    def test_flag_overrides_take_precedence(self, synth_files, tmp_path, capsys):
        spec = self.write_spec(tmp_path, synth_files)
        out = str(tmp_path / "r2")
        code, stdout, _ = run_cli(
            ["bench", "--spec", spec, "--runs", "1", "--out-dir", out], capsys
        )
        assert code == 0
        assert '"n_runs": 1' in stdout

    def test_partial_failure_exits_4_but_writes_report(
        self, synth_files, tmp_path, capsys, monkeypatch
    ):
        import esnrae.bench as bench_mod
        from esnrae import NumericalError

        real_fit = bench_mod.fit

        def failing_fit(d, spec, kind):
            if kind == "elm-ae":
                raise NumericalError("forced failure")
            return real_fit(d, spec, kind)

        monkeypatch.setattr(bench_mod, "fit", failing_fit)
        spec = self.write_spec(tmp_path, synth_files)
        out = str(tmp_path / "r3")
        code, _, stderr = run_cli(["bench", "--spec", spec, "--out-dir", out], capsys)
        assert code == 4
        assert "invalid" in stderr
        assert (tmp_path / "r3" / "synth_report.csv").exists()

    def test_out_of_memory_in_a_cell_exits_4_naming_it(
        self, synth_files, tmp_path, capsys, monkeypatch
    ):
        import esnrae.autoencoder as ae_mod

        def init_too_big(cfg, rng, recurrent=True):
            raise MemoryError("Unable to allocate 2.00 EiB for an array")

        monkeypatch.setattr(ae_mod, "init_weights", init_too_big)
        spec = self.write_spec(tmp_path, synth_files, n_runs=1, noise_levels=[None])
        out = tmp_path / "oom"
        code, _, stderr = run_cli(["bench", "--spec", spec, "--out-dir", str(out)], capsys)
        assert code == 4
        assert "2 invalid cell(s)" in stderr
        report = (out / "synth_report.csv").read_text()
        assert report.count("MemoryError: Unable to allocate 2.00 EiB for an array") == 2

    @pytest.mark.parametrize("key", ["train_path", "test_path"])
    def test_missing_data_file_exits_2_naming_it(self, synth_files, tmp_path, capsys, key):
        missing = str(tmp_path / "nonexistent" / "x.txt")
        spec = self.write_spec(tmp_path, synth_files, **{key: missing})
        code, _, stderr = run_cli(["bench", "--spec", spec, "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert missing in stderr

    @pytest.mark.parametrize(
        "extra",
        [
            {"epochs": 0},
            {"reg_lambda": 0},
            {"reset_policy": "bounce"},
            {"connectivity": 2.0},
            {"n_hidden": 0},
            {"n_layers_ml": 1, "methods": ["esn-rae", "ml-esn-rae"]},
            {"spectral_radius": -1},
            {"pinv_tolerance": -1},
            {"noise_levels": [None, float("inf")]},
            pytest.param({"epochs": 10_001}, id="epochs-above-bound"),
            pytest.param({"noise_levels": ["10", True]}, id="noise_levels-string-and-bool"),
        ],
        ids=lambda extra: ",".join(extra),
    )
    def test_value_a_cell_would_refuse_exits_2_before_any_cell(
        self, synth_files, tmp_path, capsys, monkeypatch, extra
    ):
        import esnrae.bench as bench_mod

        fitted = []
        monkeypatch.setattr(bench_mod, "fit", lambda *a: fitted.append(a))
        spec = self.write_spec(tmp_path, synth_files, **extra)
        code, _, stderr = run_cli(["bench", "--spec", spec, "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "spec.json" in stderr
        assert not fitted

    @pytest.mark.parametrize(
        "extra",
        [
            {"dataset_name": 5},
            {"dataset_name": "a/b"},
            {"dataset_name": "../escape"},
            {"test_path": True},
            {"methods": "esn-rae"},
        ],
        ids=lambda extra: f"{extra}",
    )
    def test_ill_typed_string_or_list_exits_2_before_any_cell(
        self, synth_files, tmp_path, capsys, monkeypatch, extra
    ):
        import esnrae.bench as bench_mod

        fitted = []
        monkeypatch.setattr(bench_mod, "fit", lambda *a: fitted.append(a))
        spec = self.write_spec(tmp_path, synth_files, **extra)
        out = tmp_path / "out"
        code, _, stderr = run_cli(["bench", "--spec", spec, "--out-dir", str(out)], capsys)
        assert code == 2
        assert "spec.json" in stderr and next(iter(extra)) in stderr
        assert not fitted
        assert not out.exists() and not list(tmp_path.glob("*_report.*"))

    def test_n_hidden_numpy_cannot_address_exits_2_before_any_cell(
        self, synth_files, tmp_path, capsys, monkeypatch
    ):
        import esnrae.bench as bench_mod

        fitted = []
        monkeypatch.setattr(bench_mod, "fit", lambda *a: fitted.append(a))
        spec = self.write_spec(tmp_path, synth_files, n_hidden=2**62)
        code, _, stderr = run_cli(["bench", "--spec", spec, "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "spec.json" in stderr and f"n_hidden {2**62} is too large" in stderr
        assert not fitted

    def test_reset_policy_reset_exits_2_naming_elm_ae(
        self, synth_files, tmp_path, capsys, monkeypatch
    ):
        import esnrae.bench as bench_mod

        fitted = []
        monkeypatch.setattr(bench_mod, "fit", lambda *a: fitted.append(a))
        spec = self.write_spec(tmp_path, synth_files, reset_policy="reset")
        code, _, stderr = run_cli(["bench", "--spec", spec, "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "elm-ae" in stderr
        assert not fitted

    @pytest.mark.parametrize("key", ["n_hidden", "n_layers_ml", "n_runs", "base_seed", "epochs"])
    def test_integer_beyond_64_bits_exits_2_before_any_cell(
        self, synth_files, tmp_path, capsys, monkeypatch, key
    ):
        import esnrae.bench as bench_mod

        fitted = []
        monkeypatch.setattr(bench_mod, "fit", lambda *a: fitted.append(a))
        spec = self.write_spec(tmp_path, synth_files, **{key: 10**400})
        code, _, stderr = run_cli(["bench", "--spec", spec, "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "spec.json" in stderr and "64-bit" in stderr
        assert not fitted

    def test_no_timings_replay_byte_identical(self, synth_files, tmp_path, capsys):
        spec = self.write_spec(tmp_path, synth_files, n_runs=1, noise_levels=[None])
        outputs = []
        for i in range(2):
            out = tmp_path / f"rep{i}"
            code, _, _ = run_cli(
                ["bench", "--spec", spec, "--out-dir", str(out), "--no-timings"], capsys
            )
            assert code == 0
            outputs.append((out / "synth_report.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestNoiseCommand:
    def test_noise_roundtrip_and_label_preservation(self, synth_files, tmp_path, capsys):
        train, _ = synth_files
        out = str(tmp_path / "noised.txt")
        code, stdout, _ = run_cli(
            ["noise", "--input", train, "--snr", "50", "--seed", "3", "--out", out],
            capsys,
        )
        assert code == 0
        measured = float(stdout.split("measured SNR:")[1].split("dB")[0])
        assert 49.5 <= measured <= 50.5
        original = parse_ucr(train)
        noised = parse_ucr(out)
        assert np.array_equal(original.labels, noised.labels)
        assert original.label_names == noised.label_names
        assert not np.array_equal(original.patterns, noised.patterns)

    def test_same_seed_identical_output(self, synth_files, tmp_path, capsys):
        train, _ = synth_files
        outs = []
        for i in range(2):
            out = tmp_path / f"n{i}.txt"
            code, _, _ = run_cli(
                ["noise", "--input", train, "--snr", "10", "--seed", "9", "--out", str(out)],
                capsys,
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_format_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1, 2, banana\n")
        code, _, stderr = run_cli(
            ["noise", "--input", str(bad), "--snr", "10", "--out", str(tmp_path / "o.txt")],
            capsys,
        )
        assert code == 2
        assert "non-numeric" in stderr


class TestExitCodes:
    def test_numerical_error_maps_to_3(self, synth_files, capsys, monkeypatch):
        import esnrae.cli as cli_mod
        from esnrae import NumericalError

        def exploding_fit(d, spec, kind):
            raise NumericalError("singular values refused to converge")

        monkeypatch.setattr(cli_mod, "fit", exploding_fit)
        train, test = synth_files
        code, _, stderr = run_cli(
            ["encode", "--train", train, "--test", test,
             "--n-hidden", "8", "--connectivity", "0.5"],
            capsys,
        )
        assert code == 3
        assert "numerical error" in stderr


    def test_out_of_memory_in_encode_is_one_line_exiting_2(self, synth_files, capsys, monkeypatch):
        import esnrae.autoencoder as ae_mod

        def init_too_big(cfg, rng, recurrent=True):
            raise MemoryError("Unable to allocate 2.00 EiB for an array")

        monkeypatch.setattr(ae_mod, "init_weights", init_too_big)
        train, test = synth_files
        code, _, stderr = run_cli(
            ["encode", "--train", train, "--test", test,
             "--n-hidden", "8", "--connectivity", "0.5"],
            capsys,
        )
        assert code == 2
        assert stderr == "error: out of memory: Unable to allocate 2.00 EiB for an array\n"

    def test_out_of_memory_in_classify_is_one_line_exiting_2(self, synth_files, capsys, monkeypatch):
        import esnrae.cli as cli_mod

        def train_too_big(*args):
            raise MemoryError()

        monkeypatch.setattr(cli_mod, "train_classifier", train_too_big)
        train, test = synth_files
        code, _, stderr = run_cli(["classify", "--train", train, "--test", test], capsys)
        assert code == 2
        assert stderr == "error: out of memory: allocation failed\n"


class TestOutputPaths:
    """A file that cannot be written is one error line and exit 2, before any fit."""

    @staticmethod
    def no_fit(monkeypatch):
        import esnrae.bench as bench_mod
        import esnrae.cli as cli_mod

        def unreachable_fit(*args):
            raise AssertionError("fit reached")

        monkeypatch.setattr(cli_mod, "fit", unreachable_fit)
        monkeypatch.setattr(bench_mod, "fit", unreachable_fit)

    @staticmethod
    def assert_one_error_line(stderr, path):
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert str(path) in stderr

    def test_noise_into_a_missing_directory_exits_2(self, synth_files, tmp_path, capsys):
        out = tmp_path / "missing" / "x.txt"
        code, _, stderr = run_cli(
            ["noise", "--input", synth_files[0], "--snr", "10", "--out", str(out)], capsys
        )
        assert code == 2
        self.assert_one_error_line(stderr, out)

    def test_encode_out_dir_that_is_a_file_exits_2_before_fit(
        self, synth_files, tmp_path, capsys, monkeypatch
    ):
        self.no_fit(monkeypatch)
        taken = tmp_path / "taken"
        taken.write_text("")
        train, test = synth_files
        code, _, stderr = run_cli(
            ["encode", "--train", train, "--test", test, "--n-hidden", "8",
             "--connectivity", "0.5", "--out-dir", str(taken)],
            capsys,
        )
        assert code == 2
        self.assert_one_error_line(stderr, taken)

    def test_bench_out_dir_that_is_a_file_exits_2_before_any_fit(
        self, synth_files, tmp_path, capsys, monkeypatch
    ):
        self.no_fit(monkeypatch)
        spec = TestBenchCommand().write_spec(tmp_path, synth_files)
        taken = tmp_path / "taken"
        taken.write_text("")
        code, _, stderr = run_cli(["bench", "--spec", spec, "--out-dir", str(taken)], capsys)
        assert code == 2
        self.assert_one_error_line(stderr, taken)


class TestSynthCommand:
    def test_generates_parseable_files(self, tmp_path, capsys):
        out = str(tmp_path / "synthdir")
        code, stdout, _ = run_cli(
            ["synth", "--out-dir", out, "--train-size", "10", "--test-size", "8",
             "--length", "24", "--seed", "4"],
            capsys,
        )
        assert code == 0
        train = parse_ucr(f"{out}/synth_TRAIN.txt")
        test = parse_ucr(f"{out}/synth_TEST.txt")
        assert train.n_patterns == 10 and test.n_patterns == 8
        assert train.input_len == 24
        assert train.n_classes == 2


class TestEntryPoint:
    def test_module_invocation(self, synth_files):
        train, test = synth_files
        proc = subprocess.run(
            [sys.executable, "-m", "esnrae.cli", "classify", "--train", train, "--test", test],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "error rate" in proc.stdout

    def test_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "esnrae.cli", "launch"], capture_output=True, text=True
        )
        assert proc.returncode == 2


class TestSharedClassIds:
    def write(self, path, rows):
        path.write_text("".join(",".join(str(v) for v in row) + "\n" for row in rows))
        return str(path)

    def test_test_split_with_one_label_keeps_training_ids(self, tmp_path, capsys):
        rows = [(1, 0.0, 0.1), (1, 0.2, 0.0), (2, 5.0, 5.1), (2, 5.2, 4.9)]
        train = self.write(tmp_path / "train.txt", rows)
        test = self.write(tmp_path / "test.txt", rows[2:])
        code, out, _ = run_cli(["classify", "--train", train, "--test", test], capsys)
        assert code == 0
        assert "error rate: 0.0000 (0/2 misclassified)" in out

    def test_mismatched_lengths_exit_2_before_training(self, tmp_path, capsys, monkeypatch):
        import esnrae.cli as cli_mod

        def no_training(*args, **kwargs):
            raise AssertionError("classifier trained on mismatched splits")

        monkeypatch.setattr(cli_mod, "train_classifier", no_training)
        train = self.write(tmp_path / "train.txt", [(1, 0.0, 0.1), (2, 5.0, 5.1)])
        test = self.write(tmp_path / "test.txt", [(1, 0.0, 0.1, 0.2)])
        code, _, stderr = run_cli(["classify", "--train", train, "--test", test], capsys)
        assert code == 2
        assert "train length 2" in stderr and "test length 3" in stderr

    def test_unknown_test_label_exits_2(self, tmp_path, capsys):
        rows = [(1, 0.0, 0.1), (2, 5.0, 5.1)]
        train = self.write(tmp_path / "train.txt", rows)
        test = self.write(tmp_path / "test.txt", [(3, 0.0, 0.1)])
        for command in (
            ["classify", "--train", train, "--test", test],
            ["encode", "--train", train, "--test", test, "--n-hidden", "4",
             "--connectivity", "0.5", "--out-dir", str(tmp_path / "out")],
        ):
            code, _, stderr = run_cli(command, capsys)
            assert code == 2
            assert "[3]" in stderr
