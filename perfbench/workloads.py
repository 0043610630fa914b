"""The benchmark's workloads: inputs, the timed CLI calls, and output checks.

Each workload drives ``esnrae.cli.main`` in-process, one repetition at a
time. A repetition's wall time runs from its first CLI call to the return of
its last, which is when the last output has been written. Checks run after
the clock stops and count failed operations instead of aborting, so they feed
the run's ``failed``/``attempted`` counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .inputs import Shape, generate

KINDS = ("esn-rae", "ml-esn-rae", "elm-ae", "ml-elm-ae")


@dataclass
class RepOutcome:
    """What one repetition produced, after its checks."""

    dataset: int
    wall_s: float
    attempted: int
    failed: int
    error_rates: list[tuple[str, float]]  # (method, test error rate) per cell or command
    n_scored: int  # error rates a fully successful repetition yields
    digest: str
    problems: list[str] = field(default_factory=list)


def _call(main, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command, capturing what it prints.

    An exit (argparse rejecting a flag) or an exception the CLI does not
    handle becomes a nonzero code with its message, so the checks count it.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # noqa: BLE001 - any crash is a failed command
            print(f"{type(exc).__name__}: {exc}")
            code = 1
    return code, out.getvalue()


def _dataset_dir(work_dir: str, index: int) -> str:
    path = os.path.join(work_dir, f"d{index}")
    os.makedirs(path, exist_ok=True)
    return path


def _load_matrix(path: str) -> np.ndarray | None:
    """Read a comma-separated numeric file without the library's parser."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError):
        return None


@dataclass(frozen=True)
class GridWorkload:
    """``esnrae bench --no-timings`` over all four methods plus ``raw``."""

    name: str
    shape: Shape
    preset: str
    noise_levels: tuple[float | None, ...]
    n_runs: int
    n_datasets: int

    @property
    def n_cells(self) -> int:
        return (len(KINDS) + 1) * len(self.noise_levels) * self.n_runs

    def setup(self, seed: int, work_dir: str, n_datasets: int) -> None:
        """Write each dataset and its grid spec under ``work_dir/d<index>``."""
        for index in range(n_datasets):
            self._write_spec(*generate(self.shape, seed, _dataset_dir(work_dir, index), index))

    def _write_spec(self, train: str, test: str) -> None:
        spec = {
            "train_path": train,
            "test_path": test,
            "dataset_name": self.shape.name,
            "methods": list(KINDS),
            "raw_baseline": True,
            "n_runs": self.n_runs,
            "noise_levels": list(self.noise_levels),
            "workers": 1,
        }
        with open(os.path.join(os.path.dirname(train), "spec.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)

    def run(self, main, work_dir: str, dataset: int) -> RepOutcome:
        out_dir = os.path.join(work_dir, "out")
        argv = [
            "bench",
            "--spec", os.path.join(_dataset_dir(work_dir, dataset), "spec.json"),
            "--out-dir", out_dir,
            "--preset", self.preset,
            "--no-timings",
        ]
        t0 = time.perf_counter()
        code, printed = _call(main, argv)
        wall = time.perf_counter() - t0
        csv_path = os.path.join(out_dir, f"{self.shape.name}_report.csv")
        return self._check(code, printed, csv_path, dataset, wall)

    def _check(self, code: int, printed: str, csv_path: str, dataset: int, wall: float) -> RepOutcome:
        problems: list[str] = []
        try:
            with open(csv_path, "rb") as fh:
                raw = fh.read()
        except OSError:
            raw = b""
        lines = [ln for ln in raw.decode("utf-8", "replace").splitlines() if ln and not ln.startswith("#")]
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]] if lines else []
        ers = []
        for row in rows:
            try:
                er = float(row.get("er", ""))
            except ValueError:
                continue
            if row.get("error", "") == "" and 0.0 <= er <= 1.0:
                ers.append((row.get("method", ""), er))
        failed = self.n_cells - len(ers)
        if len(rows) != self.n_cells:
            problems.append(f"report has {len(rows)} cells, expected {self.n_cells}")
        if failed:
            problems.append(f"{failed} invalid or missing cells")
        if code != 0:
            problems.append(f"exit code {code}: {printed.strip().splitlines()[-1:]}")
            failed = self.n_cells
        return RepOutcome(
            dataset=dataset,
            wall_s=wall,
            attempted=self.n_cells,
            failed=failed,
            error_rates=ers,
            n_scored=self.n_cells,
            digest=hashlib.sha256(raw).hexdigest(),
            problems=problems,
        )


_ER_LINE = re.compile(r"error rate: [0-9.]+ \((\d+)/(\d+) misclassified\)")


@dataclass(frozen=True)
class RoundtripWorkload:
    """Per kind, ``esnrae encode`` then ``esnrae classify`` on its feature files;
    then ``esnrae classify`` on the raw inputs."""

    name: str
    shape: Shape
    preset: str
    n_hidden: int
    n_datasets: int

    def setup(self, seed: int, work_dir: str, n_datasets: int) -> None:
        for index in range(n_datasets):
            generate(self.shape, seed, _dataset_dir(work_dir, index), index)

    def run(self, main, work_dir: str, dataset: int) -> RepOutcome:
        stem = os.path.join(_dataset_dir(work_dir, dataset), self.shape.name)
        out_dir = os.path.join(work_dir, "out")
        commands = []
        for kind in KINDS:
            features = os.path.join(out_dir, f"{self.shape.name}_{kind}")
            commands.append(
                ["encode", "--train", stem + "_TRAIN.txt", "--test", stem + "_TEST.txt",
                 "--kind", kind, "--preset", self.preset, "--out-dir", out_dir]
            )
            commands.append(
                ["classify", "--train", features + "_train_features.csv",
                 "--test", features + "_test_features.csv"]
            )
        commands.append(["classify", "--train", stem + "_TRAIN.txt", "--test", stem + "_TEST.txt"])

        results = []
        t0 = time.perf_counter()
        for argv in commands:
            results.append(_call(main, argv))
        wall = time.perf_counter() - t0
        return self._check(commands, results, dataset, wall)

    def _check(self, commands, results, dataset: int, wall: float) -> RepOutcome:
        problems: list[str] = []
        ers: list[tuple[str, float]] = []
        digest = hashlib.sha256()
        failed = 0
        for argv, (code, printed) in zip(commands, results):
            ok = code == 0
            if ok and argv[0] == "encode":
                ok = self._check_encode(argv, digest, problems)
            elif ok:
                match = _ER_LINE.search(printed)
                ok = match is not None and int(match.group(2)) == self.shape.n_test
                if ok:
                    ers.append((self._method(argv[2]), int(match.group(1)) / int(match.group(2))))
                    digest.update(match.group(0).encode())
                else:
                    problems.append(f"{argv[0]} {argv[2]}: no error-rate line over {self.shape.n_test} patterns")
            elif code != 0:
                problems.append(f"{argv[0]} {argv[2]}: exit code {code}")
            failed += not ok
        return RepOutcome(
            dataset=dataset,
            wall_s=wall,
            attempted=len(commands),
            failed=failed,
            error_rates=ers,
            n_scored=len(KINDS) + 1,
            digest=digest.hexdigest(),
            problems=problems,
        )

    def _method(self, train_path: str) -> str:
        for kind in KINDS:
            if os.path.basename(train_path) == f"{self.shape.name}_{kind}_train_features.csv":
                return kind
        return "raw"

    def _check_encode(self, argv: list[str], digest, problems: list[str]) -> bool:
        kind, out_dir = argv[argv.index("--kind") + 1], argv[argv.index("--out-dir") + 1]
        stem = os.path.join(out_dir, f"{self.shape.name}_{kind}")
        try:
            with open(stem + ".esnae", "rb") as fh:
                envelope_ok = fh.read(6) == b"ESNRAE"
        except OSError:
            envelope_ok = False
        if not envelope_ok:
            problems.append(f"encode {kind}: no encoder envelope")
            return False
        for split, rows in (("train", self.shape.n_train), ("test", self.shape.n_test)):
            path = f"{stem}_{split}_features.csv"
            matrix = _load_matrix(path)
            if matrix is None or matrix.shape != (rows, self.n_hidden + 1):
                shape = None if matrix is None else matrix.shape
                problems.append(f"encode {kind}: {split} features shape {shape}, expected ({rows}, {self.n_hidden + 1})")
                return False
            if not np.all(np.isfinite(matrix)):
                problems.append(f"encode {kind}: non-finite {split} features")
                return False
            with open(path, "rb") as fh:
                digest.update(fh.read())
        return True


# Separations put every method's median error rate over seeds between
# about 0.13 and 0.35 (raw lowest, ml-esn-rae highest): nearer 0 the
# seed-to-seed noise grows against the mean, nearer chance the methods are no
# longer told apart. One dataset's error-rate mean still moves by 10-25%
# across seeds, so each workload averages as many datasets as its
# repetitions in a run of BENCHMARK.json's run_seconds cover.
WORKLOADS = {
    w.name: w
    for w in (
        GridWorkload(
            name="ecg200-grid",
            shape=Shape("ECG200", 100, 100, 96, (-1, 1), 0.7),
            preset="ecg200",
            noise_levels=(None, 10.0),
            n_runs=2,
            n_datasets=4,
        ),
        GridWorkload(
            name="earthquakes-grid",
            # Long series are easier at equal separation.
            shape=Shape("Earthquakes", 322, 139, 512, (0, 1), 0.5),
            preset="earthquakes",
            noise_levels=(None,),
            n_runs=1,
            # Two repetitions fit, so neither dataset runs twice: the
            # repeated-output check runs in --trace 1 runs only.
            n_datasets=2,
        ),
        RoundtripWorkload(
            name="cli-roundtrip",
            # Only 23 training patterns: which ones are drawn moves one
            # dataset's error-rate mean by about 23%, hence the most datasets.
            shape=Shape("ECGFiveDays", 23, 861, 136, (1, 2), 1.5),
            preset="ecgfivedays",
            n_hidden=100,
            n_datasets=16,
        ),
    )
}


# Two balanced classes: a method whose mean error rate over a run's datasets
# reaches this does no better than guessing. On these inputs the worst
# method's mean stays below 0.4.
CHANCE_ER = 0.45


def _first_per_dataset(outcomes: list[RepOutcome]) -> list[RepOutcome]:
    first: dict[int, RepOutcome] = {}
    for outcome in outcomes:
        first.setdefault(outcome.dataset, outcome)
    return list(first.values())


def mean_error_rate(outcomes: list[RepOutcome]) -> float:
    """Mean test error rate over the datasets, each from its first repetition;
    a cell or command that gave none counts as 1.0."""
    per_dataset = [
        (sum(er for _, er in o.error_rates) + o.n_scored - len(o.error_rates)) / o.n_scored
        for o in _first_per_dataset(outcomes)
    ]
    return sum(per_dataset) / len(per_dataset)


def methods_at_chance(outcomes: list[RepOutcome]) -> list[str]:
    """Methods whose mean error rate over the datasets' first repetitions is
    at least ``CHANCE_ER``."""
    rates: dict[str, list[float]] = {}
    for outcome in _first_per_dataset(outcomes):
        for method, er in outcome.error_rates:
            rates.setdefault(method, []).append(er)
    return sorted(m for m, v in rates.items() if sum(v) / len(v) >= CHANCE_ER)
