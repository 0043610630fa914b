"""Multi-run benchmark orchestration: encode -> classify -> aggregate.

One experiment runs every (method, noise level, run) cell of a grid over a
single train/test dataset pair. Each run r uses seed ``base_seed + r`` for
the weight draws and for the noise draws, so any cell is reproducible in
isolation and noise is re-sampled per run. All methods within one (level,
run) see the same corrupted data. Cells run serially in one process, so each
cell's timing columns measure that cell alone; the report follows the spec's
grid order.

The pipeline per cell: parse -> z-score with train statistics (optional) ->
inject noise into the targeted splits -> fit autoencoder on train -> encode
train and test -> train the linear classifier on train features -> error
rate on test features. The ``raw`` baseline skips the encoder and feeds the
(preprocessed) patterns straight to the classifier. Runs go one at a time:
all cells of a run are encoded first, keeping only each cell's standardized
training design and test features, then the run's classifiers train together
in one lockstep pass on the run's training labels and seed (each
bit-identical to training it alone), each cell is scored, and the run's
features are dropped. Memory beyond one cell therefore holds one run's
features.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .autoencoder import (
    KINDS,
    RaeTrainSpec,
    _is_int,
    _is_number,
    _validate_kind,
    encode,
    fit,
    is_multilayer,
)
from .classifier import (
    ClassifierParams,
    Standardized,
    evaluate,
    standardize,
    train_classifiers,
)
from .data import Dataset, NoiseSpec, _read_lines, inject_noise, parse_ucr_pair
from .errors import FormatError, NumericalError
from .reservoir import ReservoirConfig, radius_memo

RAW_BASELINE = "raw"

CSV_COLUMNS = (
    "dataset",
    "method",
    "snr_db",
    "run",
    "seed",
    "er",
    "recon_error",
    "fit_ms",
    "encode_ms",
    "classify_ms",
    "error",
)
_TIMING_COLUMNS = ("fit_ms", "encode_ms", "classify_ms")


_INT_FIELDS = ("n_hidden", "n_layers_ml", "n_runs", "base_seed", "epochs")
_NUMBER_FIELDS = ("connectivity", "spectral_radius", "input_scaling", "reg_lambda")
_BOOL_FIELDS = ("raw_baseline", "normalize")
_STR_FIELDS = ("train_path", "test_path", "dataset_name")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one benchmark experiment."""

    train_path: str
    test_path: str
    dataset_name: str = ""
    methods: tuple[str, ...] = KINDS
    raw_baseline: bool = True
    n_hidden: int = 100
    connectivity: float = 0.1
    spectral_radius: float = 0.9
    n_layers_ml: int = 2
    input_scaling: float = 1.0
    n_runs: int = 10
    base_seed: int = 0
    noise_levels: tuple[float | None, ...] = (None,)
    noise_targets: str = "both"
    normalize: bool = True
    reg_lambda: float = 1e-4
    epochs: int = 50

    def __post_init__(self):
        # A spec read from JSON can hold any type or size; a wrong one would
        # otherwise surface as an uncaught TypeError deep inside a cell or in
        # the report after the whole grid, and a huge integer as a failure in
        # every cell or a practically endless loop.
        for name in ("methods", "noise_levels"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "noise_levels", tuple(self.noise_levels))
        for names, ok, expected in (
            (_STR_FIELDS, lambda v: isinstance(v, str), "a string"),
            (_INT_FIELDS, lambda v: _is_int(v) and -(2**63) <= v < 2**63,
             "an integer in the signed 64-bit range"),
            (_NUMBER_FIELDS, _is_number, "a number"),
            (_BOOL_FIELDS, lambda v: type(v) is bool, "true or false"),
            (("noise_levels",), lambda v: all(x is None or _is_number(x) for x in v),
             "a list of numbers or nulls"),
        ):
            for name in names:
                if not ok(getattr(self, name)):
                    raise ValueError(f"{name} must be {expected}, got {getattr(self, name)!r}")
        # The dataset name names the report files inside the output directory.
        if any(c in self.dataset_name for c in "/\\\0"):
            raise ValueError(
                f"dataset_name must not hold '/', '\\' or NUL, got {self.dataset_name!r}"
            )
        for m in self.methods:
            if m not in KINDS:
                raise ValueError(f"unknown method {m!r}; expected one of {KINDS}")
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        if len(set(self.noise_levels)) != len(self.noise_levels):
            raise ValueError("noise levels must be distinct")
        if self.noise_targets not in ("train", "test", "both"):
            raise ValueError(f"noise_targets must be train|test|both, got {self.noise_targets!r}")
        # Every value a cell would refuse is refused here, by the cell's own
        # checks; the input length is unknown until the data is read.
        ClassifierParams(reg_lambda=self.reg_lambda, epochs=self.epochs, seed=self.base_seed)
        for level in self.noise_levels:
            if level is not None:
                NoiseSpec(snr_db=level, seed=self.base_seed, targets=self.noise_targets)
        for method in self.methods:
            _validate_kind(method, self.reservoir_config(method, input_dim=1))

    def all_methods(self) -> tuple[str, ...]:
        return self.methods + ((RAW_BASELINE,) if self.raw_baseline else ())

    def reservoir_config(self, method: str, input_dim: int) -> ReservoirConfig:
        return ReservoirConfig(
            n_hidden=self.n_hidden,
            input_dim=input_dim,
            connectivity=self.connectivity,
            spectral_radius_target=self.spectral_radius,
            n_layers=self.n_layers_ml if is_multilayer(method) else 1,
            input_scaling=self.input_scaling,
        )

    def echo(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["methods"] = list(self.methods)
        d["noise_levels"] = list(self.noise_levels)
        return d


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (method, noise level, run) cell."""

    dataset: str
    method: str
    snr_db: float | None
    run: int
    seed: int
    er: float | None = None
    recon_error: float | None = None
    fit_ms: float = 0.0
    encode_ms: float = 0.0
    classify_ms: float = 0.0
    error: str = ""

    @property
    def valid(self) -> bool:
        return self.error == "" and self.er is not None


@dataclass(frozen=True)
class ExperimentReport:
    """All cell results plus the resolved configuration that produced them."""

    spec: ExperimentSpec
    dataset: str
    cells: tuple[CellResult, ...]
    total_seconds: float

    def cell(self, method: str, snr_db: float | None, run: int) -> CellResult:
        for c in self.cells:
            if c.method == method and c.snr_db == snr_db and c.run == run:
                return c
        raise KeyError(f"no cell for ({method}, {snr_db}, run {run})")

    def run_ers(self, method: str, snr_db: float | None) -> list[float]:
        """Per-run error rates of the valid cells, in run order."""
        return [
            c.er
            for c in sorted(self.cells, key=lambda c: c.run)
            if c.method == method and c.snr_db == snr_db and c.valid
        ]

    def mean_er(self, method: str, snr_db: float | None) -> float:
        ers = self.run_ers(method, snr_db)
        if not ers:
            return math.nan
        return float(np.mean(ers))

    def spread(self, method: str, snr_db: float | None) -> dict[str, float]:
        ers = self.run_ers(method, snr_db)
        if not ers:
            return {"mean": math.nan, "min": math.nan, "max": math.nan, "std": math.nan, "n": 0}
        return {
            "mean": float(np.mean(ers)),
            "min": float(np.min(ers)),
            "max": float(np.max(ers)),
            "std": float(np.std(ers)),
            "n": len(ers),
        }

    @property
    def invalid_cells(self) -> tuple[CellResult, ...]:
        return tuple(c for c in self.cells if not c.valid)


def _noised(
    spec: ExperimentSpec,
    d_train: Dataset,
    d_test: Dataset,
    level: float | None,
    seed: int,
) -> tuple[Dataset, Dataset]:
    if level is None:
        return d_train, d_test
    ns = NoiseSpec(snr_db=level, seed=seed, targets=spec.noise_targets)
    return inject_noise(d_train, ns), inject_noise(d_test, ns)


def _failed(cell: CellResult, exc: Exception) -> CellResult:
    return replace(cell, error=f"{type(exc).__name__}: {exc}")


# A cell between encoding and classification: its result so far and, unless
# encoding failed, its standardized training design and its test features
# (one column per pattern).
_Encoded = tuple[CellResult, tuple[Standardized, np.ndarray] | None]


def _encode_cell(
    spec: ExperimentSpec,
    dataset: str,
    method: str,
    level: float | None,
    run: int,
    d_train: Dataset,
    d_test: Dataset,
) -> _Encoded:
    """Fit one cell's autoencoder and encode both splits with it.

    Keeps only the standardized training design and the test features; the
    autoencoder and its training features are dropped here.
    """
    seed = spec.base_seed + run
    cell = CellResult(dataset=dataset, method=method, snr_db=level, run=run, seed=seed)
    try:
        if method == RAW_BASELINE:
            return cell, (standardize(d_train.patterns.T), d_test.patterns.T)
        cfg = spec.reservoir_config(method, d_train.input_len)
        t0 = time.perf_counter()
        ae, f_train = fit(d_train, RaeTrainSpec(cfg=cfg, seed=seed), method)
        fit_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        f_test = encode(ae, d_test)
        design = standardize(f_train)
        encode_ms = (time.perf_counter() - t0) * 1e3
    except (ValueError, NumericalError, FormatError, MemoryError) as exc:
        return _failed(cell, exc), None
    cell = replace(
        cell, recon_error=ae.reconstruction_error, fit_ms=fit_ms, encode_ms=encode_ms
    )
    return cell, (design, f_test)


def _classify(
    spec: ExperimentSpec,
    encoded: list[_Encoded],
    y_train: np.ndarray,
    y_test: np.ndarray,
    seed: int,
) -> list[CellResult]:
    """Train the classifiers of one run's encoded cells in one pass, then score each.

    Every cell trains on ``y_train`` with the run's ``seed`` and is scored on
    ``y_test``. A cell's ``classify_ms`` is its evaluation time plus an equal
    share of the shared training pass.
    """
    done = [cell for cell, _ in encoded]
    ready = [i for i, (_, data) in enumerate(encoded) if data is not None]
    if not ready:
        return done
    params = ClassifierParams(reg_lambda=spec.reg_lambda, epochs=spec.epochs, seed=seed)
    t0 = time.perf_counter()
    try:
        classifiers = train_classifiers([encoded[i][1][0] for i in ready], y_train, params)
    except (ValueError, NumericalError, FormatError, MemoryError) as exc:
        for i in ready:
            done[i] = _failed(done[i], exc)
        return done
    share_ms = (time.perf_counter() - t0) * 1e3 / len(ready)
    for i, clf in zip(ready, classifiers):
        f_test = encoded[i][1][1]
        t0 = time.perf_counter()
        try:
            result = evaluate(clf, f_test, y_test)
        except (ValueError, NumericalError, FormatError, MemoryError) as exc:
            done[i] = _failed(done[i], exc)
            continue
        classify_ms = share_ms + (time.perf_counter() - t0) * 1e3
        done[i] = replace(done[i], er=result.error_rate, classify_ms=classify_ms)
    return done


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Execute the full grid and return the merged report.

    Runs go one at a time: the run's cells are encoded one after another, its
    classifiers train in one :func:`~esnrae.classifier.train_classifiers`
    pass, and its features are dropped before the next run starts.
    """
    t_start = time.perf_counter()
    d_train, d_test = parse_ucr_pair(
        spec.train_path, spec.test_path, name=spec.dataset_name, normalized=spec.normalize
    )
    dataset = d_train.name
    grid = [(method, level) for method in spec.all_methods() for level in spec.noise_levels]
    # A multi-layer fit needs the most memory, so those cells are encoded
    # first, while the fewest other cells' features are held.
    encode_order = sorted(grid, key=lambda cell: not is_multilayer(cell[0]))

    # A recurrent draw depends only on (seed, stream, N, beta), so cells that
    # differ only in noise level or method share the spectral radius of their
    # draws. The memo closes with this call, even when a cell raises.
    cells: list[CellResult] = []
    with radius_memo():
        for run in range(spec.n_runs):
            seed = spec.base_seed + run
            # All methods within one (level, run) see the same corrupted data.
            noised = {
                level: _noised(spec, d_train, d_test, level, seed)
                for level in spec.noise_levels
            }
            encoded = [
                _encode_cell(spec, dataset, method, level, run, *noised[level])
                for method, level in encode_order
            ]
            cells += _classify(spec, encoded, d_train.labels, d_test.labels, seed)
            del encoded, noised

    # Keyed merge: report order follows the spec's grid, not encoding order.
    by_key = {(c.method, c.snr_db, c.run): c for c in cells}
    ordered = tuple(
        by_key[(method, level, run)]
        for method, level in grid
        for run in range(spec.n_runs)
    )
    return ExperimentReport(
        spec=spec,
        dataset=dataset,
        cells=ordered,
        total_seconds=time.perf_counter() - t_start,
    )


def ratio_table(report: ExperimentReport) -> dict[float | None, tuple[float, float, float]]:
    """Per-level mean-error ratios between the recurrent and feed-forward variants.

    Returns, per noise level, 100 times:
      P1 = ER(ml-esn-rae) / ER(esn-rae)
      P2 = ER(ml-esn-rae) / ER(ml-elm-ae)
      P3 = ER(esn-rae)    / ER(elm-ae)
    A zero denominator yields NaN for that entry rather than an error.
    """
    have = {c.method for c in report.cells}
    missing = [m for m in KINDS if m not in have]
    if missing:
        raise ValueError(f"ratio table needs all four methods; missing {missing}")

    def ratio(num: float, den: float) -> float:
        if den == 0.0 or math.isnan(den) or math.isnan(num):
            return math.nan
        return 100.0 * num / den

    table = {}
    for level in report.spec.noise_levels:
        er = {m: report.mean_er(m, level) for m in KINDS}
        table[level] = (
            ratio(er["ml-esn-rae"], er["esn-rae"]),
            ratio(er["ml-esn-rae"], er["ml-elm-ae"]),
            ratio(er["esn-rae"], er["elm-ae"]),
        )
    return table


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _level_label(level: float | None) -> str:
    return "clean" if level is None else f"{level:g} dB"


def _csv_text(text: str) -> str:
    """A free-text field with the csv's separator and line breaks replaced."""
    return text.replace(",", ";").replace("\n", " ")


def emit_csv(report: ExperimentReport, path: str, include_timings: bool = True) -> None:
    """Machine-readable long format, one row per cell.

    ``include_timings=False`` drops the wall-clock columns, making the output
    byte-identical across process invocations of the same spec.
    """
    columns = [c for c in CSV_COLUMNS if include_timings or c not in _TIMING_COLUMNS]
    buf = io.StringIO()
    buf.write(f"# spec: {json.dumps(report.spec.echo(), sort_keys=True)}\n")
    buf.write(",".join(columns) + "\n")
    for c in report.cells:
        row = {
            "dataset": _csv_text(c.dataset),
            "method": c.method,
            "snr_db": "" if c.snr_db is None else _fmt(c.snr_db),
            "run": str(c.run),
            "seed": str(c.seed),
            "er": _fmt(c.er),
            "recon_error": _fmt(c.recon_error),
            "fit_ms": f"{c.fit_ms:.3f}",
            "encode_ms": f"{c.encode_ms:.3f}",
            "classify_ms": f"{c.classify_ms:.3f}",
            "error": _csv_text(c.error),
        }
        buf.write(",".join(row[col] for col in columns) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def parse_csv(path: str) -> list[dict[str, str]]:
    """Read back an emitted csv into one dict per data row."""
    lines = [ln.rstrip("\n") for ln in _read_lines(path) if not ln.startswith("#")]
    if not lines:
        raise FormatError(f"{path}: no csv content")
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


def emit_markdown(report: ExperimentReport, path: str) -> None:
    """Human-readable summary: mean-ER matrix, ratio table, per-run spread."""
    methods = report.spec.all_methods()
    levels = report.spec.noise_levels
    lines: list[str] = []
    lines.append(f"# Benchmark report: {report.dataset}")
    lines.append("")
    lines.append(f"Total wall-clock: {report.total_seconds:.1f} s")
    lines.append("")
    lines.append("## Mean error rate")
    lines.append("")
    lines.append("| noise | " + " | ".join(methods) + " |")
    lines.append("|---" * (len(methods) + 1) + "|")
    for level in levels:
        cells = [f"{report.mean_er(m, level):.3f}" for m in methods]
        lines.append(f"| {_level_label(level)} | " + " | ".join(cells) + " |")
    lines.append("")

    if all(m in methods for m in KINDS):
        lines.append("## Error-rate ratios (percent)")
        lines.append("")
        lines.append("| noise | P1 | P2 | P3 |")
        lines.append("|---|---|---|---|")
        for level, (p1, p2, p3) in ratio_table(report).items():
            lines.append(
                f"| {_level_label(level)} | {p1:.2f} | {p2:.2f} | {p3:.2f} |"
            )
        lines.append("")

    lines.append("## Per-run spread")
    lines.append("")
    lines.append("| method | noise | mean | min | max | std | runs |")
    lines.append("|---|---|---|---|---|---|---|")
    for method in methods:
        for level in levels:
            s = report.spread(method, level)
            lines.append(
                f"| {method} | {_level_label(level)} | {s['mean']:.4f} | "
                f"{s['min']:.4f} | {s['max']:.4f} | {s['std']:.4f} | {s['n']} |"
            )
    lines.append("")

    if report.invalid_cells:
        lines.append("## Invalid cells")
        lines.append("")
        for c in report.invalid_cells:
            lines.append(
                f"- {c.method} @ {_level_label(c.snr_db)} run {c.run}: {c.error}"
            )
        lines.append("")

    lines.append("## Configuration")
    lines.append("")
    lines.append("```json")
    lines.append(json.dumps(report.spec.echo(), indent=2, sort_keys=True))
    lines.append("```")
    lines.append("")
    seeds = [report.spec.base_seed + r for r in range(report.spec.n_runs)]
    lines.append(f"Seeds per run: {seeds}")
    lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def load_spec(path: str, overrides: dict | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from a flat JSON document plus flag overrides.

    Keys of retired settings are accepted and ignored: ``workers`` (cells
    once ran on a thread pool) and ``n_candidates`` (fit once chose among
    several network draws) with any value, ``reset_policy`` only as
    ``"carry"`` and ``pinv_tolerance`` only as null, the values every run
    uses. Any other value of those two is a FormatError.
    """
    try:
        doc = json.loads("".join(_read_lines(path)))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: spec must be a JSON object")
    doc.pop("workers", None)
    doc.pop("n_candidates", None)
    if doc.get("reset_policy") == "reset":
        raise FormatError(
            f'{path}: reset_policy "reset" is retired: zeroing the state before each '
            "pattern gave bit-identical features to elm-ae (ml-elm-ae for "
            "ml-esn-rae), so run that method"
        )
    for key, kept in (("reset_policy", "carry"), ("pinv_tolerance", None)):
        value = doc.pop(key, kept)
        if value != kept:
            raise FormatError(
                f"{path}: {key} is retired and accepts only {json.dumps(kept)}, "
                f"got {json.dumps(value)}"
            )
    if overrides:
        doc.update({k: v for k, v in overrides.items() if v is not None})
    known = set(ExperimentSpec.__dataclass_fields__)
    unknown = sorted(set(doc) - known)
    if unknown:
        raise FormatError(f"{path}: unknown spec keys {unknown}")
    for key in ("train_path", "test_path"):
        if key not in doc:
            raise FormatError(f"{path}: missing required key {key!r}")
    try:
        if isinstance(doc.get("noise_levels"), list):
            doc["noise_levels"] = [float(v) if _is_number(v) else v for v in doc["noise_levels"]]
        return ExperimentSpec(**doc)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
