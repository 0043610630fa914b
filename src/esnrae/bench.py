"""Multi-run benchmark orchestration: encode -> classify -> aggregate.

One experiment runs every (method, noise level, run) cell of a grid over a
single train/test dataset pair. Each run r uses seed ``base_seed + r`` for
the weight draws and for the noise draws, so any cell is reproducible in
isolation and noise is re-sampled per run. All methods within one (level,
run) see the same corrupted data. Cells run serially in one process, so each
cell's timing columns measure that cell alone. The report's cells are laid
out in the spec's grid order (method, then level, then run) before any fit,
and each stage fills its cell's slot in place.

The pipeline per cell: parse -> z-score with train statistics (optional) ->
inject noise into the targeted splits -> fit autoencoder on train -> encode
train and test -> train the linear classifier on train features -> error
rate on test features. The ``raw`` baseline skips the encoder and feeds the
(preprocessed) patterns straight to the classifier. Runs go in batches of
consecutive runs: all cells of a batch are encoded first, keeping only each
cell's standardized training design and test features, then the batch's
classifiers train together in one lockstep pass on the training labels, each
cell with its run's seed (each bit-identical to training it alone), each cell
is scored, and the batch's features are dropped. A batch holds as many runs
as fit under a fixed byte cap, worked out from the shapes before encoding,
and at least one, so memory beyond one cell holds one batch's features.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .autoencoder import (
    KINDS,
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
from .errors import FormatError, NumericalError, check_field_types
from .reservoir import ReservoirConfig, radius_memo

# What fails one cell (or one batch's classifiers) without ending the grid.
# FormatError is a ValueError.
_CELL_ERRORS = (ValueError, NumericalError, MemoryError)

RAW_BASELINE = "raw"


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
        # A spec read from JSON can hold any type or size; each is refused
        # here rather than deep inside a cell or after the whole grid.
        check_field_types(self)
        for name in ("methods", "noise_levels"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # Each level is checked by the NoiseSpec a cell builds from it, and
        # kept as a float, so the report's spec line reads 10.0 for a JSON 10.
        try:
            levels = tuple(
                level if level is None else float(NoiseSpec(level, self.base_seed).snr_db)
                for level in self.noise_levels
            )
        except ValueError as exc:
            raise ValueError(f"noise_levels must be a list of numbers or nulls ({exc})") from None
        object.__setattr__(self, "noise_levels", levels)
        # The dataset name names the report files inside the output directory.
        if any(c in self.dataset_name for c in "/\\\0"):
            raise ValueError(
                f"dataset_name must not hold '/', '\\' or NUL, got {self.dataset_name!r}"
            )
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        if not self.noise_levels:
            raise ValueError("noise_levels must not be empty")
        if len(set(self.noise_levels)) != len(self.noise_levels):
            raise ValueError("noise levels must be distinct")
        if self.noise_targets not in ("train", "test", "both"):
            raise ValueError(f"noise_targets must be train|test|both, got {self.noise_targets!r}")
        # Every value a cell would refuse is refused here, by the cell's own
        # checks; the input length is unknown until the data is read.
        last_seed = self.base_seed + self.n_runs - 1  # the largest seed a cell uses
        ClassifierParams(reg_lambda=self.reg_lambda, epochs=self.epochs, seed=last_seed)
        for method in self.methods:
            _validate_kind(method, self.reservoir_config(method, input_dim=1))
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must be distinct")
        if not self.all_methods():
            raise ValueError("methods must not be empty when raw_baseline is false")

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


# The report's columns are CellResult's fields, in order; each field's
# annotation (a string, under ``from __future__ import annotations``) picks its text.
_CSV_TYPES = {f.name: f.type for f in fields(CellResult)}
CSV_COLUMNS = tuple(_CSV_TYPES)
_TIMING_COLUMNS = ("fit_ms", "encode_ms", "classify_ms")


@dataclass(frozen=True)
class ExperimentReport:
    """All cell results plus the resolved configuration that produced them."""

    spec: ExperimentSpec
    dataset: str
    cells: tuple[CellResult, ...]
    total_seconds: float

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
    """Both splits, with noise at ``level`` added to those ``spec.noise_targets`` names."""
    if level is None:
        return d_train, d_test
    ns = NoiseSpec(snr_db=level, seed=seed)

    def noised(d: Dataset, split: str) -> Dataset:
        return inject_noise(d, ns) if spec.noise_targets in (split, "both") else d

    return noised(d_train, "train"), noised(d_test, "test")


def _failed(cell: CellResult, exc: Exception) -> CellResult:
    return replace(cell, error=f"{type(exc).__name__}: {exc}")


def _encode_cell(
    spec: ExperimentSpec,
    cell: CellResult,
    d_train: Dataset,
    d_test: Dataset,
) -> tuple[CellResult, tuple[Standardized, np.ndarray] | None]:
    """Fit one cell's autoencoder and encode both splits with it.

    Returns the cell with its fit results and, unless encoding failed, its
    standardized training design and its test features (one row per
    pattern); the autoencoder and its training features are dropped here.
    """
    try:
        if cell.method == RAW_BASELINE:
            return cell, (standardize(d_train.patterns), d_test.patterns)
        cfg = spec.reservoir_config(cell.method, d_train.input_len)
        t0 = time.perf_counter()
        ae, f_train = fit(d_train, cfg, cell.method, cell.seed)
        fit_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        f_test = encode(ae, d_test)
        design = standardize(f_train)
        encode_ms = (time.perf_counter() - t0) * 1e3
    except _CELL_ERRORS as exc:
        return _failed(cell, exc), None
    cell = replace(
        cell, recon_error=ae.reconstruction_error, fit_ms=fit_ms, encode_ms=encode_ms
    )
    return cell, (design, f_test)


def _classify(
    spec: ExperimentSpec,
    cells: list[CellResult],
    held: list[tuple[int, Standardized, np.ndarray]],
    y_train: np.ndarray,
    y_test: np.ndarray,
) -> None:
    """Train the classifiers of a batch's encoded cells in one pass, then score each.

    ``held`` names each encoded cell by its index in ``cells``, with its
    training design and test features; each scored or failed cell is written
    back to its slot. Every cell trains on ``y_train`` with its run's seed
    and is scored on ``y_test``. The encoders' designs go first and the raw
    designs last, so that designs of one width are adjacent in the pass. A
    cell's ``classify_ms`` is its evaluation time plus an equal share of the
    shared training pass.
    """
    if not held:
        return
    held = sorted(held, key=lambda h: cells[h[0]].method == RAW_BASELINE)
    params = [
        ClassifierParams(reg_lambda=spec.reg_lambda, epochs=spec.epochs, seed=cells[i].seed)
        for i, _, _ in held
    ]
    t0 = time.perf_counter()
    try:
        classifiers = train_classifiers([design for _, design, _ in held], y_train, params)
    except _CELL_ERRORS as exc:
        for i, _, _ in held:
            cells[i] = _failed(cells[i], exc)
        return
    share_ms = (time.perf_counter() - t0) * 1e3 / len(held)
    for (i, _, f_test), clf in zip(held, classifiers):
        t0 = time.perf_counter()
        try:
            result = evaluate(clf, f_test, y_test)
        except _CELL_ERRORS as exc:
            cells[i] = _failed(cells[i], exc)
            continue
        classify_ms = share_ms + (time.perf_counter() - t0) * 1e3
        cells[i] = replace(cells[i], er=result.error_rate, classify_ms=classify_ms)


# Most bytes of features one batch of runs holds: each cell's (p_train, F+1)
# design plus its (p_test, F) test features, all float64. A run of the grid
# at ECG200 shape (p = 100/100, K = 96, N = 150; 5 cells per noise level)
# holds 1.1 MB per level, so the two runs at two levels (4.5 MB) fit in one
# pass, and configs/ecg200-sweep.json (5 levels, 5.6 MB per run) runs two at
# a time. One clean Earthquakes run (p = 322/139, K = 512, N = 600) holds
# 10.8 MB and runs alone; so does any run that alone exceeds the cap.
_BATCH_BYTES = 12 * 2**20


def _run_batches(spec: ExperimentSpec, p_train: int, p_test: int, input_len: int) -> list[range]:
    """The grid's runs, in order, split into batches held under ``_BATCH_BYTES``."""
    run_bytes = 0
    for method in spec.all_methods():
        f = input_len if method == RAW_BASELINE else spec.n_hidden
        run_bytes += 8 * (p_train * (f + 1) + p_test * f) * len(spec.noise_levels)
    size = max(1, _BATCH_BYTES // run_bytes)
    return [range(r, min(r + size, spec.n_runs)) for r in range(0, spec.n_runs, size)]


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Execute the full grid and return its report, in grid order.

    Runs go in batches (see :func:`_run_batches`): the batch's cells are
    encoded one after another, its classifiers train in one
    :func:`~esnrae.classifier.train_classifiers` pass, and its features are
    dropped before the next batch starts.
    """
    t_start = time.perf_counter()
    d_train, d_test = parse_ucr_pair(
        spec.train_path, spec.test_path, name=spec.dataset_name, normalized=spec.normalize
    )
    dataset = d_train.name
    grid = [(method, level) for method in spec.all_methods() for level in spec.noise_levels]
    # The report's cells, in grid order: slot g * n_runs + run is (grid[g], run).
    cells = [
        CellResult(dataset=dataset, method=method, snr_db=level, run=run,
                   seed=spec.base_seed + run)
        for method, level in grid
        for run in range(spec.n_runs)
    ]
    # A multi-layer fit needs the most memory, so those cells are encoded
    # first in each run, while the fewest other cells' features are held.
    encode_order = sorted(range(len(grid)), key=lambda g: not is_multilayer(grid[g][0]))
    batches = _run_batches(spec, d_train.n_patterns, d_test.n_patterns, d_train.input_len)

    # A recurrent draw depends only on (seed, stream, N, beta), so cells that
    # differ only in noise level or method share the spectral radius of their
    # draws. The memo closes with this call, even when a cell raises.
    with radius_memo():
        for batch in batches:
            held: list[tuple[int, Standardized, np.ndarray]] = []
            for run in batch:
                # All methods within one (level, run) see the same corrupted data.
                noised = {
                    level: _noised(spec, d_train, d_test, level, spec.base_seed + run)
                    for level in spec.noise_levels
                }
                for g in encode_order:
                    i = g * spec.n_runs + run
                    cells[i], data = _encode_cell(spec, cells[i], *noised[grid[g][1]])
                    if data is not None:
                        held.append((i, *data))
                del noised
            _classify(spec, cells, held, d_train.labels, d_test.labels)
            del held

    return ExperimentReport(
        spec=spec,
        dataset=dataset,
        cells=tuple(cells),
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


# The csv's separator becomes ";" and each line break str.splitlines knows a space.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_CSV_TEXT = str.maketrans({",": ";", **dict.fromkeys(_LINE_BREAKS, " ")})


def _csv_text(text: str) -> str:
    """A free-text field with the csv's separator and line breaks replaced."""
    return text.translate(_CSV_TEXT)


def _csv_field(cell: CellResult, column: str) -> str:
    """One cell's text in one column: timings to 3 decimals, other numbers exactly."""
    value = getattr(cell, column)
    if column in _TIMING_COLUMNS:
        return f"{value:.3f}"
    if _CSV_TYPES[column] == "str":
        return _csv_text(value)
    if _CSV_TYPES[column] == "int":
        return str(value)
    return _fmt(value)


def emit_csv(report: ExperimentReport, path: str, include_timings: bool = True) -> None:
    """Machine-readable long format, one row per cell and one column per field.

    ``include_timings=False`` drops the wall-clock columns, making the output
    byte-identical across process invocations of the same spec.
    """
    columns = [c for c in CSV_COLUMNS if include_timings or c not in _TIMING_COLUMNS]
    buf = io.StringIO()
    buf.write(f"# spec: {json.dumps(asdict(report.spec), sort_keys=True)}\n")
    buf.write(",".join(columns) + "\n")
    for c in report.cells:
        buf.write(",".join(_csv_field(c, col) for col in columns) + "\n")
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
    lines.append(json.dumps(asdict(report.spec), indent=2, sort_keys=True))
    lines.append("```")
    lines.append("")
    seeds = [report.spec.base_seed + r for r in range(report.spec.n_runs)]
    lines.append(f"Seeds per run: {seeds}")
    lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def load_spec(path: str, overrides: dict | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from a flat JSON document plus flag overrides."""
    try:
        doc = json.loads("".join(_read_lines(path)))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: spec must be a JSON object")
    doc.pop("workers", None)  # ignored: perfbench/workloads.py writes it into every grid spec
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
        return ExperimentSpec(**doc)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
