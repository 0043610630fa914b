"""Labeled pattern datasets: UCR-style text parsing, normalization, noise.

The text format is one pattern per line: an integer class label followed by
the K real-valued inputs, separated by commas, tabs, or whitespace (detected
automatically). Labels are remapped to contiguous ids 0..C-1 internally; the
original labels are kept so files can be written back unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError, check_field_types
from .linalg import SeededRng

# snr_db at or above this is treated as "no noise".
NOISE_FREE_SNR_DB = 300.0


@dataclass(frozen=True)
class Dataset:
    """An immutable set of fixed-length labeled patterns.

    ``patterns`` has one pattern per row (p x K); ``labels`` holds class ids
    0..C-1; ``label_names[i]`` is the original file label for class id i.
    Both are held as read-only views. An array given already C-ordered with
    the right dtype is not copied and keeps its own flags, so the caller can
    still write to it, and so change the dataset.
    """

    name: str
    patterns: np.ndarray
    labels: np.ndarray
    label_names: tuple[int, ...]
    split: str = ""

    def __post_init__(self):
        patterns = np.ascontiguousarray(self.patterns, dtype=float).view()
        labels = np.ascontiguousarray(self.labels, dtype=int).view()
        if patterns.ndim != 2:
            raise ValueError(f"patterns must be 2-D, got ndim={patterns.ndim}")
        if labels.shape != (patterns.shape[0],):
            raise ValueError(
                f"label count {labels.shape} does not match "
                f"pattern count {patterns.shape[0]}"
            )
        if len(labels) and (labels.min() < 0 or labels.max() >= len(self.label_names)):
            raise ValueError("labels must be contiguous ids covered by label_names")
        patterns.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_names", tuple(self.label_names))

    @property
    def n_patterns(self) -> int:
        return self.patterns.shape[0]

    @property
    def input_len(self) -> int:
        return self.patterns.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.label_names)


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian corruption level: lower snr_db means stronger noise."""

    snr_db: float
    seed: int

    def __post_init__(self):
        check_field_types(self)


def _split_line(line: str, sep: str | None) -> list[str]:
    if sep is None:
        return line.split()
    fields = line.split(sep)
    if not fields[-1]:  # one trailing separator; any other empty field is refused
        fields.pop()
    return fields


def _detect_separator(line: str) -> str | None:
    # None means "any whitespace" (str.split default).
    if "," in line:
        return ","
    if "\t" in line:
        return "\t"
    return None


def _read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file; other bytes are a FormatError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from None


def parse_ucr(
    path: str,
    name: str = "",
    split: str = "",
    label_names: tuple[int, ...] | None = None,
) -> Dataset:
    """Parse a UCR-style text file into a Dataset.

    The input length K is inferred from the first line; every later line must
    match it. Labels may be any integers (including negative); they are
    remapped, in sorted order, to 0..C-1. Pass the training split's
    ``label_names`` when parsing a test split, so both splits share class ids;
    a label outside them is a FormatError. Non-finite values (``nan``,
    ``inf``) are a FormatError naming the first line that holds one.

    Each line's values go straight into one preallocated (p, K) array, so
    at its peak the parse holds the file's text plus that array.
    """
    text = _read_lines(path)
    linenos = [i + 1 for i, ln in enumerate(text) if ln.strip()]
    if not linenos:
        raise FormatError(f"{path}: file is empty")

    sep = _detect_separator(text[linenos[0] - 1].strip())
    patterns = None
    originals: list[int] = []
    for row, lineno in enumerate(linenos):
        fields = _split_line(text[lineno - 1].strip(), sep)
        try:
            values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-numeric field") from None
        if len(values) < 2:
            raise FormatError(
                f"{path}: line {lineno}: expected a label plus at least one value"
            )
        if patterns is None:
            width = len(values)
            patterns = np.empty((len(linenos), width - 1))
        elif len(values) != width:
            raise FormatError(
                f"{path}: line {lineno}: expected {width} fields, got {len(values)}"
            )
        try:  # exact, also beyond the integers a float holds
            label = int(fields[0])
        except ValueError:  # a float-looking label such as 1.0000000e+00
            label = float(values[0])
            if not math.isfinite(label) or abs(label - round(label)) > 1e-9:
                raise FormatError(
                    f"{path}: line {lineno}: class label {label!r} is not an integer"
                ) from None
            label = int(round(label))
        originals.append(label)
        patterns[row] = values[1:]

    finite = np.isfinite(patterns).all(axis=1)
    if not finite.all():
        first_bad = int(np.argmin(finite))
        raise FormatError(f"{path}: line {linenos[first_bad]}: non-finite value")

    if label_names is None:
        label_names = tuple(sorted(set(originals)))
    remap = {orig: i for i, orig in enumerate(label_names)}
    unknown = sorted(set(originals) - set(remap))
    if unknown:
        raise FormatError(
            f"{path}: class labels {unknown} are not among the known labels "
            f"{list(label_names)}"
        )
    if not name:
        name = _stem(path)
    return Dataset(
        name=name,
        patterns=patterns,
        labels=np.array([remap[o] for o in originals], dtype=int),
        label_names=label_names,
        split=split,
    )


def parse_ucr_pair(
    train_path: str,
    test_path: str,
    name: str = "",
    normalized: bool = False,
) -> tuple[Dataset, Dataset]:
    """Parse a training split and its test split, sharing class ids.

    The test split is parsed against the training split's labels. Splits of
    different pattern lengths are a FormatError naming both lengths. With
    ``normalized`` both splits are z-scored by the training statistics.
    """
    d_train = parse_ucr(train_path, name=name, split="train")
    d_test = parse_ucr(
        test_path, name=name, split="test", label_names=d_train.label_names
    )
    if d_train.input_len != d_test.input_len:
        raise FormatError(
            f"train length {d_train.input_len} ({train_path}) != test length "
            f"{d_test.input_len} ({test_path})"
        )
    if normalized:
        return normalize(d_train, d_train), normalize(d_test, d_train)
    return d_train, d_test


def _stem(path: str) -> str:
    base = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    stem = base.rsplit(".", 1)[0] if "." in base else base
    for suffix in ("_TRAIN", "_TEST"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    return stem


def write_ucr(d: Dataset, path: str) -> None:
    """Write a Dataset back out in the UCR text format (original labels)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(d.n_patterns):
            fields = [str(d.label_names[d.labels[i]])]
            fields.extend(repr(float(v)) for v in d.patterns[i])
            fh.write(",".join(fields) + "\n")


def normalize(d: Dataset, stats_from: Dataset) -> Dataset:
    """Z-score each feature using mean/std computed from ``stats_from``.

    Train statistics are applied to test data by passing the training set as
    ``stats_from``. Features with zero variance pass through unchanged.
    """
    if stats_from.input_len != d.input_len:
        raise ValueError(
            f"input length mismatch: {d.input_len} vs stats {stats_from.input_len}"
        )
    mean = stats_from.patterns.mean(axis=0)
    std = stats_from.patterns.std(axis=0)
    keep = std == 0.0
    safe_std = np.where(keep, 1.0, std)
    out = (d.patterns - np.where(keep, 0.0, mean)) / safe_std
    return replace(d, patterns=out)


def inject_noise(d: Dataset, spec: NoiseSpec) -> Dataset:
    """Add zero-mean Gaussian noise at a per-pattern signal-to-noise ratio.

    For each pattern the noise variance is ``P_signal / 10^(snr_db/10)`` with
    P_signal the mean squared value of that pattern, so heterogeneous patterns
    are corrupted uniformly in relative terms. Every pattern receives noise;
    labels are untouched. All-zero patterns get zero noise variance (left
    unchanged). Deterministic under (seed, split): ``d.split`` names the
    random stream, so each split draws its own noise.
    """
    if d.n_patterns == 0:
        raise ValueError("cannot inject noise into an empty dataset")
    if spec.snr_db >= NOISE_FREE_SNR_DB:
        return d

    g = SeededRng(spec.seed).child(f"noise/{d.split or 'data'}").generator()
    power = np.mean(d.patterns**2, axis=1)  # per-pattern signal power
    sigma = np.sqrt(power / 10.0 ** (spec.snr_db / 10.0))
    noise = g.standard_normal(d.patterns.shape) * sigma[:, None]
    return replace(d, patterns=d.patterns + noise)


def measured_snr(clean: Dataset, noisy: Dataset) -> float:
    """Empirical SNR in dB between a dataset and its corrupted copy.

    Returns +inf when the two are identical (zero noise power).
    """
    if clean.patterns.shape != noisy.patterns.shape:
        raise ValueError(
            f"shape mismatch: {clean.patterns.shape} vs {noisy.patterns.shape}"
        )
    signal = float(np.sum(clean.patterns**2))
    noise = float(np.sum((noisy.patterns - clean.patterns) ** 2))
    if noise == 0.0:
        return math.inf
    if signal == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal / noise)


def make_synthetic(
    n_train: int = 60,
    n_test: int = 40,
    length: int = 64,
    seed: int = 0,
    offset: float = 0.0,
) -> tuple[Dataset, Dataset]:
    """Two-class toy problem for tests: clean sines vs. heavily noised sines.

    Each pattern is a sine with random frequency and phase; class 1 patterns
    additionally carry strong Gaussian jitter, so by default the classes
    differ in roughness rather than in any single feature. A nonzero
    ``offset`` shifts class 1 vertically, which makes the problem linearly
    separable in the raw space.
    """
    if n_train < 2 or n_test < 2 or length < 4:
        raise ValueError("synthetic dataset needs n_train, n_test >= 2 and length >= 4")
    if not math.isfinite(offset):
        raise ValueError(f"offset must be a finite number, got {offset!r}")

    def build(split: str, count: int) -> Dataset:
        g = SeededRng(seed).child(f"synth/{split}").generator()
        t = np.linspace(0.0, 1.0, length)
        patterns = np.empty((count, length))
        labels = np.empty(count, dtype=int)
        for i in range(count):
            label = i % 2
            freq = g.uniform(2.0, 4.0)
            phase = g.uniform(0.0, 2.0 * np.pi)
            wave = np.sin(2.0 * np.pi * freq * t + phase)
            if label == 1:
                wave = wave + g.standard_normal(length) * 0.6 + offset
            patterns[i] = wave
            labels[i] = label
        return Dataset(
            name="synth",
            patterns=patterns,
            labels=labels,
            label_names=(0, 1),
            split=split,
        )

    return build("train", n_train), build("test", n_test)
