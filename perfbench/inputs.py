"""Seeded workload inputs: two-class series shaped like the presets' UCR datasets.

The archive files are not in the repository, so each workload draws its own
train/test pairs here and writes them as UCR text. One seed gives several
independent pairs (``index``): at these sizes one pair's mean error rate
moves by 10-25% from seed to seed, so a workload averages over several. The
library's own ``make_synthetic`` is deliberately not used: a change to the
library must not be able to change the benchmark's inputs.

Every pattern is a beat-like waveform: three Gaussian bumps (P, QRS, T) on a
slow baseline wander, plus white noise. Per pattern the bump positions
jitter, the amplitude scales and the wander phase changes. The classes differ
only in the T bump's height and the QRS position, by an amount set by
``separation`` against that nuisance, which keeps every method's error rate
away from both 0 and chance (0.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Size and difficulty of one generated dataset pair."""

    name: str
    n_train: int
    n_test: int
    length: int
    labels: tuple[int, int]
    separation: float


def _rng(seed: int, name: str, split: str, index: int) -> np.random.Generator:
    tag = [ord(ch) for ch in f"{name}/{split}/{index}"]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tag])))


def make_split(shape: Shape, seed: int, split: str, index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw one split of dataset ``index``: file labels (p,) and patterns (p, K).

    Each class has half the patterns (rounded) in shuffled order, so a seed
    changes which patterns are hard but not the class balance.
    """
    count = shape.n_train if split == "train" else shape.n_test
    g = _rng(seed, shape.name, split, index)
    n_pos = count // 2
    is_pos = np.zeros(count, dtype=bool)
    is_pos[:n_pos] = True
    g.shuffle(is_pos)

    t = np.linspace(0.0, 1.0, shape.length)
    sep = shape.separation
    patterns = np.empty((count, shape.length))
    for i in range(count):
        cls = 1.0 if is_pos[i] else 0.0
        jitter = 0.03 * g.normal()
        scale = g.uniform(0.7, 1.3)
        wander_freq, wander_phase = g.uniform(0.3, 1.2), g.uniform()
        p_wave = 0.25 * np.exp(-0.5 * ((t - 0.2 - jitter) / 0.03) ** 2)
        qrs_at = 0.4 + jitter + 0.02 * sep * cls
        qrs = 1.5 * np.exp(-0.5 * ((t - qrs_at) / 0.012) ** 2)
        t_wave = (0.6 - 0.5 * sep * cls) * np.exp(-0.5 * ((t - 0.68 - jitter) / 0.05) ** 2)
        wander = 0.4 * np.sin(2.0 * np.pi * (wander_freq * t + wander_phase))
        noise = g.normal(0.0, 0.15, shape.length)
        patterns[i] = scale * (p_wave + qrs + t_wave) + wander + noise
    labels = np.where(is_pos, shape.labels[1], shape.labels[0])
    return labels, patterns


def write_ucr_text(path: str, labels: np.ndarray, patterns: np.ndarray) -> None:
    """Write one pattern per line: the label, then each value at full precision,
    comma-separated, the layout of the files ``esnrae`` itself writes."""
    with open(path, "w", encoding="ascii") as fh:
        for label, row in zip(labels, patterns):
            fh.write(",".join([str(int(label)), *map(repr, row.tolist())]) + "\n")


def generate(shape: Shape, seed: int, out_dir: str, index: int = 0) -> tuple[str, str]:
    """Write dataset ``index`` as ``<name>_TRAIN.txt`` and ``<name>_TEST.txt``;
    return their paths."""
    paths = []
    for split in ("train", "test"):
        path = f"{out_dir}/{shape.name}_{split.upper()}.txt"
        write_ucr_text(path, *make_split(shape, seed, split, index))
        paths.append(path)
    return paths[0], paths[1]
