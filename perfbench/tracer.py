"""Span tracing of esnrae's public functions, installed from outside the package.

The tracer wraps every public function of the package's modules in each
namespace where a caller looks it up (``esnrae.bench.fit`` as well as
``esnrae.autoencoder.fit``), so a call is recorded whichever import path it
took. A span is named ``<defining module>.<function>`` and kept in memory as
``[name, start_ns, end_ns, parent_index, run_id]``; ``spans_document`` turns
them into a JSON-ready object at the end of a run.

A few spans also record a work count (bytes parsed, patterns fed, classifier
updates), measured from the call's arguments and result, so per-unit costs
are computed where the work happens.

Single-threaded only: the parent stack is shared, so trace with ``workers: 1``.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable

MODULES = ("data", "linalg", "reservoir", "autoencoder", "classifier", "bench", "cli")

# Targets the per-layer metrics are computed from. A target missing from the
# package (renamed or removed) is reported as absent; its metrics read 0.
EXPECTED = (
    "data.parse_ucr",
    "data.write_ucr",
    "data.normalize",
    "data.inject_noise",
    "linalg.sparse_random_matrix",
    "linalg.spectral_radius",
    "linalg.pinv",
    "reservoir.init_weights",
    "reservoir.run_collect",
    "reservoir.step",
    "autoencoder.fit",
    "autoencoder.encode",
    "autoencoder.train_readout",
    "autoencoder.reconstruction_error",
    "autoencoder.save_autoencoder",
    "classifier.train_classifier",
    "classifier.evaluate",
    "bench.run_experiment",
    "bench.emit_csv",
    "bench.emit_markdown",
    "cli.main",
)

NAME, START, END, PARENT, RUN = range(5)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _parse_bytes(args, kwargs, result) -> dict[str, float]:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _write_bytes(args, kwargs, result) -> dict[str, float]:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _collect_patterns(args, kwargs, result) -> dict[str, float]:
    return {"patterns": len(_arg(args, kwargs, 1, "patterns"))}


def _recurrent_layers(args, kwargs, result) -> dict[str, float]:
    recurrent = _arg(args, kwargs, 2, "recurrent", True)
    return {"recurrent_layers": _arg(args, kwargs, 0, "cfg").n_layers if recurrent else 0}


def _classifier_updates(args, kwargs, result) -> dict[str, float]:
    n_patterns = _arg(args, kwargs, 0, "features").shape[1]
    return {"updates": n_patterns * result.params.epochs * result.weights.shape[0]}


# Work counts measured per call: span name -> f(args, kwargs, result).
COUNTERS: dict[str, Callable[[tuple, dict, object], dict[str, float]]] = {
    "data.parse_ucr": _parse_bytes,
    "data.write_ucr": _write_bytes,
    "reservoir.run_collect": _collect_patterns,
    "reservoir.init_weights": _recurrent_layers,
    "classifier.train_classifier": _classifier_updates,
}


class Tracer:
    """Records spans and work counts for one package while installed."""

    def __init__(self, package: str = "esnrae", modules=MODULES, expected=EXPECTED):
        self.package = package
        self.modules = tuple(modules)
        self.expected = tuple(expected)
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.counter_errors: set[str] = set()
        self.absent: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[ModuleType, str, Callable]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.run_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()
            if counter is not None:
                self._count(counter, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, counter, name, args, kwargs, result) -> None:
        # A changed signature disables the count, never the traced call.
        try:
            measured = counter(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, OSError):
            self.counter_errors.add(name)
            return
        for key, value in measured.items():
            self.counts[f"{name}.{key}"] += value

    def _targets(self) -> dict[Callable, str]:
        """Public functions defined in each traced module -> span name."""
        targets: dict[Callable, str] = {}
        for short in self.modules:
            try:
                module = importlib.import_module(f"{self.package}.{short}")
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    targets[obj] = f"{short}.{attr}"
        return targets

    def install(self) -> "Tracer":
        """Patch every namespace of the package that holds a traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        found = set(targets.values())
        self.absent = [name for name in self.expected if name not in found]
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        prefix = self.package + "."
        namespaces = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(prefix))
        ]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans_document(self) -> dict:
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
            "spans": self.spans,
            "absent": self.absent,
            "counter_errors": sorted(self.counter_errors),
        }


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children lie inside it.
    Recursive calls count each level, so inclusive time can exceed wall time.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        entry = totals[span[NAME]]
        entry["calls"] += 1
        entry["s"] += duration / 1e9
        entry["self_s"] += (duration - child_ns[index]) / 1e9
    return dict(totals)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_reps: int) -> dict[str, float]:
    """Per-repetition layer metrics from the spans and counts of ``n_reps`` reps.

    Every expected target gets ``calls``, ``s`` (inclusive) and ``self_s``;
    absent targets read 0. Ratios whose base is 0 read 0.
    """
    totals = layer_totals(tracer.spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    t = {name: totals.get(name, zero) for name in EXPECTED}
    counts = tracer.counts
    metrics: dict[str, float] = {}
    for name, entry in t.items():
        for stat, value in entry.items():
            metrics[f"{name}.{stat}"] = value / n_reps
    draws = t["linalg.sparse_random_matrix"]["calls"]
    metrics["linalg.spectral_radius.calls_per_draw"] = _ratio(t["linalg.spectral_radius"]["calls"], draws)
    metrics["reservoir.init_weights.draws_per_layer"] = _ratio(
        draws, counts["reservoir.init_weights.recurrent_layers"]
    )
    metrics["autoencoder.fit.draws_per_fit"] = _ratio(
        t["reservoir.init_weights"]["calls"], t["autoencoder.fit"]["calls"]
    )
    patterns = counts["reservoir.run_collect.patterns"]
    metrics["reservoir.run_collect.patterns"] = patterns / n_reps
    metrics["reservoir.run_collect.us_per_pattern"] = 1e6 * _ratio(t["reservoir.run_collect"]["s"], patterns)
    metrics["classifier.train_classifier.us_per_update"] = 1e6 * _ratio(
        t["classifier.train_classifier"]["self_s"], counts["classifier.train_classifier.updates"]
    )
    for name in ("data.parse_ucr", "data.write_ucr"):
        moved = counts[f"{name}.bytes"]
        metrics[f"{name}.bytes"] = moved / n_reps
        metrics[f"{name}.mb_per_s"] = _ratio(moved / 1e6, t[name]["self_s"])
    return metrics


def top_self_time(spans: list[list], limit: int = 5) -> list[tuple[str, float]]:
    """The ``limit`` span names with the largest total self time."""
    totals = layer_totals(spans)
    ranked = sorted(totals.items(), key=lambda item: item[1]["self_s"], reverse=True)
    return [(name, entry["self_s"]) for name, entry in ranked[:limit]]
