"""Benchmark of the esnrae pipeline, driven through ``esnrae.cli.main`` in-process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ecg200-grid --seed 1 --seconds 30 --trace 0

The inputs, several datasets of one shape, are generated from ``--seed``
(see ``inputs.py``); the package is imported from ``src/`` of the checkout,
with BLAS pinned to one thread. Repetitions of the workload cycle through the
datasets until ``--seconds`` are used. With
``--trace 0`` the run reports the end-to-end metrics declared in
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Everything else the run produces goes under ``.perfbench-work/<workload>/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
WORK_DIR = ".perfbench-work"

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "t0 = time.perf_counter()\n"
    "import esnrae\n"
    "print(time.perf_counter() - t0)\n"
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_rev(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _blas_threads(numpy) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(root),
    }


def time_import(root: str) -> float:
    """Seconds to import esnrae in a fresh interpreter (timed inside it)."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def measure_setup(workload, seed: int, root: str, work_dir: str, n_datasets: int) -> float:
    """Median over repeats of import time plus input generation and writing."""
    samples = []
    for _ in range(SETUP_REPEATS):
        imported = time_import(root)
        t0 = time.perf_counter()
        workload.setup(seed, work_dir, n_datasets)
        samples.append(imported + time.perf_counter() - t0)
    return statistics.median(samples)


def run_reps(workload, main, work_dir: str, seconds: float, tracer, n_datasets: int) -> tuple[list, list]:
    """Repeat the workload until ``seconds`` are used.

    Without a tracer, repetitions cycle through the datasets; at least two
    run, and each dataset at least once. With one, repetitions alternate
    untraced and traced on dataset 0, at least one of each. A repetition is
    not started when the median so far says it would end past the budget.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        shutil.rmtree(os.path.join(work_dir, "out"), ignore_errors=True)
        if use_tracer:
            tracer.run_id = len(traced)
            with tracer:
                traced.append(workload.run(main, work_dir, 0))
        else:
            plain.append(workload.run(main, work_dir, len(plain) % n_datasets))
        done = len(plain) >= max(2, n_datasets) if tracer is None else bool(traced)
        typical = statistics.median(o.wall_s for o in plain + traced)
        if done and time.perf_counter() - start + typical > seconds:
            return plain, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "esnrae", "cli.py")):
        return _fail("run from the root of an esnrae source checkout (src/esnrae not found)")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[0] = root  # instead of this script's directory
    sys.path.insert(0, os.path.join(root, "src"))
    from perfbench.tracer import Tracer, layer_metrics, top_self_time
    from perfbench.workloads import CHANCE_ER, WORKLOADS, mean_error_rate, methods_at_chance

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(root, WORK_DIR, workload.name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    # Traced runs measure layers, not error rates: one dataset suffices.
    n_datasets = 1 if args.trace else workload.n_datasets
    try:
        setup_s = measure_setup(workload, args.seed, root, work_dir, n_datasets)
    except subprocess.CalledProcessError as exc:
        return _fail(f"importing esnrae failed: {exc.stderr.strip().splitlines()[-1:]}")
    import esnrae.cli

    if not os.path.abspath(esnrae.cli.__file__).startswith(os.path.join(root, "src")):
        return _fail(f"imported esnrae from {esnrae.cli.__file__}, not from this checkout")
    env = environment(root)
    print("environment: " + json.dumps(env, sort_keys=True))

    tracer = Tracer() if args.trace else None
    # Look main up at each call, so the traced repetitions call its wrapper.
    plain, traced = run_reps(
        workload, lambda a: esnrae.cli.main(a), work_dir, args.seconds, tracer, n_datasets
    )
    outcomes = plain + traced

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    reference: dict[int, int] = {}
    for index, outcome in enumerate(outcomes):
        first = reference.setdefault(outcome.dataset, index)
        if outcome.digest != outcomes[first].digest:
            failed += outcome.attempted - outcome.failed
            problems.append(f"repetition {index} outputs differ from repetition {first} "
                            f"on dataset {outcome.dataset}")
    repeats = len(outcomes) - len(reference)
    if tracer is None:
        # Over one dataset (traced runs) a sound method can come close to chance.
        for method in methods_at_chance(outcomes):
            failed += 1
            problems.append(f"{method}: mean error rate at chance (>= {CHANCE_ER})")
    wall = [o.wall_s for o in plain]

    computed = {
        "wall_s": statistics.median(wall),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "er_mean": mean_error_rate(outcomes),
    }
    if tracer is not None:
        computed = layer_metrics(tracer, len(traced))
        computed["trace.overhead_ratio"] = (
            statistics.median(o.wall_s for o in traced) / statistics.median(wall) - 1.0
        )
        with open(os.path.join(work_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans_document(), fh)
        if tracer.absent:
            print("absent trace targets: " + ", ".join(tracer.absent))
        if tracer.counter_errors:
            print("disabled work counts: " + ", ".join(sorted(tracer.counter_errors)))
        with open(os.path.join(os.path.dirname(__file__), "predictions.json"), encoding="utf-8") as fh:
            predicted = json.load(fh)["largest_self_time"].get(workload.name)
        ranked = top_self_time(tracer.spans)
        print(f"largest self time: {ranked[0][0]} (predicted {predicted})")
        for name, self_s in ranked:
            print(f"  self time {name:36s} {self_s / len(traced):10.4f} s/rep")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": float(computed[m["name"]]), "unit": m["unit"]}
        for m in declared[section]
    }

    print(f"workload {workload.name} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions over {n_datasets} datasets, {repeats} "
          f"compared with an earlier one; wall per repetition "
          + " ".join(f"{w:.3f}" for w in wall) + " s")
    print(f"  fail_ratio {failed / attempted:.4f} ({failed}/{attempted} operations)")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    for name, entry in metrics.items():
        print(f"  {name:48s} {entry['value']:14.6g} {entry['unit']}")
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "environment": env,
                   "wall_s": wall, "traced_wall_s": [o.wall_s for o in traced],
                   "fail_ratio": failed / attempted, "problems": problems,
                   "computed": computed}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
