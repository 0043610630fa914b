"""Command-line entry point.

Subcommands: encode, classify, bench, noise, synth. Every command checks its
flags before it echoes its fully resolved configuration, and echoes it before
any fit or write; a refused value prints no configuration and creates no
directory. Exit codes are a stable contract: 0 ok, 2 usage or data-format error
(also running out of memory, or a file that cannot be read or written), 3
numerical error, 4 partial benchmark failure (report still written, invalid
cells marked). Each input is checked by the reader that opens it. Output paths
are checked before any fit; --out-dir is created only to write finished output.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import asdict, replace

from . import bench as bench_mod
from .autoencoder import KINDS, _validate_kind, encode, fit, is_multilayer, save_autoencoder
from .classifier import ClassifierParams, evaluate, train_classifier
from .data import (
    NoiseSpec,
    _stem,
    inject_noise,
    make_synthetic,
    measured_snr,
    parse_ucr,
    parse_ucr_pair,
    write_ucr,
)
from .errors import FormatError, NumericalError
from .linalg import SeededRng
from .reservoir import PRESETS, ReservoirConfig, resolve_preset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4


def _echo(config: dict) -> None:
    print("resolved config: " + json.dumps(config, sort_keys=True, allow_nan=False))


def _require_writable(out_dir: str, paths: tuple[str, ...]) -> None:
    """Raise OSError now for output files that could not be written later.
    Creates nothing; the nearest existing path at or above out_dir must be a writable directory."""
    if not out_dir:  # abspath would read "" as the cwd; os.makedirs refuses it
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_dir)
    nearest = os.path.abspath(out_dir)
    while not os.path.lexists(nearest):
        nearest = os.path.dirname(nearest)
    if not os.path.isdir(nearest):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), nearest)
    if not os.access(nearest, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), nearest)
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if os.path.exists(path) and not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _resolve_reservoir(args, input_dim: int) -> ReservoirConfig:
    n_hidden, connectivity = args.n_hidden, args.connectivity
    if args.preset:
        preset_n, preset_beta = resolve_preset(args.preset)
        n_hidden = preset_n if n_hidden is None else n_hidden
        connectivity = preset_beta if connectivity is None else connectivity
    if n_hidden is None or connectivity is None:
        raise FormatError(
            "reservoir size and connectivity required: pass --preset or both "
            "--n-hidden and --connectivity"
        )
    n_layers = args.layers
    if n_layers is None:
        n_layers = bench_mod.ExperimentSpec.n_layers_ml if is_multilayer(args.kind) else 1
    cfg = ReservoirConfig(
        n_hidden=n_hidden,
        input_dim=input_dim,
        connectivity=connectivity,
        spectral_radius_target=args.spectral_radius,
        n_layers=n_layers,
        input_scaling=args.input_scaling,
    )
    _validate_kind(args.kind, cfg)
    return cfg


def cmd_encode(args) -> int:
    d_train, d_test = parse_ucr_pair(args.train, args.test, normalized=args.normalize)
    cfg = _resolve_reservoir(args, d_train.input_len)
    SeededRng(args.seed)  # refuses a seed outside 64 bits before the echo
    _echo(
        {
            "command": "encode",
            "train": args.train,
            "test": args.test,
            "kind": args.kind,
            "normalize": args.normalize,
            "n_hidden": cfg.n_hidden,
            "connectivity": cfg.connectivity,
            "spectral_radius": cfg.spectral_radius_target,
            "n_layers": cfg.n_layers,
            "input_scaling": cfg.input_scaling,
            "seed": args.seed,
            "out_dir": args.out_dir,
        }
    )
    stem = os.path.join(args.out_dir, f"{d_train.name}_{args.kind}")
    paths = (stem + ".esnae", stem + "_train_features.csv", stem + "_test_features.csv")
    _require_writable(args.out_dir, paths)

    ae, features_train = fit(d_train, cfg, args.kind, args.seed)
    features_test = encode(ae, d_test)

    os.makedirs(args.out_dir, exist_ok=True)
    save_autoencoder(ae, paths[0])
    write_ucr(replace(d_train, patterns=features_train), paths[1])
    write_ucr(replace(d_test, patterns=features_test), paths[2])
    print(f"wrote {stem}.esnae and train/test feature files")
    print(f"reconstruction error: {ae.reconstruction_error:.6g} "
          f"(pre-tying {ae.pre_tying_error:.6g}, network draw {ae.chosen_candidate})")
    return EXIT_OK


def cmd_classify(args) -> int:
    params = ClassifierParams(reg_lambda=args.reg_lambda, epochs=args.epochs, seed=args.seed)
    _echo({"command": "classify", "train": args.train, "test": args.test, **asdict(params)})
    d_train, d_test = parse_ucr_pair(args.train, args.test)
    clf = train_classifier(d_train.patterns, d_train.labels, params)
    result = evaluate(clf, d_test.patterns, d_test.labels)
    print(f"error rate: {result.error_rate:.4f} "
          f"({result.misclassified}/{result.total} misclassified)")
    print("confusion (rows = truth):")
    for row in result.confusion:
        print("  " + " ".join(f"{v:5d}" for v in row))
    return EXIT_OK


def cmd_bench(args) -> int:
    spec = bench_mod.load_spec(args.spec)
    if args.preset:
        n_hidden, connectivity = resolve_preset(args.preset)
        spec = replace(spec, n_hidden=n_hidden, connectivity=connectivity)
    _echo({"command": "bench", "spec_file": args.spec, **asdict(spec)})
    # The report is named after the dataset, as parse_ucr names it.
    stem = os.path.join(args.out_dir, f"{spec.dataset_name or _stem(spec.train_path)}_report")
    csv_path, md_path = stem + ".csv", stem + ".md"
    _require_writable(args.out_dir, (csv_path, md_path))

    report = bench_mod.run_experiment(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    bench_mod.emit_csv(report, csv_path, include_timings=not args.no_timings)
    bench_mod.emit_markdown(report, md_path)
    print(f"wrote {csv_path} and {md_path}")
    for method in spec.all_methods():
        for level in spec.noise_levels:
            label = bench_mod._level_label(level)
            print(f"  {method:12s} {label:8s} mean ER {report.mean_er(method, level):.4f}")
    if report.invalid_cells:
        print(f"{len(report.invalid_cells)} invalid cell(s); see report", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_noise(args) -> int:
    noise = NoiseSpec(snr_db=args.snr, seed=args.seed)
    _echo({"command": "noise", "input": args.input, "out": args.out, **asdict(noise)})
    d = parse_ucr(args.input)
    noised = inject_noise(d, noise)
    write_ucr(noised, args.out)
    snr = measured_snr(d, noised)
    label = "inf" if math.isinf(snr) else f"{snr:.3f}"
    print(f"wrote {args.out}; measured SNR: {label} dB")
    return EXIT_OK


def cmd_synth(args) -> int:
    d_train, d_test = make_synthetic(
        n_train=args.train_size,
        n_test=args.test_size,
        length=args.length,
        seed=args.seed,
        offset=args.offset,
    )
    _echo(
        {
            "command": "synth",
            "out_dir": args.out_dir,
            "train_size": args.train_size,
            "test_size": args.test_size,
            "length": args.length,
            "seed": args.seed,
            "offset": args.offset,
        }
    )
    train_path = os.path.join(args.out_dir, "synth_TRAIN.txt")
    test_path = os.path.join(args.out_dir, "synth_TEST.txt")
    _require_writable(args.out_dir, (train_path, test_path))
    os.makedirs(args.out_dir, exist_ok=True)
    write_ucr(d_train, train_path)
    write_ucr(d_test, test_path)
    print(f"wrote {train_path} and {test_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esnrae",
        description="Reservoir autoencoder feature extraction and classification benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_reservoir_flags(p):
        p.add_argument("--preset", help=f"per-dataset reservoir preset: {sorted(PRESETS)}")
        p.add_argument("--n-hidden", type=int, default=None, help="reservoir size")
        p.add_argument("--connectivity", type=float, default=None,
                       help="fraction of nonzero recurrent weights")
        p.add_argument("--spectral-radius", type=float,
                       default=ReservoirConfig.spectral_radius_target)
        p.add_argument("--input-scaling", type=float, default=ReservoirConfig.input_scaling)
        p.add_argument("--layers", type=int, default=None, help="reservoir count (defaults: "
                       f"1 basic, {bench_mod.ExperimentSpec.n_layers_ml} multi-layer)")

    p = sub.add_parser("encode", help="train an autoencoder and emit feature files")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--kind", default="esn-rae", choices=KINDS)
    add_reservoir_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("classify", help="train/evaluate the linear classifier on any UCR-format file")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--reg-lambda", type=float, default=ClassifierParams.reg_lambda)
    p.add_argument("--epochs", type=int, default=ClassifierParams.epochs)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bench", help="run a benchmark experiment from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--preset", default=None, help="replace the spec's n_hidden and connectivity")
    p.add_argument("--no-timings", action="store_true",
                   help="omit wall-clock columns for byte-identical replays")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("noise", help="write a Gaussian-noised copy of a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--snr", type=float, required=True, help="signal-to-noise ratio in dB")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("synth", help="generate the bundled synthetic two-class dataset")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--train-size", type=int, default=60)
    p.add_argument("--test-size", type=int, default=40)
    p.add_argument("--length", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offset", type=float, default=1.0,
                   help="vertical shift of class 1; 0 makes the classes "
                   "differ only in roughness (hard for linear models)")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
