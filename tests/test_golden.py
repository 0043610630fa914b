"""Byte-identity of the CLI's outputs, as SHA-256 digests.

One small bench grid (the four kinds plus raw, clean and 10 dB, 2 runs) and
one ``encode`` per kind followed by ``classify`` run on a fixed synthetic
dataset; each output file (and each ``classify`` printout) must hash to the
digest recorded below. With p = 40 training patterns and N = 20 units the
states are not of full row rank, so ``recon_error`` is a nonzero residual and
moves with any feature bit.

The feature bits hold for one numpy/BLAS build at one BLAS thread (README
"Determinism"). So the commands run in a child interpreter with
``OPENBLAS_NUM_THREADS=1``, whatever this process runs at, and the digests
are compared only on the build they were recorded on, ``RECORDED``; on any
other the test skips and names the difference. A change that moves a digest
on purpose updates ``DIGESTS`` from the assertion message and says which
artifacts moved and why. ``python tests/test_golden.py`` run in an empty
directory prints the fingerprint and the digests as JSON.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from esnrae import KINDS, make_synthetic, write_ucr
from esnrae.cli import main

RECORDED = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "blas_core": "SkylakeX",
    "blas_threads": 1,
}

DIGESTS = {
    "bench.csv": "05984d557739bbfd0a9ffcf7c1416f6c4f891db2b7a88ec49df98d1e957e7b7d",
    "bench.md": "532ffc1d1026ce67cfe4642647ad891bc9c6cfc9d34430ea67f5fd4df5097afb",
    "esn-rae.esnae": "39e2be63903f21b42231eb2ead18b84efe64b389f2f039cdfda51ddfd3cc94cc",
    "esn-rae_train_features.csv": "b9be466f3cf6b6d531e56a68429d556cad52a8bb868af3300de1ddc31c33d937",
    "esn-rae_test_features.csv": "6846c834f15c70eb1b50fbf946afa7cd9bcccc26e471bb9abe3861739463d299",
    "classify esn-rae": "81d2956974276649d314857940962397874734c9136a24a486eba90d9862ebc3",
    "ml-esn-rae.esnae": "eabf42e44dbde218206ee424f6bd84a3e88d08408bf34bea6e529609c4eb1f4c",
    "ml-esn-rae_train_features.csv": "28c49ca44849f3a99d0f6a4306081f6a7fb647c40ce1e71e3241f0253c5afe76",
    "ml-esn-rae_test_features.csv": "0bf1928e44c96461e4f60eeb4d4471f4b253449593d9df07a2566f0b68649fcf",
    "classify ml-esn-rae": "3e961d05eddb9b6e5731b3e49515f6bf33e37ed98e70b783d15141802c60c8fb",
    "elm-ae.esnae": "1cb810cc08bebc92be2528ff9c3eaffd9d53ef2c408e1856c25351a19c56a85c",
    "elm-ae_train_features.csv": "9d3fbc129b20497a1f9a21bf522388571dfd420acca8b25c02e43741be16d746",
    "elm-ae_test_features.csv": "33f5c1d1661e2a934a27285251271659b67fe01cc7ade7d7988d117aea7d200b",
    "classify elm-ae": "10b421758361e21bc1d2ce76ee5a9214cfe9f21acca9a36c0c180cc64b1e07e1",
    "ml-elm-ae.esnae": "21ba34c4a8e4da2253517904d110921947af68907c53acb175bb5da572334ed6",
    "ml-elm-ae_train_features.csv": "4770edd67a83dd60a062288a5b8b883d611d2b76e6f9c8ebc9a6564721fc468e",
    "ml-elm-ae_test_features.csv": "b1a16497f2ead5d24d1a78a0993e8bdc90e32074a96b787396c69cf09eb831db",
    "classify ml-elm-ae": "742bac0f32c15856392454cc7431524eac385e5e71ac4e76cf475c7c2dda7eb9",
    "classify raw": "95413d535483236bfb4c018c0a01886f701c366e1f77d27a37206ee5c216561f",
}


def fingerprint() -> dict:
    """numpy version, BLAS name and version, and the bundled OpenBLAS's core and thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    found = {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_core": None,
        "blas_threads": None,
    }
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        core = getattr(lib, "scipy_openblas_get_corename64_", None)
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if core is not None and threads is not None:
            core.argtypes, core.restype = [], ctypes.c_char_p
            threads.argtypes, threads.restype = [], ctypes.c_int
            found["blas_core"] = core().decode()
            found["blas_threads"] = int(threads())
    return found


def _cli(argv: list[str]) -> str:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(argv)
    assert code == 0, argv
    return printed.getvalue()


def produce() -> dict[str, str]:
    """Run the grid, the encodes and the classifies in the cwd; digest what they write."""
    train, test = make_synthetic(40, 40, 32, seed=5, offset=0.0)
    write_ucr(train, "golden_TRAIN.txt")
    write_ucr(test, "golden_TEST.txt")
    pair = ["--train", "golden_TRAIN.txt", "--test", "golden_TEST.txt"]
    Path("spec.json").write_text(json.dumps({
        "train_path": "golden_TRAIN.txt",
        "test_path": "golden_TEST.txt",
        "noise_levels": [None, 10],
        "n_runs": 2,
        "n_hidden": 20,
        "connectivity": 0.2,
        "epochs": 5,
    }))
    blobs = {}
    _cli(["bench", "--spec", "spec.json", "--out-dir", "bench", "--no-timings"])
    blobs["bench.csv"] = Path("bench/golden_report.csv").read_bytes()
    md = Path("bench/golden_report.md").read_text().splitlines(keepends=True)
    blobs["bench.md"] = "".join(ln for ln in md if not ln.startswith("Total wall-clock")).encode()
    for kind in KINDS:
        _cli(["encode", *pair, "--kind", kind, "--n-hidden", "20", "--connectivity", "0.2",
              "--out-dir", "enc"])
        stem = f"enc/golden_{kind}"
        for suffix in (".esnae", "_train_features.csv", "_test_features.csv"):
            blobs[f"{kind}{suffix}"] = Path(stem + suffix).read_bytes()
        printed = _cli(["classify", "--train", stem + "_train_features.csv",
                        "--test", stem + "_test_features.csv"])
        blobs[f"classify {kind}"] = printed.encode()
    blobs["classify raw"] = _cli(["classify", *pair]).encode()
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}


def test_digests_match_the_recorded_build(tmp_path):
    done = subprocess.run(
        [sys.executable, __file__], cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    differ = {
        k: f"{found['fingerprint'][k]!r} (recorded {v!r})"
        for k, v in RECORDED.items() if found["fingerprint"][k] != v
    }
    if differ:
        pytest.skip(f"digests were recorded on another build: {differ}")
    digests = found["digests"]
    moved = sorted(name for name in digests if digests[name] != DIGESTS.get(name))
    assert not moved, f"moved: {moved}; digests now: {json.dumps(digests, indent=4)}"
    assert set(digests) == set(DIGESTS)


if __name__ == "__main__":
    print(json.dumps({"fingerprint": fingerprint(), "digests": produce()}))
