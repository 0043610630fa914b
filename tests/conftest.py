import os
import tracemalloc

import pytest

from esnrae import make_synthetic, write_ucr

# Some tests start a fresh interpreter that imports esnrae. pytest's
# ``pythonpath`` setting (pyproject.toml) reaches only this process, so a
# bare ``pytest`` in a checkout passes the source tree on through the
# environment as well.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

# Filename patterns the UCR archive ships under, old and new layout.
_UCR_CANDIDATES = (
    "{name}_TRAIN.txt",
    "{name}_TRAIN.tsv",
    "{name}_TRAIN",
    "{name}/{name}_TRAIN.txt",
    "{name}/{name}_TRAIN.tsv",
    "{name}/{name}_TRAIN",
)


def find_ucr(name: str) -> tuple[str, str] | None:
    """Locate a user-fetched UCR dataset (train, test) pair, or None.

    Searches $UCR_DATA_DIR, then ./data relative to the repository root.
    """
    roots = []
    if os.environ.get("UCR_DATA_DIR"):
        roots.append(os.environ["UCR_DATA_DIR"])
    roots.append(os.path.join(os.path.dirname(__file__), "..", "data"))
    for root in roots:
        for pattern in _UCR_CANDIDATES:
            train = os.path.join(root, pattern.format(name=name))
            test = train.replace("_TRAIN", "_TEST")
            if os.path.isfile(train) and os.path.isfile(test):
                return train, test
    return None


def require_ucr(name: str) -> tuple[str, str]:
    found = find_ucr(name)
    if found is None:
        pytest.skip(
            f"UCR dataset {name!r} not found; fetch it from the UCR archive "
            f"into $UCR_DATA_DIR or ./data to run this check"
        )
    return found


def traced_peak(fn, *args):
    """Call ``fn(*args)`` under tracemalloc; return (result, peak, kept).

    ``peak`` is the most memory the call held at once and ``kept`` what it
    still holds on return (its result), both in bytes above what was traced
    when it started. Tracing that was already on stays on, with the same
    frame limit (its peak restarts from this call); otherwise it stops again.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak - base, current - base


@pytest.fixture(scope="session")
def synth_files(tmp_path_factory):
    """Separable synthetic train/test files on disk."""
    d = tmp_path_factory.mktemp("synth")
    train, test = make_synthetic(n_train=40, n_test=40, length=32, seed=5, offset=2.0)
    train_path = str(d / "synth_TRAIN.txt")
    test_path = str(d / "synth_TEST.txt")
    write_ucr(train, train_path)
    write_ucr(test, test_path)
    return train_path, test_path
