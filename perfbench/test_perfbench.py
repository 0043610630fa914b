"""Tests of the benchmark's own helpers: input generation, span tracing and output scoring."""

from __future__ import annotations

import sys
import types

import numpy as np
import pytest

from perfbench.inputs import Shape, generate, make_split
from perfbench.tracer import END, PARENT, START, Tracer, layer_totals
from perfbench.workloads import RepOutcome, _call, mean_error_rate, methods_at_chance

SHAPE = Shape("Tiny", 12, 10, 32, (-1, 1), 2.0)


def test_generator_is_deterministic_for_a_seed(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    paths_a = generate(SHAPE, 7, str(a_dir))
    paths_b = generate(SHAPE, 7, str(b_dir))
    for pa, pb in zip(paths_a, paths_b):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


def test_generator_changes_with_the_seed_but_not_the_class_counts():
    labels_a, patterns_a = make_split(SHAPE, 1, "train")
    labels_b, patterns_b = make_split(SHAPE, 2, "train")
    assert not np.array_equal(patterns_a, patterns_b)
    assert sorted(labels_a) == sorted(labels_b)
    assert patterns_a.shape == (SHAPE.n_train, SHAPE.length)
    assert set(labels_a) == {-1, 1}
    _, other_dataset = make_split(SHAPE, 1, "train", index=1)
    assert not np.array_equal(patterns_a, other_dataset)


def test_written_text_round_trips(tmp_path):
    train, _ = generate(SHAPE, 3, str(tmp_path))
    labels, patterns = make_split(SHAPE, 3, "train")
    loaded = np.loadtxt(train, delimiter=",", ndmin=2)
    np.testing.assert_array_equal(loaded[:, 0], labels)
    np.testing.assert_array_equal(loaded[:, 1:], patterns)


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_on_a_hand_built_tree():
    # root [0, 100) has children a [10, 40) and b [50, 90); a has child c [20, 30).
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("c", 20, 30, 1),
        _span("b", 50, 90, 0),
        _span("a", 200, 205, -1),
    ]
    totals = layer_totals(spans)
    ns = 1e-9
    assert totals["root"]["self_s"] == pytest.approx((100 - 30 - 40) * ns)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["s"] == pytest.approx(35 * ns)
    assert totals["a"]["self_s"] == pytest.approx((30 - 10 + 5) * ns)
    assert totals["b"]["self_s"] == pytest.approx(40 * ns)
    assert totals["c"]["self_s"] == pytest.approx(10 * ns)


@pytest.fixture
def fake_package():
    """``fakepkg.alpha`` defines f and g; ``fakepkg.gamma`` imports f and calls it."""
    alpha = types.ModuleType("fakepkg.alpha")
    gamma = types.ModuleType("fakepkg.gamma")
    exec("def g(x):\n    return x + 1\n\ndef f(x):\n    return g(x) * 2\n", alpha.__dict__)
    exec("def h(x):\n    return f(x)\n", gamma.__dict__)
    gamma.f = alpha.f  # as ``from fakepkg.alpha import f`` would bind it
    sys.modules.update(
        {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.alpha": alpha, "fakepkg.gamma": gamma}
    )
    yield alpha, gamma
    for key in ("fakepkg", "fakepkg.alpha", "fakepkg.gamma"):
        sys.modules.pop(key, None)


def test_absent_targets_are_reported_not_fatal(fake_package):
    alpha, gamma = fake_package
    original_f = alpha.f
    tracer = Tracer(
        package="fakepkg",
        modules=("alpha", "gamma", "missing"),
        expected=("alpha.f", "alpha.renamed", "missing.anything"),
    )
    with tracer:
        assert gamma.h(1) == 4
    assert tracer.absent == ["alpha.renamed", "missing.anything"]
    assert alpha.f is original_f and gamma.f is original_f
    names = [s[0] for s in tracer.spans]
    # gamma's imported copy of f is wrapped under its defining module's name.
    assert names == ["gamma.h", "alpha.f", "alpha.g"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 1]
    assert all(s[END] >= s[START] for s in tracer.spans)


def test_cli_exits_and_crashes_become_failed_commands():
    def rejects_flag(argv):
        print("usage: esnrae")
        raise SystemExit(2)

    def crashes(argv):
        raise RuntimeError("boom")

    assert _call(rejects_flag, []) == (2, "usage: esnrae\n")
    assert _call(crashes, []) == (1, "RuntimeError: boom\n")
    assert _call(lambda argv: 0, []) == (0, "")


def _outcome(dataset, rates, n_scored=2):
    return RepOutcome(dataset=dataset, wall_s=1.0, attempted=n_scored, failed=0,
                      error_rates=rates, n_scored=n_scored, digest="")


def test_error_rates_average_first_repetition_per_dataset():
    outcomes = [
        _outcome(0, [("a", 0.4), ("raw", 0.4)]),
        _outcome(1, [("a", 0.5), ("raw", 0.5)]),
        _outcome(0, [("a", 0.9), ("raw", 0.9)]),  # a repeat: not scored again
        _outcome(2, [("raw", 0.1)]),  # a's cell missing: counts as 1.0
    ]
    assert mean_error_rate(outcomes) == pytest.approx((0.4 + 0.5 + 0.55) / 3)
    assert methods_at_chance(outcomes) == ["a"]
    assert methods_at_chance(outcomes[:1] + outcomes[2:]) == []
