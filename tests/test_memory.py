"""Peak memory of the stages on the grid's path, traced at Earthquakes shape.

The Earthquakes preset (600 units) on 322 training patterns of length 512 is
the largest shape the presets run. Each bound names what the stage must hold
at its peak; a full-size copy beyond that breaks it.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import traced_peak

from esnrae import Dataset, parse_ucr, write_ucr
from esnrae.autoencoder import KINDS, RaeTrainSpec, fit, is_multilayer
from esnrae.classifier import standardize
from esnrae.reservoir import ReservoirConfig, resolve_preset

P, K = 322, 512


@pytest.fixture(scope="module")
def earthquakes_train():
    g = np.random.default_rng(7)
    return Dataset(
        name="eq",
        patterns=g.standard_normal((P, K)),
        labels=np.arange(P) % 2,
        label_names=(0, 1),
        split="train",
    )


def test_parse_holds_the_text_plus_one_array(earthquakes_train, tmp_path):
    path = tmp_path / "eq_TRAIN.txt"
    write_ucr(earthquakes_train, str(path))
    d, peak, _ = traced_peak(parse_ucr, str(path))
    assert d.patterns.tobytes() == earthquakes_train.patterns.tobytes()
    assert peak <= 1.5 * path.stat().st_size + 2 * d.patterns.nbytes


@pytest.mark.parametrize("kind", KINDS)
def test_fit_holds_at_most_two_state_matrices_beyond_its_result(earthquakes_train, kind):
    n_hidden, connectivity = resolve_preset("earthquakes")
    cfg = ReservoirConfig(
        n_hidden=n_hidden,
        input_dim=K,
        connectivity=connectivity,
        n_layers=2 if is_multilayer(kind) else 1,
    )
    ae, peak, kept = traced_peak(fit, earthquakes_train, RaeTrainSpec(cfg=cfg, seed=1), kind)
    assert ae.features_train.shape == (n_hidden, P)
    assert peak - kept <= 2 * ae.features_train.nbytes


@pytest.mark.parametrize("order", ["C", "F"])
def test_standardize_holds_at_most_two_designs(order):
    features = np.asarray(np.random.default_rng(3).standard_normal((600, P)), order=order)
    s, peak, _ = traced_peak(standardize, features)
    assert s.x.flags.c_contiguous
    assert peak <= 2.1 * s.x.nbytes


@pytest.mark.parametrize("tracing", [False, True])
def test_traced_peak_leaves_tracing_as_it_found_it(tracing):
    if tracing:
        tracemalloc.start(3)
    try:
        result, peak, kept = traced_peak(np.ones, 100_000)
        assert tracemalloc.is_tracing() == tracing
        if tracing:
            assert tracemalloc.get_traceback_limit() == 3
    finally:
        if tracing:
            tracemalloc.stop()
    assert peak >= kept >= result.nbytes
