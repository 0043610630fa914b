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
from esnrae.autoencoder import KINDS, fit, is_multilayer
from esnrae.classifier import standardize
from esnrae.linalg import SeededRng
from esnrae.reservoir import ReservoirConfig, init_weights, resolve_preset, run_collect

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
    (_, features), peak, kept = traced_peak(
        fit, earthquakes_train, cfg, kind, 1
    )
    assert features.shape == (P, n_hidden)
    assert peak - kept <= 2 * features.nbytes


@pytest.mark.parametrize("recurrent", [True, False])
@pytest.mark.parametrize("layers", [1, 2])
def test_run_collect_holds_one_drive_buffer_per_live_layer(earthquakes_train, layers, recurrent):
    # The result is the last layer's drive buffer itself, not a copy of it;
    # while a layer's buffer fills, the previous layer's is still held.
    n_hidden, connectivity = resolve_preset("earthquakes")
    cfg = ReservoirConfig(n_hidden=n_hidden, input_dim=K, connectivity=connectivity,
                          n_layers=layers)
    weights = init_weights(cfg, SeededRng(1), recurrent=recurrent)
    states, peak, _ = traced_peak(run_collect, weights, earthquakes_train.patterns)
    assert states.shape == (P, n_hidden)
    assert peak <= (layers + 0.1) * states.nbytes


@pytest.mark.parametrize("order", ["C", "F"])
def test_standardize_holds_at_most_two_designs(order):
    features = np.asarray(np.random.default_rng(3).standard_normal((P, 600)), order=order)
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
