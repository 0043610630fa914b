import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esnrae import (
    EsnWeights,
    FormatError,
    ReservoirConfig,
    SeededRng,
    init_weights,
    load_weights,
    run_collect,
    save_weights,
    spectral_radius,
    step,
)
from esnrae.reservoir import PRESETS, resolve_preset


def config(n=20, k=8, beta=0.2, layers=1, rho=0.9, scaling=1.0):
    return ReservoirConfig(
        n_hidden=n,
        input_dim=k,
        connectivity=beta,
        spectral_radius_target=rho,
        n_layers=layers,
        input_scaling=scaling,
    )


def manual_weights(w_in, w, w_inter=(), b_e=None):
    n = w_in.shape[0]
    m = len(w)
    if b_e is None:
        b_e = tuple(np.zeros(n) for _ in range(m))
    return EsnWeights(w_in=w_in, w=tuple(w), w_inter=tuple(w_inter), b_e=b_e)


class TestInitWeights:
    def test_ecg200_preset_shape_count_and_radius(self):
        preset = PRESETS["ecg200"]
        cfg = config(n=int(preset["n_hidden"]), k=96, beta=preset["connectivity"])
        w = init_weights(cfg, SeededRng(0).child("cand0"))
        assert w.w_in.shape == (150, 97)
        assert w.w[0].shape == (150, 150)
        assert np.count_nonzero(w.w[0]) == 2250
        assert abs(spectral_radius(w.w[0]) - 0.9) < 1e-6

    def test_earthquakes_preset_count(self):
        preset = PRESETS["earthquakes"]
        cfg = config(n=int(preset["n_hidden"]), k=16, beta=preset["connectivity"])
        w = init_weights(cfg, SeededRng(1).child("cand0"))
        assert np.count_nonzero(w.w[0]) == 720

    def test_single_layer_has_no_inter_matrices(self):
        w = init_weights(config(layers=1), SeededRng(2))
        assert w.w_inter == ()
        assert len(w.w) == 1 and len(w.b_e) == 1

    def test_multi_layer_structure(self):
        w = init_weights(config(layers=3), SeededRng(3))
        assert len(w.w) == 3 and len(w.w_inter) == 2 and len(w.b_e) == 3
        for layer in w.w:
            assert abs(spectral_radius(layer) - 0.9) < 1e-6

    def test_non_recurrent_uses_zero_recurrence(self):
        w = init_weights(config(layers=2), SeededRng(4), recurrent=False)
        assert all(np.count_nonzero(layer) == 0 for layer in w.w)
        assert np.count_nonzero(w.w_inter[0]) > 0

    def test_input_scaling_applies_to_input_columns_only(self):
        base = init_weights(config(scaling=1.0), SeededRng(6))
        scaled = init_weights(config(scaling=0.5), SeededRng(6))
        assert np.array_equal(scaled.w_in[:, 0], base.w_in[:, 0])
        assert np.allclose(scaled.w_in[:, 1:], 0.5 * base.w_in[:, 1:])

    def test_deterministic(self):
        a = init_weights(config(layers=2), SeededRng(7).child("c"))
        b = init_weights(config(layers=2), SeededRng(7).child("c"))
        assert np.array_equal(a.w_in, b.w_in)
        assert all(np.array_equal(x, y) for x, y in zip(a.w, b.w))
        assert all(np.array_equal(x, y) for x, y in zip(a.b_e, b.b_e))


class TestStep:
    def test_all_zero_weights_give_zero_state(self):
        w = manual_weights(np.zeros((4, 6)), [np.zeros((4, 4))])
        out = step(w, [np.ones(4)], np.ones(5))
        assert np.array_equal(out[0], np.zeros(4))

    def test_scalar_closed_form(self):
        # w_in = [bias=0, input=1], no recurrence, no bias vector.
        w = manual_weights(np.array([[0.0, 1.0]]), [np.zeros((1, 1))])
        out = step(w, [np.zeros(1)], np.array([0.5]))
        assert out[0][0] == pytest.approx(0.46211715726000974, abs=1e-15)

    def test_bias_column_receives_constant_one(self):
        w = manual_weights(np.array([[0.25, 0.0]]), [np.zeros((1, 1))])
        out = step(w, [np.zeros(1)], np.array([123.0]))
        assert out[0][0] == pytest.approx(np.tanh(0.25), abs=1e-15)

    def test_two_layer_against_straight_line_oracle(self):
        g = SeededRng(8).child("t").generator()
        n, k = 5, 3
        w_in = g.uniform(-1, 1, (n, k + 1))
        w1, w2 = 0.3 * g.uniform(-1, 1, (n, n)), 0.3 * g.uniform(-1, 1, (n, n))
        inter = g.uniform(-1, 1, (n, n))
        b1, b2 = g.uniform(-1, 1, n), g.uniform(-1, 1, n)
        w = manual_weights(w_in, [w1, w2], [inter], (b1, b2))
        x1_prev, x2_prev = g.uniform(-0.5, 0.5, n), g.uniform(-0.5, 0.5, n)
        u = g.uniform(-1, 1, k)

        out = step(w, [x1_prev, x2_prev], u)

        x1 = np.tanh(w_in[:, 0] + w_in[:, 1:] @ u + w1 @ x1_prev + b1)
        x2 = np.tanh(inter @ x1 + w2 @ x2_prev + b2)
        assert np.array_equal(out[0], x1)
        assert np.array_equal(out[1], x2)

    def test_dimension_mismatch(self):
        w = manual_weights(np.zeros((4, 6)), [np.zeros((4, 4))])
        with pytest.raises(ValueError):
            step(w, [np.zeros(4)], np.zeros(7))
        with pytest.raises(ValueError):
            step(w, [np.zeros(3)], np.zeros(5))


class TestRunCollect:
    def test_single_pattern_equals_one_step_from_zero(self):
        w = init_weights(config(), SeededRng(9))
        u = SeededRng(10).child("u").generator().uniform(-1, 1, 8)
        h = run_collect(w, u[None, :])
        expected = step(w, [np.zeros(20)], u)[0]
        assert np.array_equal(h[:, 0], expected)

    def test_carry_vs_reset_differ_in_second_column(self):
        # The state carried from the first pattern, against a reset to zero.
        w = init_weights(config(), SeededRng(11))
        x = SeededRng(12).child("x").generator().uniform(-1, 1, (2, 8))
        carry = run_collect(w, x)
        reset = [step(w, [np.zeros(20)], u)[0] for u in x]
        assert np.array_equal(carry[:, 0], reset[0])
        assert not np.array_equal(carry[:, 1], reset[1])

    def test_trace_shape_matches_pattern_count(self):
        w = init_weights(config(n=150, k=96, beta=0.1), SeededRng(15))
        x = SeededRng(16).child("x").generator().standard_normal((100, 96))
        assert run_collect(w, x).shape == (150, 100)

    def test_states_stay_bounded(self):
        w = init_weights(config(n=40, k=12), SeededRng(17))
        x = SeededRng(18).child("x").generator().uniform(-1, 1, (50, 12))
        assert np.abs(run_collect(w, x)).max() < 1.0

    def test_layer_count_reduction_identity_inter(self):
        # Two layers with identity coupling and dead layer 2 recurrence:
        # layer 2 states must equal tanh(layer 1 states).
        g = SeededRng(19).child("w").generator()
        n, k = 6, 4
        w_in = g.uniform(-1, 1, (n, k + 1))
        w1 = 0.5 * g.uniform(-1, 1, (n, n))
        w = manual_weights(w_in, [w1, np.zeros((n, n))], [np.eye(n)])
        state = [np.zeros(n), np.zeros(n)]
        for u in g.uniform(-1, 1, (10, k)):
            state = step(w, state, u)
            assert np.allclose(state[1], np.tanh(state[0]), atol=1e-15)

    def test_fading_memory_under_echo_state_property(self):
        # Two different random initial states converge after warm patterns.
        cfg = config(n=50, k=16, beta=0.2, rho=0.9)
        w = init_weights(cfg, SeededRng(20))
        g = SeededRng(21).child("probe").generator()
        x = g.uniform(-1, 1, (100, 16))
        s1 = [g.uniform(-1, 1, 50)]
        s2 = [g.uniform(-1, 1, 50)]
        for row in x:
            s1 = step(w, s1, row)
            s2 = step(w, s2, row)
        assert np.linalg.norm(s1[0] - s2[0]) < 1e-6

    def test_determinism(self):
        cfg = config(layers=2)
        x = SeededRng(22).child("x").generator().uniform(-1, 1, (9, 8))
        a = run_collect(init_weights(cfg, SeededRng(23)), x)
        b = run_collect(init_weights(cfg, SeededRng(23)), x)
        assert np.array_equal(a, b)


class TestWeightContainer:
    @pytest.mark.parametrize("layers,recurrent", [(1, True), (3, True), (2, False)])
    def test_roundtrip_bit_exact(self, layers, recurrent):
        w = init_weights(config(layers=layers), SeededRng(25), recurrent=recurrent)
        buf = io.BytesIO()
        save_weights(w, buf)
        buf.seek(0)
        back = load_weights(buf)
        assert np.array_equal(back.w_in, w.w_in)
        assert all(np.array_equal(a, b) for a, b in zip(back.w, w.w))
        assert all(np.array_equal(a, b) for a, b in zip(back.w_inter, w.w_inter))
        assert all(np.array_equal(a, b) for a, b in zip(back.b_e, w.b_e))

    def test_bad_magic_rejected(self):
        from esnrae import FormatError

        buf = io.BytesIO(b"NOTAFILE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_weights(buf)

    def test_truncation_rejected(self):
        from esnrae import FormatError

        w = init_weights(config(), SeededRng(26))
        buf = io.BytesIO()
        save_weights(w, buf)
        data = buf.getvalue()[:-16]
        with pytest.raises(FormatError):
            load_weights(io.BytesIO(data))

    def test_inconsistent_block_shapes_rejected(self):
        import struct

        from esnrae import FormatError

        w = init_weights(config(n=20, k=8), SeededRng(27))
        buf = io.BytesIO()
        save_weights(w, buf)
        data = bytearray(buf.getvalue())
        # The w_in block header follows magic + dims; swap its rows and cols.
        data[20:28] = struct.pack("<II", 9, 20)
        with pytest.raises(FormatError, match="inconsistent"):
            load_weights(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("rows,cols", [(0xFFFFFFFF, 0xFFFFFFFF), (1 << 20, 1 << 10)])
    def test_oversized_block_header_rejected_before_reading(self, rows, cols):
        import struct

        from esnrae import FormatError

        buf = io.BytesIO()
        save_weights(init_weights(config(n=20, k=8), SeededRng(27)), buf)
        data = bytearray(buf.getvalue())
        data[20:28] = struct.pack("<II", rows, cols)
        with pytest.raises(FormatError, match="declared"):
            load_weights(io.BytesIO(bytes(data)))

    def test_unseekable_stream_still_loads(self):
        class Unseekable(io.RawIOBase):
            def __init__(self, data):
                self._inner = io.BytesIO(data)

            def readable(self):
                return True

            def readinto(self, b):
                return self._inner.readinto(b)

        w = init_weights(config(), SeededRng(28))
        buf = io.BytesIO()
        save_weights(w, buf)
        back = load_weights(io.BufferedReader(Unseekable(buf.getvalue())))
        assert np.array_equal(back.w[0], w.w[0])


def saved(weights):
    buf = io.BytesIO()
    save_weights(weights, buf)
    return buf.getvalue()


# A small dense two-layer container: every block kind, a few hundred bytes.
_SMALL = saved(init_weights(config(n=4, k=3, beta=1.0, layers=2), SeededRng(29)))


class TestWeightContainerProperties:
    def test_every_truncation_is_refused(self):
        for cut in range(len(_SMALL)):
            with pytest.raises(FormatError):
                load_weights(io.BytesIO(_SMALL[:cut]))

    @given(
        st.one_of(
            st.binary(max_size=400),
            st.binary(max_size=400).map(lambda b: _SMALL[:8] + b),
            st.tuples(st.integers(0, len(_SMALL) - 1), st.integers(0, 255)).map(
                lambda e: _SMALL[: e[0]] + bytes([e[1]]) + _SMALL[e[0] + 1 :]
            ),
        )
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_any_bytes_load_or_raise_format_error(self, data):
        try:
            loaded = load_weights(io.BytesIO(data))
        except FormatError:
            return
        assert saved(load_weights(io.BytesIO(saved(loaded)))) == saved(loaded)

    @given(
        n=st.integers(1, 6),
        k=st.integers(1, 5),
        layers=st.integers(1, 3),
        recurrent=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_save_load_save_is_byte_identical(self, n, k, layers, recurrent, seed):
        cfg = config(n=n, k=k, beta=1.0, layers=layers)
        first = saved(init_weights(cfg, SeededRng(seed), recurrent=recurrent))
        assert saved(load_weights(io.BytesIO(first))) == first

    def test_version_1_container_is_refused(self):
        # Version 1: the same blocks plus a trailing decoder-bias block.
        v1 = b"ESNWGT\x00\x01" + _SMALL[8:] + struct.pack("<II", 1, 3) + bytes(24)
        with pytest.raises(FormatError, match="version 1.*esnrae encode"):
            load_weights(io.BytesIO(v1))


class TestConfigValidation:
    def test_spectral_radius_must_be_below_one(self):
        with pytest.raises(ValueError):
            config(rho=1.0)

    def test_connectivity_bounds(self):
        with pytest.raises(ValueError):
            config(beta=0.0)
        with pytest.raises(ValueError):
            config(beta=1.5)

    def test_layer_count_positive(self):
        with pytest.raises(ValueError):
            config(layers=0)

    def test_n_hidden_up_to_what_numpy_can_address(self):
        # Only the configuration is built; no matrix of this size is drawn.
        largest = math.isqrt(np.iinfo(np.intp).max // 8)
        assert config(n=largest).n_hidden == largest
        with pytest.raises(FormatError, match=f"n_hidden {largest + 1} is too large"):
            config(n=largest + 1)
        with pytest.raises(FormatError, match="n_hidden"):
            config(n=2**62)


class TestResolvePreset:
    @pytest.mark.parametrize("name", ["ecgfivedays", "ECGFiveDays", "ECG_Five-Days"])
    def test_spellings_resolve_to_one_preset(self, name):
        assert resolve_preset(name) == (100, 0.04)

    def test_unknown_preset_names_it_and_the_choices(self):
        from esnrae import FormatError

        with pytest.raises(FormatError, match="mnist.*earthquakes"):
            resolve_preset("mnist")
