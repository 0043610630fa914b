"""The annotation is the schema: every config dataclass refuses ill-typed fields.

Each case is built from ``dataclasses.fields``, so a field added to one of
these classes with an ``int``, ``float``, ``bool`` or ``str`` annotation is
covered without editing this table.
"""

import dataclasses
import math

import numpy as np
import pytest

from esnrae import (
    ClassifierParams,
    EsnWeights,
    ExperimentSpec,
    NoiseSpec,
    ReservoirConfig,
    SeededRng,
    TrainedAutoencoder,
)


def _weights() -> EsnWeights:
    return EsnWeights(
        w_in=np.zeros((4, 3)), w=(np.zeros((4, 4)),), w_inter=(), b_e=(np.zeros(4),)
    )


# One valid set of arguments per class; each case replaces one field.
VALID = {
    ExperimentSpec: lambda: {"train_path": "a", "test_path": "b"},
    ReservoirConfig: lambda: {"n_hidden": 4, "input_dim": 2},
    ClassifierParams: lambda: {},
    NoiseSpec: lambda: {"snr_db": 10.0, "seed": 0},
    SeededRng: lambda: {"seed": 0},
    TrainedAutoencoder: lambda: {
        "kind": "elm-ae",
        "weights": _weights(),
        "reconstruction_error": 0.0,
        "pre_tying_error": 0.0,
        "chosen_candidate": 0,
        "config": ReservoirConfig(n_hidden=4, input_dim=2),
        "seed": 0,
    },
}


def _valid_value(cls, field):
    kwargs = VALID[cls]()
    return kwargs[field.name] if field.name in kwargs else field.default


def _fields(*types):
    return [
        pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
        for cls in VALID
        for f in dataclasses.fields(cls)
        if f.type in types
    ]


def build(cls, **changes):
    return cls(**{**VALID[cls](), **changes})


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_annotations_are_strings_and_the_valid_arguments_construct(cls):
    # check_field_types reads the annotations as written, which needs
    # ``from __future__ import annotations`` in the defining module.
    assert all(isinstance(f.type, str) for f in dataclasses.fields(cls))
    assert any(f.type in ("int", "float", "bool", "str") for f in dataclasses.fields(cls))
    build(cls)


@pytest.mark.parametrize("cls, field", _fields("int", "float"))
def test_true_is_refused_for_int_and_float_fields(cls, field):
    with pytest.raises(ValueError, match=rf"^{field.name} must be .*, got True$"):
        build(cls, **{field.name: True})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(np.nan)],
                         ids=["nan", "inf", "-inf", "np-nan"])
@pytest.mark.parametrize("cls, field", _fields("float"))
def test_non_finite_is_refused_for_float_fields(cls, field, value):
    with pytest.raises(ValueError, match=rf"^{field.name} must be a finite number, got"):
        build(cls, **{field.name: value})


@pytest.mark.parametrize("value", [2.0, 2**63, -(2**63) - 1, "3", None],
                         ids=["float", "2**63", "-2**63-1", "str", "None"])
@pytest.mark.parametrize("cls, field", _fields("int"))
def test_int_fields_refuse_other_values(cls, field, value):
    with pytest.raises(ValueError, match=rf"^{field.name} must be an integer in the signed 64-bit"):
        build(cls, **{field.name: value})


@pytest.mark.parametrize("value", ["0.5", None, 2**63, 1 + 0j],
                         ids=["str", "None", "2**63", "complex"])
@pytest.mark.parametrize("cls, field", _fields("float"))
def test_float_fields_refuse_other_values(cls, field, value):
    with pytest.raises(ValueError, match=rf"^{field.name} must be a finite number"):
        build(cls, **{field.name: value})


@pytest.mark.parametrize("value", [1, 0, "true", None, np.bool_(True)],
                         ids=["1", "0", "str", "None", "np-bool"])
@pytest.mark.parametrize("cls, field", _fields("bool"))
def test_bool_fields_take_only_true_or_false(cls, field, value):
    with pytest.raises(ValueError, match=rf"^{field.name} must be true or false"):
        build(cls, **{field.name: value})


@pytest.mark.parametrize("value", [5, None, b"a"], ids=["int", "None", "bytes"])
@pytest.mark.parametrize("cls, field", _fields("str"))
def test_str_fields_take_only_strings(cls, field, value):
    with pytest.raises(ValueError, match=rf"^{field.name} must be a string"):
        build(cls, **{field.name: value})


@pytest.mark.parametrize("cls, field", _fields("float"))
def test_an_int_is_accepted_for_a_float_field(cls, field):
    # No integer lies in a spectral radius's range (0, 1), so there
    # ReservoirConfig's range check, which runs after the type check, refuses it.
    try:
        obj = build(cls, **{field.name: 1})
    except ValueError as exc:
        assert field.name.startswith("spectral_radius")
        assert str(exc).startswith("spectral_radius_target must be in (0, 1)")
    else:
        assert getattr(obj, field.name) == 1 and type(getattr(obj, field.name)) is int


@pytest.mark.parametrize("cls, field", _fields("int", "float"))
def test_numpy_scalars_are_stored_as_python_numbers(cls, field):
    value = _valid_value(cls, field)
    kind = np.int64 if field.type == "int" else np.float32
    obj = build(cls, **{field.name: kind(value)})
    stored = getattr(obj, field.name)
    assert type(stored) is (int if field.type == "int" else float)
    assert stored == kind(value)

