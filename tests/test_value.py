"""Tests for the immutable value-type base."""

import pytest
from hypothesis import given, strategies as st

from epigames import BayesianSetting, EfficiencyParams, MeetingDomain, Policy
from epigames.errors import FieldError
from epigames.value import Value


class Window(Value):
    low: float
    high: float = 1.0


class Interval(Value):
    low: float
    high: float = 1.0


def test_fields_and_defaults_come_from_the_annotations_in_order():
    assert Window._fields == ("low", "high")
    assert Window._field_defaults == {"high": 1.0}
    assert MeetingDomain._fields == ("z_min", "z_max", "grid_steps")


def test_fields_by_position_keyword_or_default():
    assert Window(0.5) == Window(0.5, 1.0) == Window(high=1.0, low=0.5)
    assert Window(0.5).high == 1.0


def test_repr_keeps_the_dataclass_text():
    assert repr(MeetingDomain()) == "MeetingDomain(z_min=0.1, z_max=100.0, grid_steps=10000)"
    assert repr(Policy.free_masks(12.5)) == (
        "Policy(kind='free_masks', subsidy=12.5, limit=None, per_test_cost=None,"
        " traced_fraction=None)"
    )


@given(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False))
def test_equal_values_have_equal_hashes(rho, p1):
    a, b = BayesianSetting(rho, p1), BayesianSetting(rho, p1)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_types_with_the_same_field_values_differ():
    assert Window(0.5, 0.75) != Interval(0.5, 0.75)
    assert BayesianSetting(0.25, 0.5) != EfficiencyParams(0.25, 0.5)
    assert Window(0.5) != (0.5, 1.0)


def test_fields_cannot_be_assigned_or_deleted():
    domain = MeetingDomain()
    with pytest.raises(AttributeError):
        domain.z_min = 1.0
    with pytest.raises(AttributeError):
        del domain.z_min
    with pytest.raises(AttributeError):
        domain.extra = 1
    assert domain == MeetingDomain()


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        pytest.param((), {}, "missing fields low", id="missing"),
        pytest.param((0.5,), {"width": 1.0}, "unknown field 'width'", id="unknown"),
        pytest.param((0.5,), {"low": 0.5}, "repeated field 'low'", id="repeated"),
        pytest.param((0.5, 1.0, 2.0), {}, "takes 2 fields, got 3", id="too-many"),
    ],
)
def test_bad_field_lists_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Window(*args, **kwargs)


def test_replace_changes_a_copy_and_validates_it_again():
    domain = MeetingDomain()
    assert domain.replace(grid_steps=7) == MeetingDomain(0.1, 100.0, 7)
    assert domain.grid_steps == 10_000
    with pytest.raises(FieldError, match="grid_steps must be positive"):
        domain.replace(grid_steps=0)
    with pytest.raises(TypeError, match="unknown field"):
        domain.replace(steps=7)
