"""Tests for the immutable value-type base."""

import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

from conftest import sample_policy
from epigames import (
    ActionSet,
    BayesianSetting,
    CostBenefitFunction,
    CostTable,
    DesignerCostModel,
    DistancingParams,
    EfficiencyParams,
    MaskCosts,
    MeetingDomain,
    Policy,
    Scenario,
    bayesian_expected_cost,
    distancing_utility,
    efficiency_expected_cost,
    group_infection_probability,
    multiplayer_so_condition,
    oracle,
)
from epigames.errors import FieldError
from epigames.policy import POLICY_KINDS
from epigames.scenario import ScenarioConfig
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
    assert repr(Policy("free_masks", subsidy=12.5)) == (
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
        pytest.param((0.5, 1.0), {"low": 0.5}, "repeated field 'low'", id="all-and-repeated"),
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
    with pytest.raises(FieldError, match=r"^grid_steps must be within \[1, 1000000\], got 0$"):
        domain.replace(grid_steps=0)
    with pytest.raises(TypeError, match="unknown field"):
        domain.replace(steps=7)


_COSTS = MaskCosts(1.0, 10.0, 100.0, 1000.0)
_DISTANCING = DistancingParams(3000.0, 500.0, 0.034, 11.3e6, 0.0077)
# one valid instance of every value type a scenario holds; each number field is set
_VALID = [
    _COSTS,
    BayesianSetting(0.5, 0.5),
    EfficiencyParams(0.25, 0.5),
    _DISTANCING,
    CostBenefitFunction.linear(10.0, 2.0),
    MeetingDomain(),
    *(sample_policy(kind) for kind in POLICY_KINDS),
    DesignerCostModel(1.0, 0.5, 0.25),
    Scenario(
        _COSTS, EfficiencyParams(), BayesianSetting(0.5, 0.5), _DISTANCING,
        CostBenefitFunction.linear(10.0), CostBenefitFunction.constant(500.0), MeetingDomain(),
        1000, gathering_limit=10,
    ),
]


def _number_fields():
    for value in _VALID:
        for field in value._fields:
            number = getattr(value, field)
            if isinstance(number, (int, float)) and not isinstance(number, bool):
                owner = f"Policy[{value.kind}]" if isinstance(value, Policy) else type(value).__name__
                yield pytest.param(value, field, id=f"{owner}.{field}")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"])
@pytest.mark.parametrize("value, field", list(_number_fields()))
def test_every_number_field_refuses_non_finite_values(value, field, bad):
    with pytest.raises(FieldError, match=f"^{field} must be a finite number, got ") as info:
        value.replace(**{field: bad})
    assert info.value.fields == (field,)
    assert len(str(info.value)) < 80  # an oversized int is described, not printed
    # replace passes keywords; every field by position takes the constructor's other path
    with pytest.raises(FieldError) as by_position:
        type(value)(*(bad if name == field else getattr(value, name) for name in value._fields))
    assert (str(by_position.value), by_position.value.fields) == (str(info.value), (field,))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_range_names_a_field():
    for cls in _subclasses(Value):
        assert set(cls._ranges) <= set(cls._fields), cls.__name__


def test_the_scenario_types_state_their_ranges():
    assert {type(value).__name__: set(type(value)._ranges) for value in _VALID if type(value)._ranges} == {
        "BayesianSetting": {"rho", "p1"},
        "DistancingParams": {"benefit", "home_cost", "mortality", "life_value", "infection_prob"},
        "CostBenefitFunction": {"slope", "intercept"},
        "MeetingDomain": {"grid_steps"},
        "MaskCosts": {"c_out", "c_use"},
        "Policy": {"subsidy", "limit", "per_test_cost", "traced_fraction"},
        "DesignerCostModel": {"weight_infection", "weight_test", "weight_economic"},
        "Scenario": {"population", "revealed_fraction", "testing_outlay"},
    }
    # a scenario file's population is held to the rule the Scenario it builds states
    assert ScenarioConfig._ranges == {"population": Scenario._ranges["population"]}
    assert ScenarioConfig._ranges["population"] is Scenario._ranges["population"]


def _range_bounds():
    """(value, field, bound, outside) for each bound of each set field's range in _VALID."""
    for value in _VALID:
        for field, (least, greatest) in value._ranges.items():
            if getattr(value, field) is None:  # a parameter this policy kind does not take
                continue
            owner = f"Policy[{value.kind}]" if isinstance(value, Policy) else type(value).__name__
            yield pytest.param(value, field, least, least - 1, id=f"{owner}.{field}-least")
            if greatest is not None:
                yield pytest.param(value, field, greatest, greatest + 1, id=f"{owner}.{field}-greatest")


@pytest.mark.parametrize("value, field, bound, outside", list(_range_bounds()))
def test_each_range_accepts_its_bounds_and_refuses_beyond_them(value, field, bound, outside):
    assert getattr(value.replace(**{field: bound}), field) == bound
    least, greatest = value._ranges[field]
    rule = (
        f"within [{least}, {greatest}]" if greatest is not None
        else "non-negative" if least == 0
        else f"at least {least}"
    )
    with pytest.raises(FieldError) as info:
        value.replace(**{field: outside})
    assert (str(info.value), info.value.fields) == (f"{field} must be {rule}, got {outside}", (field,))
    with pytest.raises(FieldError) as by_position:
        type(value)(*(outside if name == field else getattr(value, name) for name in value._fields))
    assert (str(by_position.value), by_position.value.fields) == (str(info.value), (field,))


def test_an_ordering_rule_is_checked_before_a_range():
    # __post_init__ runs first: z_min > z_max is reported, not the grid_steps range
    with pytest.raises(FieldError) as info:
        MeetingDomain(50.0, 10.0, 0)
    assert info.value.fields == ("z_min", "z_max")


@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(lambda: Policy("free_masks", subsidy=math.nan), "subsidy", id="free_masks"),
        pytest.param(
            lambda: Policy("mass_testing", per_test_cost=math.inf), "per_test_cost", id="mass_testing"
        ),
        pytest.param(lambda: DistancingParams(math.nan, 1, 0.1, 1, 0.1), "benefit", id="benefit"),
        pytest.param(lambda: DistancingParams(1, 1, math.nan, 1, 0.1), "mortality", id="mortality"),
        pytest.param(lambda: DistancingParams(1, 1, 0.1, math.inf, 0.1), "life_value", id="life_value"),
        pytest.param(lambda: CostBenefitFunction.linear(math.nan), "slope", id="linear"),
        pytest.param(lambda: CostBenefitFunction.constant(math.inf), "intercept", id="constant"),
        pytest.param(lambda: DesignerCostModel(math.nan, 1, 1), "weight_infection", id="designer"),
        pytest.param(lambda: MaskCosts(1, 10, 100, math.inf), "c_infection", id="mask_costs"),
    ],
)
def test_constructors_refuse_what_scenario_files_refuse(build, field):
    with pytest.raises(FieldError, match=field) as info:
        build()
    assert info.value.fields == (field,)


# each function that takes a bare probability: its name, the argument's name, and a call with it
_PROBABILITY_ARGUMENTS = [
    ("distancing_utility", "p", lambda p: distancing_utility(p, _DISTANCING)),
    ("group_infection_probability", "rho", lambda rho: group_infection_probability(rho, 2.0)),
    ("bayesian_expected_cost", "p2", lambda p2: bayesian_expected_cost(BayesianSetting(0.5, 0.5), p2, _COSTS)),
    ("efficiency_expected_cost", "p", lambda p: efficiency_expected_cost(p, EfficiencyParams(), _COSTS)),
    ("multiplayer_so_condition", "rho", lambda rho: multiplayer_so_condition(rho, _COSTS)),
]


def _argument_breaches():
    """(call, message, fields) for each bare argument outside its rule; fields is None
    where the check is not a range, and raises a plain ValueError."""
    for function, name, build in _PROBABILITY_ARGUMENTS:
        for bad, shown in [(1.5, "1.5"), (-0.5, "-0.5"), (math.nan, "nan"), (Fraction(3, 2), "3/2")]:
            message = f"{name} must be within [0, 1], got {shown}"
            yield pytest.param(partial(build, bad), message, (name,), id=f"{function}-{shown}")
    game = CostTable(ActionSet(("a",)), ActionSet(("x",)), (((0, 0),),))
    yield pytest.param(
        partial(oracle.enumerate_dominant, game, 3), "player must be 1 or 2, got 3", None, id="enumerate_dominant-3"
    )
    yield pytest.param(
        partial(group_infection_probability, 0.5, 10**400),
        "exposure z must be positive and finite, got an int too large for a float",
        None,
        id="group_infection_probability-z-10**400",
    )


@pytest.mark.parametrize("call, message, fields", list(_argument_breaches()))
def test_bare_arguments_are_checked_by_the_one_rule(call, message, fields):
    with pytest.raises(ValueError) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValueError if fields is None else FieldError, message)
    assert getattr(info.value, "fields", None) == fields
