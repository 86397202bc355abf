"""Decisions compare the rationals their float inputs denote: neither the unit of
currency nor the rounding of a float computation can change them."""

import math
import sys
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from conftest import mask_costs_with_gaps, probabilities
from epigames import (
    BayesianSetting,
    Decision,
    DistancingParams,
    EfficiencyParams,
    HealthStatus,
    MaskCosts,
    bayesian_mask_condition,
    efficiency_analysis,
    multiplayer_so_condition,
    pair_game,
    solve,
    stay_home_decision,
)

S, I = HealthStatus.SUSCEPTIBLE, HealthStatus.INFECTED
BASELINE = MaskCosts(c_out=1.0, c_in=10.0, c_use=100.0, c_infection=1000.0)
PRICES = ("c_out", "c_in", "c_use", "c_infection")
STAKES = ("benefit", "home_cost", "life_value")


def _decisions(costs, setting, eff, params):
    """Every discrete outcome that depends on the prices, in one comparable tuple."""
    games = tuple(solve(pair_game(s1, s2, costs)) for s1, s2 in ((S, S), (S, I), (I, I)))
    analysis = efficiency_analysis(eff, costs)
    side = {0.0: "none", 1.0: "always"}.get(analysis.best_p, "inside")
    return (
        games,
        bayesian_mask_condition(setting, costs).wear,
        analysis.use_beats_no,
        side,
        stay_home_decision(params).decision,
    )


def _scaled(value, names, k):
    # a power of two scales a float exactly while it stays normal
    return value.replace(**{name: getattr(value, name) * 2.0**k for name in names})


@st.composite
def _efficiency(draw):
    a = draw(st.floats(0, 0.99))
    return EfficiencyParams(a, draw(st.floats(a, 0.99)))


@settings(max_examples=20, deadline=None)
@example(BASELINE, BayesianSetting(0.5, 0.5), EfficiencyParams(), DistancingParams(3000, 500, 0.034, 11_300_000, 0.0077))
@given(
    mask_costs_with_gaps(),
    st.builds(BayesianSetting, probabilities(), probabilities()),
    _efficiency(),
    st.builds(
        DistancingParams,
        st.floats(0, 1e6),
        st.floats(0, 1e6),
        st.floats(1e-3, 1),
        st.floats(0, 1e9),
        st.floats(1e-3, 1),
    ),
)
def test_scaling_every_price_by_a_power_of_two_changes_no_decision(costs, setting, eff, params):
    unscaled = _decisions(costs, setting, eff, params)
    for k in range(-40, 41):
        scaled = _decisions(_scaled(costs, PRICES, k), setting, eff, _scaled(params, STAKES, k))
        assert scaled == unscaled, f"k = {k}"


def test_near_ties_fall_on_the_side_of_the_exact_inputs():
    # each case lies within one rounding of its threshold, on the side a float computation misses
    rho, p1, c_use = 0.65, 0.3, 159.24999999999997
    assert Fraction(c_use) < Fraction(rho) * (1 - Fraction(rho)) * (1 - Fraction(p1)) * 1000
    assert c_use / 1000.0 >= rho * (1 - rho) * (1 - p1)
    assert bayesian_mask_condition(BayesianSetting(rho, p1), BASELINE.replace(c_use=c_use)).wear

    a, b, c_use = 0.7, 0.95, 335.00000000000006
    assert Fraction(c_use) < (1 - Fraction(a) * Fraction(b)) * 1000
    assert c_use / 1000.0 >= 1 - a * b
    assert efficiency_analysis(EfficiencyParams(a, b), BASELINE.replace(c_use=c_use)).use_beats_no

    # the stationary point lies at p = 1 or past it, where a float computation puts it inside
    a, b, c_use = 0.43, 0.48, 497.2
    fa, fb = Fraction(a), Fraction(b)
    assert (2 - fa - fb) * 1000 - Fraction(c_use) >= 2 * 1000 * (1 - fa) * (1 - fb)
    analysis = efficiency_analysis(EfficiencyParams(a, b), BASELINE.replace(c_use=c_use))
    assert analysis.stationary_p < 1 and analysis.best_p == 1.0

    # with b = 1 the cost is affine, falling in p by a margin its float slope rounds to 0
    a, c_use = 0.62, 379.99999999999994
    assert Fraction(c_use) + 1000 * (Fraction(a) + 1) - 2000 < 0
    assert c_use + 1000 * (a + 1) - 2000 == 0
    assert efficiency_analysis(EfficiencyParams(a, 1.0), BASELINE.replace(c_use=c_use)).best_p == 1.0

    # B + C = 1e16 + 1.5 < L = 1e16 + 2, but the float sum rounds to L itself
    params = DistancingParams(1e16, 1.5, 1.0, 1e16 + 2, 1.0)
    assert params.benefit + params.home_cost == params.life_value
    assert stay_home_decision(params).decision is Decision.STAY


# A printed threshold is the exact quantity its decision compares, rounded once, so it
# can never fall on the other side of the value the decision weighs against it.


def test_stay_home_threshold_is_the_exact_ratio_where_rho_m_is_subnormal():
    params = DistancingParams(1e-20, 0.0, 0.7, 1.4284865150362622e300, 1e-320)
    assert 0 < params.infection_prob * params.mortality < 2.2250738585072014e-308
    result = stay_home_decision(params)
    assert result.decision is Decision.GO
    assert result.life_value_threshold == float(Fraction(1e-20) / (Fraction(1e-320) * Fraction(0.7)))
    assert result.life_value_threshold >= params.life_value


@st.composite
def _near_tie_distancing(draw):
    """Distancing inputs whose life value lies within a few ulps of the exact threshold."""
    tiny = st.floats(5e-324, 1e-300)  # subnormal and near-subnormal risk products
    rho = draw(st.one_of(probabilities(), tiny))
    m = draw(st.one_of(st.floats(0, 1), tiny))
    b, c = draw(st.floats(0, 1e300)), draw(st.floats(0, 1e300))
    exposure = Fraction(rho) * Fraction(m)
    if exposure == 0:
        return DistancingParams(b, c, m, draw(st.floats(0, 1e300)), rho)
    try:
        life = float((Fraction(b) + Fraction(c)) / exposure)
    except OverflowError:
        life = sys.float_info.max
    for _ in range(draw(st.integers(0, 2))):
        life = math.nextafter(life, draw(st.sampled_from([0.0, math.inf])))
    return DistancingParams(b, c, m, min(life, sys.float_info.max), rho)


@settings(max_examples=300, deadline=None)
@example(DistancingParams(1e-20, 0.0, 0.7, 1.4284865150362622e300, 1e-320))
@example(DistancingParams(1.0, 0.0, 0.5, 1e300, 5e-324))  # the ratio overflows: inf
@given(_near_tie_distancing())
def test_stay_home_threshold_lies_on_the_side_of_its_decision(params):
    result = stay_home_decision(params)
    if result.decision is Decision.STAY:
        assert result.life_value_threshold <= params.life_value
    else:
        assert result.life_value_threshold >= params.life_value


@example(BayesianSetting(0.1, 0.1), EfficiencyParams(0.1, 0.8))
@given(
    st.builds(BayesianSetting, probabilities(), probabilities()),
    _efficiency(),
)
def test_mask_thresholds_are_their_exact_ratios_rounded_once(setting, eff):
    rho, p1 = Fraction(setting.rho), Fraction(setting.p1)
    bayesian = bayesian_mask_condition(setting, BASELINE)
    assert bayesian.threshold == float(rho * (1 - rho) * (1 - p1))
    efficiency = efficiency_analysis(eff, BASELINE)
    assert efficiency.use_beats_no_threshold == float(1 - Fraction(eff.a) * Fraction(eff.b))


def test_multiplayer_condition_is_decided_on_the_exact_inputs():
    # c_in/c_out and rho/(1-rho) round to the same float, but the exact ratio is smaller
    rho, costs = 0.805221830495954, MaskCosts(37.34756247377574, 154.3965255257777, 1.0, 1e6)
    result = multiplayer_so_condition(rho, costs)
    assert result.lhs == result.rhs
    assert Fraction(costs.c_in) / Fraction(costs.c_out) < Fraction(rho) / (1 - Fraction(rho))
    assert result.holds
