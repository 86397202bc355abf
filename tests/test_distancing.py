"""Tests for the distancing decision and meeting optimization."""

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from epigames import (
    CostBenefitFunction,
    Decision,
    DistancingParams,
    DomainError,
    MeetingDomain,
    curve_series,
    distancing_utility,
    extended_go_decision,
    group_infection_probability,
    objective_values,
    optimal_meeting,
    oracle,
    stay_home_decision,
    z_objective,
)

# September-2020 US estimates: mortality, active-case share, statistical life
US_MORTALITY = 0.034
US_ACTIVE_SHARE = 0.0077
US_LIFE_VALUE = 11.3e6


def us_params(benefit, home_cost, life_value=US_LIFE_VALUE):
    return DistancingParams(benefit, home_cost, US_MORTALITY, life_value, US_ACTIVE_SHARE)


ONE = CostBenefitFunction.constant(1.0)
ZERO = CostBenefitFunction.constant(0.0)
RISK_REL_TOL = Decimal(4 * sys.float_info.epsilon)


def reference_risk(rho, z):
    """1 - (1 - rho)^z to 50 significant digits, from the floats' exact values."""
    with localcontext() as ctx:
        ctx.prec = 50
        rho, z = Decimal(rho), Decimal(z)
        return 1 - ((1 - rho).ln() * z).exp() if rho < 1 else Decimal(1)


class TestDistancingUtility:
    def test_staying_home_costs_the_home_cost(self):
        assert distancing_utility(0.0, us_params(3000, 250)) == -250.0

    def test_risk_exactly_offsets_benefit(self):
        params = DistancingParams(
            0.0077 * 0.034 * 11.3e6, 0.0, 0.034, 11.3e6, 0.0077
        )
        assert distancing_utility(1.0, params) == 0.0

    def test_going_out_with_large_benefit(self):
        # 3000 - 0.0077 * 0.034 * 11.3e6 = 3000 - 2958.34
        assert distancing_utility(1.0, us_params(3000, 0)) == pytest.approx(41.7, abs=0.1)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 5000), st.floats(0, 5000))
    def test_utility_is_affine_with_boundary_optimum(self, p, mid, benefit, home_cost):
        assume(0 < mid < 1)
        params = us_params(benefit, home_cost)
        u0, u1 = distancing_utility(0.0, params), distancing_utility(1.0, params)
        assert distancing_utility(mid, params) == pytest.approx(
            u0 + mid * (u1 - u0), abs=1e-9
        )
        assert max(u0, u1) >= distancing_utility(p, params) - 1e-9


class TestStayHomeDecision:
    def test_life_value_multiplier_matches_risk_figures(self):
        # threshold on B + C = 1 is 1 / (rho * m)
        result = stay_home_decision(us_params(1.0, 0.0))
        assert result.life_value_threshold == pytest.approx(3819.7, abs=0.1)

    def test_modest_stakes_mean_staying_home(self):
        result = stay_home_decision(us_params(2000, 958))
        assert result.decision is Decision.STAY
        assert result.life_value_threshold < US_LIFE_VALUE

    def test_large_stakes_mean_going_out(self):
        assert stay_home_decision(us_params(3000, 0)).decision is Decision.GO

    def test_no_risk_always_goes_out(self):
        params = DistancingParams(10, 10, 0.034, 1e9, 0.0)
        result = stay_home_decision(params)
        assert result.decision is Decision.GO
        assert math.isinf(result.life_value_threshold)

    @pytest.mark.parametrize(
        "benefit, life_value, decision, threshold",
        [
            pytest.param(0.0, 1.0, Decision.STAY, 0.0, id="no-stakes"),
            pytest.param(1e-300, 1e24, Decision.STAY,
                         float(Fraction(1e-300) / (Fraction(5e-324) * Fraction(0.5))), id="finite-ratio"),
            pytest.param(1.0, 1e300, Decision.GO, math.inf, id="beyond-a-float"),
        ],
    )
    def test_threshold_agrees_with_the_decision_where_rho_m_rounds_to_zero(
        self, benefit, life_value, decision, threshold
    ):
        assert 5e-324 * 0.5 == 0  # the float product underflows; the exact one does not
        result = stay_home_decision(DistancingParams(benefit, 0.0, 0.5, life_value, 5e-324))
        assert result == (decision, threshold)
        assert (result.life_value_threshold < life_value) == (decision is Decision.STAY)

    @given(
        st.floats(1, 1e4),
        st.floats(0, 1e4),
        st.floats(1e-4, 1),
        st.floats(1e-4, 1),
        st.floats(1, 1e8),
        st.floats(0.001, 1000),
    )
    def test_decision_invariant_under_joint_rescaling(self, b, c, m, rho, life, k):
        base = DistancingParams(b, c, m, life, rho)
        decision = stay_home_decision(base)
        # keep clear of the razor edge where rescaling rounding could flip
        assume(abs(decision.life_value_threshold - life) > 1e-6 * life)
        scaled = DistancingParams(b * k, c * k, m, life * k, rho)
        assert stay_home_decision(scaled).decision is decision.decision


class TestGroupInfectionProbability:
    def test_unit_exposure_reduces_to_base_probability(self):
        prob = group_infection_probability(0.3, 1.0)
        assert prob == pytest.approx(0.3, abs=1e-12)

    def test_no_base_risk_means_no_risk(self):
        assert group_infection_probability(0.0, 100.0) == 0.0

    def test_six_contacts_at_us_prevalence(self):
        prob = group_infection_probability(0.0077, 6.0)
        assert prob == pytest.approx(0.0453, abs=1e-4)

    @given(st.floats(0, 1), st.floats(0.1, 100), st.floats(1.01, 2))
    def test_monotone_in_exposure_and_risk(self, rho, z, factor):
        base = group_infection_probability(rho, z)
        assert base <= group_infection_probability(rho, z * factor) + 1e-12
        if rho < 0.99:
            higher = group_infection_probability(min(1.0, rho * factor), z)
            assert base <= higher + 1e-12

    def test_saturates_at_large_exposure(self):
        assert group_infection_probability(0.2, 10_000.0) == pytest.approx(1.0)

    def test_certain_infection_at_full_risk(self):
        assert group_infection_probability(1.0, 0.1) == 1.0

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_exposure_must_be_positive(self, z):
        with pytest.raises(ValueError, match="exposure z must be positive"):
            group_infection_probability(0.1, z)

    @pytest.mark.parametrize(
        "z", [math.nan, math.inf, -math.inf, 10**400, -(10**400)],
        ids=["nan", "inf", "-inf", "10**400", "-10**400"],
    )
    def test_exposure_must_be_finite(self, z):
        with pytest.raises(ValueError, match="^exposure z must be positive and finite, got ") as info:
            group_infection_probability(0.1, z)
        assert len(str(info.value)) < 80  # an oversized int is described, not printed

    @given(st.floats(-12, 0), st.floats(0.1, 100))
    def test_matches_a_50_digit_reference(self, log10_rho, z):
        # rho log-uniform in [1e-12, 1]: 1 - (1-rho)^z computed directly loses
        # up to 8e-5 of its relative precision at small rho
        rho = 10.0**log10_rho
        exact = reference_risk(rho, z)
        for risk in (
            group_infection_probability(rho, z),
            1 / z_objective(z, ONE, ZERO, rho, 1.0),
        ):
            assert abs(Decimal(risk) - exact) <= exact * RISK_REL_TOL


class TestZObjective:
    def test_unit_exposure_matches_single_meeting_model(self):
        value = z_objective(
            1.0,
            CostBenefitFunction.constant(1000),
            CostBenefitFunction.constant(500),
            US_ACTIVE_SHARE,
            US_MORTALITY,
        )
        assert value == pytest.approx(5.73e6, abs=1e4)

    def test_small_exposure_limit_for_proportional_stakes(self):
        # (B + C)(z) = 15 z, and 1 - (1-rho)^z ~ -z ln(1-rho) as z -> 0
        value = z_objective(
            1e-6,
            CostBenefitFunction.linear(10, 0),
            CostBenefitFunction.linear(5, 0),
            US_ACTIVE_SHARE,
            US_MORTALITY,
        )
        limit = 15 / (-math.log(1 - US_ACTIVE_SHARE) * US_MORTALITY)
        assert value == pytest.approx(limit, rel=1e-3)

    @given(st.floats(0.1, 100), st.floats(0.001, 0.999), st.floats(0.001, 1))
    def test_composes_group_infection_probability(self, z, rho, m):
        benefit = CostBenefitFunction.linear(3, 10)
        cost = CostBenefitFunction.constant(5)
        direct = z_objective(z, benefit, cost, rho, m)
        composed = (benefit(z) + cost(z)) / (group_infection_probability(rho, z) * m)
        assert direct == pytest.approx(composed, rel=1e-12)

    def test_rejects_degenerate_inputs(self):
        benefit = CostBenefitFunction.constant(10)
        cost = CostBenefitFunction.constant(5)
        with pytest.raises(DomainError, match="infection probability"):
            z_objective(1.0, benefit, cost, 1.5, 0.034)
        with pytest.raises(DomainError, match="mortality"):
            z_objective(1.0, benefit, cost, 0.5, -0.5)
        with pytest.raises(DomainError, match="z must be positive"):
            z_objective(0.0, benefit, cost, 0.5, 0.5)

    @pytest.mark.parametrize("rho, m", [(0.0, 0.034), (0.5, 0.0), (0.0, 0.0)])
    def test_zero_risk_makes_the_stakes_unbounded(self, rho, m):
        benefit, cost = CostBenefitFunction.constant(0), CostBenefitFunction.linear(2, 1)
        assert z_objective(1.0, benefit, cost, rho, m) == math.inf
        optimum = optimal_meeting(benefit, cost, rho, m, MeetingDomain(0.5, 10.0, 20))
        assert optimum == (0.5, math.inf)  # every sample ties, so z_min wins


def _coefficient():
    return st.just(0.0) | st.floats(0, 1e6) | st.floats(0, sys.float_info.max)


# mostly linear functions of two plain coefficients, where the order of the additions shows
_FUNCTIONS = (
    st.builds(CostBenefitFunction.linear, st.floats(0, 1e6), st.floats(0, 1e6))
    | st.builds(CostBenefitFunction.linear, _coefficient(), _coefficient())
    | st.builds(CostBenefitFunction.constant, _coefficient())
)
# rho of 0, 1 and a subnormal, or log-uniform over (1e-300, 1]; m of 0, tiny or in (0, 1]
_RHOS = st.sampled_from([0.0, 1.0, 5e-324]) | st.floats(-300, 0).map(lambda e: 10.0**e)
_MORTALITIES = st.sampled_from([0.0, 1e-320]) | st.floats(0, 1, exclude_min=True)


@st.composite
def _domains(draw):
    z_min = draw(st.floats(1e-3, 99.9))
    z_max = draw(st.floats(z_min, 100).filter(lambda z: z > z_min))
    return MeetingDomain(z_min, z_max, draw(st.integers(1, 3000)))


def _point_by_point(zs, benefit, cost, rho, m):
    """The objective at each z through z_objective, or the DomainError text it raises."""
    try:
        return [z_objective(z, benefit, cost, rho, m) for z in zs]
    except DomainError as exc:
        return str(exc)


class TestObjectiveValues:
    """The scan's kernel repeats z_objective's float operations: bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_FUNCTIONS, _FUNCTIONS, _RHOS, _MORTALITIES, _domains())
    def test_equals_z_objective_bit_for_bit(self, benefit, cost, rho, m, domain):
        zs = domain.grid()
        expected = _point_by_point(zs, benefit, cost, rho, m)
        try:
            values = objective_values(zs, benefit, cost, rho, m)
        except DomainError as exc:
            assert str(exc) == expected
            return
        assert isinstance(expected, list)
        assert [v.hex() for v in values] == [v.hex() for v in expected]  # inf.hex() is 'inf'

    @settings(max_examples=300, deadline=None)
    @given(_FUNCTIONS, _FUNCTIONS, _RHOS, _MORTALITIES, _domains())
    def test_optimum_is_the_first_maximum_of_a_strict_scan(self, benefit, cost, rho, m, domain):
        zs = domain.grid()
        expected = _point_by_point(zs, benefit, cost, rho, m)
        assume(isinstance(expected, list))
        best_z, best_f = zs[0], expected[0]
        for z, f in zip(zs, expected):
            if f > best_f:
                best_z, best_f = z, f
        optimum = optimal_meeting(benefit, cost, rho, m, domain)
        assert optimum.z_star == best_z and optimum.value.hex() == best_f.hex()
        series = curve_series(benefit, cost, rho, m, domain)
        assert [(z, v.hex()) for z, v in series] == [(z, f.hex()) for z, f in zip(zs, expected)]

    @pytest.mark.parametrize(
        "rho, m, rule",
        [(0.0077, 1e-321, "nonzero risk"), (1.5, 0.034, "infection probability"), (0.5, -0.5, "mortality")],
        ids=["underflow", "rho", "m"],
    )
    def test_raises_what_z_objective_raises(self, rho, m, rule):
        domain = MeetingDomain(0.1, 100, 50)
        expected = _point_by_point(domain.grid(), ONE, ONE, rho, m)
        assert rule in expected
        for compute in (optimal_meeting, curve_series):
            with pytest.raises(DomainError) as info:
                compute(ONE, ONE, rho, m, domain)
            assert str(info.value) == expected


class TestOptimalMeeting:
    def test_constant_stakes_favor_the_shortest_meeting(self):
        domain = MeetingDomain(0.1, 100, 1000)
        benefit = CostBenefitFunction.constant(1000)
        cost = CostBenefitFunction.constant(500)
        result = optimal_meeting(benefit, cost, US_ACTIVE_SHARE, US_MORTALITY, domain)
        assert result.z_star == domain.z_min
        assert result.value == pytest.approx(
            z_objective(domain.z_min, benefit, cost, US_ACTIVE_SHARE, US_MORTALITY)
        )

    def test_proportional_stakes_favor_the_longest_meeting(self):
        domain = MeetingDomain(0.1, 100, 1000)
        result = optimal_meeting(
            CostBenefitFunction.linear(10, 0),
            CostBenefitFunction.linear(5, 0),
            US_ACTIVE_SHARE,
            US_MORTALITY,
            domain,
        )
        assert result.z_star == domain.z_max

    def test_mixed_stakes_agree_with_a_finer_grid(self):
        domain = MeetingDomain(0.1, 100, 500)
        benefit = CostBenefitFunction.linear(10, 0)
        cost = CostBenefitFunction.constant(500)
        result = optimal_meeting(benefit, cost, US_ACTIVE_SHARE, US_MORTALITY, domain)
        fine = oracle.grid_argmin(
            lambda z: -z_objective(z, benefit, cost, US_ACTIVE_SHARE, US_MORTALITY),
            domain.z_min,
            domain.z_max,
            10 * domain.grid_steps + 1,
        )
        coarse_step = (domain.z_max - domain.z_min) / domain.grid_steps
        assert abs(result.z_star - fine.x_star) <= coarse_step
        assert result.value >= -fine.f_star - 1e-9

    @given(st.floats(0.5, 20), st.floats(0, 300), st.floats(0.001, 0.5))
    def test_value_dominates_every_grid_sample(self, slope, constant, rho):
        domain = MeetingDomain(0.5, 60, 200)
        benefit = CostBenefitFunction.linear(slope, 0)
        cost = CostBenefitFunction.constant(constant)
        result = optimal_meeting(benefit, cost, rho, 0.1, domain)
        for z in domain.grid():
            assert result.value >= z_objective(z, benefit, cost, rho, 0.1) - 1e-9


    @given(
        st.data(),
        st.floats(1e-4, 1),
        st.floats(1e-3, 1),
        st.floats(1e-3, 99.9),
        st.integers(1, 500),
    )
    def test_optimum_is_a_window_endpoint(self, data, rho, m, z_min, steps):
        # the objective is quasi-convex for these two function kinds, so the
        # scan's maximum lies on an endpoint, which the grid holds exactly;
        # coefficients are 0 or >= 1e-6, so N(z) never drops to subnormal
        # floats, which carry no relative precision
        def coefficient(hi):
            return st.just(0.0) | st.floats(1e-6, hi)

        def function():
            return data.draw(
                st.builds(CostBenefitFunction.constant, coefficient(1e4))
                | st.builds(CostBenefitFunction.linear, coefficient(100), coefficient(1e4))
            )

        benefit, cost = function(), function()
        z_max = data.draw(st.floats(z_min, 100).filter(lambda z: z > z_min))
        domain = MeetingDomain(z_min, z_max, steps)
        result = optimal_meeting(benefit, cost, rho, m, domain)
        if result.z_star not in (domain.z_min, domain.z_max):
            # an inner sample wins only where the objective is flat to rounding
            # (e.g. slope 1e-9 on intercept 4096) and ties the better endpoint
            best = max(z_objective(z, benefit, cost, rho, m) for z in (z_min, z_max))
            assert result.value <= best * (1 + 1e-12)


class TestExtendedGoDecision:
    def test_huge_constant_stakes_go_at_minimum_exposure(self):
        domain = MeetingDomain(0.1, 100, 500)
        result = extended_go_decision(
            CostBenefitFunction.constant(5000),
            CostBenefitFunction.constant(0),
            US_ACTIVE_SHARE,
            US_MORTALITY,
            US_LIFE_VALUE,
            domain,
        )
        assert result.decision is Decision.GO
        assert result.z_star == domain.z_min

    def test_priceless_life_stays_home(self):
        result = extended_go_decision(
            CostBenefitFunction.constant(5000),
            CostBenefitFunction.constant(0),
            US_ACTIVE_SHARE,
            US_MORTALITY,
            1e15,
            MeetingDomain(0.1, 100, 500),
        )
        assert result == (Decision.STAY, None)

    def test_us_figures_with_modest_stakes_stay_home(self):
        # constant stakes of 2900 against an 11.3M life value; from one
        # person-hour up the objective tops out at 2900 * 3819.7 = 1.108e7
        result = extended_go_decision(
            CostBenefitFunction.constant(2900),
            CostBenefitFunction.constant(0),
            US_ACTIVE_SHARE,
            US_MORTALITY,
            US_LIFE_VALUE,
            MeetingDomain(1.0, 100, 1000),
        )
        assert result == (Decision.STAY, None)

    @given(st.floats(100, 1e6), st.floats(100, 1e6), st.floats(1e3, 1e12))
    def test_agrees_with_basic_decision_at_unit_exposure(self, b, c, life):
        # with constant stakes and the window pinned at z = 1 the meeting
        # model reduces to the single-outing decision
        params = DistancingParams(b, c, US_MORTALITY, life, US_ACTIVE_SHARE)
        basic = stay_home_decision(params)
        assume(abs(basic.life_value_threshold - life) > 1e-6 * life)
        extended = extended_go_decision(
            CostBenefitFunction.constant(b),
            CostBenefitFunction.constant(c),
            US_ACTIVE_SHARE,
            US_MORTALITY,
            life,
            MeetingDomain(1.0, 100, 200),
        )
        assert extended.decision is basic.decision


class TestCurveSeries:
    def test_series_has_grid_steps_plus_one_samples(self):
        domain = MeetingDomain(0.1, 100, 250)
        series = curve_series(
            CostBenefitFunction.constant(10),
            CostBenefitFunction.constant(5),
            0.01,
            0.1,
            domain,
        )
        assert len(series) == domain.grid_steps + 1
        assert series[0][0] == domain.z_min
        assert series[-1][0] == domain.z_max

    def test_first_sample_matches_direct_evaluation(self):
        domain = MeetingDomain(0.2, 50, 100)
        benefit = CostBenefitFunction.linear(2, 1)
        cost = CostBenefitFunction.constant(5)
        series = curve_series(benefit, cost, 0.05, 0.2, domain)
        assert series[0][1] == z_objective(domain.z_min, benefit, cost, 0.05, 0.2)

    def test_constant_stakes_series_strictly_decreases(self):
        series = curve_series(
            CostBenefitFunction.constant(10),
            CostBenefitFunction.constant(5),
            0.01,
            0.1,
            MeetingDomain(0.1, 100, 250),
        )
        values = [value for _, value in series]
        assert all(earlier > later for earlier, later in zip(values, values[1:]))


def _grid_from_scratch(z_min, z_max, steps):
    width = (z_max - z_min) / steps
    return (*(z_min + k * width for k in range(steps)), z_max)


class TestMeetingGrid:
    def test_grid_is_built_once_and_shared(self):
        domain = MeetingDomain(0.1, 100, 250)
        assert domain.grid() is domain.grid()
        assert domain.grid() == _grid_from_scratch(0.1, 100, 250)

    @pytest.mark.parametrize("changes", [{}, {"grid_steps": 500}, {"z_min": 0.5}], ids=repr)
    def test_replace_builds_a_fresh_grid_equal_to_one_built_from_scratch(self, changes):
        domain = MeetingDomain(0.1, 100, 250)
        shared = domain.grid()
        replaced = domain.replace(**changes)
        assert replaced.grid() is not shared
        assert replaced.grid() == _grid_from_scratch(replaced.z_min, replaced.z_max, replaced.grid_steps)
        assert domain.grid() is shared

    def test_kept_grid_leaves_equality_hash_and_repr_alone(self):
        used, fresh = MeetingDomain(0.1, 100, 250), MeetingDomain(0.1, 100, 250)
        used.grid()
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert used.replace(grid_steps=250) == fresh


class TestInputTypes:
    def test_meeting_domain_bounds(self):
        with pytest.raises(ValueError, match="z_min < z_max"):
            MeetingDomain(5, 5)
        with pytest.raises(ValueError, match="z_max <= 100"):
            MeetingDomain(1, 200)
        with pytest.raises(ValueError, match="grid_steps"):
            MeetingDomain(1, 10, 0)

    def test_cost_benefit_function_validation(self):
        with pytest.raises(ValueError, match="kind"):
            CostBenefitFunction("quadratic", 1, 1)
        with pytest.raises(ValueError, match="non-negative"):
            CostBenefitFunction.linear(-1, 0)
        with pytest.raises(ValueError, match="slope"):
            CostBenefitFunction("constant", 1, 1)

    def test_cost_benefit_function_encoding_round_trips(self):
        fn = CostBenefitFunction.linear(0.1, 2.5)
        assert fn.encode() == "linear:0.1,2.5"
        assert CostBenefitFunction.constant(4).encode() == "constant:4.0"

    @given(
        st.one_of(
            st.floats(0, sys.float_info.max).map(CostBenefitFunction.constant),
            st.builds(
                CostBenefitFunction.linear,
                st.floats(0, sys.float_info.max),
                st.floats(0, sys.float_info.max),
            ),
        )
    )
    def test_parse_reads_back_encode(self, fn):
        assert CostBenefitFunction.parse(fn.encode()) == fn

    @pytest.mark.parametrize(
        "text, message",
        [
            ("quadratic:1", "expected 'constant:k' or 'linear:slope,intercept'"),
            ("constant 1", "expected 'constant:k'"),
            ("constant:one", "malformed coefficients"),
            ("constant:1,2", "constant takes exactly one coefficient"),
            ("linear:1", "linear takes exactly two coefficients"),
            ("linear:-1,0", "non-negative"),
        ],
    )
    def test_parse_names_what_is_wrong(self, text, message):
        with pytest.raises(ValueError, match=message):
            CostBenefitFunction.parse(text)

    def test_distancing_params_ranges(self):
        with pytest.raises(ValueError, match="mortality"):
            DistancingParams(1, 1, 1.5, 1, 0.5)
        with pytest.raises(ValueError, match="non-negative"):
            DistancingParams(-1, 1, 0.5, 1, 0.5)
