"""Tests for the mask-choice games and analyses."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import mask_costs_with_gaps, probabilities
from epigames import (
    BayesianSetting,
    EfficiencyParams,
    HealthStatus,
    MaskCosts,
    StrategyProfile,
    bayesian_expected_cost,
    bayesian_mask_condition,
    cli,
    efficiency_analysis,
    efficiency_expected_cost,
    multiplayer_so_condition,
    oracle,
    pair_game,
    pure_nash_equilibria,
)

S = HealthStatus.SUSCEPTIBLE
I = HealthStatus.INFECTED

statuses = st.sampled_from([S, I])


class TestMaskCosts:
    def test_rejects_inverted_mask_prices(self):
        with pytest.raises(ValueError, match="c_out < c_in"):
            MaskCosts(10, 1, 5, 1000)

    def test_rejects_infection_cheaper_than_mask(self):
        with pytest.raises(ValueError, match="c_use < c_infection"):
            MaskCosts(1, 10, 2000, 1000)

    def test_rejects_negative_prices(self):
        with pytest.raises(ValueError):
            MaskCosts(-1, 10, 100, 1000)

    def test_accepts_zero_out_and_use_after_subsidy(self):
        costs = MaskCosts(0.0, 10, 0.0, 1000)
        assert costs.c_out == 0.0 and costs.c_use == 0.0


class TestPairGame:
    def test_both_susceptible_table_entries(self, base_costs):
        game = pair_game(S, S, base_costs)
        assert game.costs == (
            ((0, 0), (0, 1), (0, 10)),
            ((1, 0), (1, 1), (1, 10)),
            ((10, 0), (10, 1), (10, 10)),
        )

    def test_one_infected_table_entries(self, base_costs):
        game = pair_game(S, I, base_costs)
        assert game.costs == (
            ((1000, 1000), (0, 1001), (1000, 1010)),
            ((1001, 1000), (1, 1001), (1001, 1010)),
            ((10, 1000), (10, 1001), (10, 1010)),
        )

    def test_both_infected_is_susceptible_table_plus_constant(self, base_costs):
        susceptible = pair_game(S, S, base_costs)
        infected = pair_game(I, I, base_costs)
        ci = base_costs.c_infection
        for i in range(3):
            for j in range(3):
                c1, c2 = susceptible.pair(i, j)
                assert infected.pair(i, j) == (c1 + ci, c2 + ci)
        assert pure_nash_equilibria(infected) == pure_nash_equilibria(susceptible)

    @given(statuses, statuses, mask_costs_with_gaps())
    def test_swapping_players_transposes_the_game(self, s1, s2, costs):
        game = pair_game(s1, s2, costs)
        swapped = pair_game(s2, s1, costs)
        for i in range(3):
            for j in range(3):
                c1, c2 = game.pair(i, j)
                assert swapped.pair(j, i) == (c2, c1)


class TestBayesianExpectedCost:
    def test_no_risk_no_mask_costs_nothing(self, base_costs):
        assert bayesian_expected_cost(BayesianSetting(0.0, 0.7), 0.0, base_costs) == 0.0

    def test_always_masking_at_even_odds(self, base_costs):
        # 0.5*[0.5*100 + 0.5*100] + 0.5*(1000 + 100) = 50 + 550
        value = bayesian_expected_cost(BayesianSetting(0.5, 0.5), 1.0, base_costs)
        assert value == pytest.approx(600.0, abs=1e-9)

    def test_never_masking_against_maskless_crowd(self, base_costs):
        # rho*(2 - rho)*c_infection at rho=1/2
        value = bayesian_expected_cost(BayesianSetting(0.5, 0.0), 0.0, base_costs)
        assert value == pytest.approx(750.0, abs=1e-9)

    def test_rejects_probability_out_of_range(self, base_costs):
        with pytest.raises(ValueError, match="p2"):
            bayesian_expected_cost(BayesianSetting(0.5, 0.5), 1.5, base_costs)

    @given(probabilities(), probabilities(), mask_costs_with_gaps())
    def test_cost_is_affine_in_own_probability(self, rho, p1, costs):
        setting, costs = cli._exact(BayesianSetting(rho, p1)), cli._exact(costs)
        assert oracle.check_affine(
            lambda p2: bayesian_expected_cost(setting, p2, costs), Fraction(0), Fraction(37, 100), Fraction(1)
        )


class TestBayesianCondition:
    def test_even_odds_threshold_is_one_eighth(self, base_costs):
        condition = bayesian_mask_condition(BayesianSetting(0.5, 0.5), base_costs)
        assert condition.threshold == pytest.approx(0.125, abs=1e-15)
        assert condition.wear  # 100 / 1000 < 0.125

    def test_no_infection_risk_means_no_mask(self, base_costs):
        condition = bayesian_mask_condition(BayesianSetting(0.0, 0.5), base_costs)
        assert condition.threshold == 0.0
        assert not condition.wear

    def test_maskless_crowd_raises_threshold(self, base_costs):
        condition = bayesian_mask_condition(BayesianSetting(0.5, 0.0), base_costs)
        assert condition.threshold == pytest.approx(0.25, abs=1e-15)

    def test_best_probability_sits_on_the_cheap_side(self):
        setting = BayesianSetting(0.5, 0.5)
        assert bayesian_mask_condition(setting, MaskCosts(1, 10, 100, 1000)).wear
        assert not bayesian_mask_condition(setting, MaskCosts(1, 10, 200, 1000)).wear
        assert not bayesian_mask_condition(BayesianSetting(0.0, 0.5), MaskCosts(1, 10, 100, 1000)).wear

    def test_exact_indifference_resolves_to_no_mask(self):
        # threshold is exactly 1/8, and 125/1000 is exactly 1/8 as well
        setting = BayesianSetting(0.5, 0.5)
        assert not bayesian_mask_condition(setting, MaskCosts(1, 10, 125, 1000)).wear

    @given(probabilities(), probabilities(), mask_costs_with_gaps())
    def test_decision_matches_endpoint_comparison(self, rho, p1, costs):
        setting = BayesianSetting(rho, p1)
        at_one = bayesian_expected_cost(setting, 1.0, costs)
        at_zero = bayesian_expected_cost(setting, 0.0, costs)
        if abs(at_one - at_zero) > 1e-9:
            assert bayesian_mask_condition(setting, costs).wear == (at_one < at_zero)


def efficiency_params(cap=1.0):
    return st.floats(0.0, cap).flatmap(
        lambda a: st.floats(a, cap).map(lambda b: EfficiencyParams(a, b))
    )


class TestEfficiencyCost:
    def test_maskless_meeting_costs_the_infection(self, base_costs):
        assert efficiency_expected_cost(0.0, EfficiencyParams(), base_costs) == 1000.0

    def test_full_masking_with_default_efficiencies(self, base_costs):
        # c_use + c_infection * (1/3) * (2/3) = 100 + 2000/9
        value = efficiency_expected_cost(1.0, EfficiencyParams(), base_costs)
        assert value == pytest.approx(100 + 2000 / 9, abs=1e-9)

    def test_half_masking_with_default_efficiencies(self, base_costs):
        # 0.25*(100 + 2000/9) + 0.25*(100 + 1000/3) + 0.25*(2000/3) + 0.25*1000
        value = efficiency_expected_cost(0.5, EfficiencyParams(), base_costs)
        assert value == pytest.approx(605.56, abs=0.01)

    @given(efficiency_params(cap=0.9), mask_costs_with_gaps())
    def test_second_difference_matches_closed_form_curvature(self, eff, costs):
        h = 0.25
        second = (
            efficiency_expected_cost(0.75, eff, costs)
            - 2 * efficiency_expected_cost(0.5, eff, costs)
            + efficiency_expected_cost(0.25, eff, costs)
        ) / (h * h)
        expected = 2 * costs.c_infection * (1 - eff.a) * (1 - eff.b)
        assert second == pytest.approx(expected, rel=1e-6, abs=1e-6)


class TestEfficiencyAnalysis:
    def test_default_efficiencies_reproduce_known_constants(self, base_costs):
        result = efficiency_analysis(EfficiencyParams(), base_costs)
        assert result.use_beats_no_threshold == pytest.approx(7 / 9, abs=1e-12)
        assert result.second_derivative == pytest.approx((4 / 9) * 1000, rel=1e-12)
        assert result.stationary_p == pytest.approx(2.025, rel=1e-12)
        assert result.best_p == 1.0
        assert result.use_beats_no and not result.degenerate

    def test_boundary_price_leaves_endpoints_tied(self, base_costs):
        # c_use / c_infection exactly at the break-even ratio 1 - a*b
        eff = EfficiencyParams(1 / 3, 2 / 3)
        costs = MaskCosts(1, 10, 1000 * (1 - (1 / 3) * (2 / 3)), 1000)
        result = efficiency_analysis(eff, costs)
        assert not result.use_beats_no
        at_zero = efficiency_expected_cost(0.0, eff, costs)
        at_one = efficiency_expected_cost(1.0, eff, costs)
        assert at_one == pytest.approx(at_zero, rel=1e-12)

    def test_perfect_masks_still_leave_interior_optimum(self, base_costs):
        # with a = b = 0 the cost is p*c_use + (1-p)^2*c_infection, whose
        # minimum sits at p = 1 - c_use/(2 c_infection) = 0.95
        result = efficiency_analysis(EfficiencyParams(0.0, 0.0), base_costs)
        assert result.use_beats_no_threshold == 1.0
        assert result.stationary_p == pytest.approx(0.95, abs=1e-12)
        assert result.best_p == pytest.approx(0.95, abs=1e-12)
        grid = oracle.grid_argmin(
            lambda p: efficiency_expected_cost(p, EfficiencyParams(0.0, 0.0), base_costs),
            0.0,
            1.0,
            10_001,
        )
        assert abs(grid.x_star - result.best_p) <= 1e-4

    def test_useless_masks_degenerate_to_never_wearing(self, base_costs):
        result = efficiency_analysis(EfficiencyParams(1.0, 1.0), base_costs)
        assert result.degenerate
        assert result.stationary_p is None
        assert result.second_derivative == 0.0
        assert result.best_p == 0.0

    def test_one_sided_mask_degenerate_but_worth_wearing(self):
        # b=1 keeps the cost affine; slope c_use - c_infection/2 < 0 here
        result = efficiency_analysis(EfficiencyParams(0.0, 1.0), MaskCosts(1, 10, 100, 1000))
        assert result.degenerate and result.best_p == 1.0

    @given(efficiency_params(cap=0.999), mask_costs_with_gaps())
    def test_best_probability_agrees_with_grid_search(self, eff, costs):
        result = efficiency_analysis(eff, costs)
        grid = oracle.grid_argmin(
            lambda p: efficiency_expected_cost(p, eff, costs), 0.0, 1.0, 1001
        )
        assert abs(grid.x_star - result.best_p) <= 1e-3


class TestMultiplayer:
    def test_condition_fails_at_even_infection_share(self, base_costs):
        result = multiplayer_so_condition(0.5, base_costs)
        assert (result.holds, result.lhs) == (False, 10.0)
        assert result.rhs == pytest.approx(1.0)

    def test_condition_holds_when_most_players_infected(self, base_costs):
        result = multiplayer_so_condition(0.95, base_costs)
        assert result.holds and result.rhs == pytest.approx(19.0, abs=1e-9)

    def test_no_infection_never_satisfies_condition(self, base_costs):
        result = multiplayer_so_condition(0.0, base_costs)
        assert not result.holds and result.rhs == 0.0

    def test_certain_infection_reported_as_unbounded(self, base_costs):
        result = multiplayer_so_condition(1.0, base_costs)
        assert result.holds and math.isinf(result.rhs)

    @given(st.floats(0.0, 0.999), mask_costs_with_gaps())
    def test_condition_is_direct_recomputation(self, rho, costs):
        result = multiplayer_so_condition(rho, costs)
        exact = Fraction(rho)
        assert result.holds == (Fraction(costs.c_in) / Fraction(costs.c_out) < exact / (1 - exact))
