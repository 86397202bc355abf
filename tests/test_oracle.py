"""Tests for the brute-force verifiers themselves."""

import math
from fractions import Fraction

import pytest

from epigames import ActionSet, CostTable, DomainError, StrategyProfile, oracle

MASK_ACTIONS = ActionSet(("no", "out", "in"))

BOTH_SUSCEPTIBLE = CostTable(
    MASK_ACTIONS,
    MASK_ACTIONS,
    (
        ((0, 0), (0, 1), (0, 10)),
        ((1, 0), (1, 1), (1, 10)),
        ((10, 0), (10, 1), (10, 10)),
    ),
)

# Mismatched preferences in the style of matching pennies: every profile
# leaves exactly one player wanting to switch, so no pure equilibrium exists.
# (0,0): p2 switches (1 -> 0); (0,1): p1 switches; (1,1): p2; (1,0): p1.
CYCLING = CostTable(
    ActionSet(("a", "b")),
    ActionSet(("x", "y")),
    (((0, 1), (1, 0)), ((1, 0), (0, 1))),
)


class TestEnumeratePureNe:
    def test_susceptible_pair_game(self):
        assert oracle.enumerate_pure_ne(BOTH_SUSCEPTIBLE) == [StrategyProfile(0, 0)]

    def test_cycling_game_has_no_pure_equilibrium(self):
        assert oracle.enumerate_pure_ne(CYCLING) == []

    def test_single_profile_game(self):
        game = CostTable(ActionSet(("only",)), ActionSet(("only",)), (((2, 9),),))
        assert oracle.enumerate_pure_ne(game) == [StrategyProfile(0, 0)]


class TestEnumerateDominant:
    def test_no_mask_dominates_for_a_susceptible_pair(self):
        assert oracle.enumerate_dominant(BOTH_SUSCEPTIBLE, 1) == [0]
        assert oracle.enumerate_dominant(BOTH_SUSCEPTIBLE, 2) == [0]

    def test_cycling_game_has_no_dominant_action(self):
        assert oracle.enumerate_dominant(CYCLING, 1) == []
        assert oracle.enumerate_dominant(CYCLING, 2) == []

    def test_ties_keep_every_tied_action(self):
        flat = CostTable(ActionSet(("a", "b")), ActionSet(("x",)), (((5, 1),), ((5, 2),)))
        assert oracle.enumerate_dominant(flat, 1) == [0, 1]
        assert oracle.enumerate_dominant(flat, 2) == [0]

    def test_player_must_be_one_or_two(self):
        with pytest.raises(ValueError, match="player must be 1 or 2"):
            oracle.enumerate_dominant(CYCLING, 0)


class TestGridArgmin:
    def test_quadratic_minimum_found_within_one_step(self):
        point = oracle.grid_argmin(lambda x: x * x, -1.0, 1.0, 2001)
        assert abs(point.x_star) <= 1e-3
        assert point.f_star == pytest.approx(0.0, abs=1e-6)

    def test_decreasing_function_picks_upper_end(self):
        point = oracle.grid_argmin(lambda x: -x, 0.0, 5.0, 11)
        assert point.x_star == 5.0

    def test_ties_break_toward_smaller_x(self):
        point = oracle.grid_argmin(lambda x: 1.0, 0.0, 1.0, 5)
        assert point.x_star == 0.0

    def test_non_finite_value_names_the_sample(self):
        with pytest.raises(DomainError, match="x=0.5"):
            oracle.grid_argmin(lambda x: math.nan if x == 0.5 else x, 0.0, 1.0, 3)

    def test_infinite_values_tie_toward_smaller_x(self):
        point = oracle.grid_argmin(lambda x: -math.inf, 0.0, 1.0, 5)
        assert point == (0.0, -math.inf)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="lo < hi"):
            oracle.grid_argmin(lambda x: x, 1.0, 0.0, 10)
        with pytest.raises(ValueError, match="2 samples"):
            oracle.grid_argmin(lambda x: x, 0.0, 1.0, 1)


class TestCheckAffine:
    def test_straight_line_passes(self):
        assert oracle.check_affine(lambda x: 3 * x - 2, Fraction(0), Fraction(2, 5), Fraction(1))

    def test_constant_passes(self):
        assert oracle.check_affine(lambda x: Fraction(7), Fraction(-1), Fraction(0), Fraction(2))

    def test_parabola_fails(self):
        assert not oracle.check_affine(lambda x: x * x, Fraction(0), Fraction(1, 2), Fraction(1))

    def test_line_one_ulp_off_at_its_midpoint_fails(self):
        def line(x):
            return Fraction(math.nextafter(0.5, 1.0)) if x == Fraction(1, 2) else x

        assert not oracle.check_affine(line, Fraction(0), Fraction(1, 2), Fraction(1))

    def test_sample_points_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            oracle.check_affine(lambda x: x, Fraction(0), Fraction(0), Fraction(1))
