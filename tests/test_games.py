"""Tests for the normal-form game core."""

import pytest
from hypothesis import given, strategies as st

from conftest import restrict
from epigames import (
    ActionSet,
    CostTable,
    StrategyProfile,
    best_responses,
    dominant_actions,
    oracle,
    pure_nash_equilibria,
    social_optima,
    solve,
)

MASK_ACTIONS = ActionSet(("no", "out", "in"))

# Meeting game between two susceptible players with c_out=1, c_in=10:
# each player just pays her own mask price.
BOTH_SUSCEPTIBLE = CostTable(
    MASK_ACTIONS,
    MASK_ACTIONS,
    (
        ((0, 0), (0, 1), (0, 10)),
        ((1, 0), (1, 1), (1, 10)),
        ((10, 0), (10, 1), (10, 10)),
    ),
)

# Susceptible row player versus infected column player with c_i=1000: the
# row player is infected (pays 1000) unless she wears "in" or the column
# player wears "out"; the column player always carries the 1000.
ONE_INFECTED = CostTable(
    MASK_ACTIONS,
    MASK_ACTIONS,
    (
        ((1000, 1000), (0, 1001), (1000, 1010)),
        ((1001, 1000), (1, 1001), (1001, 1010)),
        ((10, 1000), (10, 1001), (10, 1010)),
    ),
)

SINGLE = CostTable(ActionSet(("only",)), ActionSet(("only",)), (((3, 7),),))

FLAT = CostTable(
    ActionSet(("a", "b")), ActionSet(("x", "y")), (((5, 5), (5, 5)), ((5, 5), (5, 5)))
)


def small_cost_tables(max_costs=1000):
    """Random tables up to 4x4 with integer costs (exact float arithmetic)."""
    labels = ["a1", "a2", "a3", "a4"]
    cost = st.integers(0, max_costs).map(float)
    return st.integers(1, 4).flatmap(
        lambda n1: st.integers(1, 4).flatmap(
            lambda n2: st.lists(
                st.lists(st.tuples(cost, cost), min_size=n2, max_size=n2),
                min_size=n1,
                max_size=n1,
            ).map(
                lambda rows: CostTable(
                    ActionSet(tuple(labels[:n1])),
                    ActionSet(tuple(labels[:n2])),
                    tuple(tuple(row) for row in rows),
                )
            )
        )
    )


class TestValidation:
    def test_action_set_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one action"):
            ActionSet(())

    def test_action_set_rejects_duplicates(self):
        with pytest.raises(ValueError, match="unique"):
            ActionSet(("no", "no"))

    def test_cost_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="entries"):
            CostTable(ActionSet(("a",)), ActionSet(("x", "y")), (((1, 1),),))

    def test_cost_table_rejects_negative_costs(self):
        with pytest.raises(ValueError, match="non-negative"):
            CostTable(ActionSet(("a",)), ActionSet(("x",)), (((-1, 0),),))

    def test_cost_table_rejects_non_finite_costs(self):
        with pytest.raises(ValueError, match="finite"):
            CostTable(ActionSet(("a",)), ActionSet(("x",)), (((float("inf"), 0),),))

    def test_player_must_be_one_or_two(self):
        with pytest.raises(ValueError, match="player"):
            dominant_actions(FLAT, 3)

    def test_opponent_action_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            best_responses(FLAT, 1, 5)


class TestPureNash:
    def test_both_susceptible_has_unique_maskless_equilibrium(self):
        assert pure_nash_equilibria(BOTH_SUSCEPTIBLE) == [StrategyProfile(0, 0)]

    def test_one_infected_equilibrium_is_in_versus_no(self):
        assert pure_nash_equilibria(ONE_INFECTED) == [StrategyProfile(2, 0)]

    def test_single_profile_game_is_trivially_stable(self):
        assert pure_nash_equilibria(SINGLE) == [StrategyProfile(0, 0)]


class TestSocialOptima:
    def test_both_susceptible_socially_optimal_maskless(self):
        assert social_optima(BOTH_SUSCEPTIBLE) == [StrategyProfile(0, 0)]

    def test_one_infected_optimum_puts_cheap_mask_on_the_infected(self):
        assert social_optima(ONE_INFECTED) == [StrategyProfile(0, 1)]

    def test_flat_game_ties_everywhere(self):
        assert social_optima(FLAT) == list(FLAT.profiles())


class TestDominance:
    def test_infected_player_weakly_prefers_no_mask(self):
        assert dominant_actions(ONE_INFECTED, 2) == [0]

    def test_tied_actions_are_all_dominant(self):
        assert dominant_actions(FLAT, 1) == [0, 1]


class TestBestResponses:
    def test_susceptible_best_response_to_maskless_infected_is_in(self):
        assert best_responses(ONE_INFECTED, 1, 0) == [2]

    def test_maskless_is_best_in_every_susceptible_column(self):
        for j in range(3):
            assert best_responses(BOTH_SUSCEPTIBLE, 1, j) == [0]
        for i in range(3):
            assert best_responses(BOTH_SUSCEPTIBLE, 2, i) == [0]

    def test_flat_game_ties_all_actions(self):
        assert best_responses(FLAT, 2, 0) == [0, 1]


class TestRestrict:
    def test_restriction_by_label_keeps_costs(self):
        sub = restrict(BOTH_SUSCEPTIBLE, ["out"], ["out"])
        assert sub.actions_p1.labels == ("out",)
        assert sub.pair(0, 0) == (1, 1)
        assert pure_nash_equilibria(sub) == [StrategyProfile(0, 0)]

    def test_restriction_by_index(self):
        sub = restrict(ONE_INFECTED, [0, 2], [0])
        assert sub.pair(1, 0) == (10, 1000)


def test_solve_bundles_the_individual_solvers():
    report = solve(ONE_INFECTED)
    assert report.pure_nash == (StrategyProfile(2, 0),)
    assert report.social_optima == (StrategyProfile(0, 1),)
    assert report.dominant_p1 == ()
    assert report.dominant_p2 == (0,)


@given(small_cost_tables())
def test_equilibria_agree_with_exhaustive_enumeration(game):
    assert pure_nash_equilibria(game) == oracle.enumerate_pure_ne(game)


@given(small_cost_tables())
def test_equilibria_are_sound_and_complete(game):
    reported = set(pure_nash_equilibria(game))
    for i, j in game.profiles():
        stable = i in best_responses(game, 1, j) and j in best_responses(game, 2, i)
        assert ((i, j) in reported) == stable


@given(small_cost_tables())
def test_social_optima_are_minimal(game):
    optima = social_optima(game)
    best = min(sum(game.pair(*p)) for p in game.profiles())
    assert optima
    for profile in optima:
        assert sum(game.pair(*profile)) <= best + 1e-9


@given(st.one_of(small_cost_tables(), small_cost_tables(max_costs=2)))  # few cost values, many ties
def test_dominant_actions_agree_with_pairwise_enumeration(game):
    for player in (1, 2):
        assert dominant_actions(game, player) == oracle.enumerate_dominant(game, player)


@given(small_cost_tables(), st.integers(1, 10**6).map(float), st.sampled_from([1, 2]))
def test_constant_shift_of_one_player_preserves_solutions(game, shift, player):
    shifted = CostTable(
        game.actions_p1,
        game.actions_p2,
        tuple(
            tuple(
                (c1 + shift, c2) if player == 1 else (c1, c2 + shift)
                for c1, c2 in row
            )
            for row in game.costs
        ),
    )
    assert pure_nash_equilibria(shifted) == pure_nash_equilibria(game)
    for p in (1, 2):
        assert dominant_actions(shifted, p) == dominant_actions(game, p)
