"""Two-player normal-form games recorded as per-profile cost pairs.

Entries are costs and are minimized: a profile is better for a player when
her coordinate is smaller.  A table holds each entry as the ``Fraction`` it
denotes, so the solvers compare costs exactly, return every tied solution and
enumerate profiles in row-major order: output is deterministic and reproducible.
An action is dominant, in the weak sense, when it is a best response to every
opponent action: a tie with an alternative does not break dominance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple

from .value import Value


class StrategyProfile(NamedTuple):
    """One action index per player."""

    action_p1: int
    action_p2: int


class ActionSet(Value):
    """Ordered, unique action labels for one player."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("an action set needs at least one action")
        if len(set(labels)) != len(labels):
            raise ValueError(f"action labels must be unique, got {labels!r}")

    def __len__(self) -> int:
        return len(self.labels)


class CostTable(Value):
    """A total cost table over the action cross-product of two players.

    ``costs[i][j]`` is the pair ``(cost_p1, cost_p2)`` for player 1 playing
    her ``i``-th action against player 2's ``j``-th action.  Every entry must
    be a finite, non-negative real, and is kept as the ``Fraction`` it denotes.
    """

    actions_p1: ActionSet
    actions_p2: ActionSet
    costs: tuple[tuple[tuple[Fraction, Fraction], ...], ...]

    def __post_init__(self) -> None:
        n1, n2 = len(self.actions_p1), len(self.actions_p2)
        if len(self.costs) != n1:
            raise ValueError(f"cost table has {len(self.costs)} rows, expected {n1}")
        rows = []
        for i, row in enumerate(self.costs):
            if len(row) != n2:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n2}")
            cells = []
            for j, cell in enumerate(row):
                if not all(0 <= c < math.inf for c in cell):  # nan fails every comparison
                    raise ValueError(
                        f"cost entry at profile ({i}, {j}) must be finite and"
                        f" non-negative, got {cell!r}"
                    )
                cells.append((Fraction(cell[0]), Fraction(cell[1])))
            rows.append(tuple(cells))
        object.__setattr__(self, "costs", tuple(rows))

    @property
    def n1(self) -> int:
        return len(self.actions_p1)

    @property
    def n2(self) -> int:
        return len(self.actions_p2)

    def pair(self, i: int, j: int) -> tuple[Fraction, Fraction]:
        """Cost pair at profile (i, j)."""
        return self.costs[i][j]

    def profiles(self) -> Iterator[StrategyProfile]:
        """All profiles in row-major order."""
        for i in range(self.n1):
            for j in range(self.n2):
                yield StrategyProfile(i, j)

    def profile_labels(self, profile: StrategyProfile) -> tuple[str, str]:
        return (
            self.actions_p1.labels[profile.action_p1],
            self.actions_p2.labels[profile.action_p2],
        )


class SolutionReport(Value):
    """Bundle of pure equilibria, social optima, and weakly dominant actions."""

    pure_nash: tuple[StrategyProfile, ...]
    social_optima: tuple[StrategyProfile, ...]
    dominant_p1: tuple[int, ...]
    dominant_p2: tuple[int, ...]


def _check_player(player: int) -> None:
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")


def best_responses(game: CostTable, player: int, opponent_action: int) -> list[int]:
    """Actions minimizing the player's cost against a fixed opponent action.

    All actions at the minimum are returned, in index order.
    """
    _check_player(player)
    n_own = game.n1 if player == 1 else game.n2
    n_opp = game.n2 if player == 1 else game.n1
    if not 0 <= opponent_action < n_opp:
        raise ValueError(f"opponent action {opponent_action} out of range [0, {n_opp})")
    if player == 1:
        own = [game.costs[a][opponent_action][0] for a in range(n_own)]
    else:
        own = [game.costs[opponent_action][a][1] for a in range(n_own)]
    floor = min(own)
    return [a for a, c in enumerate(own) if c == floor]


def pure_nash_equilibria(game: CostTable) -> list[StrategyProfile]:
    """All profiles where no unilateral deviation lowers own cost."""
    br1 = [set(best_responses(game, 1, j)) for j in range(game.n2)]
    br2 = [set(best_responses(game, 2, i)) for i in range(game.n1)]
    return [p for p in game.profiles() if p.action_p1 in br1[p.action_p2] and p.action_p2 in br2[p.action_p1]]


def social_optima(game: CostTable) -> list[StrategyProfile]:
    """All profiles whose total cost is the global minimum."""
    sums = {p: sum(game.pair(*p)) for p in game.profiles()}
    floor = min(sums.values())
    return [p for p in game.profiles() if sums[p] == floor]


def dominant_actions(game: CostTable, player: int) -> list[int]:
    """The actions that are a best response to every opponent action, in index order."""
    n_opp = game.n2 if player == 1 else game.n1
    responses = [best_responses(game, player, o) for o in range(n_opp)]
    return [a for a in responses[0] if all(a in r for r in responses)]


def solve(game: CostTable) -> SolutionReport:
    """Full solution bundle: pure equilibria, social optima, each player's dominant actions."""
    return SolutionReport(
        pure_nash=tuple(pure_nash_equilibria(game)),
        social_optima=tuple(social_optima(game)),
        dominant_p1=tuple(dominant_actions(game, 1)),
        dominant_p2=tuple(dominant_actions(game, 2)),
    )
