"""Brute-force verifiers for cross-checking analytic results.

Shipped (not test-only) so the CLI can cross-check analytic and exhaustive
paths at runtime via ``--verify``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import DomainError
from .games import CostTable, StrategyProfile, _check_player


def enumerate_pure_ne(game: CostTable) -> list[StrategyProfile]:
    """Enumerate pure equilibria by exhaustive unilateral-deviation testing.

    Independent of the analytic solver: no best-response precomputation,
    just the definition checked profile by profile in row-major order.
    """
    found = []
    for i in range(game.n1):
        for j in range(game.n2):
            c1, c2 = game.costs[i][j]
            stable = True
            for k in range(game.n1):
                if game.costs[k][j][0] < c1:
                    stable = False
                    break
            if stable:
                for k in range(game.n2):
                    if game.costs[i][k][1] < c2:
                        stable = False
                        break
            if stable:
                found.append(StrategyProfile(i, j))
    return found


def enumerate_dominant(game: CostTable, player: int) -> list[int]:
    """Weakly dominant actions of ``player`` by the pairwise definition, in index order.

    Independent of the best-response solver: an action qualifies when, against
    every opponent action, it costs the player no more than each alternative.
    """
    _check_player(player)
    n_own, n_opp = (game.n1, game.n2) if player == 1 else (game.n2, game.n1)

    def own_cost(a: int, o: int) -> Fraction:
        return game.costs[a][o][0] if player == 1 else game.costs[o][a][1]

    return [
        a
        for a in range(n_own)
        if all(own_cost(a, o) <= own_cost(b, o) for o in range(n_opp) for b in range(n_own))
    ]


class GridPoint(NamedTuple):
    x_star: float
    f_star: float


def grid_argmin(fn: Callable[[float], float], lo: float, hi: float, steps: int) -> GridPoint:
    """Minimizing sample of ``fn`` over a uniform grid of ``steps`` points.

    Ties break toward smaller x; infinite values compare as usual, so a
    function that is -inf everywhere gives lo.  Raises DomainError on a nan
    value, naming the offending sample point.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if steps < 2:
        raise ValueError(f"need at least 2 samples, got {steps}")
    width = (hi - lo) / (steps - 1)
    best_x = best_f = None
    for k in range(steps):
        x = hi if k == steps - 1 else lo + k * width
        f = fn(x)
        if math.isnan(f):
            raise DomainError(f"objective is nan at x={x!r}")
        if best_f is None or f < best_f:
            best_x, best_f = x, f
    return GridPoint(best_x, best_f)


def check_affine(
    fn: Callable[[Fraction], Fraction], x1: Fraction, x2: Fraction, x3: Fraction
) -> bool:
    """True iff the three sampled points lie exactly on one line; on Fractions nothing rounds."""
    if len({x1, x2, x3}) != 3:
        raise ValueError(f"sample points must be distinct, got {(x1, x2, x3)!r}")
    f1, f2, f3 = fn(x1), fn(x2), fn(x3)
    predicted = f1 + (f3 - f1) * (x2 - x1) / (x3 - x1)
    return f2 == predicted
