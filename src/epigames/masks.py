"""Mask-choice games for meetings between susceptible and infected players.

Covers the full-information pair games over the actions (no, out, in), the
Bayesian analysis under unknown health status (merged action ``use``), the
mask-efficiency analysis with imperfect protection, and the condition under
which many-player play (susceptibles in in-masks, infected maskless) is
socially optimal.
Every decision here compares the ``Fraction``s its float inputs denote; the
numbers a report prints stay floats, and a printed threshold is the exact
quantity its decision compares, rounded once.
"""

from __future__ import annotations

import enum
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, FieldError
from .games import ActionSet, CostTable
from .value import Value, check_range

ACTION_NO = "no"
ACTION_OUT = "out"
ACTION_IN = "in"
ACTION_USE = "use"

PAIR_ACTIONS = (ACTION_NO, ACTION_OUT, ACTION_IN)


class MaskAction(NamedTuple):
    price_field: str | None  # the MaskCosts field that prices the action; None when free
    protects_wearer: bool
    protects_other: bool

    def price(self, costs: MaskCosts) -> float:
        return 0.0 if self.price_field is None else getattr(costs, self.price_field)


# action -> its price and whom it protects, read by the pair games and the policy layer
MASK_ACTIONS: dict[str, MaskAction] = {
    ACTION_NO: MaskAction(None, False, False),
    ACTION_OUT: MaskAction("c_out", False, True),
    ACTION_IN: MaskAction("c_in", True, False),
    ACTION_USE: MaskAction("c_use", True, True),
}


class HealthStatus(enum.Enum):
    SUSCEPTIBLE = "susceptible"
    INFECTED = "infected"


class MaskCosts(Value):
    """Cost constants of the mask games, in abstract currency units.

    User-facing inputs are strictly positive with c_out < c_in < c_infection,
    but c_out and c_use may legitimately reach zero after a mask subsidy, so
    the type accepts zero for those two fields.
    """

    c_out: float
    c_in: float
    c_use: float
    c_infection: float

    _ranges = {"c_out": (0, None), "c_use": (0, None)}

    def __post_init__(self) -> None:
        if not self.c_out < self.c_in < self.c_infection:
            raise FieldError(
                "mask costs must satisfy c_out < c_in < c_infection, got "
                f"c_out={self.c_out}, c_in={self.c_in}, c_infection={self.c_infection}",
                "c_out", "c_in", "c_infection",
            )
        if not self.c_use < self.c_infection:
            raise FieldError(
                "mask costs must satisfy c_use < c_infection, got "
                f"c_use={self.c_use}, c_infection={self.c_infection}",
                "c_use", "c_infection",
            )


class BayesianSetting(Value):
    """Infection prior and the opponent's mask-wearing probability."""

    rho: float
    p1: float

    _ranges = {"rho": (0, 1), "p1": (0, 1)}


class EfficiencyParams(Value):
    """Per-encounter infection multipliers of a worn mask (smaller is better).

    ``a`` scales the wearer's own infection probability, ``b`` scales onward
    transmission from an infected wearer.  The model assumes a mask protects
    its wearer at least as well as it protects others, hence a <= b.
    """

    a: float = 1.0 / 3.0
    b: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        if not 0 <= self.a <= self.b <= 1:
            raise FieldError(
                f"efficiencies must satisfy 0 <= a <= b <= 1, got a={self.a}, b={self.b}", "a", "b"
            )


def pair_game(status1: HealthStatus, status2: HealthStatus, costs: MaskCosts) -> CostTable:
    """Build the 3x3 full-information meeting game for the given status pair.

    Each player pays the price of their action.  A susceptible player facing
    an infected one also bears the infection cost unless their own mask
    protects its wearer or the infected player's mask protects others
    (``MASK_ACTIONS``).  Infected players always carry their infection cost.
    Each cost is an exact sum; one that leaves a float's range, which a report
    could not print, raises DomainError naming it.
    """
    ci = Fraction(costs.c_infection)
    actions = [MASK_ACTIONS[label] for label in PAIR_ACTIONS]

    def cost(own: MaskAction, other: MaskAction, infected: bool, other_infected: bool) -> Fraction:
        exposed = other_infected and not (own.protects_wearer or other.protects_other)
        total = Fraction(own.price(costs)) + (ci if infected or exposed else 0)
        if total > sys.float_info.max:  # only a priced action can push c_infection past it
            raise DomainError(f"the cost {own.price_field} + c_infection leaves a float's range")
        return total

    inf1, inf2 = (status is HealthStatus.INFECTED for status in (status1, status2))
    rows = tuple(
        tuple((cost(x, y, inf1, inf2), cost(y, x, inf2, inf1)) for y in actions) for x in actions
    )
    return CostTable(ActionSet(PAIR_ACTIONS), ActionSet(PAIR_ACTIONS), rows)


def bayesian_expected_cost(setting: BayesianSetting, p2: float, costs: MaskCosts) -> float:
    """Expected cost of a player wearing a mask with probability ``p2``.

    Both players' statuses are unknown, each infected with probability rho;
    the opponent wears with probability p1.  Affine in p2.
    """
    check_range("p2", p2, 0, 1)
    rho, p1 = setting.rho, setting.p1
    cu, ci = costs.c_use, costs.c_infection
    when_susceptible = (1 - rho) * (p2 * cu) + rho * (p2 * cu + (1 - p2) * (1 - p1) * ci)
    when_infected = p2 * (ci + cu) + (1 - p2) * ci
    return (1 - rho) * when_susceptible + rho * when_infected


class MaskCondition(NamedTuple):
    threshold: float  # upper bound on c_use / c_infection for wearing to pay off
    wear: bool
    price_threshold: float  # the same bound on c_use itself: threshold * c_infection


def bayesian_mask_condition(setting: BayesianSetting, costs: MaskCosts) -> MaskCondition:
    """Wearing lowers the expected cost iff c_use < rho(1-rho)(1-p1) * c_infection.

    The cost is affine in the wearing probability, so the best probability is 1 when
    ``wear`` holds and 0 otherwise: exact indifference resolves to no mask.
    """
    rho, p1 = Fraction(setting.rho), Fraction(setting.p1)
    ratio = rho * (1 - rho) * (1 - p1)
    price = ratio * Fraction(costs.c_infection)  # at most c_infection / 4, so a float holds it
    return MaskCondition(float(ratio), Fraction(costs.c_use) < price, float(price))


def efficiency_expected_cost(p: float, eff: EfficiencyParams, costs: MaskCosts) -> float:
    """Expected cost when meeting an infected player with imperfect masks.

    Both players wear with the same probability ``p``; a worn mask scales
    the wearer's own infection probability by ``a`` and onward transmission
    by ``b``.
    """
    check_range("p", p, 0, 1)
    a, b = eff.a, eff.b
    cu, ci = costs.c_use, costs.c_infection
    return (
        p * p * (cu + ci * a * b)
        + p * (1 - p) * (cu + ci * a)
        + (1 - p) * p * (ci * b)
        + (1 - p) * (1 - p) * ci
    )


class EfficiencyAnalysis(Value):
    """Closed-form shape analysis of the efficiency cost in p.

    The cost is quadratic with curvature 2*c_infection*(1-a)*(1-b) >= 0;
    when a=1 or b=1 it degenerates to an affine function and the minimizer
    is found by boundary comparison instead of the stationary point.
    """

    stationary_p: float | None
    second_derivative: float
    use_beats_no_threshold: float
    use_beats_no: bool
    best_p: float
    degenerate: bool


def efficiency_analysis(eff: EfficiencyParams, costs: MaskCosts) -> EfficiencyAnalysis:
    """Minimize the efficiency cost over p in [0, 1], in closed form, on the exact inputs."""
    fa, fb, fu, fi = map(Fraction, (eff.a, eff.b, costs.c_use, costs.c_infection))
    curvature = 2 * fi * (1 - fa) * (1 - fb)
    try:
        second = float(curvature)
    except OverflowError:
        raise DomainError("second_derivative is inf: the scenario's magnitudes leave a float's range") from None
    ratio = 1 - fa * fb
    pull = fi * (2 - fa - fb) - fu  # minus the cost's slope at p = 0
    if curvature == 0:  # a = 1 or b = 1: the cost is affine
        stationary, best = None, 1.0 if pull > 0 else 0.0
    else:
        exact = pull / curvature  # under 2**106 in magnitude for float inputs, so float() holds it
        stationary = float(exact)
        best = 0.0 if exact <= 0 else 1.0 if exact >= 1 else stationary  # convex: clamp exactly
    return EfficiencyAnalysis(stationary, second, float(ratio), fu < ratio * fi, best, curvature == 0)


class SocialOptimumCondition(NamedTuple):
    holds: bool
    lhs: float  # c_in / c_out
    rhs: float  # rho / (1 - rho), infinite at rho = 1


def multiplayer_so_condition(rho: float, costs: MaskCosts) -> SocialOptimumCondition:
    """Whether many-player play (susceptibles in in-masks, infected maskless) is socially optimal.

    Susceptibles wearing in-masks beats infected wearing out-masks exactly
    when c_in/c_out < rho/(1-rho), decided as c_in(1-rho) < rho*c_out on the
    ``Fraction``s, which holds at rho=1 whenever c_out > 0.
    """
    check_range("rho", rho, 0, 1)
    lhs = math.inf if costs.c_out == 0 else costs.c_in / costs.c_out
    rhs = math.inf if rho == 1 else rho / (1 - rho)
    holds = Fraction(costs.c_in) * (1 - Fraction(rho)) < Fraction(rho) * Fraction(costs.c_out)
    return SocialOptimumCondition(holds, lhs, rhs)
