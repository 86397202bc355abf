"""Go-out versus stay-home decisions and meeting-exposure optimization.

The basic decision weighs the benefit of going out against the expected
mortality cost of an infection.  The extended model prices a meeting by its
exposure z, the number of contacts with potential infectious sources, and
optimizes the risk-adjusted stakes over z.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DomainError, FieldError, echo, read_number
from .value import _FLOAT_MAX, Value, check_range


class Decision(enum.Enum):
    STAY = "stay"
    GO = "go"


class DistancingParams(Value):
    """Benefit/cost of an outing plus infection-risk constants."""

    benefit: float
    home_cost: float
    mortality: float
    life_value: float
    infection_prob: float

    _ranges = {"benefit": (0, None), "home_cost": (0, None), "mortality": (0, 1),
               "life_value": (0, None), "infection_prob": (0, 1)}


class CostBenefitFunction(Value):
    """Benefit or cost as a function of the exposure z: constant or linear.

    Coefficients are non-negative, so values are non-negative on z >= 0.
    """

    kind: str
    slope: float
    intercept: float

    _ranges = {"slope": (0, None), "intercept": (0, None)}

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "linear"):
            raise ValueError(f"kind must be 'constant' or 'linear', got {self.kind!r}")
        if self.kind == "constant" and self.slope != 0:
            raise ValueError("a constant function cannot carry a slope")

    @classmethod
    def constant(cls, k: float) -> "CostBenefitFunction":
        return cls("constant", 0.0, float(k))

    @classmethod
    def linear(cls, slope: float, intercept: float = 0.0) -> "CostBenefitFunction":
        return cls("linear", float(slope), float(intercept))

    @classmethod
    def parse(cls, text: str) -> "CostBenefitFunction":
        """The function of an ``encode()`` text: 'constant:k' or 'linear:slope,intercept'."""
        kind, _, args = (part.strip() for part in text.partition(":"))
        arity = {"constant": 1, "linear": 2}.get(kind)
        if arity is None:
            raise ValueError(f"expected 'constant:k' or 'linear:slope,intercept', got {echo(text)}")
        numbers = [read_number(part) for part in args.split(",")]
        if len(numbers) != arity:
            count = "one coefficient" if arity == 1 else "two coefficients"
            raise ValueError(f"{kind} takes exactly {count}")
        return cls.constant(*numbers) if kind == "constant" else cls.linear(*numbers)

    def __call__(self, z: float) -> float:
        return self.slope * z + self.intercept

    def encode(self) -> str:
        """Exact text form, which ``parse`` reads back."""
        if self.kind == "constant":
            return f"constant:{self.intercept!r}"
        return f"linear:{self.slope!r},{self.intercept!r}"


# ten times the largest grid a benchmark renders; a grid holds grid_steps + 1 floats
MAX_GRID_STEPS = 1_000_000


class MeetingDomain(Value):
    """Search window for the meeting exposure z."""

    z_min: float = 0.1
    z_max: float = 100.0
    grid_steps: int = 10_000

    _ranges = {"grid_steps": (1, MAX_GRID_STEPS)}

    def __post_init__(self) -> None:
        if not 0 < self.z_min < self.z_max <= 100:
            raise FieldError(
                f"need 0 < z_min < z_max <= 100, got z_min={self.z_min}, z_max={self.z_max}",
                "z_min", "z_max",
            )

    def grid(self) -> tuple[float, ...]:
        """grid_steps + 1 evenly spaced samples, endpoints included exactly.

        Built on the first call; later calls return the same shared tuple, so the
        optimum, the curve and every policy set of one ``compare_policies`` call
        read one grid.  The domain keeps it for its lifetime, about 32 bytes a
        point (32 MB at MAX_GRID_STEPS); ``ScenarioConfig``'s default domain keeps
        its 10,001 points for the whole process.  The grid is not a field:
        equality, hash, repr and ``replace`` ignore it, and a replaced domain
        builds its own.
        """
        points = self.__dict__.get("_grid")
        if points is None:
            width = (self.z_max - self.z_min) / self.grid_steps
            built = [self.z_min + k * width for k in range(self.grid_steps + 1)]
            built[-1] = self.z_max
            points = tuple(built)
            object.__setattr__(self, "_grid", points)  # Value refuses assignment
        return points


def distancing_utility(p: float, params: DistancingParams) -> float:
    """Utility of going out with probability p; affine in p."""
    check_range("p", p, 0, 1)
    stakes = params.benefit - params.infection_prob * params.mortality * params.life_value
    return p * stakes - (1 - p) * params.home_cost


class StayHomeDecision(NamedTuple):
    decision: Decision
    life_value_threshold: float


def stay_home_decision(params: DistancingParams) -> StayHomeDecision:
    """Stay home iff (benefit + home_cost) / (rho * mortality) < life_value.

    Decided on the ``Fraction``s the inputs denote.  The threshold is the exact
    ratio the decision compares, rounded to a float once, so it never falls on the
    wrong side of life_value; it is inf beyond a float's range, and with no
    infection risk, where going out always wins.
    """
    exposure = Fraction(params.infection_prob) * Fraction(params.mortality)
    if exposure == 0:
        return StayHomeDecision(Decision.GO, math.inf)
    stakes = Fraction(params.benefit) + Fraction(params.home_cost)
    decision = Decision.STAY if stakes < Fraction(params.life_value) * exposure else Decision.GO
    try:
        threshold = float(stakes / exposure)
    except OverflowError:
        threshold = math.inf
    return StayHomeDecision(decision, threshold)


def _check_exposure(z: float) -> None:
    """Refuse an exposure z that is not positive and finite: z <= 0, nan, inf or an int beyond every float."""
    if not 0 < z <= _FLOAT_MAX:
        shown = repr(z) if isinstance(z, float) or abs(z) <= _FLOAT_MAX else "an int too large for a float"
        raise ValueError(f"exposure z must be positive and finite, got {shown}")


def group_infection_probability(rho: float, z: float) -> float:
    """Probability of catching the infection at a finite exposure z > 0: 1 - (1 - rho)^z.

    Computed as -expm1(z * log1p(-rho)), which keeps full relative precision
    where the direct form cancels: 1 - rho drops the low digits of a small
    rho.  rho = 1, which log1p cannot take, is the certain case.
    """
    check_range("rho", rho, 0, 1)
    _check_exposure(z)
    return 1.0 if rho == 1 else -math.expm1(z * math.log1p(-rho))


def z_objective(
    z: float,
    benefit_fn: CostBenefitFunction,
    cost_fn: CostBenefitFunction,
    rho: float,
    m: float,
) -> float:
    """Risk-adjusted stakes of a meeting: (B(z) + C(z)) / ((1 - (1-rho)^z) * m).

    Going out is justified when this exceeds the player's life value.  With no
    risk (rho = 0 or m = 0) the stakes are unbounded: inf, as in ``stay_home_decision``.
    """
    check_range("rho", rho, *DistancingParams._ranges["infection_prob"])
    check_range("m", m, *DistancingParams._ranges["mortality"])
    _check_exposure(z)
    # B(z) + C(z) from the coefficients, as CostBenefitFunction.__call__ computes it:
    # two Python calls per evaluation would cost more than the stable risk below
    stakes = benefit_fn.slope * z + benefit_fn.intercept + (cost_fn.slope * z + cost_fn.intercept)
    try:
        # the stable form of 1 - (1-rho)^z, as in group_infection_probability
        risk = 1.0 if rho == 1 else -math.expm1(z * math.log1p(-rho))
        return stakes / (risk * m)
    except ZeroDivisionError:  # risk * m is 0: no risk, or rho or m too small to register
        if rho == 0 or m == 0:
            return math.inf
        raise DomainError(f"meeting objective needs a nonzero risk (1 - (1-rho)^z) * m, got 0 at z={z}") from None


def objective_values(
    zs: Sequence[float],
    benefit_fn: CostBenefitFunction,
    cost_fn: CostBenefitFunction,
    rho: float,
    m: float,
) -> list[float]:
    """``z_objective`` at each of ``zs``, which must rise from a positive first point.

    One ``z_objective`` call on ``zs[0]`` checks rho and m, raises the
    risk-underflow error and states the no-risk rule (rho = 0 or m = 0: all
    inf).  The rest repeats its float operations in the same order, so each
    value is bit-identical to a ``z_objective`` call.  The risk rises with
    z, so no later point can divide by zero where the first did not.
    """
    z_objective(zs[0], benefit_fn, cost_fn, rho, m)
    if rho == 0 or m == 0:
        return [math.inf] * len(zs)
    bs, bi, cs, ci = benefit_fn.slope, benefit_fn.intercept, cost_fn.slope, cost_fn.intercept
    if rho == 1:
        return [(bs * z + bi + (cs * z + ci)) / (1.0 * m) for z in zs]
    lr, expm1 = math.log1p(-rho), math.expm1
    return [(bs * z + bi + (cs * z + ci)) / (-expm1(z * lr) * m) for z in zs]


class MeetingOptimum(NamedTuple):
    z_star: float
    value: float


def optimal_meeting(
    benefit_fn: CostBenefitFunction,
    cost_fn: CostBenefitFunction,
    rho: float,
    m: float,
    domain: MeetingDomain,
) -> MeetingOptimum:
    """Maximize the meeting objective by a uniform scan of ``domain.grid()``.

    The grid is the domain's shared tuple, built on its first use, so repeated
    optima on one domain rebuild nothing.  The values come from
    ``objective_values``, the kernel ``curve_series`` shares, and the first
    maximum wins: ties break toward smaller z (less exposure).  ``--verify``
    still evaluates the grid point by point through ``z_objective``, as the
    kernel's independent check.

    The scan is exact for the constant and linear functions of this module,
    and the argument covers only those two kinds: the objective is
    N(z) / D(z) with N = B + C affine and non-negative and
    D(z) = (1 - (1-rho)^z) * m concave and positive on
    z > 0.  Each sublevel set {N - t*D <= 0} is empty (t < 0) or the
    sublevel set of a convex function (t >= 0), hence convex, so the
    objective is quasi-convex (Boyd & Vandenberghe, Convex Optimization,
    3.4.1) and its maximum lies at z_min or z_max, which the grid holds
    exactly.  Interior samples win only by rounding noise where it is flat.
    With no risk (rho = 0 or m = 0) every sample is inf and z_min wins the tie.
    """
    points = domain.grid()
    values = objective_values(points, benefit_fn, cost_fn, rho, m)
    best = max(values)  # max keeps the first of equal values, as a strict > scan does
    return MeetingOptimum(points[values.index(best)], best)


class GoDecision(NamedTuple):
    decision: Decision
    z_star: float | None


def extended_go_decision(
    benefit_fn: CostBenefitFunction,
    cost_fn: CostBenefitFunction,
    rho: float,
    m: float,
    life_value: float,
    domain: MeetingDomain,
) -> GoDecision:
    """Go out at the best exposure iff the maximized stakes exceed the life value."""
    optimum = optimal_meeting(benefit_fn, cost_fn, rho, m, domain)
    if optimum.value > life_value:
        return GoDecision(Decision.GO, optimum.z_star)
    return GoDecision(Decision.STAY, None)


def curve_series(
    benefit_fn: CostBenefitFunction,
    cost_fn: CostBenefitFunction,
    rho: float,
    m: float,
    domain: MeetingDomain,
) -> list[tuple[float, float]]:
    """grid_steps + 1 samples of the meeting objective, for plotting.

    The values come from ``objective_values``, the kernel the optimum scan uses.
    """
    points = domain.grid()
    return list(zip(points, objective_values(points, benefit_fn, cost_fn, rho, m)))
