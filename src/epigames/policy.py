"""Government-policy transformations and mechanism evaluation.

Policies rewrite a scenario (mask prices, allowed actions, meeting limits,
status disclosure, testing spend); evaluation then runs the citizen games on
the rewritten scenario and aggregates social and designer costs.  What each
policy kind does and what it costs are decided here.

Conventions used by the evaluation:

- The population is homogeneous: one distancing decision applies to all
  citizens, with a fraction ``bayesian.rho`` of them infected.
- ``distancing.infection_prob`` drives per-meeting exposure; new infections
  are priced at ``mask_costs.c_infection``.  Sunk costs of already-infected
  citizens are excluded (they are policy-independent).
- Citizens who stay home bear ``cost_fn(z_min)``.
- A testing policy tests a fraction of the population, reveals that share's
  statuses and adds fraction * (n * per_test_cost) to the outlay, in policy
  order.  The fraction is traced_fraction for targeted testing; mass testing
  is targeted testing of everyone, the fraction 1.
- The designer cost weighs three reported columns: weight_infection *
  expected_infections + weight_test * testing_outlay + weight_economic *
  suppressed_benefit.
- A gathering cap k bounds the exposure: citizens optimize z over
  [z_min, min(z_max, k)], and stay home when k <= z_min.  A lockdown is the
  cap 0, which no meeting fits.  The benefit a cap suppresses,
  n * (B(z_free) - B(z)) with B = 0 at home, is charged to the designer, not
  to social cost.
- ``apply_policies`` folds a set into one scenario in policy order and warns
  once, of the set's first lockdown after a cap or cap after a lockdown.
"""

from __future__ import annotations

import math
from typing import Collection, Iterable, Sequence

from .distancing import (
    CostBenefitFunction,
    Decision,
    DistancingParams,
    MeetingDomain,
    extended_go_decision,
    group_infection_probability,
)
from .errors import DomainError, echo, read_integer, read_number
from .masks import (
    ACTION_IN,
    ACTION_NO,
    ACTION_OUT,
    ACTION_USE,
    MASK_ACTIONS,
    BayesianSetting,
    EfficiencyParams,
    MaskCosts,
    bayesian_mask_condition,
)
from .value import Value

MASK_MANDATE = "mask_mandate"
FREE_MASKS = "free_masks"
GATHERING_CAP = "gathering_cap"
LOCKDOWN = "lockdown"
MASS_TESTING = "mass_testing"
TARGETED_TESTING = "targeted_testing"

# kind -> the parameters that kind takes, in the order reports and scenario files list them
POLICY_PARAMS: dict[str, tuple[str, ...]] = {
    MASK_MANDATE: (),
    FREE_MASKS: ("subsidy",),
    GATHERING_CAP: ("limit",),
    LOCKDOWN: (),
    MASS_TESTING: ("per_test_cost",),
    TARGETED_TESTING: ("per_test_cost", "traced_fraction"),
}
POLICY_KINDS = tuple(POLICY_PARAMS)


def _check_params(kind: str, given: Collection[str]) -> None:
    """Raise ValueError unless ``kind`` is a policy kind and ``given`` is exactly its parameters."""
    if kind not in POLICY_PARAMS:
        raise ValueError(f"unknown policy kind {echo(kind)}; have {', '.join(POLICY_KINDS)}")
    wanted = POLICY_PARAMS[kind]
    stray = [name for name in given if name not in wanted]
    missing = [name for name in wanted if name not in given]
    if stray or missing:
        problem = f"does not take {echo(stray[0])}" if stray else f"missing {', '.join(missing)}"
        takes = ", ".join(wanted) or "no parameters"
        raise ValueError(f"policy {kind} requires {takes}; {problem}")


class Policy(Value):
    """One government policy with its parameters.

    Exactly the parameters belonging to ``kind`` (``POLICY_PARAMS``) may be
    set, by keyword, ``Policy(FREE_MASKS, subsidy=50.0)``, or from a scenario
    file's text, ``Policy.parse("free_masks subsidy=50")``.  For both,
    ``__post_init__`` checks the kind, the names and that a limit is an integer,
    and ``_ranges`` holds each parameter to its range; ``describe`` prints each
    value exactly.
    """

    kind: str
    subsidy: float | None = None
    limit: int | None = None
    per_test_cost: float | None = None
    traced_fraction: float | None = None

    _ranges = {"subsidy": (0, None), "limit": (1, None), "per_test_cost": (0, None), "traced_fraction": (0, 1)}

    def __post_init__(self) -> None:
        params = self._fields[1:]  # every field after kind is a parameter
        _check_params(self.kind, [name for name in params if getattr(self, name) is not None])
        if self.limit is not None and (not isinstance(self.limit, int) or isinstance(self.limit, bool)):
            raise ValueError(f"gathering limit must be an integer, got {self.limit!r}")

    @classmethod
    def parse(cls, text: str) -> "Policy":
        """The policy of a text: its kind, then name=value per parameter, in any order."""
        kind, *tokens = text.split() or [""]
        given: dict[str, str] = {}  # name -> value text
        for name, _, raw in (token.partition("=") for token in tokens):
            if name in given:
                raise ValueError(f"repeated parameter {echo(name)}")
            given[name] = raw
        if kind not in POLICY_PARAMS or given.keys() != set(POLICY_PARAMS[kind]):
            _check_params(kind, given)  # raises before any value is read: kind, then names
        params = {name: (read_integer if name == "limit" else read_number)(raw, name)
                  for name, raw in given.items()}
        return cls(kind, *[params.get(name) for name in cls._fields[1:]])

    def describe(self) -> str:
        """The kind and each parameter, exactly: ``:g`` where it reads back the same, else in full."""
        params = ";".join(f"{name}={_exact(name, getattr(self, name))}"
                          for name in POLICY_PARAMS[self.kind])
        return f"{self.kind}({params})" if params else self.kind


def _exact(name: str, value: float) -> str:
    """A parameter's value as text that reads back as the same number."""
    if name == "limit":
        return f"{value:d}"  # :g would round a limit of 10^6 or more
    short = f"{value + 0.0:g}"  # -0.0 + 0.0 is 0.0: equal zeros print alike
    return short if float(short) == value else repr(value)


class Scenario(Value):
    """Full input bundle for one what-if evaluation, in the world its policies produce."""

    mask_costs: MaskCosts
    efficiency: EfficiencyParams
    bayesian: BayesianSetting
    distancing: DistancingParams
    benefit_fn: CostBenefitFunction
    cost_fn: CostBenefitFunction
    meeting_domain: MeetingDomain
    population: int
    mask_mandate: bool = False
    revealed_fraction: float = 0.0
    gathering_limit: int | None = None  # the largest exposure allowed; 0 under lockdown
    testing_outlay: float = 0.0  # the testing policies' spend so far

    _ranges = {"population": (2, None), "revealed_fraction": (0, 1), "testing_outlay": (0, None)}


class DesignerCostModel(Value):
    """Linear designer cost: infections, testing outlay, suppressed benefit."""

    weight_infection: float
    weight_test: float
    weight_economic: float

    _ranges = {"weight_infection": (0, None), "weight_test": (0, None), "weight_economic": (0, None)}


class CitizenOutcome(Value):
    """Per-citizen game results; group actions are None for empty groups."""

    decision: Decision
    z_star: float | None
    revealed_susceptible_action: str | None
    revealed_infected_action: str | None
    unrevealed_action: str | None


class MechanismReport(Value):
    """Designer-facing outcome summary of one policy-set evaluation."""

    citizen_outcome: CitizenOutcome
    expected_infections: float
    social_cost: float
    designer_cost: float
    testing_outlay: float
    suppressed_benefit: float
    warnings: tuple[str, ...]


def apply_policies(scenario: Scenario, policies: Iterable[Policy]) -> tuple[Scenario, tuple[str, ...]]:
    """The scenario under a policy set, applied in order, and the set's warnings.

    Caps stack to the smallest gathering limit, so a lockdown (limit 0)
    dominates any cap; a set with both warns once, of its first conflict.  A
    testing policy adds its spend to ``testing_outlay``, and raises
    ``DomainError`` if the sum overflows.
    """
    mandate, costs, limit = scenario.mask_mandate, scenario.mask_costs, scenario.gathering_limit
    revealed, outlay = scenario.revealed_fraction, scenario.testing_outlay
    first = None  # the kind of the set's first cap or lockdown
    warnings: tuple[str, ...] = ()
    for policy in policies:
        kind = policy.kind
        if kind == MASK_MANDATE:
            mandate = True
        elif kind == FREE_MASKS:
            costs = costs.replace(
                c_use=max(0.0, costs.c_use - policy.subsidy),
                c_out=max(0.0, costs.c_out - policy.subsidy),
            )
        elif kind in (GATHERING_CAP, LOCKDOWN):
            first = first or kind
            if kind != first:
                warnings = ("lockdown overrides gathering_cap (stricter policy wins)" if kind == LOCKDOWN
                            else "gathering_cap has no effect under lockdown (stricter policy wins)",)
            cap = 0 if kind == LOCKDOWN else policy.limit
            limit = cap if limit is None else min(limit, cap)
        else:
            fraction = 1.0 if kind == MASS_TESTING else policy.traced_fraction
            revealed = max(revealed, fraction)
            outlay = outlay + fraction * (scenario.population * policy.per_test_cost)
            if not math.isfinite(outlay):
                raise DomainError(f"testing_outlay is {outlay}: the scenario's magnitudes leave a float's range")
    return scenario.replace(
        mask_mandate=mandate, mask_costs=costs, gathering_limit=limit,
        revealed_fraction=revealed, testing_outlay=outlay,
    ), warnings


def designer_cost(
    expected_infections: float,
    testing_outlay: float,
    suppressed_benefit: float,
    model: DesignerCostModel,
) -> float:
    """Weighted sum of a report's expected infections, testing outlay and suppressed benefit."""
    return (
        model.weight_infection * expected_infections
        + model.weight_test * testing_outlay
        + model.weight_economic * suppressed_benefit
    )


def evaluate_mechanism(
    scenario: Scenario, policies: Sequence[Policy], model: DesignerCostModel
) -> MechanismReport:
    """Apply policies in order, run the citizen games, aggregate the costs.

    Citizens first decide go/stay via the meeting optimization over the
    exposures their gathering limit allows; goers then choose masks:
    revealed statuses play the full-information pair games (susceptibles
    wear in-masks whenever infected players exist, infected players go
    maskless), unrevealed citizens follow the Bayesian rule, and a mandate
    forces the out-mask on everyone.  The revealed play is the
    pessimistic pure equilibrium of ``pair_game`` at every valid price, free
    masks included: of the equilibria, the one with the highest total cost,
    ties broken by table order.  That is (in, no) for a susceptible meeting an
    infected player, (no, no) for two susceptibles, and (out, out) in the game
    a mandate restricts to the out-mask.  As in the pair games, each
    action's price and protection come from ``MASK_ACTIONS``: exposure scales
    by ``a`` for susceptibles whose mask protects its wearer and by ``b`` for
    infected counterparts whose mask protects others (so not ``a`` for an
    out-mask).  Raises ``DomainError`` naming any aggregate that overflows.
    """
    s, warnings = apply_policies(scenario, policies)
    d = s.distancing
    n = s.population
    domain = s.meeting_domain
    free = extended_go_decision(
        s.benefit_fn, s.cost_fn, d.infection_prob, d.mortality, d.life_value, domain
    )
    outcome_decision, z_star = free
    suppressed = 0.0
    limit = s.gathering_limit
    if free.decision is Decision.GO and limit is not None and limit < free.z_star:
        if limit <= domain.z_min:  # no meeting fits the cap
            outcome_decision, z_star = Decision.STAY, None
        else:
            outcome_decision, z_star = extended_go_decision(
                s.benefit_fn, s.cost_fn, d.infection_prob, d.mortality, d.life_value,
                domain.replace(z_max=float(limit)),
            )
        kept = s.benefit_fn(z_star) if outcome_decision is Decision.GO else 0.0  # none at home
        suppressed = n * (s.benefit_fn(free.z_star) - kept)

    if outcome_decision is Decision.STAY:
        outcome = CitizenOutcome(Decision.STAY, None, None, None, None)
        infections = 0.0
        social = n * s.cost_fn(domain.z_min)
    else:
        rho_b = s.bayesian.rho
        f_r = s.revealed_fraction
        costs = s.mask_costs
        if s.mask_mandate:
            # actions restricted to the out-mask for everyone
            rs_action = ri_action = u_action = ACTION_OUT
        else:
            rs_action = ACTION_IN if rho_b > 0 else ACTION_NO
            ri_action = ACTION_NO
            u_action = ACTION_USE if bayesian_mask_condition(s.bayesian, costs).wear else ACTION_NO

        exposure = group_infection_probability(d.infection_prob, z_star)

        rs, ri, u = MASK_ACTIONS[rs_action], MASK_ACTIONS[ri_action], MASK_ACTIONS[u_action]
        own = {True: s.efficiency.a, False: 1.0}  # a susceptible's factor, by protects_wearer
        susceptible_factor = f_r * own[rs.protects_wearer] + (1 - f_r) * own[u.protects_wearer]
        # protects_other flags count as 0 or 1
        masked_infected = f_r * ri.protects_other + (1 - f_r) * u.protects_other
        spread_factor = 1.0 - masked_infected * (1.0 - s.efficiency.b)
        infections = exposure * spread_factor * (1 - rho_b) * n * susceptible_factor
        mask_spend = n * (
            f_r * ((1 - rho_b) * rs.price(costs) + rho_b * ri.price(costs))
            + (1 - f_r) * u.price(costs)
        )
        social = mask_spend + infections * costs.c_infection
        outcome = CitizenOutcome(
            Decision.GO,
            z_star,
            rs_action if f_r > 0 and rho_b < 1 else None,
            ri_action if f_r > 0 and rho_b > 0 else None,
            u_action if f_r < 1 else None,
        )

    aggregates = {
        "expected_infections": infections,
        "social_cost": social,
        "designer_cost": designer_cost(infections, s.testing_outlay, suppressed, model),
        "testing_outlay": s.testing_outlay,
        "suppressed_benefit": suppressed,
    }
    for name, value in aggregates.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} is {value}: the scenario's magnitudes leave a float's range")
    return MechanismReport(citizen_outcome=outcome, warnings=warnings, **aggregates)


def rank(reports: Sequence[MechanismReport]) -> list[int]:
    """The reports' positions by designer cost, then social cost; ties keep input order."""
    return sorted(range(len(reports)), key=lambda k: (reports[k].designer_cost, reports[k].social_cost))


def compare_policies(
    scenario: Scenario,
    policy_sets: Iterable[Sequence[Policy]],
    model: DesignerCostModel,
) -> list[tuple[tuple[Policy, ...], MechanismReport]]:
    """Evaluate each policy set and pair it with its report, in ``rank`` order."""
    sets = [tuple(policies) for policies in policy_sets]
    if not sets:
        raise ValueError("at least one policy set is required")
    reports = [evaluate_mechanism(scenario, policies, model) for policies in sets]
    return [(sets[k], reports[k]) for k in rank(reports)]
