"""Command-line interface: scenario ingestion, dispatch, report emission.

Exit codes: 0 success, 1 scenario/usage failure, 2 domain error from a
computation, 3 analytic/oracle mismatch under --verify.  Reports go to the
--out target (default stdout); diagnostics go to stderr.  Output is
byte-identical across runs for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from fractions import Fraction
from typing import Callable

from . import oracle
from .distancing import (
    Decision,
    GroupMeeting,
    curve_series,
    distancing_utility,
    extended_go_decision,
    group_infection_probability,
    optimal_meeting,
    stay_home_decision,
    z_objective,
)
from .errors import DomainError, FieldError, ScenarioError, VerificationError
from .games import pure_nash_equilibria, restrict, solve
from .masks import (
    HealthStatus,
    bayesian_expected_cost,
    bayesian_mask_condition,
    bayesian_best_p2,
    efficiency_analysis,
    efficiency_expected_cost,
    pair_game,
)
from .policy import LOCKDOWN, MASK_MANDATE, compare_policies, designer_cost
from .scenario import ScenarioConfig, parse_scenario
from .value import Value

_STATUS_PAIRS = (
    ("both_susceptible", HealthStatus.SUSCEPTIBLE, HealthStatus.SUSCEPTIBLE),
    ("one_infected", HealthStatus.SUSCEPTIBLE, HealthStatus.INFECTED),
    ("both_infected", HealthStatus.INFECTED, HealthStatus.INFECTED),
)


# 17 significant digits round-trip any double; more would only pad the report
MAX_PRECISION = 17
# from this magnitude on a table cell is in exponent form: a double's fixed-point
# digits past the 17th significant one are noise
EXPONENT_FROM = 1e16


class ReportOptions(Value):
    fmt: str = "table"
    precision: int = 6
    verify: bool = False


class _Parser(argparse.ArgumentParser):
    # usage errors are invocation failures, not domain errors: exit 1, not 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epigames",
        description="Pandemic decision games: mask/distancing analyses and policy ranking.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (descr, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=descr)
        p.add_argument("--scenario", required=True, help="path to the scenario file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("table", "csv"), default="table")
        p.add_argument("--grid-steps", type=int, default=None, metavar="N")
        p.add_argument("--verify", action="store_true", help="cross-check against brute force")
        p.add_argument("--precision", type=int, default=6, metavar="D")
    return parser


def _formatter(opts: ReportOptions) -> Callable[[object], str]:
    """The text of one report cell: numbers to ``opts.precision``, in exponent form
    in a table from ``EXPONENT_FROM`` on, inf as 'inf', booleans as 'true'/'false',
    None empty."""
    table = opts.fmt == "table"
    spec = f".{opts.precision}{'f' if table else 'g'}"
    huge = f".{opts.precision}{'e' if table else 'g'}"

    def text(value: object) -> str:
        if isinstance(value, float):
            if value == math.inf:
                return "inf"
            return format(value, spec if abs(value) < EXPONENT_FROM else huge)
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    return text


def _render_kv(pairs: list[tuple[str, object]], opts: ReportOptions) -> str:
    if opts.fmt == "csv":
        return _render_csv([key for key, _ in pairs], [[value for _, value in pairs]], opts)
    text = _formatter(opts)
    width = max(len(key) for key, _ in pairs) + 2
    return "".join(f"{key:<{width}}{text(value) or '-'}\n" for key, value in pairs)


def _render_csv(header: list[str], rows: list[list[object]], opts: ReportOptions) -> str:
    text = _formatter(opts)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([text(value) for value in row] for row in rows)
    return buffer.getvalue()


def _render_table(header: list[str], rows: list[list[object]], opts: ReportOptions) -> str:
    text = _formatter(opts)
    cells = [header] + [[text(value) or "-" for value in row] for row in rows]
    # one template pads every column to its widest cell
    template = "  ".join(f"{{:<{max(map(len, column))}}}" for column in zip(*cells))
    return "".join(template.format(*row).rstrip() + "\n" for row in cells)


def _render_rows(header: list[str], rows: list[list[object]], opts: ReportOptions) -> str:
    if opts.fmt == "csv":
        return _render_csv(header, rows, opts)
    return _render_table(header, rows, opts)


def _profile_text(game, profile) -> str:
    lab1, lab2 = game.profile_labels(profile)
    return f"({lab1}, {lab2})"


def _fail_verify(mismatches: list[str]) -> None:
    if mismatches:
        raise VerificationError("; ".join(mismatches))


def _exact(value: Value) -> Value:
    """A copy of ``value`` with each number field the ``Fraction`` it denotes."""
    return value.replace(**{field: Fraction(getattr(value, field)) for field in value._fields})


def _cmd_mask_basic(config: ScenarioConfig, opts: ReportOptions) -> str:
    costs = config.require("mask_costs")
    games = [(name, pair_game(s1, s2, costs)) for name, s1, s2 in _STATUS_PAIRS]
    reports = [(name, game, solve(game)) for name, game in games]

    if opts.verify:
        mismatches = []
        for name, game, report in reports:
            if oracle.enumerate_pure_ne(game) != list(report.pure_nash):
                mismatches.append(f"{name}: equilibrium sets disagree with enumeration")
            sums = [sum(game.pair(*p)) for p in game.profiles()]
            floor = min(sums)
            exhaustive = [p for k, p in enumerate(game.profiles()) if sums[k] == floor]
            if exhaustive != list(report.social_optima):
                mismatches.append(f"{name}: social optima disagree with exhaustive scan")
        _fail_verify(mismatches)

    rows = []
    for name, game, report in reports:
        for profile in report.pure_nash:
            lab1, lab2 = game.profile_labels(profile)
            c1, c2 = game.pair(*profile)
            rows.append([name, "nash_equilibrium", None, lab1, lab2, float(c1), float(c2)])
        for profile in report.social_optima:
            lab1, lab2 = game.profile_labels(profile)
            c1, c2 = game.pair(*profile)
            rows.append([name, "social_optimum", None, lab1, lab2, float(c1), float(c2)])
        for idx in report.dominant_p1:
            rows.append([name, "dominant_action", 1, game.actions_p1.labels[idx], None, None, None])
        for idx in report.dominant_p2:
            rows.append([name, "dominant_action", 2, None, game.actions_p2.labels[idx], None, None])

    if opts.fmt == "csv":
        return _render_csv(
            ["game", "item", "player", "action_p1", "action_p2", "cost_p1", "cost_p2"],
            rows,
            opts,
        )
    lines = []
    for name, game, report in reports:
        lines.append(f"game: {name}")
        lines.append("  nash_equilibria   " + ("; ".join(_profile_text(game, p) for p in report.pure_nash) or "-"))
        lines.append("  social_optima     " + ("; ".join(_profile_text(game, p) for p in report.social_optima) or "-"))
        lines.append("  dominant_p1       " + ("; ".join(game.actions_p1.labels[i] for i in report.dominant_p1) or "-"))
        lines.append("  dominant_p2       " + ("; ".join(game.actions_p2.labels[i] for i in report.dominant_p2) or "-"))
    return "\n".join(lines) + "\n"


def _cmd_mask_bayesian(config: ScenarioConfig, opts: ReportOptions) -> str:
    costs, setting = config.require("mask_costs", "bayesian")
    condition = bayesian_mask_condition(setting, costs)
    best = bayesian_best_p2(setting, costs)
    cost_no = bayesian_expected_cost(setting, 0.0, costs)
    cost_use = bayesian_expected_cost(setting, 1.0, costs)
    for name, value in (("expected_cost_no", cost_no), ("expected_cost_use", cost_use)):
        if not math.isfinite(value):
            raise DomainError(f"{name} is {value}: the scenario's magnitudes leave a float's range")

    if opts.verify:
        mismatches = []
        exact_setting, exact_costs = _exact(setting), _exact(costs)
        if not oracle.check_affine(
            lambda p2: bayesian_expected_cost(exact_setting, p2, exact_costs), 0, Fraction(37, 100), 1, 0
        ):
            mismatches.append("expected cost is not affine in the wearing probability")
        exact_no, exact_use = (bayesian_expected_cost(exact_setting, p2, exact_costs) for p2 in (0, 1))
        if (best == 1.0) != (exact_use < exact_no):
            mismatches.append("boundary decision disagrees with endpoint costs")
        _fail_verify(mismatches)

    return _render_kv(
        [
            ("rho", setting.rho),
            ("p1", setting.p1),
            ("c_use", costs.c_use),
            ("c_infection", costs.c_infection),
            ("threshold_ratio", condition.threshold),
            ("threshold", condition.price_threshold),
            ("expected_cost_no", cost_no),
            ("expected_cost_use", cost_use),
            ("best_p2", best),
            ("decision", "wear" if condition.wear else "skip"),
        ],
        opts,
    )


def _cmd_mask_efficiency(config: ScenarioConfig, opts: ReportOptions) -> str:
    costs = config.require("mask_costs")
    eff = config.efficiency
    analysis = efficiency_analysis(eff, costs)

    def cost_at(p: float) -> float:
        return efficiency_expected_cost(p, eff, costs)

    if opts.verify:
        mismatches = []
        exact_eff, exact_costs = _exact(eff), _exact(costs)

        def exact_cost_at(p: float | Fraction) -> Fraction:
            return efficiency_expected_cost(Fraction(p), exact_eff, exact_costs)

        h = Fraction(1, 100)  # a quadratic's second difference is its curvature, at any step
        samples = [exact_cost_at(Fraction(1, 2) + k * h) for k in (1, 0, -1)]
        if float((samples[0] - 2 * samples[1] + samples[2]) / (h * h)) != analysis.second_derivative:
            mismatches.append("second derivative disagrees with finite differences")
        # best_p is the double nearest the convex cost's minimiser, or the minimising
        # endpoint, so no double in [0, 1] costs less
        grid = oracle.grid_argmin(cost_at, 0.0, 1.0, 10_001)
        if exact_cost_at(grid.x_star) < exact_cost_at(analysis.best_p):
            mismatches.append(f"grid point {grid.x_star} costs less than best_p {analysis.best_p}")
        _fail_verify(mismatches)

    return _render_kv(
        [
            ("a", eff.a),
            ("b", eff.b),
            ("c_use", costs.c_use),
            ("c_infection", costs.c_infection),
            ("cost_never_mask", cost_at(0.0)),
            ("cost_always_mask", cost_at(1.0)),
            ("use_beats_no_threshold", analysis.use_beats_no_threshold),
            ("use_beats_no", analysis.use_beats_no),
            ("stationary_p", analysis.stationary_p),
            ("second_derivative", analysis.second_derivative),
            ("degenerate", analysis.degenerate),
            ("best_p", analysis.best_p),
        ],
        opts,
    )


def _cmd_distancing(config: ScenarioConfig, opts: ReportOptions) -> str:
    params = config.require("distancing")
    outcome = stay_home_decision(params)
    utility_stay = distancing_utility(0.0, params)
    utility_go = distancing_utility(1.0, params)

    if opts.verify:
        exact = _exact(params)  # a tie goes out, as the threshold rule's strict < does
        if (outcome.decision is Decision.STAY) != (distancing_utility(0, exact) > distancing_utility(1, exact)):
            _fail_verify(["threshold decision disagrees with utility comparison"])

    return _render_kv(
        [
            ("benefit", params.benefit),
            ("home_cost", params.home_cost),
            ("mortality", params.mortality),
            ("life_value", params.life_value),
            ("infection_prob", params.infection_prob),
            ("utility_stay", utility_stay),
            ("utility_go", utility_go),
            ("life_value_threshold", outcome.life_value_threshold),
            ("decision", outcome.decision.value),
        ],
        opts,
    )


def _cmd_meeting_opt(config: ScenarioConfig, opts: ReportOptions) -> str:
    params, benefit_fn, cost_fn = config.require("distancing", "benefit_fn", "cost_fn")
    domain = config.meeting_domain
    rho, mortality = params.infection_prob, params.mortality
    optimum = optimal_meeting(benefit_fn, cost_fn, rho, mortality, domain)
    decision = extended_go_decision(
        benefit_fn, cost_fn, rho, mortality, params.life_value, domain
    )

    if opts.verify:
        mismatches = []
        grid = oracle.grid_argmin(
            lambda z: -z_objective(z, benefit_fn, cost_fn, rho, mortality),
            domain.z_min,
            domain.z_max,
            domain.grid_steps + 1,
        )
        step = (domain.z_max - domain.z_min) / domain.grid_steps
        if abs(grid.x_star - optimum.z_star) > step * (1 + 1e-9):
            mismatches.append(
                f"optimal z {optimum.z_star} is more than one grid step from {grid.x_star}"
            )
        if optimum.value < -grid.f_star - 1e-9 * max(1.0, abs(grid.f_star)):
            mismatches.append("optimum value does not dominate the sampled grid")
        _fail_verify(mismatches)

    return _render_kv(
        [
            ("z_min", domain.z_min),
            ("z_max", domain.z_max),
            ("grid_steps", domain.grid_steps),
            ("benefit", benefit_fn.encode()),
            ("cost", cost_fn.encode()),
            ("z_star", optimum.z_star),
            ("value", optimum.value),
            ("life_value", params.life_value),
            ("decision", decision.decision.value),
        ],
        opts,
    )


def _cmd_curves(config: ScenarioConfig, opts: ReportOptions) -> str:
    params, benefit_fn, cost_fn = config.require("distancing", "benefit_fn", "cost_fn")
    domain = config.meeting_domain
    series = curve_series(benefit_fn, cost_fn, params.infection_prob, params.mortality, domain)

    if opts.verify:
        mismatches = []
        for z, value in series:
            # same objective through the group-meeting composition; no risk, no bound
            risk = (
                group_infection_probability(params.infection_prob, GroupMeeting(z, 1.0))
                * params.mortality
            )
            composed = (benefit_fn(z) + cost_fn(z)) / risk if risk else math.inf
            if not math.isclose(value, composed, rel_tol=1e-12, abs_tol=1e-12):
                mismatches.append(f"objective at z={z} disagrees with composed form")
                break
        _fail_verify(mismatches)

    return _render_rows(["z", "objective"], [[z, v] for z, v in series], opts)


def _cmd_policy_compare(config: ScenarioConfig, opts: ReportOptions) -> str:
    scenario = config.to_scenario()
    named_sets, model = config.require("policy_sets", "designer")
    ranked = compare_policies(scenario, [policies for _, policies in named_sets], model)

    remaining = list(range(len(named_sets)))
    warnings = [()] * len(named_sets)  # each set's policy warnings, in input order
    rows = []
    for rank, (policies, report) in enumerate(ranked, start=1):
        index = next(i for i in remaining if named_sets[i][1] == policies)
        remaining.remove(index)
        warnings[index] = report.warnings
        outcome = report.citizen_outcome
        rows.append(
            [
                rank,
                named_sets[index][0],
                "+".join(p.describe() for p in policies) or "(none)",
                outcome.decision.value,
                outcome.z_star,
                outcome.group_size,
                report.expected_infections,
                report.social_cost,
                report.testing_outlay,
                report.suppressed_benefit,
                report.designer_cost,
            ]
        )

    if opts.verify:
        mismatches = []
        keys = [(r.designer_cost, r.social_cost) for _, r in ranked]
        if keys != sorted(keys):
            mismatches.append("ranking is not sorted by designer then social cost")
        for policies, report in ranked:
            recomputed = designer_cost(
                report.expected_infections,
                report.suppressed_benefit,
                scenario.population,
                report.policies_applied,
                model,
            )
            if recomputed != report.designer_cost:  # the same inputs in the same float operations
                mismatches.append("designer cost disagrees with direct recomputation")
            if any(p.kind == LOCKDOWN for p in policies) and report.expected_infections != 0.0:
                mismatches.append("lockdown produced nonzero expected infections")
            if any(p.kind == MASK_MANDATE for p in policies):
                game = pair_game(
                    HealthStatus.SUSCEPTIBLE, HealthStatus.SUSCEPTIBLE, scenario.mask_costs
                )
                restricted = restrict(game, ["out"], ["out"])
                if oracle.enumerate_pure_ne(restricted) != pure_nash_equilibria(restricted):
                    mismatches.append("restricted mandate game disagrees with enumeration")
        _fail_verify(mismatches)

    for (name, _), texts in zip(named_sets, warnings):
        for text in texts:
            print(f"epigames: warning: [policies].{name}: {text}", file=sys.stderr)
    return _render_rows(
        [
            "rank",
            "name",
            "policies",
            "decision",
            "z_star",
            "group_size",
            "expected_infections",
            "social_cost",
            "testing_outlay",
            "suppressed_benefit",
            "designer_cost",
        ],
        rows,
        opts,
    )


# subcommand -> (help line, handler), in the order --help lists them
_COMMANDS = {
    "mask-basic": ("pair games with equilibria, social optima, and dominance", _cmd_mask_basic),
    "mask-bayesian": ("mask decision under unknown health status", _cmd_mask_bayesian),
    "mask-efficiency": ("mask decision with imperfect protection", _cmd_mask_efficiency),
    "distancing": ("go-out versus stay-home decision", _cmd_distancing),
    "meeting-opt": ("optimal meeting exposure z = group * duration", _cmd_meeting_opt),
    "curves": ("meeting objective sampled over the z domain", _cmd_curves),
    "policy-compare": ("evaluate and rank government policy sets", _cmd_policy_compare),
}
SUBCOMMANDS = tuple(_COMMANDS)


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and emit the report; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 1 <= args.precision <= MAX_PRECISION:
        rule = "at least 1" if args.precision < 1 else f"at most {MAX_PRECISION}"
        print(f"epigames: error: --precision must be {rule}", file=sys.stderr)
        return 1
    opts = ReportOptions(fmt=args.format, precision=args.precision, verify=args.verify)
    try:
        config = parse_scenario(args.scenario)
        if args.grid_steps is not None:
            try:  # MeetingDomain states the grid_steps rule for the flag and the file alike
                domain = config.meeting_domain.replace(grid_steps=args.grid_steps)
            except FieldError as exc:
                print(f"epigames: error: --grid-steps: {exc}", file=sys.stderr)
                return 1
            config = config.replace(meeting_domain=domain)
        report = _COMMANDS[args.command][1](config, opts)
    except ScenarioError as exc:
        print(f"epigames: scenario error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"epigames: domain error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"epigames: verification mismatch: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        sys.stdout.write(report)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(report)
        except OSError as exc:
            print(f"epigames: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
