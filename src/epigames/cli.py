"""Command-line interface: scenario ingestion, dispatch, report emission.

``run(argv)`` returns the exit code of every outcome, --help's included: 0 success,
1 scenario/usage failure or a report or help that cannot be written, 2 domain
error from a computation, 3 analytic/oracle mismatch under --verify.  Reports go
to the --out target (default stdout); diagnostics go to stderr.  Output is
byte-identical across runs for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import math
import os
import sys
from fractions import Fraction
from itertools import chain
from typing import IO, Callable, Collection, Iterable, Iterator, Sequence

from . import oracle
from .distancing import (
    MAX_GRID_STEPS,
    Decision,
    MeetingDomain,
    curve_series,
    distancing_utility,
    extended_go_decision,
    group_infection_probability,
    optimal_meeting,
    stay_home_decision,
    z_objective,
)
from .errors import DomainError, ScenarioError, VerificationError, echo, read_integer
from .games import solve
from .masks import (
    HealthStatus,
    bayesian_expected_cost,
    bayesian_mask_condition,
    efficiency_analysis,
    efficiency_expected_cost,
    pair_game,
)
from .policy import GATHERING_CAP, LOCKDOWN, designer_cost, evaluate_mechanism, rank
from .scenario import ScenarioConfig, parse_scenario
from .value import Value, check_range

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
_FORMATS = ("table", "csv")


class ReportOptions(Value):
    fmt: str = "table"
    precision: int = 6
    verify: bool = False
    _ranges = {"precision": (1, MAX_PRECISION)}


class _Parser(argparse.ArgumentParser):
    # usage errors are invocation failures, not domain errors: exit 1, not 2, in one line
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")

    def print_help(self, file: IO[str] | None = None) -> None:  # to stdout: the reports' write path
        if file is not None:
            super().print_help(file)
        elif not _write(self.format_help(), None):
            self.exit(1)


# argparse types: argparse prints an ArgumentTypeError's text as it is, but words any
# other error itself, repeating the whole text where these echo 40 characters of it
def _integer_in(owner: type[Value], field: str) -> Callable[[str], int]:
    """The integer a flag's text denotes, by the range ``owner`` states for ``field``."""
    def read(raw: str) -> int:
        try:
            value = read_integer(raw)
            check_range(field, value, *owner._ranges[field])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return read


def _name_in(names: Collection[str]) -> Callable[[str], str]:
    """A name, which must be one of ``names``."""
    def read(raw: str) -> str:
        if raw not in names:
            raise argparse.ArgumentTypeError(f"unknown {echo(raw)}; have {','.join(names)}")
        return raw
    return read


def build_parser() -> argparse.ArgumentParser:
    width = max(map(len, _COMMANDS)) + 2
    table = "".join(f"    {name:<{width}}{descr}\n" for name, (descr, _) in _COMMANDS.items())
    parser = _Parser(
        prog="epigames",
        description="Pandemic decision games: mask/distancing analyses and policy ranking.",
        epilog="commands:\n" + table,
        formatter_class=argparse.RawDescriptionHelpFormatter,  # keeps the table's line breaks
    )
    parser.add_argument("command", type=_name_in(_COMMANDS), metavar="command", help="one of the commands below")
    parser.add_argument("--scenario", required=True, help="path to the scenario file")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", type=_name_in(_FORMATS), default="table", metavar=f"{{{','.join(_FORMATS)}}}",
                        help="table (default) or csv")
    parser.add_argument("--grid-steps", type=_integer_in(MeetingDomain, "grid_steps"), metavar="N",
                        help=f"1 to {MAX_GRID_STEPS:,}; default: the scenario's grid_steps")
    parser.add_argument("--verify", action="store_true", help="cross-check against brute force")
    parser.add_argument("--precision", type=_integer_in(ReportOptions, "precision"), default=6, metavar="D",
                        help=f"1 to {MAX_PRECISION}; default 6")
    return parser


def _cells(column: Iterable[object], opts: ReportOptions) -> Iterator[str]:
    """The text of each cell of one report column: a float to ``opts.precision``
    digits, in a table in exponent form outside (-EXPONENT_FROM, EXPONENT_FROM),
    so nan and inf print as such, and -0.0 as 0; a bool as 'true'/'false';
    anything else as ``str``.  An empty cell is '' in csv and '-' in a table."""
    table = opts.fmt == "table"
    fixed = f".{opts.precision}{'f' if table else 'g'}"
    huge = f".{opts.precision}{'e' if table else 'g'}"
    empty = "-" if table else ""
    return (
        format(value + 0.0, fixed if -EXPONENT_FROM < value < EXPONENT_FROM else huge)
        if isinstance(value, float)
        else empty if value is None
        else ("true" if value else "false") if isinstance(value, bool)
        else str(value) or empty
        for value in column
    )


def _render(header: Sequence[str] | None, columns: Iterable[Iterable[object]], opts: ReportOptions) -> str:
    """A report of ``columns`` under ``header``, if given: csv, or a table that pads
    every column but the last to its widest cell and joins them with two spaces.
    csv streams its cells; a table holds them, to measure its columns."""
    if header is not None:
        columns = [chain([head], column) for head, column in zip(header, columns)]
    if opts.fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(zip(*(_cells(column, opts) for column in columns)))
        return buffer.getvalue()
    texts = [list(_cells(column, opts)) for column in columns]
    template = "".join(f"{{:<{max(map(len, column))}}}  " for column in texts[:-1]) + "{}"
    return "".join(template.format(*row).rstrip() + "\n" for row in zip(*texts))


def _render_kv(pairs: list[tuple[str, object]], opts: ReportOptions) -> str:
    """A key/value report: two columns in a table, the keys as a csv header over one row."""
    keys, values = zip(*pairs)
    if opts.fmt == "csv":
        return _render(keys, [[value] for value in values], opts)
    return _render(None, [keys, values], opts)


def _fail_verify(mismatches: list[str]) -> None:
    if mismatches:
        raise VerificationError("; ".join(mismatches))


def _exact(value: Value) -> Value:
    """A copy of ``value`` with each number field the ``Fraction`` it denotes."""
    return value.replace(**{field: Fraction(getattr(value, field)) for field in value._fields})


def _cmd_mask_basic(config: ScenarioConfig, opts: ReportOptions) -> tuple[str, list[str]]:
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
            for player, dominant in ((1, report.dominant_p1), (2, report.dominant_p2)):
                if oracle.enumerate_dominant(game, player) != list(dominant):
                    mismatches.append(f"{name}: player {player}'s dominant actions disagree with enumeration")
        _fail_verify(mismatches)

    rows = []
    for name, game, report in reports:
        for item, profiles in (("nash_equilibrium", report.pure_nash), ("social_optimum", report.social_optima)):
            for profile in profiles:
                c1, c2 = game.pair(*profile)
                rows.append([name, item, None, *game.profile_labels(profile), float(c1), float(c2)])
        rows += [[name, "dominant_action", 1, game.actions_p1.labels[i], None, None, None] for i in report.dominant_p1]
        rows += [[name, "dominant_action", 2, None, game.actions_p2.labels[i], None, None] for i in report.dominant_p2]
    return _render(
        ["game", "item", "player", "action_p1", "action_p2", "cost_p1", "cost_p2"], zip(*rows), opts
    ), []


def _cmd_mask_bayesian(config: ScenarioConfig, opts: ReportOptions) -> tuple[str, list[str]]:
    costs, setting = config.require("mask_costs", "bayesian")
    condition = bayesian_mask_condition(setting, costs)
    cost_no = bayesian_expected_cost(setting, 0.0, costs)
    cost_use = bayesian_expected_cost(setting, 1.0, costs)
    for name, value in (("expected_cost_no", cost_no), ("expected_cost_use", cost_use)):
        if not math.isfinite(value):
            raise DomainError(f"{name} is {value}: the scenario's magnitudes leave a float's range")

    if opts.verify:
        mismatches = []
        exact_setting, exact_costs = _exact(setting), _exact(costs)
        if not oracle.check_affine(
            lambda p2: bayesian_expected_cost(exact_setting, p2, exact_costs), 0, Fraction(37, 100), 1
        ):
            mismatches.append("expected cost is not affine in the wearing probability")
        exact_no, exact_use = (bayesian_expected_cost(exact_setting, p2, exact_costs) for p2 in (0, 1))
        if condition.wear != (exact_use < exact_no):
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
            ("best_p2", 1.0 if condition.wear else 0.0),
            ("decision", "wear" if condition.wear else "skip"),
        ],
        opts,
    ), []


def _cmd_mask_efficiency(config: ScenarioConfig, opts: ReportOptions) -> tuple[str, list[str]]:
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
    ), []


def _cmd_distancing(config: ScenarioConfig, opts: ReportOptions) -> tuple[str, list[str]]:
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
    ), []


def _cmd_meeting_opt(config: ScenarioConfig, opts: ReportOptions) -> tuple[str, list[str]]:
    params, benefit_fn, cost_fn = config.require("distancing", "benefit_fn", "cost_fn")
    domain = config.meeting_domain
    rho, mortality = params.infection_prob, params.mortality
    optimum = optimal_meeting(benefit_fn, cost_fn, rho, mortality, domain)
    decision = extended_go_decision(
        benefit_fn, cost_fn, rho, mortality, params.life_value, domain
    )

    if opts.verify:
        mismatches = []
        # the kernel repeats z_objective's float operations, so both sides round alike
        if z_objective(optimum.z_star, benefit_fn, cost_fn, rho, mortality) != optimum.value:
            mismatches.append(f"optimum value disagrees with the objective at z={optimum.z_star}")
        grid = oracle.grid_argmin(
            lambda z: -z_objective(z, benefit_fn, cost_fn, rho, mortality),
            domain.z_min,
            domain.z_max,
            domain.grid_steps + 1,
        )
        if not domain.z_min <= optimum.z_star <= domain.z_max:
            mismatches.append(f"optimal z {optimum.z_star} lies outside the window")
        if optimum.value < -grid.f_star:
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
    ), []


def _cmd_curves(config: ScenarioConfig, opts: ReportOptions) -> tuple[str, list[str]]:
    params, benefit_fn, cost_fn = config.require("distancing", "benefit_fn", "cost_fn")
    domain = config.meeting_domain
    zs, values = zip(*curve_series(benefit_fn, cost_fn, params.infection_prob, params.mortality, domain))

    if opts.verify:
        mismatches = []
        for z, value in zip(zs, values):
            # same objective composed from the infection probability; no risk, no bound
            # equal bit for bit: the kernel computes B(z) + C(z) and -expm1(z·log1p(-rho))·m alike
            risk = group_infection_probability(params.infection_prob, z) * params.mortality
            composed = (benefit_fn(z) + cost_fn(z)) / risk if risk else math.inf
            if value != composed:
                mismatches.append(f"objective at z={z} disagrees with composed form")
                break
        _fail_verify(mismatches)

    return _render(["z", "objective"], [zs, values], opts), []


def _cmd_policy_compare(config: ScenarioConfig, opts: ReportOptions) -> tuple[str, list[str]]:
    scenario = config.to_scenario()
    named_sets, model = config.require("policy_sets", "designer")
    reports = [evaluate_mechanism(scenario, policies, model) for _, policies in named_sets]
    ranked = [(*named_sets[k], reports[k]) for k in rank(reports)]  # (name, policies, report)

    rows = []
    for place, (name, policies, report) in enumerate(ranked, start=1):
        outcome = report.citizen_outcome
        rows.append(
            [
                place,
                name,
                "+".join(p.describe() for p in policies) or "(none)",
                outcome.decision.value,
                outcome.z_star,
                report.expected_infections,
                report.social_cost,
                report.testing_outlay,
                report.suppressed_benefit,
                report.designer_cost,
            ]
        )

    if opts.verify:
        mismatches = []
        keys = [(r.designer_cost, r.social_cost) for _, _, r in ranked]
        if keys != sorted(keys):
            mismatches.append("ranking is not sorted by designer then social cost")
        for _, policies, report in ranked:
            # the printed columns in the same float operations
            weighed = designer_cost(
                report.expected_infections, report.testing_outlay, report.suppressed_benefit, model
            )
            if weighed != report.designer_cost:
                mismatches.append("designer cost disagrees with the weighted sum of its columns")
            if any(p.kind == LOCKDOWN for p in policies) and report.expected_infections != 0.0:
                mismatches.append("lockdown produced nonzero expected infections")
            # a go set's z_star lies in [z_min, min(z_max, its caps)]; a lockdown is the cap 0
            caps = [0 if p.kind == LOCKDOWN else p.limit
                    for p in policies if p.kind in (GATHERING_CAP, LOCKDOWN)]
            z_star, domain = report.citizen_outcome.z_star, scenario.meeting_domain
            if z_star is not None and not domain.z_min <= z_star <= min([domain.z_max, *caps]):
                mismatches.append(f"z_star {z_star} lies outside the window its gathering limit allows")
        _fail_verify(mismatches)

    in_file_order = [f"[policies].{name}: {text}"
                     for (name, _), report in zip(named_sets, reports) for text in report.warnings]
    return _render(
        [
            "rank",
            "name",
            "policies",
            "decision",
            "z_star",
            "expected_infections",
            "social_cost",
            "testing_outlay",
            "suppressed_benefit",
            "designer_cost",
        ],
        zip(*rows),
        opts,
    ), in_file_order


# subcommand -> (help line, handler returning the report and the warnings to print after it), in --help's order
_COMMANDS = {
    "mask-basic": ("pair games with equilibria, social optima, and dominance", _cmd_mask_basic),
    "mask-bayesian": ("mask decision under unknown health status", _cmd_mask_bayesian),
    "mask-efficiency": ("mask decision with imperfect protection", _cmd_mask_efficiency),
    "distancing": ("go-out versus stay-home decision", _cmd_distancing),
    "meeting-opt": ("optimal meeting exposure z", _cmd_meeting_opt),
    "curves": ("meeting objective sampled over the z domain", _cmd_curves),
    "policy-compare": ("evaluate and rank government policy sets", _cmd_policy_compare),
}
SUBCOMMANDS = tuple(_COMMANDS)
_FAILURES = {ScenarioError: ("scenario error", 1), DomainError: ("domain error", 2),  # stderr label, exit code
             VerificationError: ("verification mismatch", 3)}


def _detach_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the interpreter's
    flush of what a failed write left buffered cannot fail again at exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # None, or a stand-in with no descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _write(text: str, out: str | None) -> bool:
    """Write ``text`` to the file ``out``, or stdout if None; False, after one stderr line, if it fails."""
    try:
        with (
            contextlib.nullcontext(sys.stdout) if out is None
            else open(out, "w", encoding="utf-8", newline="")
        ) as handle:
            if handle is None:  # fd 1 was closed when the interpreter started
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            raw = getattr(handle, "buffer", None)
            if isinstance(raw, io.RawIOBase):  # -u: the text layer drops what a short write leaves
                data = memoryview(text.encode(handle.encoding, handle.errors))
                while data:
                    data = data[raw.write(data):]  # None (would block) retries from the same byte
            else:
                handle.write(text)
                handle.flush()
    except OSError as exc:
        if out is None:
            _detach_stdout()
        print(f"epigames: cannot write {'<stdout>' if out is None else out}: {exc}", file=sys.stderr)
        return False
    return True


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and emit the report; returns the exit code of every outcome, --help's too."""
    try:
        args = build_parser().parse_args(argv)  # each flag's type checks it, before the scenario is read
    except SystemExit as exc:  # argparse's int exit after --help, a usage error or help it cannot write
        return exc.code  # type: ignore[return-value]
    opts = ReportOptions(fmt=args.format, precision=args.precision, verify=args.verify)
    try:
        config = parse_scenario(args.scenario)
        if args.grid_steps is not None:
            config = config.replace(meeting_domain=config.meeting_domain.replace(grid_steps=args.grid_steps))
        report, warnings = _COMMANDS[args.command][1](config, opts)
    except tuple(_FAILURES) as exc:
        label, code = _FAILURES[type(exc)]
        print(f"epigames: {label}: {exc}", file=sys.stderr)
        return code
    if not _write(report, args.out):
        return 1
    for text in warnings:
        print(f"epigames: warning: {text}", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
