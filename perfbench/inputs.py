"""Seeded input generator: scenario files and argument lists per workload.

The same workload and seed always give byte-identical files and argument
lists.  Inputs depend only on the seed and on ``scenarios/baseline.ini``;
nothing here imports ``epigames``, so the inputs do not change with the
program under test.
"""

from __future__ import annotations

import configparser
import random
from dataclasses import dataclass

SUBCOMMANDS = (
    "mask-basic",
    "mask-bayesian",
    "mask-efficiency",
    "distancing",
    "meeting-opt",
    "curves",
    "policy-compare",
)

POLICY_KINDS = (
    "mask_mandate",
    "free_masks",
    "gathering_cap",
    "lockdown",
    "mass_testing",
    "targeted_testing",
)

WORKLOADS = ("cli-mix", "policy-sweep", "report-render")

# Expected exit codes.  A malformed input must end in one stderr line with
# exit 1; zero infection risk may also end in a domain error (exit 2) or,
# once zero risk is given a meaning, in a valid report.
VALID = frozenset({0})
INVALID = frozenset({1})
ZERO_RISK = frozenset({0, 2})


@dataclass(frozen=True)
class Op:
    """One unit of work: a subcommand (or ``sweep``) on one scenario file."""

    command: str
    scenario: str
    flags: tuple[str, ...] = ()
    expect: frozenset[int] = VALID
    malformed: str | None = None
    rows: int | None = None  # data rows a ``curves`` report must hold
    policy_sets: int | None = None  # policy sets in a ``sweep`` scenario


@dataclass(frozen=True)
class Inputs:
    files: dict[str, str]
    ops: tuple[Op, ...]


Sections = dict[str, dict[str, str]]


def _read(text: str) -> Sections:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _render(sections: Sections) -> str:
    blocks = []
    for name, pairs in sections.items():
        lines = [f"[{name}]"] + [f"{key} = {value}".rstrip() for key, value in pairs.items()]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _scaled_number(rng: random.Random, raw: str, integer: bool) -> str:
    value = float(raw) * rng.uniform(0.8, 1.25)
    return str(max(1, round(value))) if integer else repr(value)


def _scaled_function(rng: random.Random, raw: str) -> str:
    kind, _, args = raw.partition(":")
    coefficients = [repr(float(part) * rng.uniform(0.8, 1.25)) for part in args.split(",")]
    return f"{kind}:{','.join(coefficients)}"


def _scaled_policies(rng: random.Random, raw: str) -> str:
    entries = []
    for entry in (part.strip() for part in raw.split(",")):
        tokens = []
        for token in entry.split():
            name, sep, value = token.partition("=")
            if sep:
                scaled = float(value) * rng.uniform(0.8, 1.25)
                if name == "limit":
                    value = str(max(1, round(scaled)))
                elif name == "traced_fraction":
                    value = repr(min(1.0, scaled))
                else:
                    value = repr(scaled)
                token = f"{name}={value}"
            tokens.append(token)
        entries.append(" ".join(tokens))
    return ", ".join(entries)


def baseline_variant(rng: random.Random, baseline: Sections) -> Sections:
    """The baseline scenario with every number but grid_steps scaled by 0.8
    to 1.25.

    The scale keeps the baseline's orderings (c_out < c_in < c_infection,
    a <= b) and its probabilities within [0, 1]; z_max only shrinks, since
    the reader caps it at 100.
    """
    out: Sections = {}
    for section, pairs in baseline.items():
        out[section] = {}
        for key, raw in pairs.items():
            if section == "policies":
                value = _scaled_policies(rng, raw) if raw.strip() else raw
            elif section == "functions":
                value = _scaled_function(rng, raw)
            elif (section, key) == ("meeting", "z_max"):
                value = repr(float(raw) * rng.uniform(0.8, 1.0))
            elif (section, key) == ("meeting", "grid_steps"):
                value = raw  # the grid sets the cost of an op; keep it fixed
            else:
                value = _scaled_number(rng, raw, integer=(key == "n"))
            out[section][key] = value
    return out


def _malformed(rng: random.Random, variant: Sections, kind: str) -> tuple[Sections, str, frozenset[int]]:
    """Plant one defect of class ``kind``; returns (sections, command, expected exits)."""
    bad = {section: dict(pairs) for section, pairs in variant.items()}
    if kind == "missing_key":
        section, key = rng.choice(
            [("mask", "c_use"), ("mask", "c_in"), ("bayesian", "p1"), ("distancing", "m"),
             ("functions", "cost"), ("designer", "weight_test")]
        )
        del bad[section][key]
        return bad, rng.choice(SUBCOMMANDS), INVALID
    if kind == "out_of_range":
        section, key, value = rng.choice(
            [("bayesian", "p1", 1 + rng.uniform(0.01, 1)), ("mask", "b", 1 + rng.uniform(0.01, 1)),
             ("distancing", "m", 1 + rng.uniform(0.01, 1)), ("meeting", "z_max", 100 + rng.uniform(1, 50))]
        )
        bad[section][key] = repr(value)
        return bad, rng.choice(SUBCOMMANDS), INVALID
    if kind == "nan_bayesian_rho":
        bad["bayesian"]["rho"] = "nan"
        return bad, "mask-bayesian", INVALID
    if kind == "nan_designer_weight":
        bad["designer"]["weight_infection"] = "nan"
        return bad, "policy-compare", INVALID
    if kind == "inf_life_value":
        bad["distancing"]["L"] = "inf"
        return bad, "distancing", INVALID
    if kind in ("zero_risk_meeting", "zero_risk_policy"):
        bad["distancing"]["rho"] = "0"
        return bad, "meeting-opt" if kind == "zero_risk_meeting" else "policy-compare", ZERO_RISK
    raise ValueError(f"unknown malformed class {kind!r}")


MALFORMED_CLASSES = (
    "missing_key",
    "out_of_range",
    "nan_bayesian_rho",
    "nan_designer_weight",
    "inf_life_value",
    "zero_risk_meeting",
    "zero_risk_policy",
)


def cli_mix(seed: int, baseline_text: str) -> Inputs:
    """28 valid ops (each subcommand with and without --verify, in table
    and csv) and one malformed op after every four valid ones: 35 ops."""
    rng = random.Random(f"cli-mix:{seed}")
    baseline = _read(baseline_text)
    files: dict[str, str] = {}
    valid = []
    for k in range(28):
        name = f"v{k:02d}.ini"
        files[name] = _render(baseline_variant(rng, baseline))
        flags = ("--format", "table" if k % 2 == 0 else "csv")
        if k >= 14:
            flags += ("--verify",)
        valid.append(Op(SUBCOMMANDS[k % 7], name, flags))
    ops: list[Op] = []
    for k, kind in enumerate(MALFORMED_CLASSES):
        ops.extend(valid[4 * k: 4 * k + 4])
        name = f"m{k:02d}.ini"
        sections, command, expect = _malformed(rng, baseline_variant(rng, baseline), kind)
        files[name] = _render(sections)
        ops.append(Op(command, name, ("--format", "table"), expect, kind))
    return Inputs(files, tuple(ops))


def _function(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return f"constant:{rng.uniform(1, 1000)!r}"
    return f"linear:{rng.uniform(0, 50)!r},{rng.uniform(0, 500)!r}"


def _policy_set(rng: random.Random) -> str:
    entries = []
    for kind in rng.sample(POLICY_KINDS, rng.choice((0, 1, 2))):
        if kind == "free_masks":
            kind += f" subsidy={rng.uniform(0, 150)!r}"
        elif kind == "gathering_cap":
            kind += f" limit={rng.randint(1, 50)}"
        elif kind == "mass_testing":
            kind += f" per_test_cost={rng.uniform(10, 100)!r}"
        elif kind == "targeted_testing":
            kind += f" per_test_cost={rng.uniform(10, 100)!r} traced_fraction={rng.random()!r}"
        entries.append(kind)
    return ", ".join(entries)


def _sweep_scenario(rng: random.Random, sets: int, grid_steps: int) -> str:
    u = rng.uniform
    return _render(
        {
            "mask": {"c_out": repr(u(0.5, 2)), "c_in": repr(u(5, 20)), "c_use": repr(u(50, 200)),
                     "c_infection": repr(u(800, 2000)), "a": repr(u(0.2, 0.45)), "b": repr(u(0.5, 0.9))},
            "bayesian": {"rho": repr(u(0.05, 0.6)), "p1": repr(u(0.2, 0.8))},
            "distancing": {"B": repr(u(500, 5000)), "C": repr(u(100, 1000)), "m": repr(u(0.005, 0.08)),
                           "L": repr(u(1e5, 2e7)), "rho": repr(u(0.002, 0.05))},
            "functions": {"benefit": _function(rng), "cost": _function(rng)},
            "meeting": {"z_min": repr(u(0.05, 2)), "z_max": repr(u(20, 100)), "grid_steps": str(grid_steps)},
            "population": {"n": str(rng.randint(100, 100_000))},
            "policies": {f"set{k + 1}": _policy_set(rng) for k in range(sets)},
            "designer": {"weight_infection": repr(u(1e3, 1e5)), "weight_test": repr(u(0.5, 2)),
                         "weight_economic": repr(u(0.5, 2))},
        }
    )


def policy_sweep(seed: int, baseline_text: str) -> Inputs:
    """27 scenarios: every policy-set count from 4 to 12 at three grid sizes
    (10^3, 10^3.5 and 10^4 steps, each within 3%).

    The strata and their order are fixed, so seeds differ in values, not in
    how much work a pass holds or in what runs before an op.
    """
    rng = random.Random(f"policy-sweep:{seed}")
    files: dict[str, str] = {}
    ops = []
    strata = [(sets, steps) for sets in range(4, 13) for steps in (1000, 3162, 10_000)]
    for k, (sets, steps) in enumerate(strata):
        name = f"s{k:02d}.ini"
        files[name] = _sweep_scenario(rng, sets, _jitter(rng, steps))
        ops.append(Op("sweep", name, policy_sets=sets))
    return Inputs(files, tuple(ops))


def _jitter(rng: random.Random, steps: int) -> int:
    """A grid size within 3% of ``steps`` and no larger."""
    return rng.randint(round(steps * 0.97), steps)


def report_render(seed: int, baseline_text: str) -> Inputs:
    """Ten ``curves`` ops and two fast mask reports: 12 ops.

    ``curves`` runs at grids of 10^4 and 10^5 steps in table and csv, with
    and without --verify, and twice at 10^3 steps; every grid is within 3%
    of its size.  ``mask-efficiency --verify`` and ``mask-basic --verify``
    complete the fast group.

    As many ops are faster than the 10^4 group as slower, so the median
    falls in the middle of that group and the 90th percentile in the middle
    of the 10^5 group, never on the edge between two groups, where noise
    would move it most.  The order is fixed: an op's latency depends on
    what ran before it (a 10^5-row report leaves memory to give back), so
    a seeded order would add spread.
    """
    rng = random.Random(f"report-render:{seed}")
    baseline = _read(baseline_text)
    plan = [("curves", "table", True, 1000), ("curves", "csv", False, 1000)]
    plan += [
        ("curves", fmt, verify, steps)
        for steps in (10_000, 100_000)
        for fmt in ("table", "csv")
        for verify in (False, True)
    ]
    plan += [("mask-efficiency", "table", True, None), ("mask-basic", "csv", True, None)]
    files: dict[str, str] = {}
    ops = []
    for k, (command, fmt, verify, steps) in enumerate(plan):
        sections = baseline_variant(rng, baseline)
        rows = None
        if steps is not None:
            rows = _jitter(rng, steps)
            sections["meeting"]["grid_steps"] = str(rows)
            rows += 1
        name = f"r{k:02d}.ini"
        files[name] = _render(sections)
        flags = ("--format", fmt) + (("--verify",) if verify else ())
        ops.append(Op(command, name, flags, rows=rows))
    return Inputs(files, tuple(ops))


GENERATORS = {"cli-mix": cli_mix, "policy-sweep": policy_sweep, "report-render": report_render}


def generate(workload: str, seed: int, baseline_text: str) -> Inputs:
    return GENERATORS[workload](seed, baseline_text)
