"""Scenario files: a single INI document feeding every subcommand.

Sections map to the input bundles of the analyses: [mask], [bayesian],
[distancing], [functions], [meeting], [population], [policies], [designer].
Sections a subcommand does not use may be omitted; every present value is
validated on parse and violations are reported with the offending section
and key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .distancing import CostBenefitFunction, DistancingParams, MeetingDomain
from .errors import ScenarioError
from .masks import BayesianSetting, EfficiencyParams, MaskCosts
from .policy import POLICY_KINDS, POLICY_PARAMS, DesignerCostModel, Policy, Scenario

# section -> key -> (ScenarioConfig field, attribute of the field's value),
# in file order; attribute None means the field is the value itself.
# [policies] keys are user-chosen policy-set names.
_SECTIONS: dict[str, dict[str, tuple[str, str | None]] | None] = {
    "mask": {
        "c_out": ("mask_costs", "c_out"),
        "c_in": ("mask_costs", "c_in"),
        "c_use": ("mask_costs", "c_use"),
        "c_infection": ("mask_costs", "c_infection"),
        "a": ("efficiency", "a"),
        "b": ("efficiency", "b"),
    },
    "bayesian": {"rho": ("bayesian", "rho"), "p1": ("bayesian", "p1")},
    "distancing": {
        "B": ("distancing", "benefit"),
        "C": ("distancing", "home_cost"),
        "m": ("distancing", "mortality"),
        "L": ("distancing", "life_value"),
        "rho": ("distancing", "infection_prob"),
    },
    "functions": {"benefit": ("benefit_fn", None), "cost": ("cost_fn", None)},
    "meeting": {
        "z_min": ("meeting_domain", "z_min"),
        "z_max": ("meeting_domain", "z_max"),
        "grid_steps": ("meeting_domain", "grid_steps"),
    },
    "population": {"n": ("population", None)},
    "policies": None,
    "designer": {
        "weight_infection": ("designer", "weight_infection"),
        "weight_test": ("designer", "weight_test"),
        "weight_economic": ("designer", "weight_economic"),
    },
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario file; absent sections are None (or carry defaults)."""

    mask_costs: MaskCosts | None
    efficiency: EfficiencyParams
    bayesian: BayesianSetting | None
    distancing: DistancingParams | None
    benefit_fn: CostBenefitFunction | None
    cost_fn: CostBenefitFunction | None
    meeting_domain: MeetingDomain
    population: int | None
    policy_sets: tuple[tuple[str, tuple[Policy, ...]], ...] | None
    designer: DesignerCostModel | None

    def require_mask(self) -> MaskCosts:
        if self.mask_costs is None:
            raise ScenarioError("the [mask] section is required for this command")
        return self.mask_costs

    def require_bayesian(self) -> BayesianSetting:
        if self.bayesian is None:
            raise ScenarioError("the [bayesian] section is required for this command")
        return self.bayesian

    def require_distancing(self) -> DistancingParams:
        if self.distancing is None:
            raise ScenarioError("the [distancing] section is required for this command")
        return self.distancing

    def require_functions(self) -> tuple[CostBenefitFunction, CostBenefitFunction]:
        if self.benefit_fn is None or self.cost_fn is None:
            raise ScenarioError("the [functions] section is required for this command")
        return self.benefit_fn, self.cost_fn

    def require_population(self) -> int:
        if self.population is None:
            raise ScenarioError("the [population] section is required for this command")
        return self.population

    def require_policy_sets(self) -> tuple[tuple[str, tuple[Policy, ...]], ...]:
        if not self.policy_sets:
            raise ScenarioError(
                "the [policies] section with at least one policy set is required"
                " for this command"
            )
        return self.policy_sets

    def require_designer(self) -> DesignerCostModel:
        if self.designer is None:
            raise ScenarioError("the [designer] section is required for this command")
        return self.designer

    def to_scenario(self) -> Scenario:
        """Assemble the full evaluation bundle; every input section required."""
        benefit_fn, cost_fn = self.require_functions()
        return Scenario(
            mask_costs=self.require_mask(),
            efficiency=self.efficiency,
            bayesian=self.require_bayesian(),
            distancing=self.require_distancing(),
            benefit_fn=benefit_fn,
            cost_fn=cost_fn,
            meeting_domain=self.meeting_domain,
            population=self.require_population(),
        )


def _finite(value: float | int, where: str, raw: str) -> None:
    """Reject nan and infinities, which no scenario quantity may take.

    An int is finite by construction and may exceed every float, so it is
    not converted.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioError(f"{where}: expected a finite number, got {raw!r}")


class _SectionReader:
    def __init__(self, parser: configparser.ConfigParser, section: str):
        self.parser = parser
        self.section = section

    def _raw(self, key: str) -> str:
        if not self.parser.has_option(self.section, key):
            raise ScenarioError(f"[{self.section}].{key}: missing required key")
        return self.parser.get(self.section, key)

    def decimal(
        self,
        key: str,
        lo: float | None = None,
        hi: float | None = None,
        lo_open: bool = False,
    ) -> float:
        raw = self._raw(key)
        try:
            value = float(raw)
        except ValueError:
            raise ScenarioError(
                f"[{self.section}].{key}: expected a number, got {raw!r}"
            ) from None
        _finite(value, f"[{self.section}].{key}", raw)
        if lo is not None and (value < lo or (lo_open and value == lo)):
            bound = f"> {lo}" if lo_open else f">= {lo}"
            raise ScenarioError(f"[{self.section}].{key}: must be {bound}, got {raw}")
        if hi is not None and value > hi:
            raise ScenarioError(f"[{self.section}].{key}: must be <= {hi}, got {raw}")
        return value

    def probability(self, key: str) -> float:
        return self.decimal(key, lo=0.0, hi=1.0)

    def integer(self, key: str, lo: int = 1) -> int:
        raw = self._raw(key)
        try:
            value = int(raw)
        except ValueError:
            raise ScenarioError(
                f"[{self.section}].{key}: expected an integer, got {raw!r}"
            ) from None
        if value < lo:
            raise ScenarioError(f"[{self.section}].{key}: must be >= {lo}, got {raw}")
        return value


def _parse_function(section: str, key: str, raw: str) -> CostBenefitFunction:
    text = raw.strip()
    kind, sep, args = text.partition(":")
    kind = kind.strip()
    if not sep or kind not in ("constant", "linear"):
        raise ScenarioError(
            f"[{section}].{key}: expected 'constant:k' or 'linear:slope,intercept',"
            f" got {raw!r}"
        )
    try:
        numbers = [float(part) for part in args.split(",")]
    except ValueError:
        raise ScenarioError(f"[{section}].{key}: malformed coefficients in {raw!r}") from None
    for number in numbers:
        _finite(number, f"[{section}].{key}", raw)
    try:
        if kind == "constant":
            if len(numbers) != 1:
                raise ValueError("constant takes exactly one coefficient")
            return CostBenefitFunction.constant(numbers[0])
        if len(numbers) != 2:
            raise ValueError("linear takes exactly two coefficients")
        return CostBenefitFunction.linear(numbers[0], numbers[1])
    except ValueError as exc:
        raise ScenarioError(f"[{section}].{key}: {exc}") from None


def _parse_policy(set_name: str, text: str) -> Policy:
    tokens = text.split()
    kind = tokens[0]
    if kind not in POLICY_KINDS:
        raise ScenarioError(
            f"[policies].{set_name}: unknown policy {kind!r}; have {', '.join(POLICY_KINDS)}"
        )
    allowed = POLICY_PARAMS[kind]
    params: dict[str, float | int] = {}
    for token in tokens[1:]:
        name, sep, raw_value = token.partition("=")
        if not sep or name not in allowed:
            raise ScenarioError(
                f"[policies].{set_name}: policy {kind} takes"
                f" {'no parameters' if not allowed else 'parameters ' + ', '.join(allowed)},"
                f" got {token!r}"
            )
        try:
            params[name] = int(raw_value) if name == "limit" else float(raw_value)
        except ValueError:
            raise ScenarioError(
                f"[policies].{set_name}: expected a number for {name}, got {raw_value!r}"
            ) from None
        _finite(params[name], f"[policies].{set_name}", token)
    missing = [name for name in allowed if name not in params]
    if missing:
        raise ScenarioError(
            f"[policies].{set_name}: policy {kind} is missing {', '.join(missing)}"
        )
    try:
        return Policy(kind, **params)
    except ValueError as exc:
        raise ScenarioError(f"[policies].{set_name}: {exc}") from None


def _parse_policy_sets(
    parser: configparser.ConfigParser,
) -> tuple[tuple[str, tuple[Policy, ...]], ...]:
    sets = []
    for name, raw in parser.items("policies"):
        entries = [part.strip() for part in raw.split(",") if part.strip()]
        sets.append((name, tuple(_parse_policy(name, entry) for entry in entries)))
    return tuple(sets)


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Read and fully validate a scenario file."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys such as B, C, L are case-sensitive
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioError(
                f"unknown section [{section}]; have {', '.join(sorted(_SECTIONS))}"
            )
        allowed = _SECTIONS[section]
        if allowed is None:
            continue
        for key in parser.options(section):
            if key not in allowed:
                raise ScenarioError(
                    f"[{section}].{key}: unknown key; have {', '.join(allowed)}"
                )

    mask_costs = None
    efficiency = EfficiencyParams()
    if parser.has_section("mask"):
        reader = _SectionReader(parser, "mask")
        c_out = reader.decimal("c_out", lo=0.0, lo_open=True)
        c_in = reader.decimal("c_in", lo=0.0, lo_open=True)
        c_use = reader.decimal("c_use", lo=0.0, lo_open=True)
        c_infection = reader.decimal("c_infection", lo=0.0, lo_open=True)
        if not c_out < c_in < c_infection:
            raise ScenarioError(
                "[mask].c_out/c_in/c_infection: must satisfy c_out < c_in < c_infection,"
                f" got {c_out}, {c_in}, {c_infection}"
            )
        if not c_use < c_infection:
            raise ScenarioError(
                f"[mask].c_use: must be below c_infection, got {c_use} >= {c_infection}"
            )
        mask_costs = MaskCosts(c_out, c_in, c_use, c_infection)
        if parser.has_option("mask", "a") or parser.has_option("mask", "b"):
            a = reader.probability("a")
            b = reader.probability("b")
            if a > b:
                raise ScenarioError(f"[mask].a: must not exceed b, got a={a}, b={b}")
            efficiency = EfficiencyParams(a, b)

    bayesian = None
    if parser.has_section("bayesian"):
        reader = _SectionReader(parser, "bayesian")
        bayesian = BayesianSetting(reader.probability("rho"), reader.probability("p1"))

    dist = None
    if parser.has_section("distancing"):
        reader = _SectionReader(parser, "distancing")
        dist = DistancingParams(
            benefit=reader.decimal("B", lo=0.0),
            home_cost=reader.decimal("C", lo=0.0),
            mortality=reader.probability("m"),
            life_value=reader.decimal("L", lo=0.0),
            infection_prob=reader.probability("rho"),
        )

    benefit_fn = cost_fn = None
    if parser.has_section("functions"):
        reader = _SectionReader(parser, "functions")
        benefit_fn = _parse_function("functions", "benefit", reader._raw("benefit"))
        cost_fn = _parse_function("functions", "cost", reader._raw("cost"))

    meeting = MeetingDomain()
    if parser.has_section("meeting"):
        reader = _SectionReader(parser, "meeting")
        z_min = (
            reader.decimal("z_min", lo=0.0, lo_open=True)
            if parser.has_option("meeting", "z_min")
            else meeting.z_min
        )
        z_max = (
            reader.decimal("z_max", lo=0.0, lo_open=True, hi=100.0)
            if parser.has_option("meeting", "z_max")
            else meeting.z_max
        )
        steps = (
            reader.integer("grid_steps", lo=1)
            if parser.has_option("meeting", "grid_steps")
            else meeting.grid_steps
        )
        if not z_min < z_max:
            raise ScenarioError(
                f"[meeting].z_min: must be below z_max, got z_min={z_min}, z_max={z_max}"
            )
        meeting = MeetingDomain(z_min, z_max, steps)

    population = None
    if parser.has_section("population"):
        population = _SectionReader(parser, "population").integer("n", lo=2)

    policy_sets = None
    if parser.has_section("policies"):
        policy_sets = _parse_policy_sets(parser)

    designer = None
    if parser.has_section("designer"):
        reader = _SectionReader(parser, "designer")
        designer = DesignerCostModel(
            weight_infection=reader.decimal("weight_infection", lo=0.0),
            weight_test=reader.decimal("weight_test", lo=0.0),
            weight_economic=reader.decimal("weight_economic", lo=0.0),
        )

    return ScenarioConfig(
        mask_costs=mask_costs,
        efficiency=efficiency,
        bayesian=bayesian,
        distancing=dist,
        benefit_fn=benefit_fn,
        cost_fn=cost_fn,
        meeting_domain=meeting,
        population=population,
        policy_sets=policy_sets,
        designer=designer,
    )


def format_scenario(config: ScenarioConfig) -> str:
    """Serialize a parsed scenario back to file text (exact round-trip)."""
    blocks = []
    for section, keys in _SECTIONS.items():
        if keys is None:
            if config.policy_sets is None:
                continue
            pairs = [
                (name, ", ".join(_encode_policy(p) for p in policies))
                for name, policies in config.policy_sets
            ]
        else:
            holders = {field: getattr(config, field) for field, _ in keys.values()}
            if any(holder is None for holder in holders.values()):
                continue
            pairs = [
                (key, _encode_value(holders[field], attr)) for key, (field, attr) in keys.items()
            ]
        blocks.append("\n".join([f"[{section}]"] + [f"{key} = {value}" for key, value in pairs]))
    return "\n\n".join(blocks) + "\n"


def _encode_value(holder: object, attr: str | None) -> str:
    value = holder if attr is None else getattr(holder, attr)
    return value.encode() if isinstance(value, CostBenefitFunction) else repr(value)


def _encode_policy(policy: Policy) -> str:
    params = [f"{name}={getattr(policy, name)!r}" for name in POLICY_PARAMS[policy.kind]]
    return " ".join([policy.kind] + params)
