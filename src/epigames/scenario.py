"""Scenario files: a single INI document feeding every subcommand.

Sections map to the input bundles of the analyses: [mask], [bayesian],
[distancing], [functions], [meeting], [population], [policies], [designer].
Sections a subcommand does not use may be omitted; every present value is
validated on parse and violations are reported with the offending section
and key.
"""

from __future__ import annotations

import configparser
import io
import math
from pathlib import Path
from typing import Callable

from .distancing import CostBenefitFunction, DistancingParams, MeetingDomain
from .errors import FieldError, ScenarioError
from .masks import BayesianSetting, EfficiencyParams, MaskCosts
from .policy import POLICY_KINDS, POLICY_PARAMS, DesignerCostModel, Policy, Scenario
from .value import Value


class ScenarioConfig(Value):
    """Parsed scenario file; absent sections are None (or carry defaults)."""

    mask_costs: MaskCosts | None = None
    efficiency: EfficiencyParams = EfficiencyParams()
    bayesian: BayesianSetting | None = None
    distancing: DistancingParams | None = None
    benefit_fn: CostBenefitFunction | None = None
    cost_fn: CostBenefitFunction | None = None
    meeting_domain: MeetingDomain = MeetingDomain()
    population: int | None = None
    policy_sets: tuple[tuple[str, tuple[Policy, ...]], ...] | None = None
    designer: DesignerCostModel | None = None

    def require(self, *names: str):
        """The named fields' values, like ``operator.itemgetter``: one name gives its
        value, several a tuple.  The first field whose section the file omits (or
        leaves empty) raises ScenarioError naming that section.
        """
        values = tuple(getattr(self, name) for name in names)
        for name, value in zip(names, values):
            if value is None or value == ():
                raise ScenarioError(
                    f"the [{_SECTION_OF[name]}] section is required for this command"
                )
        return values[0] if len(values) == 1 else values

    def to_scenario(self) -> Scenario:
        """Assemble the full evaluation bundle; every input section required."""
        names = ("benefit_fn", "cost_fn", "mask_costs", "bayesian", "distancing", "population")
        given = dict(zip(names, self.require(*names)))
        return Scenario(**given, efficiency=self.efficiency, meeting_domain=self.meeting_domain)


def _finite(value: float | int, where: str, raw: str) -> None:
    """Reject nan, infinities and ints beyond every float: no scenario quantity may take them."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large to convert to float
        finite = False
    if not finite:
        raise ScenarioError(f"{where}: expected a finite number, got {raw!r}")


def _number(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"{where}: expected a number, got {raw!r}") from None
    _finite(value, where, raw)
    return value


def _integer(raw: str, where: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ScenarioError(f"{where}: expected an integer, got {raw!r}") from None
    _finite(value, where, raw)
    return value


def _price(raw: str, where: str) -> float:
    # MaskCosts accepts a zero c_out or c_use, which a free_masks subsidy can reach,
    # but a scenario file gives market prices
    value = _number(raw, where)
    if value <= 0:
        raise ScenarioError(f"{where}: must be > 0, got {raw}")
    return value


def _population(raw: str, where: str) -> int:
    # no value type holds the population until to_scenario builds a Scenario
    value = _integer(raw, where)
    if value < 2:
        raise ScenarioError(f"{where}: must be >= 2, got {raw}")
    return value


def _function(raw: str, where: str) -> CostBenefitFunction:
    text = raw.strip()
    kind, sep, args = text.partition(":")
    kind = kind.strip()
    if not sep or kind not in ("constant", "linear"):
        raise ScenarioError(
            f"{where}: expected 'constant:k' or 'linear:slope,intercept', got {raw!r}"
        )
    try:
        numbers = [float(part) for part in args.split(",")]
    except ValueError:
        raise ScenarioError(f"{where}: malformed coefficients in {raw!r}") from None
    for number in numbers:
        _finite(number, where, raw)
    try:
        if kind == "constant":
            if len(numbers) != 1:
                raise ValueError("constant takes exactly one coefficient")
            return CostBenefitFunction.constant(numbers[0])
        if len(numbers) != 2:
            raise ValueError("linear takes exactly two coefficients")
        return CostBenefitFunction.linear(numbers[0], numbers[1])
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


# section -> key -> (ScenarioConfig field, attribute of the field's value, reader of the
# key's text), in file order; attribute None means the field is the value itself.
# [policies] keys are user-chosen policy-set names.
_SECTIONS: dict[str, dict[str, tuple[str, str | None, Callable[[str, str], object]]] | None] = {
    "mask": {
        "c_out": ("mask_costs", "c_out", _price),
        "c_in": ("mask_costs", "c_in", _number),
        "c_use": ("mask_costs", "c_use", _price),
        "c_infection": ("mask_costs", "c_infection", _number),
        "a": ("efficiency", "a", _number),
        "b": ("efficiency", "b", _number),
    },
    "bayesian": {"rho": ("bayesian", "rho", _number), "p1": ("bayesian", "p1", _number)},
    "distancing": {
        "B": ("distancing", "benefit", _number),
        "C": ("distancing", "home_cost", _number),
        "m": ("distancing", "mortality", _number),
        "L": ("distancing", "life_value", _number),
        "rho": ("distancing", "infection_prob", _number),
    },
    "functions": {
        "benefit": ("benefit_fn", None, _function),
        "cost": ("cost_fn", None, _function),
    },
    "meeting": {
        "z_min": ("meeting_domain", "z_min", _number),
        "z_max": ("meeting_domain", "z_max", _number),
        "grid_steps": ("meeting_domain", "grid_steps", _integer),
    },
    "population": {"n": ("population", None, _population)},
    "policies": None,
    "designer": {
        "weight_infection": ("designer", "weight_infection", _number),
        "weight_test": ("designer", "weight_test", _number),
        "weight_economic": ("designer", "weight_economic", _number),
    },
}

# ScenarioConfig field -> the section that holds its keys
_SECTION_OF = {
    field: section for section, keys in _SECTIONS.items() for field, _, _ in (keys or {}).values()
} | {"policy_sets": "policies"}

# ScenarioConfig field -> the type its keys build; the types state the range rules
_TYPES: dict[str, type[Value]] = {
    "mask_costs": MaskCosts,
    "efficiency": EfficiencyParams,
    "bayesian": BayesianSetting,
    "distancing": DistancingParams,
    "meeting_domain": MeetingDomain,
    "designer": DesignerCostModel,
}


def _build(section: str, field: str, given: dict[str | None, object]) -> object:
    """The value of one ScenarioConfig field from the values its keys gave."""
    key_of = {attr: key for key, (owner, attr, _) in _SECTIONS[section].items() if owner == field}
    if field not in _TYPES:  # the field is one key's value
        if None not in given:
            raise ScenarioError(f"[{section}].{key_of[None]}: missing required key")
        return given[None]
    value_type = _TYPES[field]
    for name in value_type._fields:
        if name not in given and name not in value_type._field_defaults:
            raise ScenarioError(f"[{section}].{key_of[name]}: missing required key")
    try:
        return value_type(**given)
    except FieldError as exc:
        named = "/".join(key_of[name] for name in exc.fields)
        raise ScenarioError(f"[{section}].{named}: {exc}") from None


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


def _read_lines(path: str | Path) -> list[str]:
    """The file's lines, decoded as UTF-8 with universal newlines."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    try:
        return io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        before = io.StringIO(data[: exc.start].decode("utf-8"), newline=None).getvalue()
        lineno = before.count("\n") + 1
        raise ScenarioError(
            f"malformed scenario file {path}: line {lineno}:"
            f" byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})"
        ) from None


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Read and fully validate a scenario file.

    The reader checks names, syntax, presence and the two range rules no type
    states; the value types check every other range rule, and the reader
    names the file's section and keys in their errors.
    """
    lines = _read_lines(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys such as B, C, L are case-sensitive
    try:
        parser.read_file(lines, source=str(path))
    except configparser.MissingSectionHeaderError as exc:  # a ParsingError, so caught first
        raise ScenarioError(
            f"malformed scenario file {path}: line {exc.lineno}: expected a [section] header,"
            f" got {exc.line.strip()!r}"
        ) from None
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0]
        raise ScenarioError(
            f"malformed scenario file {path}: line {lineno}: expected 'key = value',"
            f" got {lines[lineno - 1].strip()!r}"
        ) from None
    except configparser.Error as exc:  # duplicates, whose one-line message names the line
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioError(
                f"unknown section [{section}]; have {', '.join(sorted(_SECTIONS))}"
            )
    values: dict[str, object] = {}
    for section, keys in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        if keys is None:
            values["policy_sets"] = _parse_policy_sets(parser)
            continue
        given: dict[str, dict[str | None, object]] = {field: {} for field, _, _ in keys.values()}
        for key, raw in parser.items(section):
            if key not in keys:
                raise ScenarioError(f"[{section}].{key}: unknown key; have {', '.join(keys)}")
            field, attr, read = keys[key]
            given[field][attr] = read(raw, f"[{section}].{key}")
        for field, attrs in given.items():
            values[field] = _build(section, field, attrs)
    return ScenarioConfig(**values)


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
            holders = {field: getattr(config, field) for field, _, _ in keys.values()}
            if any(holder is None for holder in holders.values()):
                continue
            pairs = [
                (key, _encode_value(holders[field], attr))
                for key, (field, attr, _) in keys.items()
            ]
        blocks.append("\n".join([f"[{section}]"] + [f"{key} = {value}" for key, value in pairs]))
    return "\n\n".join(blocks) + "\n"


def _encode_value(holder: object, attr: str | None) -> str:
    value = holder if attr is None else getattr(holder, attr)
    return value.encode() if isinstance(value, CostBenefitFunction) else repr(value)


def _encode_policy(policy: Policy) -> str:
    params = [f"{name}={getattr(policy, name)!r}" for name in POLICY_PARAMS[policy.kind]]
    return " ".join([policy.kind] + params)
