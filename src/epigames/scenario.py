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
from pathlib import Path
from typing import Callable

from .distancing import CostBenefitFunction, DistancingParams, MeetingDomain
from .errors import FieldError, ScenarioError, echo, read_integer, read_number
from .masks import BayesianSetting, EfficiencyParams, MaskCosts
from .policy import DesignerCostModel, Policy, Scenario
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

    _ranges = {"population": Scenario._ranges["population"]}  # the one rule, stated by Scenario

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


# the most bytes a scenario file may hold; the bundled one has under 1 KiB
MAX_SCENARIO_BYTES = 1 << 20


# The readers turn a key's text into its value and raise ValueError when they
# cannot; the value types then check every range rule but the one below.
def _price(raw: str) -> float:
    # MaskCosts accepts a zero c_out or c_use, which a free_masks subsidy can reach,
    # but a scenario file gives market prices
    value = read_number(raw)
    if value <= 0:
        raise ValueError(f"must be > 0, got {echo(raw)}")
    return value


def _policies(raw: str) -> tuple[Policy, ...]:
    return tuple(Policy.parse(entry) for entry in raw.split(",") if entry.strip())


def _read(read: Callable[[str], object], raw: str, section: str, key: str) -> object:
    """``read(raw)``, with its ValueError named by the file's section and key."""
    try:
        return read(raw)
    except ValueError as exc:
        raise ScenarioError(f"[{section}].{key}: {exc}") from None


# section -> key -> (ScenarioConfig field, attribute of the field's value, reader of the
# key's text), in file order; attribute None means the field is the value itself.
# [policies] keys are user-chosen policy-set names.
_SECTIONS: dict[str, dict[str, tuple[str, str | None, Callable[[str], object]]] | None] = {
    "mask": {
        "c_out": ("mask_costs", "c_out", _price),
        "c_in": ("mask_costs", "c_in", read_number),
        "c_use": ("mask_costs", "c_use", _price),
        "c_infection": ("mask_costs", "c_infection", read_number),
        "a": ("efficiency", "a", read_number),
        "b": ("efficiency", "b", read_number),
    },
    "bayesian": {"rho": ("bayesian", "rho", read_number), "p1": ("bayesian", "p1", read_number)},
    "distancing": {
        "B": ("distancing", "benefit", read_number),
        "C": ("distancing", "home_cost", read_number),
        "m": ("distancing", "mortality", read_number),
        "L": ("distancing", "life_value", read_number),
        "rho": ("distancing", "infection_prob", read_number),
    },
    "functions": {
        "benefit": ("benefit_fn", None, CostBenefitFunction.parse),
        "cost": ("cost_fn", None, CostBenefitFunction.parse),
    },
    "meeting": {
        "z_min": ("meeting_domain", "z_min", read_number),
        "z_max": ("meeting_domain", "z_max", read_number),
        "grid_steps": ("meeting_domain", "grid_steps", read_integer),
    },
    "population": {"n": ("population", None, read_integer)},
    "policies": None,
    "designer": {
        "weight_infection": ("designer", "weight_infection", read_number),
        "weight_test": ("designer", "weight_test", read_number),
        "weight_economic": ("designer", "weight_economic", read_number),
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


def _read_lines(path: str | Path) -> list[str]:
    """The file's lines, decoded as UTF-8 with universal newlines."""
    try:
        with open(path, "rb") as handle:
            data = handle.read(MAX_SCENARIO_BYTES + 1)  # a device such as /dev/zero never ends
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    if len(data) > MAX_SCENARIO_BYTES:
        raise ScenarioError(f"scenario file {path} is larger than {MAX_SCENARIO_BYTES} bytes")
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

    The reader checks names, syntax, presence and the one range rule no type
    states; the value types check finiteness and every other range rule, and
    the reader names the file's section and keys in their errors.
    """
    lines = _read_lines(path)
    # no header line can name the section "\n", so [DEFAULT] is a section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    parser.optionxform = str  # keys such as B, C, L are case-sensitive
    try:
        parser.read_file(lines, source=str(path))
    except configparser.MissingSectionHeaderError as exc:  # a ParsingError, so caught first
        raise ScenarioError(
            f"malformed scenario file {path}: line {exc.lineno}: expected a [section] header,"
            f" got {echo(exc.line.strip())}"
        ) from None
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0]
        raise ScenarioError(
            f"malformed scenario file {path}: line {lineno}: expected 'key = value',"
            f" got {echo(lines[lineno - 1].strip())}"
        ) from None
    except configparser.DuplicateOptionError as exc:  # its own message repeats the whole key
        raise ScenarioError(
            f"malformed scenario file {path}: line {exc.lineno}: repeated key {echo(exc.option)}"
            f" in section {echo(exc.section)}"
        ) from None
    except configparser.DuplicateSectionError as exc:
        raise ScenarioError(
            f"malformed scenario file {path}: line {exc.lineno}: repeated section {echo(exc.section)}"
        ) from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioError(
                f"unknown section {echo(section)}; have {', '.join(sorted(_SECTIONS))}"
            )
    values: dict[str, object] = {}
    for section, keys in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        if keys is None:  # [policies]: each key names a list of policies
            values["policy_sets"] = tuple(
                (name, _read(_policies, raw, section, name)) for name, raw in parser.items(section)
            )
            continue
        given: dict[str, dict[str | None, object]] = {field: {} for field, _, _ in keys.values()}
        for key, raw in parser.items(section):
            if key not in keys:
                raise ScenarioError(f"[{section}]: unknown key {echo(key)}; have {', '.join(keys)}")
            field, attr, read = keys[key]
            given[field][attr] = _read(read, raw, section, key)
        for field, attrs in given.items():
            values[field] = _build(section, field, attrs)
    try:
        return ScenarioConfig(**values)
    except FieldError as exc:  # ScenarioConfig's one range: the population, no section type's
        raise ScenarioError(f"[population].n: {exc}") from None
