"""Tests for scenario file parsing and validation."""

import pytest

from conftest import SAMPLE_PARAMS, edited_scenario, sample_policy
from epigames import (
    CostBenefitFunction,
    EfficiencyParams,
    Policy,
    ScenarioError,
    parse_scenario,
)
from epigames.policy import POLICY_KINDS, POLICY_PARAMS

FULL = """\
[mask]
c_out = 1
c_in = 10
c_use = 100
c_infection = 1000
a = 0.25
b = 0.5

[bayesian]
rho = 0.5
p1 = 0.5

[distancing]
B = 3000
C = 500
m = 0.034
L = 11300000
rho = 0.0077

[functions]
benefit = linear:10,0
cost = constant:500

[meeting]
z_min = 0.5
z_max = 80
grid_steps = 2000

[population]
n = 1000

[policies]
baseline =
mandate = mask_mandate
combo = free_masks subsidy=50, targeted_testing per_test_cost=5 traced_fraction=0.1

[designer]
weight_infection = 10000
weight_test = 1
weight_economic = 1
"""

MASK_PRICES = "[mask]\nc_out = 1\nc_in = 10\nc_use = 100\nc_infection = 1000\n"


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParsing:
    def test_full_file_parses_every_section(self, tmp_path):
        config = parse_scenario(write(tmp_path, FULL))
        assert config.mask_costs.c_infection == 1000.0
        assert config.efficiency.a == 0.25 and config.efficiency.b == 0.5
        assert config.bayesian.rho == 0.5
        assert config.distancing.life_value == 11_300_000.0
        assert config.benefit_fn == CostBenefitFunction.linear(10, 0)
        assert config.cost_fn == CostBenefitFunction.constant(500)
        assert config.meeting_domain.z_min == 0.5
        assert config.meeting_domain.grid_steps == 2000
        assert config.population == 1000
        assert config.designer.weight_infection == 10_000.0
        names = [name for name, _ in config.policy_sets]
        assert names == ["baseline", "mandate", "combo"]
        assert config.policy_sets[0][1] == ()
        assert config.policy_sets[1][1] == (Policy("mask_mandate"),)
        assert config.policy_sets[2][1] == (
            Policy("free_masks", subsidy=50.0),
            Policy("targeted_testing", per_test_cost=5.0, traced_fraction=0.1),
        )

    def test_partial_file_leaves_other_sections_unset(self, tmp_path):
        config = parse_scenario(write(tmp_path, "[bayesian]\nrho = 0.2\np1 = 0.3\n"))
        assert config.bayesian.p1 == 0.3
        assert config.mask_costs is None
        assert config.distancing is None
        # defaults survive for the sections that have them
        assert config.meeting_domain.z_min == 0.1
        assert config.efficiency.a == pytest.approx(1 / 3)

    def test_mask_efficiencies_default_when_omitted(self, tmp_path):
        config = parse_scenario(
            write(tmp_path, "[mask]\nc_out = 1\nc_in = 2\nc_use = 3\nc_infection = 9\n")
        )
        assert config.efficiency.a == pytest.approx(1 / 3)
        assert config.efficiency.b == pytest.approx(2 / 3)

    @pytest.mark.parametrize("line, a, b", [("a = 0.2", 0.2, 2 / 3), ("b = 0.5", 1 / 3, 0.5)])
    def test_lone_efficiency_takes_the_other_default(self, tmp_path, line, a, b):
        config = parse_scenario(write(tmp_path, MASK_PRICES + line + "\n"))
        assert config.efficiency == EfficiencyParams(a, b)

    def test_lone_efficiency_above_the_default_b_is_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"\[mask\]\.a/b: .*a <= b <= 1, got a=0.9"):
            parse_scenario(write(tmp_path, MASK_PRICES + "a = 0.9\n"))

    def test_every_policy_kind_reads_from_a_file(self, tmp_path):
        lines = ["[policies]"]
        for kind in POLICY_KINDS:
            params = " ".join(f"{name}={SAMPLE_PARAMS[name]}" for name in POLICY_PARAMS[kind])
            lines.append(f"{kind} = {kind} {params}")
        config = parse_scenario(write(tmp_path, "\n".join(lines) + "\n"))
        assert config.policy_sets == tuple((kind, (sample_policy(kind),)) for kind in POLICY_KINDS)

    def test_missing_file_is_a_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            parse_scenario(tmp_path / "nope.ini")

    def test_required_section_errors_name_the_section(self, tmp_path):
        config = parse_scenario(write(tmp_path, "[bayesian]\nrho = 0.2\np1 = 0.3\n"))
        with pytest.raises(ScenarioError, match=r"\[mask\] section"):
            config.require("mask_costs")
        with pytest.raises(ScenarioError, match=r"\[designer\] section"):
            config.require("designer")


MASK_ORDER = r"\[mask\]\.c_out/c_in/c_infection: .* satisfy c_out < c_in < c_infection"
MEETING_WINDOW = r"\[meeting\]\.z_min/z_max: need 0 < z_min < z_max <= 100"
PROBABILITY = r"must be within \[0, 1\]"

# (section, key, value, message): one row per range rule a scenario file can break.
# The value types state each rule, and the reader names the file's section and keys;
# the last two rules are the reader's own.
RANGE_RULES = [
    ("mask", "c_out", "10", MASK_ORDER),
    ("mask", "c_in", "1000", MASK_ORDER),
    ("mask", "c_use", "1000", r"\[mask\]\.c_use/c_infection: .* satisfy c_use < c_infection"),
    ("mask", "a", "0.75", r"\[mask\]\.a/b: .* 0 <= a <= b <= 1"),
    ("mask", "b", "1.5", r"\[mask\]\.a/b: .* 0 <= a <= b <= 1"),
    ("bayesian", "rho", "1.5", r"\[bayesian\]\.rho: rho " + PROBABILITY),
    ("bayesian", "p1", "-0.5", r"\[bayesian\]\.p1: p1 " + PROBABILITY),
    ("distancing", "B", "-1", r"\[distancing\]\.B: benefit must be non-negative"),
    ("distancing", "m", "1.5", r"\[distancing\]\.m: mortality " + PROBABILITY),
    ("distancing", "m", "-0.5", r"\[distancing\]\.m: mortality " + PROBABILITY + r", got -0\.5$"),
    ("distancing", "rho", "1.5", r"\[distancing\]\.rho: infection_prob " + PROBABILITY),
    ("meeting", "z_min", "0", MEETING_WINDOW),
    ("meeting", "z_max", "150", MEETING_WINDOW),
    ("meeting", "z_min", "80", MEETING_WINDOW),
    ("meeting", "grid_steps", "0", r"\[meeting\]\.grid_steps: grid_steps must be within \[1, 1000000\], got 0$"),
    ("designer", "weight_test", "-1", r"\[designer\]\.weight_test: weight_test must be non-neg"),
    ("functions", "benefit", "linear:-1,0", r"\[functions\]\.benefit: slope must be non-negative, got -1\.0$"),
    ("population", "n", "1", r"\[population\]\.n: population must be at least 2, got 1$"),
    ("mask", "c_out", "0", r"\[mask\]\.c_out: must be > 0"),
    ("mask", "c_use", "0", r"\[mask\]\.c_use: must be > 0"),
]


class TestValidationMessages:
    @pytest.mark.parametrize(
        "section, key, value, message",
        [pytest.param(*row, id=f"{row[0]}.{row[1]}={row[2]}") for row in RANGE_RULES],
    )
    def test_range_rule_names_section_and_key(self, tmp_path, section, key, value, message):
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(edited_scenario(tmp_path, [(section, key, value)], text=FULL))

    def test_unknown_section_named(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"unknown section 'masks'"):
            parse_scenario(write(tmp_path, "[masks]\nc_out = 1\n"))

    @pytest.mark.parametrize(
        "text",
        [
            "[DEFAULT]\n\n" + FULL,
            "[DEFAULT]\nfoo = 1\n\n" + FULL,  # not reported as a key of the first section
            # not read as [distancing].rho, which the file omits
            "[DEFAULT]\nrho = 0.0077\n\n" + FULL.replace("L = 11300000\nrho = 0.0077\n", "L = 11300000\n"),
        ],
        ids=["empty", "stray-key", "fills-a-missing-key"],
    )
    def test_default_is_an_unknown_section(self, tmp_path, text):
        with pytest.raises(ScenarioError, match=r"^unknown section 'DEFAULT'; have bayesian, "):
            parse_scenario(write(tmp_path, text))

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"\[bayesian\]: unknown key 'rho2'"):
            parse_scenario(write(tmp_path, "[bayesian]\nrho = 0.5\np1 = 0.5\nrho2 = 1\n"))

    def test_missing_key_named(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"\[bayesian\].p1: missing required key"):
            parse_scenario(write(tmp_path, "[bayesian]\nrho = 0.5\n"))

    def test_non_numeric_value_named(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"\[distancing\].m: expected a number"):
            parse_scenario(
                write(tmp_path, "[distancing]\nB = 1\nC = 1\nm = lots\nL = 1\nrho = 0.5\n")
            )

    def test_malformed_function_named(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"\[functions\].benefit"):
            parse_scenario(
                write(tmp_path, "[functions]\nbenefit = quadratic:1\ncost = constant:1\n")
            )

    def test_linear_function_needs_two_coefficients(self, tmp_path):
        with pytest.raises(ScenarioError, match="two coefficients"):
            parse_scenario(
                write(tmp_path, "[functions]\nbenefit = linear:1\ncost = constant:1\n")
            )

    def test_unknown_policy_named(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"\[policies\].bad: unknown policy"):
            parse_scenario(write(tmp_path, "[policies]\nbad = curfew\n"))

    def test_policy_missing_parameter_named(self, tmp_path):
        with pytest.raises(ScenarioError, match="missing subsidy"):
            parse_scenario(write(tmp_path, "[policies]\nfm = free_masks\n"))

    def test_policy_stray_parameter_named(self, tmp_path):
        with pytest.raises(ScenarioError, match="no parameters"):
            parse_scenario(write(tmp_path, "[policies]\nld = lockdown level=9\n"))


class TestToScenario:
    def test_full_config_assembles(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, FULL)).to_scenario()
        assert scenario.population == 1000

    def test_incomplete_config_reports_missing_section(self, tmp_path):
        config = parse_scenario(write(tmp_path, "[bayesian]\nrho = 0.2\np1 = 0.3\n"))
        with pytest.raises(ScenarioError, match=r"\[functions\] section"):
            config.to_scenario()
