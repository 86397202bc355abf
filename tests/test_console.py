"""End-to-end checks of the console command, each a ``python -m epigames.cli`` process
that must finish within a minute: a change of currency unit, the largest inputs the
bounds allow, and invocations that must fail in one line."""

import re
import subprocess

import pytest

from conftest import BASELINE_FILE, cli_process, edited_scenario
from epigames import cli

BASELINE = str(BASELINE_FILE)


def _report(*args):
    """The stdout of ``epigames *args``, which must exit 0."""
    result = cli_process(args)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _rows(*args):
    """The csv report of ``epigames *args`` split at its commas: no cell here holds one."""
    return [line.split(",") for line in _report(*args, "--format", "csv").splitlines()]


def _lines(pattern, *args):
    """The lines of the report of ``epigames *args`` that ``pattern`` matches at their start."""
    return [line for line in _report(*args).splitlines() if re.match(pattern, line)]


def _times(k, section, *keys):
    """Edits that multiply each of ``keys`` of ``section`` by 2^k, exact in binary floats."""
    return [(section, key, lambda text: repr(float(text) * 2.0**k)) for key in keys]


@pytest.fixture(scope="module")
def larger_unit(tmp_path_factory):
    """The bundled scenario with the four [mask] prices in a unit of currency 2^30 times larger."""
    prices = _times(-30, "mask", "c_out", "c_in", "c_use", "c_infection")
    return edited_scenario(tmp_path_factory.mktemp("unit"), prices)


def test_mask_basic_prints_its_unit_free_columns_alike_in_a_larger_unit(larger_unit):
    # the game, item, player and action columns hold no price, so a change of unit
    # leaves every equilibrium, optimum and dominant action alone
    unit, scaled = ([row[:5] for row in _rows("mask-basic", "--scenario", path)]
                    for path in (BASELINE, larger_unit))
    assert unit == scaled


@pytest.mark.parametrize(
    "command, names",
    [
        ("mask-efficiency", "stationary_p|best_p|use_beats_no|use_beats_no_threshold|degenerate"),
        ("mask-bayesian", "threshold_ratio|best_p2|decision"),
    ],
)
def test_mask_analyses_print_their_unit_free_rows_alike_in_a_larger_unit(larger_unit, command, names):
    unit, scaled = (_lines(f"({names}) ", command, "--scenario", path) for path in (BASELINE, larger_unit))
    assert len(unit) == names.count("|") + 1 and unit == scaled


@pytest.mark.parametrize("command", cli.SUBCOMMANDS)
def test_every_command_verifies_in_a_larger_unit(larger_unit, command):
    _report(command, "--scenario", larger_unit, "--verify")


def test_distancing_decides_alike_with_its_stakes_times_2_to_the_30(tmp_path):
    scaled = edited_scenario(tmp_path, _times(30, "distancing", "B", "C", "L"))
    unit, scaled = (_lines("decision ", "distancing", "--scenario", path) for path in (BASELINE, scaled))
    assert len(unit) == 1 and unit == scaled


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_curves_renders_the_largest_grid(tmp_path, fmt):
    # 1,000,000 steps is MAX_GRID_STEPS: a header and 1,000,001 rows, none of them nan
    largest = tmp_path / f"largest.{fmt}"
    _report("curves", "--scenario", BASELINE, "--grid-steps", "1000000", "--format", fmt,
            "--out", str(largest))
    text = largest.read_text(encoding="utf-8")
    assert text.count("\n") == 1_000_002 and "nan" not in text


def test_policy_compare_ranks_20000_policy_sets_within_a_minute(tmp_path):
    # a one-step meeting grid, and subsidies rising with the set index: each set buys
    # cheaper masks than the one before it, so the last set ranks first
    sets = {f"s{k}": f"free_masks subsidy={k / 1000!r}" for k in range(1, 20_001)}
    path = edited_scenario(tmp_path, [("meeting", "grid_steps", "1")], {"policies": sets})
    assert _rows("policy-compare", "--scenario", path, "--verify")[1][1] == "s20000"


def test_policy_compare_applies_one_set_of_90000_policies_within_a_minute(tmp_path):
    # 90,000 lockdowns are 900 KB, under the 1 MiB cap
    path = edited_scenario(tmp_path, sections={"policies": {"many": ", ".join(["lockdown"] * 90_000)}})
    first = _rows("policy-compare", "--scenario", path, "--verify")[1]
    assert (first[1], first[3]) == ("many", "stay")


def test_a_cap_before_80000_lockdowns_warns_once_of_the_first_conflict(tmp_path):
    policies = ", ".join(["gathering_cap limit=10"] + ["lockdown"] * 80_000)
    path = edited_scenario(tmp_path, sections={"policies": {"many": policies}})
    result = cli_process(
        ["policy-compare", "--scenario", path, "--format", "csv", "--verify"], subprocess.DEVNULL
    )
    assert (result.returncode, result.stderr) == (
        0, "epigames: warning: [policies].many: lockdown overrides gathering_cap (stricter policy wins)\n"
    )


def test_mass_testing_reports_what_targeted_testing_of_everyone_reports(tmp_path):
    # the bundled test_all is mass_testing per_test_cost=50; full traces everyone at that price
    full = ("policies", "full", "targeted_testing per_test_cost=50 traced_fraction=1")
    path = edited_scenario(tmp_path, [full])
    # every field after the policies column
    after = {row[1]: row[3:] for row in _rows("policy-compare", "--scenario", path, "--verify")[1:]}
    assert after["full"] == after["test_all"]


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["nope", "--scenario", BASELINE],
        ["curves"],
        ["curves", "--scenario", BASELINE, "--format", "xml"],
        ["curves", "--scenario", BASELINE, "--precision", "abc"],
    ],
    ids=["no-arguments", "unknown-command", "no-scenario", "format-xml", "precision-abc"],
)
def test_a_bad_invocation_exits_one_with_one_line(args):
    result = cli_process(args)
    assert (result.returncode, result.stdout, result.stderr.count("\n")) == (1, "", 1)
    # argparse words the message differently from one Python version to the next
    assert result.stderr.startswith("epigames: error: ")
