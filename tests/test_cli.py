"""End-to-end tests of the command-line interface."""

import configparser
import contextlib
import csv
import errno
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import BASELINE_FILE, SAMPLE_PARAMS, child_env, cli_process, edited_scenario
from epigames import cli, distancing, oracle, pair_game, parse_scenario, solve
from epigames.distancing import (
    MAX_GRID_STEPS,
    MeetingDomain,
    MeetingOptimum,
    optimal_meeting,
    z_objective,
)
from epigames.policy import POLICY_PARAMS, compare_policies
from epigames.scenario import MAX_SCENARIO_BYTES, _SECTIONS

BASELINE = """\
[mask]
c_out = 1
c_in = 10
c_use = 100
c_infection = 1000

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
z_min = 0.1
z_max = 100
grid_steps = 400

[population]
n = 1000

[policies]
baseline =
mandate = mask_mandate
shutdown = lockdown
test_traced = targeted_testing per_test_cost=50 traced_fraction=0.1

[designer]
weight_infection = 10000
weight_test = 1
weight_economic = 1
"""


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(BASELINE, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestReports:
    def test_mask_bayesian_reports_price_threshold_and_decision(self, capsys, scenario_path):
        code, out, err = run_cli(capsys, "mask-bayesian", "--scenario", scenario_path)
        assert code == 0 and err == ""
        assert "125.000000" in out
        assert "wear" in out

    def test_mask_basic_reports_equilibria_and_optima_with_their_costs(self, capsys, scenario_path):
        code, out, _ = run_cli(capsys, "mask-basic", "--scenario", scenario_path)
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert rows[0] == ["game", "item", "player", "action_p1", "action_p2", "cost_p1", "cost_p2"]
        # selfish play costs 10 + 1000, the optimum 0 + 1001
        assert ["one_infected", "nash_equilibrium", "-", "in", "no", "10.000000", "1000.000000"] in rows
        assert ["one_infected", "social_optimum", "-", "no", "out", "0.000000", "1001.000000"] in rows
        # the infected player has no weakly dominant action, so only player 2 has a row
        assert [row[2] for row in rows if row[:2] == ["one_infected", "dominant_action"]] == ["2"]

    def test_mask_basic_csv_schema(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys, "mask-basic", "--scenario", scenario_path, "--format", "csv"
        )
        rows = parse_csv(out)
        assert rows[0] == ["game", "item", "player", "action_p1", "action_p2", "cost_p1", "cost_p2"]
        assert all(len(row) == 7 for row in rows)
        assert ["one_infected", "nash_equilibrium", "", "in", "no", "10", "1000"] in rows

    def test_curves_csv_has_header_and_full_grid(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys, "curves", "--scenario", scenario_path, "--format", "csv"
        )
        rows = parse_csv(out)
        assert rows[0] == ["z", "objective"]
        assert len(rows) == 1 + 400 + 1  # header + grid_steps + 1 samples
        for row in rows[1:]:
            float(row[0]), float(row[1])  # every field parses as a number

    def test_grid_steps_flag_overrides_the_scenario(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys,
            "curves",
            "--scenario",
            scenario_path,
            "--format",
            "csv",
            "--grid-steps",
            "10",
        )
        assert code == 0
        assert len(parse_csv(out)) == 12

    def test_meeting_opt_reports_optimum_and_decision(self, capsys, scenario_path):
        code, out, _ = run_cli(capsys, "meeting-opt", "--scenario", scenario_path)
        assert code == 0
        assert "z_star" in out and "decision" in out

    def test_distancing_reports_threshold(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys, "distancing", "--scenario", scenario_path, "--format", "csv"
        )
        rows = parse_csv(out)
        index = rows[0].index("life_value_threshold")
        # (3000 + 500) * 3819.7
        assert float(rows[1][index]) == pytest.approx(3500 / (0.0077 * 0.034), rel=1e-4)

    def test_policy_compare_ranks_by_designer_cost(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys, "policy-compare", "--scenario", scenario_path, "--format", "csv"
        )
        rows = parse_csv(out)
        header = rows[0]
        costs = [float(row[header.index("designer_cost")]) for row in rows[1:]]
        assert costs == sorted(costs)
        assert [row[header.index("rank")] for row in rows[1:]] == ["1", "2", "3", "4"]

    def test_precision_flag_controls_rendering(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys, "mask-bayesian", "--scenario", scenario_path, "--precision", "2"
        )
        assert "125.00" in out and "125.000000" not in out


class TestDeterminismAndOutput:
    def test_two_runs_are_byte_identical(self, tmp_path, capsys, scenario_path):
        for command in ("mask-basic", "mask-bayesian", "meeting-opt", "policy-compare"):
            paths = []
            for attempt in ("one", "two"):
                out_path = tmp_path / f"{command}-{attempt}.csv"
                code = cli.run(
                    [
                        command,
                        "--scenario",
                        scenario_path,
                        "--format",
                        "csv",
                        "--out",
                        str(out_path),
                    ]
                )
                assert code == 0
                paths.append(out_path)
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_out_file_matches_stdout(self, tmp_path, capsys, scenario_path):
        code, out, _ = run_cli(capsys, "distancing", "--scenario", scenario_path)
        out_path = tmp_path / "report.txt"
        cli.run(["distancing", "--scenario", scenario_path, "--out", str(out_path)])
        assert out_path.read_text(encoding="utf-8") == out


class TestExitCodes:
    def test_invalid_config_exits_one_and_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[bayesian]\nrho = 1.5\np1 = 0.5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "mask-bayesian", "--scenario", str(path))
        assert code == 1 and out == ""
        assert "[bayesian].rho" in err

    def test_missing_section_exits_one(self, tmp_path, capsys):
        path = tmp_path / "thin.ini"
        path.write_text("[bayesian]\nrho = 0.5\np1 = 0.5\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "mask-basic", "--scenario", str(path))
        assert code == 1 and "[mask] section" in err

    def test_domain_error_exits_two(self, tmp_path, capsys):
        # the risk (1 - (1-rho)^z) * m at z_min underflows to 0
        path = tmp_path / "underflow.ini"
        path.write_text(
            "[distancing]\nB = 1\nC = 1\nm = 1e-321\nL = 10\nrho = 0.0077\n"
            "[functions]\nbenefit = constant:1\ncost = constant:1\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "meeting-opt", "--scenario", str(path))
        assert code == 2 and "domain error" in err

    def test_verify_mismatch_exits_three(self, capsys, scenario_path, monkeypatch):
        monkeypatch.setattr(oracle, "enumerate_pure_ne", lambda game, tol=1e-9: [])
        code, out, err = run_cli(
            capsys, "mask-basic", "--scenario", scenario_path, "--verify"
        )
        assert code == 3 and out == ""
        assert "verification mismatch" in err

    def test_verify_passes_on_every_subcommand(self, capsys, scenario_path):
        for command in cli.SUBCOMMANDS:
            code, _, err = run_cli(capsys, command, "--scenario", scenario_path, "--verify")
            assert code == 0, f"{command} failed verification: {err}"


class TestCommandTable:
    def test_subcommands_match_the_help_listing(self, capsys):
        assert cli.run(["--help"]) == 0
        # subcommands are indented four spaces; wrapped help lines further
        listed = re.findall(r"^ {4}(\S+) +(.+)$", capsys.readouterr().out, re.MULTILINE)
        assert listed == [(name, descr) for name, (descr, _) in cli._COMMANDS.items()]

    def test_help_states_each_default_and_range(self, capsys):
        assert cli.run(["--help"]) == 0
        # argparse wraps long help lines; join them back before matching
        text = " ".join(capsys.readouterr().out.split())
        assert "--format {table,csv} table (default) or csv" in text
        assert "--grid-steps N 1 to 1,000,000; default: the scenario's grid_steps" in text
        assert "--precision D 1 to 17; default 6" in text

    @pytest.mark.parametrize("command", cli.SUBCOMMANDS)
    def test_options_parse_alike_before_and_after_the_command(self, command):
        options = ["--scenario", "s.ini", "--out", "r.csv", "--format", "csv",
                   "--grid-steps", "40", "--verify", "--precision", "3"]
        parser = cli.build_parser()
        after = parser.parse_args([command, *options])
        assert parser.parse_args([*options, command]) == after
        assert (after.command, after.scenario, after.grid_steps, after.precision) == (command, "s.ini", 40, 3)


def _non_finite_cases():
    """(section, key, value template, texts the error must name) for every
    number a scenario holds; the template's {} takes the non-finite value."""
    for section, keys in _SECTIONS.items():
        if section in ("functions", "policies"):
            continue
        for key in keys:
            yield section, key, "{}", (f"[{section}].{key}",)
    for key in ("benefit", "cost"):
        for template in ("constant:{}", "linear:{},0", "linear:0,{}"):
            yield "functions", key, template, (f"[functions].{key}",)
    for kind, names in POLICY_PARAMS.items():
        for name in names:
            params = " ".join(f"{n}={'{}' if n == name else SAMPLE_PARAMS[n]}" for n in names)
            yield "policies", kind, f"{kind} {params}", (f"[policies].{kind}", name)


def _run_with(tmp_path, capsys, section, key, value, *flags):
    """Run policy-compare on BASELINE (with [mask] a, b) with one value replaced."""
    edits = [("mask", "a", "0.25"), ("mask", "b", "0.5"), (section, key, value)]
    return run_cli(capsys, "policy-compare", "--scenario", edited_scenario(tmp_path, edits, text=BASELINE), *flags)


def _assert_one_line_scenario_error(code, out, err, named):
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("epigames: scenario error: ")
    assert all(text in err for text in named)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section, key, template, named",
    [pytest.param(*case, id=f"{case[0]}.{case[1]}={case[2]}") for case in _non_finite_cases()],
)
def test_non_finite_number_exits_one_naming_the_key(
    tmp_path, capsys, section, key, template, named, bad
):
    result = _run_with(tmp_path, capsys, section, key, template.format(bad))
    _assert_one_line_scenario_error(*result, named)


HUGE = "1" + "0" * 400  # an int no float can hold


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        pytest.param("population", "n", HUGE, ("[population].n", "finite"), id="n"),
        pytest.param(
            "policies", "cap", f"gathering_cap limit={HUGE}", ("[policies].cap", "limit", "finite"),
            id="limit",
        ),
    ],
)
def test_int_beyond_every_float_exits_one_naming_the_key(
    tmp_path, capsys, section, key, value, named
):
    result = _run_with(tmp_path, capsys, section, key, value)
    _assert_one_line_scenario_error(*result, named)


# int() refuses a text of more digits than this from Python 3.10.7 on (0: no limit)
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


DIGITS_301 = "1" + "0" * 300  # an int a float holds, of a text longer than an error line echoes


@pytest.mark.parametrize(
    "section, key, value, flags, named",
    [
        pytest.param("population", "n", "1" + "0" * 5000, [], ("[population].n",), id="n"),
        pytest.param("meeting", "grid_steps", "1" + "0" * 5000, [], ("[meeting].grid_steps",), id="grid_steps"),
        pytest.param("distancing", "B", "1." + "0x" * 2499, [], ("[distancing].B", "5000 characters"), id="float"),
        pytest.param("population", "n", "-" + "1" * 4000, [], ("[population].n", "finite"), id="n-below-2"),
        pytest.param("mask", "c_out", "-" + "0" * 5000, [], ("[mask].c_out", "> 0", "5001 characters"), id="price"),
        # a range rule prints the number it refuses, cut as an echoed text is
        pytest.param("meeting", "grid_steps", DIGITS_301, [],
                     ("[meeting].grid_steps: grid_steps must be within", "301 characters"), id="grid_steps-301"),
        pytest.param("meeting", "grid_steps", "40", ["--grid-steps", DIGITS_301],
                     ("argument --grid-steps: grid_steps must be within", "301 characters"), id="grid-steps-flag-301"),
        pytest.param("policies", "cap", f"gathering_cap limit=-{DIGITS_301}", [],
                     ("[policies].cap: limit must be at least 1", "302 characters"), id="limit-301"),
        pytest.param("population", "n", f"-{DIGITS_301}", [],
                     ("[population].n: population must be at least 2", "302 characters"), id="n-301"),
        # the digit clause is for a text int() would read but for its length, not any long text
        pytest.param("population", "n", "x" * 5000, [],
                     ("[population].n: expected an integer, got", "5000 characters"), id="n-5000-letters"),
        pytest.param("meeting", "grid_steps", "40", ["--grid-steps", "x" * 5000],
                     ("argument --grid-steps: expected an integer, got", "5000 characters"),
                     id="grid-steps-flag-5000-letters"),
    ],
)
def test_long_number_text_exits_one_with_a_short_line(tmp_path, capsys, section, key, value, flags, named):
    code, out, err = _run_with(tmp_path, capsys, section, key, value, *flags)
    prefix = "epigames: error: " if flags else "epigames: scenario error: "
    assert (code, out, err.count("\n")) == (1, "", 1) and err.startswith(prefix)
    assert all(text in err for text in named)
    assert len(err) < 200
    if INT_DIGIT_LIMIT and value.isdecimal() and len(value) > INT_DIGIT_LIMIT:  # int() refused the text
        assert f"expected an integer of at most {INT_DIGIT_LIMIT} digits" in err
        assert "5001 characters" in err


@pytest.mark.parametrize(
    "value",
    [
        "1.0",
        "1e3",
        pytest.param("1" + "0" * 5000, id="5001-digits",
                     marks=pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() reads any length")),
    ],
)
def test_a_gathering_limit_is_read_as_the_population_is(tmp_path, capsys, value):
    population = _run_with(tmp_path, capsys, "population", "n", value)
    limit = _run_with(tmp_path, capsys, "policies", "c", f"gathering_cap limit={value}")
    _assert_one_line_scenario_error(*limit, ("[policies].c: expected an integer",))
    assert limit[2].replace("[policies].c", "[population].n").replace(" for limit", "") == population[2]


def test_a_repeated_policy_parameter_exits_one_naming_it(tmp_path, capsys):
    result = _run_with(tmp_path, capsys, "policies", "c", "free_masks subsidy=1 subsidy=500")
    _assert_one_line_scenario_error(*result, ("[policies].c: repeated parameter 'subsidy'",))


LONG = "y" * 5000


@pytest.mark.parametrize(
    "text, named",
    [
        pytest.param(BASELINE.replace("baseline =", f"baseline = {LONG}"),
                     ("[policies].baseline", "unknown policy kind"), id="policy-kind"),
        pytest.param(BASELINE.replace("baseline =", f"baseline = free_masks subsidy={LONG}"),
                     ("[policies].baseline", "expected a number for subsidy"), id="policy-number"),
        pytest.param(BASELINE.replace("baseline =", f"baseline = lockdown {LONG}=1"),
                     ("[policies].baseline", "does not take"), id="policy-parameter"),
        pytest.param(BASELINE.replace("[mask]\n", f"[mask]\n{LONG} = 1\n"),
                     ("[mask]: unknown key",), id="key"),
        pytest.param(BASELINE + f"[{LONG}]\nx = 1\n", ("unknown section",), id="section"),
        pytest.param(BASELINE.replace("linear:10,0", LONG), ("[functions].benefit",), id="function"),
        pytest.param(BASELINE.replace("[mask]\n", f"[mask]\n{LONG}\n"), ("line 2",), id="line"),
        pytest.param(f"{LONG}\n{BASELINE}", ("line 1", "[section] header"), id="header"),
        pytest.param(BASELINE.replace("[mask]\n", f"[mask]\n{LONG} = 1\n{LONG} = 2\n"),
                     ("line 3", "repeated key", "in section 'mask'"), id="repeated-key"),
        pytest.param(BASELINE + f"[{LONG}]\nx = 1\n[{LONG}]\n", ("repeated section",), id="repeated-section"),
    ],
)
def test_long_echoed_text_exits_one_with_a_short_line(tmp_path, capsys, text, named):
    path = tmp_path / "long.ini"
    path.write_text(text, encoding="utf-8")
    result = run_cli(capsys, "policy-compare", "--scenario", str(path))
    _assert_one_line_scenario_error(*result, (*named, "5000 characters"))
    err = result[2].replace(str(path), "")
    # the text is cut to 40 characters; the unknown-kind line also lists the six kinds
    assert LONG[:41] not in err and len(err) < 250


@pytest.mark.parametrize(
    "content, named",
    [
        pytest.param(b"[mask]\nc_out = 1\xff\n", ("line 2", "0xff", "UTF-8"), id="not-utf8"),
        pytest.param(b"[mask]\nc_out = 1\nc_in\n", ("line 3", "'c_in'"), id="no-equals-sign"),
        pytest.param(b"\xef\xbb\xbf[mask]\nc_out = 1\n", ("line 1", "header", "\\ufeff"), id="byte-order-mark"),
    ],
)
def test_unreadable_file_exits_one_naming_file_and_line(tmp_path, capsys, content, named):
    path = tmp_path / "raw.ini"
    path.write_bytes(content)
    result = run_cli(capsys, "mask-basic", "--scenario", str(path))
    _assert_one_line_scenario_error(*result, (str(path), *named))


def test_renderers_spell_every_kind_of_cell():
    # the golden digests hold no bool or -inf cell, so this pins them
    header = ["none", "yes", "no", "int", "text", "empty", "inf", "neg", "half"]
    row = [None, True, False, 3, "x", "", float("inf"), float("-inf"), 0.5]
    columns = list(zip(row, row[::-1]))
    table = cli._render(header, columns, cli.ReportOptions(fmt="table", precision=3))
    assert table == (
        "none   yes   no     int  text  empty  inf    neg   half\n"
        "-      true  false  3    x     -      inf    -inf  0.500\n"
        "0.500  -inf  inf    -    x     3      false  true  -\n"
    )
    text = cli._render(header, columns, cli.ReportOptions(fmt="csv", precision=3))
    assert text == (
        "none,yes,no,int,text,empty,inf,neg,half\n"
        ",true,false,3,x,,inf,-inf,0.5\n"
        "0.5,-inf,inf,,x,3,false,true,\n"
    )


def test_cli_import_loads_only_the_standard_library():
    # the runtime is stdlib-only, and numpy or scipy may be installed alongside it, so a
    # stray import would go unnoticed; under -S, which keeps site hooks and site-packages
    # out, such an import fails outright, and one found on PYTHONPATH is listed.
    # dataclasses and the introspection modules it imports are standard, but would add
    # about 35 ms to every command's start-up
    code = (
        "import sys, epigames.cli\n"
        "loaded = {name.partition('.')[0] for name in sys.modules}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'epigames', '__main__'}))\n"
        "print(sorted(loaded & {'dataclasses', 'inspect', 'ast', 'dis'}))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], env=child_env(), capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "[]\n[]\n"), result.stderr


# sha256 of every report on scenarios/baseline.ini: a change that alters a report's
# bytes must update this table on purpose
GOLDEN_DIGESTS = {
    ("mask-basic", "table"): "526f192236fb73c1a58ba6b06afb3a1c4bafb6649cd7984791893c50c7194388",
    ("mask-basic", "csv"): "3ade15f5a2e64f77c4b6dfbb5166e8d62f30b6890a053051953137edd98a763c",
    ("mask-bayesian", "table"): "d87fad94b8d5420aabbbda5a6a53fbec09680a1d25974d93fee695eecde066b1",
    ("mask-bayesian", "csv"): "8f1f313d896fdc01df7cf94a695153a76732c47c65c4225e8cc07140537a8464",
    ("mask-efficiency", "table"): "3d4935fa47a0f09d9889bb99895069270ffd108660ccc25edd1360a751befacd",
    ("mask-efficiency", "csv"): "81d8331e8a681527ca8703e20dfb3a25a18e9716642c6de593e11b955fbb6cf9",
    ("distancing", "table"): "d1b5bb665169c2023d016b3569807356d0f809ad9aab4737a4fc3b179ee7d5df",
    ("distancing", "csv"): "92e50d5c72687a5c0efab44502a344975da7d4ac576680cd1030d10e0609e303",
    ("meeting-opt", "table"): "9ea075c77488a31e55179a1d466944fb7c1b13cbbefa387e764480e47e97f911",
    ("meeting-opt", "csv"): "623b3033ca1f819ea74b924b132a52dd59b6a3d909a938f4f4c6c14928597c32",
    ("curves", "table"): "6b760e8749ac7179349ca67ce2af1d53e1a9b074b2409ea340483de40afe9d38",
    ("curves", "csv"): "70c46a1c91c204ae18435f09fe753a39f662bdab293f0023d96deb897827d586",
    ("policy-compare", "table"): "d1a3a4664ba5fd232876a3b539e603c88cfd92cb0441656b32554a0aa1824d50",
    ("policy-compare", "csv"): "832562601372f76f4702712755472175ded9d8849df6150f6f7651fb2a3262dc",
}


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("command", cli.SUBCOMMANDS)
def test_baseline_reports_match_their_golden_digests(capsys, command, fmt):
    args = [command, "--scenario", str(BASELINE_FILE), "--format", fmt]
    runs = [run_cli(capsys, *args)]
    # set and dict order must not leak into a report: each hash seed, checked or not, prints it alike
    for seed in ("0", "1"):
        for flags in ([], ["--verify"]):
            result = cli_process([*args, *flags], PYTHONHASHSEED=seed)
            runs.append((result.returncode, result.stdout, result.stderr))
    for code, out, err in runs:
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_DIGESTS[command, fmt]


# the reports whose table is two columns of keys and values, and whose csv is one row under the keys
KEY_VALUE_REPORTS = ("mask-bayesian", "mask-efficiency", "distancing", "meeting-opt")


def _assert_same_cells(path, command):
    """Assert that ``command``'s table and csv at --precision 17, where a csv number
    round-trips its double, hold the same cells.  A table row splits on runs of two
    or more spaces, '-' is an empty csv cell, and a table number is the csv's number
    in the table's fixed-point rounding (or in exponent form, which round-trips)."""
    reports = []
    for fmt in ("table", "csv"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([command, "--scenario", path, "--format", fmt, "--precision", "17"])
        assert (code, err.getvalue()) == (0, ""), fmt
        reports.append(out.getvalue())
    table = [re.split(r" {2,}", line) for line in reports[0].splitlines()]
    if command in KEY_VALUE_REPORTS:
        table = [list(row) for row in zip(*table)]
    rows = parse_csv(reports[1])
    assert [len(row) for row in table] == [len(row) for row in rows]
    for table_row, csv_row in zip(table, rows):
        for shown, held in zip(table_row, csv_row):
            if shown != held and (shown, held) != ("-", ""):
                assert float(shown) == float(format(float(held), ".17f")), (table_row, csv_row)


@pytest.mark.parametrize("command", cli.SUBCOMMANDS)
def test_table_and_csv_hold_the_same_cells(command):
    _assert_same_cells(str(BASELINE_FILE), command)


@st.composite
def _mask_costs(draw):
    """The text of a [mask] section: any positive c_out < c_in < c_infection and c_use < c_infection."""
    c_infection = draw(st.floats(1e-300, sys.float_info.max / 4))
    below = st.floats(0, c_infection, exclude_min=True, exclude_max=True)
    c_out, c_in = sorted([draw(below), draw(below)])
    assume(c_out < c_in)
    c_use = draw(below)
    return f"[mask]\nc_out = {c_out!r}\nc_in = {c_in!r}\nc_use = {c_use!r}\nc_infection = {c_infection!r}\n"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(text=_mask_costs())
def test_mask_basic_table_and_csv_hold_the_same_cells(text):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "mask.ini"
        path.write_text(text, encoding="utf-8")
        _assert_same_cells(str(path), "mask-basic")


@pytest.fixture
def grids_returned(monkeypatch):
    """Every tuple ``MeetingDomain.grid`` returns, kept alive so that each build has its own id."""
    returned = []
    grid = MeetingDomain.grid

    def recording(domain):
        returned.append(grid(domain))
        return returned[-1]

    monkeypatch.setattr(MeetingDomain, "grid", recording)
    return returned


def test_one_meeting_opt_run_builds_one_grid(capsys, grids_returned):
    assert run_cli(capsys, "meeting-opt", "--scenario", str(BASELINE_FILE))[0] == 0
    assert len(grids_returned) > 1 and len({id(grid) for grid in grids_returned}) == 1


def test_ranking_the_baseline_policy_sets_builds_one_grid(grids_returned):
    config = parse_scenario(BASELINE_FILE)
    sets = [policies for _, policies in config.policy_sets]
    assert len(sets) == 8
    compare_policies(config.to_scenario(), sets, config.designer)
    assert len(grids_returned) > 1 and len({id(grid) for grid in grids_returned}) == 1


def test_mask_efficiency_verify_differences_costs_near_the_float_range(tmp_path, capsys):
    # 2 * cost_at(0.5) would overflow in the prices' own unit
    edits = [("mask", "c_use", "0.88e308"), ("mask", "c_infection", "0.89e308"),
             ("mask", "a", "0.99"), ("mask", "b", "0.99")]
    path = edited_scenario(tmp_path, edits)
    plain = run_cli(capsys, "mask-efficiency", "--scenario", path)
    assert plain[0] == 0 and plain[2] == ""
    assert run_cli(capsys, "mask-efficiency", "--scenario", path, "--verify") == plain


def test_overflowing_aggregate_exits_two_naming_it(tmp_path, capsys):
    # n converts to a float, but n times a mask price does not fit in one
    edits = [("population", "n", "1" + "0" * 307)]
    path = edited_scenario(tmp_path, edits)
    code, out, err = run_cli(capsys, "policy-compare", "--scenario", path, "--format", "csv")
    assert code == 2 and out == ""
    assert err == (
        "epigames: domain error: social_cost is inf: the scenario's magnitudes leave a float's range\n"
    )


def test_overflowing_testing_spend_exits_two_naming_it(tmp_path, capsys):
    # each test's price is finite, but the population's tests are not
    edits = [("policies", "baseline", "mass_testing per_test_cost=1e306")]
    path = edited_scenario(tmp_path, edits)
    code, out, err = run_cli(capsys, "policy-compare", "--scenario", path, "--format", "csv")
    assert (code, out) == (2, "")
    assert err == (
        "epigames: domain error: testing_outlay is inf: the scenario's magnitudes leave a float's range\n"
    )


@pytest.mark.parametrize(
    "command, edits, message",
    [
        pytest.param(
            "meeting-opt", [("distancing", "m", "1e-321")],
            "meeting objective needs a nonzero risk (1 - (1-rho)^z) * m, got 0 at z=0.1",
            id="risk-underflow",
        ),
        pytest.param(
            # the exact curvature 2 * c_infection * (1-a) * (1-b) is 2e308
            "mask-efficiency", [("mask", "a", "0"), ("mask", "b", "0"), ("mask", "c_infection", "1e308")],
            "second_derivative is inf: the scenario's magnitudes leave a float's range",
            id="curvature-overflow",
        ),
    ],
)
def test_float_range_failures_exit_two_naming_them(tmp_path, capsys, command, edits, message):
    path = edited_scenario(tmp_path, edits)
    for flags in ([], ["--verify"]):
        code, out, err = run_cli(capsys, command, "--scenario", path, *flags)
        assert (code, out, err) == (2, "", f"epigames: domain error: {message}\n")


def test_curvature_whose_float_intermediates_overflow_is_reported(tmp_path, capsys):
    # 2 * c_infection overflows a float, but the curvature (4/9) * c_infection does not
    path = edited_scenario(tmp_path, [("mask", "c_infection", "1e308")])
    for flags in ([], ["--verify"]):
        code, out, err = run_cli(capsys, "mask-efficiency", "--scenario", path, *flags)
        assert (code, err) == (0, "")
        assert dict(line.split(None, 1) for line in out.splitlines())["second_derivative"] == "4.444444e+307"


def test_mask_bayesian_price_threshold_lies_above_c_use_when_wearing(tmp_path, capsys):
    # the ratio times c_infection, each rounded, gives c_use itself
    edits = [("bayesian", "rho", "0.23433096104669637"), ("bayesian", "p1", "0.9956448355104628"),
             ("mask", "c_use", "3.7160490455642816"), ("mask", "c_infection", "4755.608724472235")]
    path = edited_scenario(tmp_path, edits)
    code, out, err = run_cli(
        capsys, "mask-bayesian", "--scenario", path, "--format", "csv", "--precision", "17", "--verify"
    )
    assert (code, err) == (0, "")
    header, row = parse_csv(out)
    cells = dict(zip(header, row))
    assert cells["decision"] == "wear" and float(cells["threshold"]) > float(cells["c_use"])


@st.composite
def _mask_inputs(draw):
    """(a, b, c_use, c_infection, rho, p1), c_use often on or within 2 ulps of a tie."""
    a = draw(st.floats(0, 1))
    b = draw(st.one_of(st.floats(a, 1), st.sampled_from([a, 1.0])))
    rho, p1 = draw(st.floats(0, 1)), draw(st.floats(0, 1))
    c_infection = draw(st.floats(1e-300, sys.float_info.max / 4))
    tie = draw(st.sampled_from(["none", "flat", "stationary_at_0", "stationary_at_1", "bayesian"]))
    if tie == "none":
        c_use = draw(st.floats(0, c_infection, exclude_min=True, exclude_max=True))
    else:
        if tie == "flat":
            b = 1.0
        fa, fb, fi, fr = Fraction(a), Fraction(b), Fraction(c_infection), Fraction(rho)
        c_use = float({
            "flat": fi * (1 - fa),
            "stationary_at_0": fi * (2 - fa - fb),
            "stationary_at_1": fi * (fa + fb - 2 * fa * fb),
            "bayesian": fr * (1 - fr) * (1 - Fraction(p1)) * fi,
        }[tie])
        for _ in range(draw(st.integers(0, 2))):
            c_use = math.nextafter(c_use, draw(st.sampled_from([0.0, math.inf])))
    assume(0 < c_use < c_infection)
    return a, b, c_use, c_infection, rho, p1


@settings(derandomize=True, max_examples=100, deadline=None)
@example((0.5, 1.0, 500.0, 1000.0, 0.5, 0.5))  # a flat efficiency cost
@example((1 / 3, 2 / 3, 125.0, 1000.0, 0.5, 0.5))  # c_use at the Bayesian price threshold
@given(_mask_inputs())
def test_mask_verification_passes_on_every_valid_input(inputs):
    a, b, c_use, c_infection, rho, p1 = inputs
    text = (
        f"[mask]\nc_out = {c_infection / 4!r}\nc_in = {c_infection / 2!r}\nc_use = {c_use!r}\n"
        f"c_infection = {c_infection!r}\na = {a!r}\nb = {b!r}\n\n[bayesian]\nrho = {rho!r}\np1 = {p1!r}\n"
    )
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "mask.ini"
        path.write_text(text, encoding="utf-8")
        for command in ("mask-efficiency", "mask-bayesian"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run([command, "--scenario", str(path), "--verify"])
            assert (code, err.getvalue()) == (0, ""), command


@pytest.mark.parametrize(
    "command, message",
    [
        ("mask-basic", "the cost c_out + c_infection leaves a float's range"),
        ("mask-bayesian", "expected_cost_no is nan: the scenario's magnitudes leave a float's range"),
    ],
)
def test_overflowing_mask_costs_exit_two_naming_the_cost(tmp_path, capsys, command, message):
    # every price is a valid float, but an infected player's c_out + c_infection is not
    edits = [("mask", "c_out", "1e307"), ("mask", "c_in", "1e308"),
             ("mask", "c_use", "1e308"), ("mask", "c_infection", "1.7e308")]
    path = edited_scenario(tmp_path, edits)
    for flags in ([], ["--format", "csv"], ["--verify"]):
        result = run_cli(capsys, command, "--scenario", path, *flags)
        assert result == (2, "", f"epigames: domain error: {message}\n")


def _reference_solution(game_name, costs):
    """Equilibria and optima of one pair game, by label, from the game's rules in exact arithmetic."""
    infected = {"both_susceptible": (False, False), "one_infected": (False, True),
                "both_infected": (True, True)}[game_name]
    price = {"no": 0, "out": Fraction(costs.c_out), "in": Fraction(costs.c_in)}

    def cost(own, other, own_infected, other_infected):
        exposed = other_infected and own != "in" and other != "out"
        return price[own] + (Fraction(costs.c_infection) if own_infected or exposed else 0)

    table = {(x, y): (cost(x, y, *infected), cost(y, x, *infected[::-1])) for x in price for y in price}
    equilibria = [
        (x, y) for x, y in table
        if all(table[x, y][0] <= table[a, y][0] for a in price)
        and all(table[x, y][1] <= table[x, b][1] for b in price)
    ]
    lowest = min(map(sum, table.values()))
    return equilibria, [profile for profile, pair in table.items() if sum(pair) == lowest]


def test_mask_basic_decides_exactly_where_a_float_sum_drops_the_price(tmp_path, capsys):
    # 5.5e14 is a float with a step of 0.0625, so each price vanishes when a float adds it
    edits = [("mask", "c_out", "0.005"), ("mask", "c_in", "0.03"),
             ("mask", "c_use", "0.03"), ("mask", "c_infection", "5.5e14")]
    path = edited_scenario(tmp_path, edits)
    code, out, err = run_cli(capsys, "mask-basic", "--scenario", path, "--verify", "--format", "csv")
    assert (code, err) == (0, "")
    listed = {}
    for game, item, _, lab1, lab2, _, _ in parse_csv(out)[1:]:
        listed.setdefault((game, item), []).append((lab1, lab2))
    assert listed["one_infected", "nash_equilibrium"] == [("in", "no")]
    assert listed["one_infected", "social_optimum"] == [("no", "out")]
    assert listed["both_infected", "nash_equilibrium"] == [("no", "no")]
    assert listed["both_infected", "social_optimum"] == [("no", "no")]
    costs = parse_scenario(path).mask_costs
    for name, status1, status2 in cli._STATUS_PAIRS:
        game = pair_game(status1, status2, costs)
        report = solve(game)
        equilibria = [game.profile_labels(p) for p in report.pure_nash]
        optima = [game.profile_labels(p) for p in report.social_optima]
        assert _reference_solution(name, costs) == (equilibria, optima)
        assert [game.profile_labels(p) for p in oracle.enumerate_pure_ne(game)] == equilibria


@pytest.mark.parametrize("command", ["meeting-opt", "curves", "policy-compare"])
def test_tiny_infection_risk_gives_a_report(tmp_path, capsys, command):
    # the risk at z_min is about 1e-201: 1 - (1-rho)^z rounded it to 0, its stable form does not
    path = edited_scenario(tmp_path, [("distancing", "rho", "1e-200")])
    for flags in ([], ["--verify"]):
        code, out, err = run_cli(capsys, command, "--scenario", path, "--format", "csv", *flags)
        assert (code, err) == (0, "")
        assert not {"nan", "inf", "-inf"} & {cell for row in parse_csv(out) for cell in row}


@pytest.mark.parametrize("key", ["rho", "m"])
@pytest.mark.parametrize("command", ["meeting-opt", "curves", "policy-compare"])
def test_zero_risk_goes_out_at_z_min_with_unbounded_stakes(tmp_path, capsys, command, key):
    edits = [("distancing", key, "0"), ("meeting", "grid_steps", "40")]
    path = edited_scenario(tmp_path, edits)
    for flags in ([], ["--verify"]):
        code, out, err = run_cli(capsys, command, "--scenario", path, "--format", "csv", *flags)
        assert (code, err) == (0, "")
        header, *rows = parse_csv(out)
        records = [dict(zip(header, row)) for row in rows]
        if command == "meeting-opt":
            assert [(r["z_star"], r["value"], r["decision"]) for r in records] == [("0.1", "inf", "go")]
        elif command == "curves":
            assert len(records) == 41 and {r["objective"] for r in records} == {"inf"}
        else:  # every set but the lockdown goes out at z_min; with rho = 0 no one is infected
            assert {(r["decision"], r["z_star"]) for r in records if r["name"] != "shutdown"} == {("go", "0.1")}
            assert key == "m" or {r["expected_infections"] for r in records} == {"0"}


def test_scenario_at_the_size_cap_is_read(tmp_path, capsys):
    text = BASELINE_FILE.read_bytes()
    path = tmp_path / "padded.ini"
    path.write_bytes(text + b"#" * (MAX_SCENARIO_BYTES - len(text) - 1) + b"\n")
    assert path.stat().st_size == MAX_SCENARIO_BYTES
    assert run_cli(capsys, "mask-basic", "--scenario", str(path)) == run_cli(
        capsys, "mask-basic", "--scenario", str(BASELINE_FILE)
    )


def test_scenario_over_the_size_cap_exits_one_naming_the_file(tmp_path, capsys):
    path = tmp_path / "huge.ini"
    path.write_bytes(b"#" * (MAX_SCENARIO_BYTES + 1))
    result = run_cli(capsys, "mask-basic", "--scenario", str(path))
    _assert_one_line_scenario_error(*result, (str(path), f"larger than {MAX_SCENARIO_BYTES} bytes"))


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_device_exits_one_after_reading_past_the_cap(capsys):
    result = run_cli(capsys, "mask-basic", "--scenario", "/dev/zero")
    _assert_one_line_scenario_error(*result, ("/dev/zero", "larger than"))


FLAT_WINDOW = [("distancing", "rho", "1"), ("distancing", "m", "1"), ("functions", "benefit", "constant:0"),
               ("functions", "cost", "linear:1e-9,4096"), ("meeting", "z_min", "91.9375"),
               ("meeting", "z_max", "92"), ("meeting", "grid_steps", "121")]


@pytest.mark.parametrize(
    "command, edits",
    [
        # b = 1 makes the cost affine in p: curvature 0, and finite differences show only rounding
        pytest.param("mask-efficiency", [("mask", "b", "1")], id="affine-efficiency-cost"),
        # b = 1 and c_use = c_infection * (1 - a): every p costs exactly c_infection
        pytest.param(
            "mask-efficiency", [("mask", "a", "0.5"), ("mask", "b", "1"), ("mask", "c_use", "500")],
            id="flat-efficiency-cost",
        ),
        # costs near 1e15 round by more than any fixed absolute tolerance
        pytest.param(
            "mask-bayesian",
            [("mask", "c_use", "32.8125"), ("mask", "c_infection", "1438981698254944.0")],
            id="large-bayesian-costs",
        ),
        # a near-tie at stakes near 1e8, where the threshold and the utilities round apart
        pytest.param(
            "distancing",
            [("distancing", "B", "94824870.72526337"), ("distancing", "C", "25438.176548244726"),
             ("distancing", "m", "0.7758600661949692"), ("distancing", "L", "138490728.1486289"),
             ("distancing", "rho", "0.8827437508640471")],
            id="near-tie-distancing",
        ),
        # a window flat to below one ulp per grid step, where the scan's tie rule picks an inner point
        *(pytest.param(command, FLAT_WINDOW, id=f"flat-window-{command}") for command in ("meeting-opt", "curves")),
    ],
)
def test_verify_tolerates_rounding(tmp_path, capsys, command, edits):
    path = edited_scenario(tmp_path, edits)
    code, out, err = run_cli(capsys, command, "--scenario", path, "--verify")
    assert (code, err) == (0, "")


def test_curves_verify_rejects_one_value_one_ulp_off(capsys, monkeypatch):
    kernel = distancing.objective_values

    def nudged(zs, *args):
        values = kernel(zs, *args)
        middle = len(values) // 2
        values[middle] = math.nextafter(values[middle], math.inf)
        return values

    monkeypatch.setattr(distancing, "objective_values", nudged)
    code, out, err = run_cli(capsys, "curves", "--scenario", str(BASELINE_FILE), "--verify")
    assert (code, out) == (3, "") and "disagrees with composed form" in err


def _value_one_ulp_low(*args):
    optimum = optimal_meeting(*args)
    return MeetingOptimum(optimum.z_star, math.nextafter(optimum.value, -math.inf))


def _next_grid_point(benefit_fn, cost_fn, rho, m, domain):
    points = domain.grid()
    z = points[points.index(optimal_meeting(benefit_fn, cost_fn, rho, m, domain).z_star) + 1]
    return MeetingOptimum(z, z_objective(z, benefit_fn, cost_fn, rho, m))


@pytest.mark.parametrize(
    "misreport, message",
    [
        pytest.param(_value_one_ulp_low, "optimum value disagrees with the objective", id="value-one-ulp-low"),
        pytest.param(_next_grid_point, "optimum value does not dominate the sampled grid", id="next-grid-point"),
    ],
)
def test_meeting_opt_verify_rejects_a_misreported_optimum(capsys, monkeypatch, misreport, message):
    monkeypatch.setattr(cli, "optimal_meeting", misreport)
    code, out, err = run_cli(capsys, "meeting-opt", "--scenario", str(BASELINE_FILE), "--verify")
    assert (code, out) == (3, "") and message in err


def _cost_benefit_texts():
    """A constant or linear function's text, with a zero intercept often."""
    coefficient = st.one_of(st.just(0.0), st.floats(0, 1e6))
    return st.one_of(
        st.builds("constant:{!r}".format, coefficient),
        st.builds("linear:{!r},{!r}".format, coefficient, st.one_of(st.just(0.0), coefficient)),
    )


@st.composite
def _meeting_scenarios(draw):
    """(rho, m, z_min, z_max, grid_steps, benefit, cost): extreme risks, windows down to 1e-14 wide."""
    rho = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-17, 1.0]), st.floats(0, 1)))
    m = draw(st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0, 1)))
    z_min = draw(st.floats(1e-3, 99))
    z_max = min(100.0, z_min * (1 + draw(st.one_of(st.floats(1e-14, 1e-6), st.floats(1e-6, 1e3)))))
    assume(z_min < z_max)
    steps = draw(st.integers(1, 10_000))
    return rho, m, z_min, z_max, steps, draw(_cost_benefit_texts()), draw(_cost_benefit_texts())


@settings(derandomize=True, max_examples=100, deadline=None)
# a window flat to below one ulp per step, where the scan's tie rule picks an inner point
@example((1.0, 1.0, 91.9375, 92.0, 121, "constant:0", "linear:1e-9,4096"))
@given(_meeting_scenarios())
def test_meeting_verification_passes_on_every_valid_scenario(scenario):
    rho, m, z_min, z_max, steps, benefit, cost = scenario
    text = (
        f"[distancing]\nB = 1\nC = 1\nm = {m!r}\nL = 1000\nrho = {rho!r}\n\n"
        f"[functions]\nbenefit = {benefit}\ncost = {cost}\n\n"
        f"[meeting]\nz_min = {z_min!r}\nz_max = {z_max!r}\ngrid_steps = {steps}\n"
    )
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "meeting.ini"
        path.write_text(text, encoding="utf-8")
        for command in ("meeting-opt", "curves"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run([command, "--scenario", str(path), "--verify"])
            event(f"{command} exits {code}")
            # a risk too small to register at z_min is a domain error, never a mismatch
            assert code == 0 or (code == 2 and "domain error" in err.getvalue()), (command, err.getvalue())


def test_policy_warnings_go_to_stderr_in_input_order(tmp_path, capsys):
    edits = [
        ("policies", "tested", "gathering_cap limit=10, lockdown, mass_testing per_test_cost=50"),
        ("policies", "locked", "lockdown, gathering_cap limit=5"),
    ]
    path = edited_scenario(tmp_path, edits)
    code, out, err = run_cli(capsys, "policy-compare", "--scenario", path)
    assert code == 0
    # "locked" ranks above "tested", but warnings follow the scenario file's order
    assert out.index(" locked ") < out.index(" tested ")
    assert err == (
        "epigames: warning: [policies].tested: lockdown overrides gathering_cap"
        " (stricter policy wins)\n"
        "epigames: warning: [policies].locked: gathering_cap has no effect under lockdown"
        " (stricter policy wins)\n"
    )


def test_equal_sets_keep_file_order_in_names_and_warnings(tmp_path, capsys):
    # rising subsidies rank in reverse file order; the three lockdowns tie, so the
    # two equal sets among them take their names in file order
    warned = "lockdown, gathering_cap limit=5"
    policies = [("first", "free_masks subsidy=1"), ("twin", warned), ("second", "free_masks subsidy=2"),
                ("twin_again", warned), ("third", "free_masks subsidy=3"),
                ("other", "gathering_cap limit=10, lockdown")]
    text = BASELINE_FILE.read_text(encoding="utf-8").split("[policies]")[0]
    text += "[policies]\n" + "".join(f"{name} = {sets}\n" for name, sets in policies)
    text += "[designer]\nweight_infection = 10000\nweight_test = 1\nweight_economic = 1\n"
    path = tmp_path / "repeated.ini"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "policy-compare", "--scenario", str(path), "--format", "csv", "--verify")
    assert code == 0
    assert [row[1] for row in parse_csv(out)[1:]] == ["third", "second", "first", "twin", "twin_again", "other"]
    assert err == (
        "epigames: warning: [policies].twin: gathering_cap has no effect under lockdown"
        " (stricter policy wins)\n"
        "epigames: warning: [policies].twin_again: gathering_cap has no effect under lockdown"
        " (stricter policy wins)\n"
        "epigames: warning: [policies].other: lockdown overrides gathering_cap"
        " (stricter policy wins)\n"
    )


def test_a_set_warns_once_of_its_first_conflict(tmp_path, capsys):
    edits = [("policies", "many", ", ".join(["gathering_cap limit=10"] + ["lockdown"] * 1000))]
    path = edited_scenario(tmp_path, edits)
    code, _, err = run_cli(capsys, "policy-compare", "--scenario", path, "--format", "csv")
    assert code == 0
    assert err == "epigames: warning: [policies].many: lockdown overrides gathering_cap (stricter policy wins)\n"


def test_an_unwritable_out_exits_one_with_one_line_and_no_warning(tmp_path, capsys):
    edits = [("policies", "locked", "lockdown, gathering_cap limit=5")]
    path = edited_scenario(tmp_path, edits)
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, "policy-compare", "--scenario", path, "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith(f"epigames: cannot write {target}: ") and err.count("\n") == 1
    # written, the same report warns
    code, _, err = run_cli(capsys, "policy-compare", "--scenario", path, "--out", str(tmp_path / "report.txt"))
    assert code == 0 and err.startswith("epigames: warning: [policies].locked: ")


def _os_error(code):
    """The ``OSError`` a failed system call raises with ``code``."""
    return OSError(code, os.strerror(code))


class _FailingStdout(io.StringIO):
    """A stdout stand-in whose ``method`` ('write' or 'flush') raises ``error``."""

    def __init__(self, method, error):
        super().__init__()
        self.method, self.error = method, error

    def write(self, text):
        if self.method == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise self.error


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize(
    "error",
    [_os_error(errno.EPIPE), _os_error(errno.ENOSPC)],
    ids=["closed-pipe", "full-device"],
)
def test_an_unwritable_stdout_exits_one_with_one_line_and_no_warning(tmp_path, method, error):
    # an unbuffered stdout fails in write, a buffered one in flush
    edits = [("policies", "locked", "lockdown, gathering_cap limit=5")]
    path = edited_scenario(tmp_path, edits)
    err = io.StringIO()
    with contextlib.redirect_stdout(_FailingStdout(method, error)), contextlib.redirect_stderr(err):
        code = cli.run(["policy-compare", "--scenario", path])
    assert (code, err.getvalue()) == (1, f"epigames: cannot write <stdout>: {error}\n")


def test_a_closed_stdout_exits_one_with_one_line():
    # the interpreter sets sys.stdout to None when it starts with fd 1 closed
    err = io.StringIO()
    with contextlib.redirect_stdout(None), contextlib.redirect_stderr(err):
        code = cli.run(["mask-basic", "--scenario", str(BASELINE_FILE)])
    assert (code, err.getvalue()) == (1, f"epigames: cannot write <stdout>: {_os_error(errno.EBADF)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_a_full_device_on_stdout_exits_one_with_one_line(unbuffered):
    with open("/dev/full", "w") as full:
        result = cli_process(
            ["mask-basic", "--scenario", str(BASELINE_FILE)], full, PYTHONUNBUFFERED=unbuffered
        )
    assert result.returncode == 1
    assert result.stderr == f"epigames: cannot write <stdout>: {_os_error(errno.ENOSPC)}\n"


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_a_closed_pipe_on_stdout_exits_one_with_one_line(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the report is written, so no byte of it lands
    try:
        result = cli_process(
            ["mask-basic", "--scenario", str(BASELINE_FILE)], write_end, PYTHONUNBUFFERED=unbuffered
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == f"epigames: cannot write <stdout>: {_os_error(errno.EPIPE)}\n"


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize(
    "error",
    [_os_error(errno.EPIPE), _os_error(errno.ENOSPC)],
    ids=["closed-pipe", "full-device"],
)
def test_help_to_an_unwritable_stdout_exits_one_with_one_line(method, error):
    err = io.StringIO()
    with contextlib.redirect_stdout(_FailingStdout(method, error)), contextlib.redirect_stderr(err):
        code = cli.run(["--help"])
    assert (code, err.getvalue()) == (1, f"epigames: cannot write <stdout>: {error}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_help_to_a_full_device_exits_one_with_one_line(unbuffered):
    with open("/dev/full", "w") as full:
        result = cli_process(["--help"], full, PYTHONUNBUFFERED=unbuffered)
    assert result.returncode == 1
    assert result.stderr == f"epigames: cannot write <stdout>: {_os_error(errno.ENOSPC)}\n"


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_a_pipe_closed_after_one_line_exits_one_with_one_line(unbuffered):
    # about 500 KB of report, far more than a pipe holds: the reader's close cuts it
    process = subprocess.Popen(
        [sys.executable, "-m", "epigames.cli", "curves", "--scenario", str(BASELINE_FILE),
         "--grid-steps", "20000"],
        env=child_env(PYTHONUNBUFFERED=unbuffered),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        first = process.stdout.readline()
        process.stdout.close()
        err = process.stderr.read()
        code = process.wait(timeout=60)
    finally:
        process.kill()
        process.stderr.close()
    assert first.startswith("z ")
    assert (code, err) == (1, f"epigames: cannot write <stdout>: {_os_error(errno.EPIPE)}\n")


def _policy_rows(tmp_path, capsys, edits, policies):
    """policy-compare --format csv --verify on the bundled scenario with ``edits`` and only
    the ``policies`` sets; returns the rows by set name."""
    code, out, err = run_cli(
        capsys, "policy-compare", "--scenario", edited_scenario(tmp_path, edits, {"policies": policies}),
        "--format", "csv", "--verify", "--precision", "17",
    )
    assert (code, err) == (0, "")
    header, *rows = parse_csv(out)
    return {row[1]: dict(zip(header, row)) for row in rows}


def test_a_cap_wins_no_ranking_on_rounding_noise(tmp_path, capsys):
    # the free optimum is z_max = 20.05; a cap of 10 moves it to 10 and charges
    # the designer n * (B(20.05) - B(10)) = 1000 * (200.5 - 100)
    edits = [("functions", "benefit", "linear:10,0"), ("functions", "cost", "linear:1,0"),
             ("meeting", "z_max", "20.05"), ("distancing", "L", "1")]
    rows = _policy_rows(tmp_path, capsys, edits, {"none": "", "cap": "gathering_cap limit=10"})
    assert (rows["none"]["rank"], rows["cap"]["rank"]) == ("1", "2")
    assert float(rows["none"]["z_star"]) == 20.05
    assert (float(rows["cap"]["z_star"]), float(rows["cap"]["suppressed_benefit"])) == (10.0, 100_500.0)


def test_a_cap_below_z_min_is_the_lockdown(tmp_path, capsys):
    edits = [("meeting", "z_min", "2"), ("distancing", "L", "100000")]
    rows = _policy_rows(tmp_path, capsys, edits, {"shutdown": "lockdown", "tiny": "gathering_cap limit=1"})
    after = list(rows["tiny"])[3:]  # every column after policies
    assert after[0] == "decision" and rows["tiny"]["decision"] == "stay"
    assert [rows["tiny"][key] for key in after] == [rows["shutdown"][key] for key in after]


def test_policy_compare_verify_rejects_a_z_star_above_its_cap(capsys, monkeypatch):
    real = cli.evaluate_mechanism

    def beyond_the_cap(scenario, policies, model):
        report = real(scenario, policies, model)
        if any(p.kind == "gathering_cap" for p in policies):
            return report.replace(citizen_outcome=report.citizen_outcome.replace(z_star=11.0))
        return report

    monkeypatch.setattr(cli, "evaluate_mechanism", beyond_the_cap)
    code, _, err = run_cli(capsys, "policy-compare", "--scenario", str(BASELINE_FILE), "--verify")
    assert code == 3
    assert "z_star 11.0 lies outside the window its gathering limit allows" in err


def test_policy_compare_verify_rejects_a_designer_cost_off_its_columns(capsys, monkeypatch):
    real = cli.evaluate_mechanism

    def one_ulp_dearer(scenario, policies, model):
        report = real(scenario, policies, model)
        return report.replace(designer_cost=math.nextafter(report.designer_cost, math.inf))

    monkeypatch.setattr(cli, "evaluate_mechanism", one_ulp_dearer)
    code, out, err = run_cli(capsys, "policy-compare", "--scenario", str(BASELINE_FILE), "--verify")
    assert (code, out) == (3, "")
    assert err == (
        "epigames: verification mismatch: "
        + "; ".join(["designer cost disagrees with the weighted sum of its columns"] * 8) + "\n"
    )
    monkeypatch.undo()
    assert run_cli(capsys, "policy-compare", "--scenario", str(BASELINE_FILE), "--verify")[0] == 0


def test_mask_basic_verify_rejects_a_wrong_dominant_action_naming_the_game(capsys, monkeypatch):
    real = cli.solve

    def no_mask_dominant_for_player_one(game):
        return real(game).replace(dominant_p1=(0,))  # true for two susceptibles or two infected

    monkeypatch.setattr(cli, "solve", no_mask_dominant_for_player_one)
    code, out, err = run_cli(capsys, "mask-basic", "--scenario", str(BASELINE_FILE), "--verify")
    assert (code, out) == (3, "")
    assert err == (
        "epigames: verification mismatch:"
        " one_infected: player 1's dominant actions disagree with enumeration\n"
    )
    monkeypatch.undo()
    assert run_cli(capsys, "mask-basic", "--scenario", str(BASELINE_FILE), "--verify")[0] == 0


@pytest.mark.parametrize(
    "flag, value", [("--precision", "0"), ("--grid-steps", "0"), ("--grid-steps", "-3")]
)
def test_out_of_range_flag_exits_one_naming_the_flag(capsys, flag, value):
    code, out, err = run_cli(capsys, "curves", "--scenario", str(BASELINE_FILE), flag, value)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"epigames: error: argument {flag}: ")


@pytest.mark.parametrize(
    "command, value, rule",
    [
        ("curves", "1000000", "within [1, 17], got 1000000"),  # about 20 GB of cell text
        ("distancing", "3000000000", "within [1, 17], got 3000000000"),  # past what format() takes
        ("distancing", "1" + "0" * 400, f"within [1, 17], got '{'1' + '0' * 39}'... (401 characters)"),
    ],
    ids=["curves-1e6", "distancing-3e9", "distancing-1e400"],
)
def test_precision_above_the_maximum_exits_one_before_any_work(capsys, command, value, rule):
    # the scenario does not exist: the flag is refused before the file is read
    code, out, err = run_cli(capsys, command, "--scenario", "missing.ini", "--precision", value)
    assert (code, out, err) == (1, "", f"epigames: error: argument --precision: precision must be {rule}\n")


def test_maximum_precision_round_trips_every_cell(capsys):
    code, out, _ = run_cli(
        capsys, "distancing", "--scenario", str(BASELINE_FILE), "--format", "csv",
        "--precision", str(cli.MAX_PRECISION),
    )
    header, row = parse_csv(out)
    threshold = float(row[header.index("life_value_threshold")])
    assert code == 0 and threshold == float(Fraction(3500) / (Fraction(0.0077) * Fraction(0.034)))


def test_huge_table_cells_print_in_exponent_form(tmp_path, capsys):
    edits = [("mask", "c_use", "0.88e308"), ("mask", "c_infection", "0.89e308")]
    path = edited_scenario(tmp_path, edits)
    code, out, err = run_cli(capsys, "mask-efficiency", "--scenario", path)
    assert (code, err) == (0, "")
    assert max(map(len, out.splitlines())) <= 80
    assert "c_infection             8.900000e+307\n" in out


def test_exponent_form_starts_at_its_documented_magnitude():
    below = math.nextafter(cli.EXPONENT_FROM, 0)
    columns = [[below], [-below], [cli.EXPONENT_FROM], [-cli.EXPONENT_FROM]]
    table = cli._render(["a", "b", "c", "d"], columns, cli.ReportOptions(precision=2))
    assert table.splitlines()[1].split() == [
        "9999999999999998.00", "-9999999999999998.00", "1.00e+16", "-1.00e+16"
    ]


@pytest.mark.parametrize("fmt, row", [
    ("table", "utility_stay          0.000000"),
    ("csv", "3000,0,0.034,1e+09,0.0077,0,-258800,1.14591e+07,stay"),
])
def test_a_negative_zero_cell_prints_as_zero(tmp_path, capsys, fmt, row):
    # with no cost of staying home, the utility of staying is 0 times the negative
    # stakes of going out: -0.0, which prints as 0 like every other zero
    edits = [("distancing", "C", "0"), ("distancing", "L", "1e9")]
    path = edited_scenario(tmp_path, edits)
    code, out, err = run_cli(capsys, "distancing", "--scenario", path, "--format", fmt)
    assert (code, err) == (0, "")
    assert row in out.splitlines()


def test_only_an_exact_negative_zero_loses_its_sign():
    assert cli._render(None, [[-0.0], [-1e-9]], cli.ReportOptions()) == "0.000000  -0.000000\n"


def _reference_report(header, rows, fmt, precision):
    """The report of ``rows``, one cell and one line at a time, by the rules the README states."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            value = 0.0 if value == 0 else value  # a zero prints unsigned
            if fmt == "csv":
                return format(value, f".{precision}g")
            exponent = not -cli.EXPONENT_FROM < value < cli.EXPONENT_FROM  # nan too
            return format(value, f".{precision}{'e' if exponent else 'f'}")
        return "" if value is None else str(value)

    lines = ([header] if header is not None else []) + [
        [cell(value) or ("-" if fmt == "table" else "") for value in row] for row in rows
    ]
    if fmt == "csv":
        def quoted(text):
            return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"') else text
        return "".join(",".join(map(quoted, line)) + "\n" for line in lines)
    widths = [max(len(line[k]) for line in lines) for k in range(len(lines[0]) - 1)]
    return "".join(
        "  ".join([text.ljust(width) for text, width in zip(line, widths)] + [line[-1]]).rstrip() + "\n"
        for line in lines
    )


_TEXT = st.text(alphabet='ab ,"-', max_size=5)  # spaces, commas, quotes and a dash
_CELLS = st.one_of(
    st.floats(),
    st.sampled_from(
        [math.inf, -math.inf, 0.0, -0.0]
        + [x for edge in (cli.EXPONENT_FROM, -cli.EXPONENT_FROM)
           for x in (edge, math.nextafter(edge, 0), math.nextafter(edge, 2 * edge))]
    ),
    st.integers(),
    st.booleans(),
    st.none(),
    _TEXT,
)


@given(
    fmt=st.sampled_from(["table", "csv"]),
    precision=st.integers(1, cli.MAX_PRECISION),
    width=st.integers(2, 5),  # every report has two columns or more
    data=st.data(),
)
def test_render_matches_a_cell_by_cell_reference(fmt, precision, width, data):
    header = data.draw(st.none() | st.lists(_TEXT.filter(bool), min_size=width, max_size=width))
    row = st.lists(_CELLS, min_size=width, max_size=width)
    rows = data.draw(st.lists(row, min_size=header is None, max_size=6))  # a headerless report has rows
    columns = [[row[k] for row in rows] for k in range(width)]
    opts = cli.ReportOptions(fmt=fmt, precision=precision)
    assert cli._render(header, columns, opts) == _reference_report(header, rows, fmt, precision)


# the sections each subcommand cannot run without ([meeting] has defaults)
SECTIONS_READ = {
    "mask-basic": ("mask",),
    "mask-bayesian": ("mask", "bayesian"),
    "mask-efficiency": ("mask",),
    "distancing": ("distancing",),
    "meeting-opt": ("distancing", "functions"),
    "curves": ("distancing", "functions"),
    "policy-compare": (
        "mask", "bayesian", "distancing", "functions", "population", "policies", "designer"
    ),
}


@pytest.mark.parametrize(
    "command, section",
    [(command, section) for command, sections in SECTIONS_READ.items() for section in sections],
)
def test_missing_section_exits_one_naming_it(tmp_path, capsys, command, section):
    result = run_cli(capsys, command, "--scenario", edited_scenario(tmp_path, sections={section: None}))
    _assert_one_line_scenario_error(*result, (f"the [{section}] section",))


@pytest.mark.parametrize(
    "steps, code",
    [pytest.param(MAX_GRID_STEPS, 0, id="at"), pytest.param(MAX_GRID_STEPS + 1, 1, id="above")],
)
@pytest.mark.parametrize("via", ["file", "flag"])
def test_grid_steps_bound_holds_for_the_file_and_the_flag(tmp_path, capsys, via, steps, code):
    # mask-basic never builds the meeting grid, so no run allocates one of this size
    path, flags = str(BASELINE_FILE), ["--grid-steps", str(steps)]
    if via == "file":
        edits = [("meeting", "grid_steps", str(steps))]
        path, flags = edited_scenario(tmp_path, edits), []
    result = run_cli(capsys, "mask-basic", "--scenario", path, *flags)
    if code == 0:
        assert result[0] == 0 and result[2] == ""
        return
    message = f"grid_steps must be within [1, {MAX_GRID_STEPS}], got {steps}"
    if via == "file":
        _assert_one_line_scenario_error(*result, (f"[meeting].grid_steps: {message}",))
    else:
        assert result[:2] == (1, "")
        assert result[2] == f"epigames: error: argument --grid-steps: {message}\n"


def _fuzzed_number(base=1.0):
    return st.one_of(
        st.floats(0, 3).map(lambda scale: repr(base * scale)),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-3, 3).map(str),
        st.sampled_from(["1e308", "-0.0", "1" + "0" * 400, "lots", ""]),
    )


# an int of 8 to 309 digits, of either sign: beyond every grid's steps, so no grid costs
# time; a float holds all but the largest, and a range rule that refuses one prints it
_LONG_INT = st.tuples(st.sampled_from(["", "-"]), st.integers(8, 309)).flatmap(
    lambda drawn: st.integers(10 ** (drawn[1] - 1), 10 ** drawn[1] - 1).map(lambda n: f"{drawn[0]}{n}")
)
# a grid's steps or a gathering limit: small, or too long for any grid (a large grid only costs time)
_STEPS = st.one_of(st.integers(-2, 60).map(str), _LONG_INT)


# the keys that hold an amount of money, and the policy parameters that do
_PRICE_KEYS = [("mask", key) for key in ("c_out", "c_in", "c_use", "c_infection")] + [
    ("distancing", key) for key in ("B", "C", "L")
]
_POLICY_PRICE = re.compile(r"\b(subsidy|per_test_cost)=([^\s,]+)")


def _in_unit(text, k):
    """``text`` times 2^k where it is a finite number, else ``text`` unchanged."""
    try:
        value = float(text)
    except ValueError:
        return text
    return repr(value * 2.0**k) if math.isfinite(value) else text


def _fuzzed_price(base):
    """A number as ``_fuzzed_number`` draws it, or ``base`` times [0, 3] in a unit 2^k
    for k in [-40, 40], or any float up to 1.7e308."""
    return st.one_of(
        _fuzzed_number(base),
        st.tuples(st.floats(0, 3), st.integers(-40, 40)).map(lambda t: repr(base * t[0] * 2.0 ** t[1])),
        st.floats(0, 1.7e308).map(repr),
    )


def _fuzzed_policy():
    numbers = {
        "subsidy": _fuzzed_price(100.0),
        "limit": _STEPS,
        "per_test_cost": _fuzzed_price(50.0),
        "traced_fraction": _fuzzed_number(0.1),
    }
    return st.sampled_from(sorted(POLICY_PARAMS)).flatmap(
        lambda kind: st.tuples(*(numbers[name] for name in POLICY_PARAMS[kind])).map(
            lambda values: " ".join(
                [kind] + [f"{name}={value}" for name, value in zip(POLICY_PARAMS[kind], values)]
            )
        )
    )


def _fuzzed_value(section, key, raw):
    if (section, key) == ("meeting", "grid_steps"):
        return _STEPS
    if (section, key) == ("population", "n"):
        return st.one_of(_fuzzed_number(float(raw)), _LONG_INT)
    if section == "functions":
        return st.one_of(
            _fuzzed_number(500.0).map("constant:{}".format),
            st.tuples(_fuzzed_number(10.0), _fuzzed_number()).map(",".join).map("linear:{}".format),
        )
    if section == "policies":
        return st.lists(_fuzzed_policy(), max_size=3).map(", ".join)
    if (section, key) in _PRICE_KEYS:
        return _fuzzed_price(float(raw))
    return _fuzzed_number(float(raw))


_FUZZ_BASE = configparser.ConfigParser(interpolation=None)
_FUZZ_BASE.optionxform = str
_FUZZ_BASE.read(BASELINE_FILE, encoding="utf-8")
_FUZZ_BASE["meeting"]["grid_steps"] = "40"
_FUZZ_KEYS = [(section, key) for section in _FUZZ_BASE.sections() for key in _FUZZ_BASE[section]]


@st.composite
def _fuzzed_scenario(draw):
    """baseline.ini (at a 40-step grid) with a few values replaced, every price maybe
    moved to a unit 2^k (k in [-40, 40]), and a section maybe dropped."""
    sections = {section: dict(_FUZZ_BASE.items(section)) for section in _FUZZ_BASE.sections()}
    for section, key in draw(st.lists(st.sampled_from(_FUZZ_KEYS), max_size=3)):
        sections[section][key] = draw(_fuzzed_value(section, key, _FUZZ_BASE[section][key]))
    unit = draw(st.one_of(st.just(0), st.integers(-40, 40)))
    for section, key in _PRICE_KEYS:
        sections[section][key] = _in_unit(sections[section][key], unit)
    for name, raw in sections["policies"].items():
        sections["policies"][name] = _POLICY_PRICE.sub(lambda m: f"{m[1]}={_in_unit(m[2], unit)}", raw)
    dropped = draw(st.one_of(st.none(), st.sampled_from(sorted(sections))))
    return "\n".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in pairs.items())
        for section, pairs in sections.items()
        if section != dropped
    )


_FLAGS = st.tuples(
    st.sampled_from([[], ["--format", "csv"]]),
    st.sampled_from([[], ["--verify"]]),
    st.one_of(st.just([]), _STEPS.map(lambda n: ["--grid-steps", n])),
    st.one_of(st.just([]), st.integers(0, 12).map(lambda n: ["--precision", str(n)])),
).map(lambda parts: sum(parts, []))


@settings(
    derandomize=True, max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(command=st.sampled_from(cli.SUBCOMMANDS), text=_fuzzed_scenario(), flags=_FLAGS)
def test_any_scenario_and_flags_end_in_a_report_or_one_error_line(command, text, flags):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "fuzzed.ini"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([command, "--scenario", str(path), *flags])
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 0:
        assert not re.search(r"\bnan\b", out, re.IGNORECASE)
    else:
        assert out == "" and err.count("\n") == 1 and err.startswith("epigames: ")
        assert len(err.replace(str(path), "")) < 250  # an echoed text or number is cut to 40 characters
