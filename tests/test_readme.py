"""The README's examples run as printed."""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from conftest import edited_scenario
from epigames import cli
from epigames.scenario import MAX_SCENARIO_BYTES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(language):
    [block] = re.findall(rf"^```{language}\n(.*?)^```$", README, re.S | re.M)
    return block


@pytest.mark.parametrize("command", cli.SUBCOMMANDS)
def test_annotated_scenario_runs_every_subcommand_verified(tmp_path, capsys, command):
    path = tmp_path / "annotated.ini"
    path.write_text(_block("ini"), encoding="utf-8")
    code = cli.run([command, "--scenario", str(path), "--verify"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "") and captured.out


def test_library_example_prints_what_its_comments_say():
    source = _block("python")
    # each print's comment opens with what it prints, up to an optional ': explanation'
    expected = [
        line.split("# ", 1)[1].split(": ", 1)[0]
        for line in source.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["('in', 'no')", "('no', 'out')", "125.0"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_mask_basic_excerpt_is_the_bundled_scenario_report(capsys):
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "baseline.ini"
    assert cli.run(["mask-basic", "--scenario", str(scenario)]) == 0
    report = capsys.readouterr().out.splitlines()
    excerpt = _block("text").splitlines()
    assert len(excerpt) == 4 and all(line in report for line in excerpt)


_ONES_301 = "1" + "0" * 300
_SCENARIO_ERROR = "epigames: scenario error: "


# each error text the README quotes: pytest.param(the exit code, what the line prints before
# the quote, the quote, the flags of the run, its scenario: None (no file), edits of the
# bundled one or a file's text)
_QUOTED_ERRORS = [
    pytest.param(1, "", "epigames: error: argument --format: unknown 'xml'; have table,csv",
                 ["--format", "xml"], None, id="format"),
    pytest.param(1, "", "epigames: error: argument --precision: precision must be within [1, 17], got 0",
                 ["--precision", "0"], None, id="precision-0"),
    pytest.param(1, "", "epigames: error: argument --precision: expected an integer, got 'abc'",
                 ["--precision", "abc"], None, id="precision-abc"),
    pytest.param(1, "", "epigames: error: argument --grid-steps: grid_steps must be within [1, 1000000], got 0",
                 ["--grid-steps", "0"], None, id="grid-steps-0"),
    pytest.param(1, "", "epigames: error: argument --grid-steps: grid_steps must be within [1, 1000000], got 1000001",
                 ["--grid-steps", "1000001"], None, id="grid-steps-1000001"),
    pytest.param(1, "epigames: error: argument --grid-steps: ",
                 "grid_steps must be within [1, 1000000], got '1000000000000000000000000000000000000000'"
                 "... (301 characters)", ["--grid-steps", _ONES_301], None, id="grid-steps-flag-301-digits"),
    pytest.param(1, _SCENARIO_ERROR, "[bayesian].rho: rho must be within [0, 1], got 1.5", [],
                 [("bayesian", "rho", "1.5")], id="rho"),
    pytest.param(1, _SCENARIO_ERROR, "[functions].benefit: slope must be non-negative, got -1.0", [],
                 [("functions", "benefit", "linear:-1,0")], id="slope"),
    pytest.param(1, _SCENARIO_ERROR, "[functions].benefit: expected a number, got 'x'", [],
                 [("functions", "benefit", "linear:x,0")], id="coefficient"),
    pytest.param(1, _SCENARIO_ERROR, "[policies].cap: limit must be at least 1, got 0", [],
                 [("policies", "cap", "gathering_cap limit=0")], id="limit"),
    pytest.param(1, _SCENARIO_ERROR, "[population].n: population must be at least 2, got 1", [],
                 [("population", "n", "1")], id="population"),
    pytest.param(1, _SCENARIO_ERROR,
                 "[meeting].grid_steps: grid_steps must be within [1, 1000000], got "
                 "'1000000000000000000000000000000000000000'... (301 characters)", [],
                 [("meeting", "grid_steps", _ONES_301)], id="grid_steps-301-digits"),
    pytest.param(1, _SCENARIO_ERROR,
                 "[population].n: expected an integer of at most 4300 digits, got "
                 "'1000000000000000000000000000000000000000'... (5001 characters)", [],
                 [("population", "n", "1" + "0" * 5000)], id="n-5001-digits",
                 marks=pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                                          reason="int() takes another number of digits here")),
    pytest.param(1, "", "epigames: scenario error: malformed scenario file s.ini: line 1: "
                 "expected a [section] header, got '\\ufeff[mask]'", [], "\ufeff[mask]\nc_out = 1\n", id="bom"),
    pytest.param(1, "", "epigames: scenario error: scenario file <path> is larger than 1048576 bytes", [],
                 "x" * (MAX_SCENARIO_BYTES + 1), id="larger-than-1-MiB"),
    pytest.param(2, "epigames: domain error: ", "social_cost is inf: the scenario's magnitudes leave a float's range",
                 [], [("population", "n", "1" + "0" * 306)], id="social-cost-inf"),
]


@pytest.mark.parametrize("exit_code, printed, quote, flags, scenario", _QUOTED_ERRORS)
def test_each_quoted_error_is_what_the_cli_prints(
    tmp_path, monkeypatch, capsys, exit_code, printed, quote, flags, scenario
):
    assert quote in README
    monkeypatch.chdir(tmp_path)
    if scenario is None:  # a flag is checked before the file is read
        path = "missing.ini"
    elif isinstance(scenario, list):
        path = edited_scenario(tmp_path, scenario)
    else:
        path = "s.ini"
        Path(path).write_text(scenario, encoding="utf-8")
    code = cli.run(["policy-compare", "--scenario", path, *flags])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (exit_code, "", printed + quote.replace("<path>", path) + "\n")
