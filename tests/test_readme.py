"""The README's examples run as printed."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from epigames import cli

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
