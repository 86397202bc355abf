"""Tests of the benchmark itself: seeded inputs, the checker and the tracer."""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import checks, envinfo, inputs
from perfbench.tracing import LayerSummary, Recorder

BASELINE = (Path(__file__).resolve().parent.parent / "scenarios" / "baseline.ini").read_text()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = inputs.generate(workload, 7, BASELINE)
    again = inputs.generate(workload, 7, BASELINE)
    other = inputs.generate(workload, 8, BASELINE)
    assert first == again
    assert {name: text.encode() for name, text in first.files.items()} == {
        name: text.encode() for name, text in again.files.items()
    }
    assert first.files != other.files


@pytest.mark.parametrize("seed", range(5))
def test_cli_mix_malformed_share_is_fixed(seed):
    ops = inputs.generate("cli-mix", seed, BASELINE).ops
    assert len(ops) == 35
    assert [op.malformed for op in ops if op.malformed] == list(inputs.MALFORMED_CLASSES)
    valid = [op for op in ops if not op.malformed]
    assert sum("--verify" in op.flags for op in valid) == len(valid) // 2
    assert {op.command for op in valid} == set(inputs.SUBCOMMANDS)


def test_report_render_rows_match_grid():
    for op in inputs.generate("report-render", 3, BASELINE).ops:
        if op.command == "curves":
            assert 970 <= op.rows - 1 <= 100_000
        else:
            assert op.rows is None


def _clean(lines=(b"z,objective\n", b"0.1,2.5\n")):
    return checks.summarize(0, list(lines), "")


def test_checker_passes_a_clean_report():
    op = inputs.Op("curves", "x.ini", rows=1)
    assert checks.report_failures(op, _clean(), _clean()) == []


def test_checker_flags_a_planted_nan_report():
    op = inputs.Op("curves", "x.ini", rows=1)
    planted = _clean((b"z,objective\n", b"0.1,nan\n"))
    assert "report contains nan" in checks.report_failures(op, planted, planted)
    # a word that merely contains the letters is not a nan
    word = _clean((b"game,item\n", b"g,dominant_action\n"))
    assert checks.report_failures(op, word, word) == []


def test_checker_flags_a_planted_traceback():
    op = inputs.Op("mask-bayesian", "x.ini", expect=inputs.INVALID, malformed="nan_bayesian_rho")
    stderr = 'Traceback (most recent call last):\n  File "x.py", line 1\nValueError: rho\n'
    planted = checks.summarize(1, [], stderr)
    assert "traceback on stderr" in checks.report_failures(op, planted, planted)
    one_line = checks.summarize(1, [], "epigames: scenario error: [bayesian].rho: bad\n")
    assert checks.report_failures(op, one_line, one_line) == []


def test_checker_flags_exit_code_and_drift():
    op = inputs.Op("policy-compare", "x.ini", expect=inputs.INVALID)
    assert "exit 0, expected 1" in checks.report_failures(op, _clean(), _clean())
    op = inputs.Op("curves", "x.ini")
    drifted = _clean((b"z,objective\n", b"0.1,2.6\n"))
    assert "output differs from a second run" in checks.report_failures(op, drifted, _clean())


def _report(designer, social, infections=0.0, z_star=1.0):
    return SimpleNamespace(
        designer_cost=designer, social_cost=social, expected_infections=infections,
        testing_outlay=0.0, suppressed_benefit=0.0, citizen_outcome=SimpleNamespace(z_star=z_star),
    )


def test_checker_flags_a_planted_wrong_ranking():
    op = inputs.Op("sweep", "x.ini", policy_sets=2)
    lockdown = (SimpleNamespace(kind="lockdown"),)
    ranked = [((), _report(1.0, 5.0)), (lockdown, _report(2.0, 1.0, z_star=None))]
    objective = lambda z: 10.0  # noqa: E731
    assert checks.ranking_failures(op, ranked, 10.0, objective) == []
    assert "ranking is not sorted by (designer, social) cost" in checks.ranking_failures(
        op, ranked[::-1], 10.0, objective
    )
    leaky = [ranked[0], (lockdown, _report(2.0, 1.0, infections=0.5, z_star=None))]
    assert "lockdown gives nonzero infections" in checks.ranking_failures(op, leaky, 10.0, objective)
    assert any("does not dominate" in r for r in checks.ranking_failures(op, ranked, 11.0, objective))


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.run", 0, 100, -1, 0],
        ["scenario.parse_scenario", 10, 30, 0, 0],
        ["distancing.optimal_meeting", 40, 90, 0, 0],
        ["distancing.extended_go_decision", 50, 60, 2, 0],
    ]
    summary = LayerSummary()
    summary.absorb(spans, {"distancing.optimal_meeting": 1})
    assert summary.self_ns["cli"] == 30
    assert summary.self_ns["scenario"] == 20
    assert summary.self_ns["distancing"] == 40 + 10
    metrics = summary.metrics(ops=1, passes=1)
    assert metrics["distancing.optimum_calls"] == 1
    assert metrics["distancing.optimum_ms"] == 50 / 1e6


def test_recorder_wraps_from_imports_and_restores(tmp_path):
    import epigames.cli as cli
    import epigames.distancing as distancing
    import epigames.scenario as scenario

    originals = (cli.optimal_meeting, cli.z_objective, distancing.optimal_meeting, scenario.parse_scenario)
    path = tmp_path / "s.ini"
    path.write_text(BASELINE)
    recorder = Recorder()
    recorder.install()
    try:
        assert cli.optimal_meeting is distancing.optimal_meeting is not originals[0]
        recorder.start_op(1)
        with recorder.span("bench.op"):
            assert cli.run(["meeting-opt", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    finally:
        recorder.uninstall()
    assert (cli.optimal_meeting, cli.z_objective, distancing.optimal_meeting,
            scenario.parse_scenario) == originals
    counts = recorder.counts
    assert counts["scenario.parse_scenario"] == 1
    # meeting-opt computes the same optimum twice
    assert counts["distancing.optimal_meeting"] == 2
    assert counts["distancing.optimum_distinct"] == 1
    assert counts["distancing.z_objective"] > 0
    assert all(end >= start for _, start, end, _, _ in recorder.spans)


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       934 |       2023 | encodings\n"
        "import time:       404 |        404 |       epigames.errors\n"
        "import time:      9069 |      73572 | epigames.cli\n"
    )
    assert envinfo.parse_importtime(text) == [
        (0, "encodings", 934, 2023),
        (3, "epigames.errors", 404, 404),
        (0, "epigames.cli", 9069, 73572),
    ]


def test_benchmark_json_names_what_the_runner_reports():
    import json

    from perfbench.run import END_TO_END_UNITS, PER_LAYER_UNITS

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    # report-render runs with --workload and --all but is not among the
    # workloads the benchmark definition times (see README.md).
    assert [w["name"] for w in spec["workloads"]] == [w for w in inputs.WORKLOADS if w != "report-render"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
