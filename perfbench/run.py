"""Benchmark for epigames: three seeded workloads, each a closed loop of one
caller in one process.

Run from the repository root:

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 50

One run prints an information line (environment record, sample count,
failures) and then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics.  ``--all`` runs every
workload both ways and prints every metric by name with its unit.

A run makes whole passes over its inputs.  On the in-process workloads the
latency metrics are taken from each input's best (lowest) latency over the
run's passes: their ops are short, other load on a shared host only ever
adds time, and an input's best latency varies far less from run to run than
its mean or median.  ``cli-mix`` ops each start a process, take about ten
times longer and get few samples per input, so there the metrics are over
every sample.  Both sets of figures are printed in the information line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, envinfo, inputs  # noqa: E402
from perfbench.tracing import LAYERS, LayerSummary, Recorder  # noqa: E402

SETUP_REPEATS = 5  # at least; one more is measured after every pass
MIN_PASSES = 5  # samples per input; on cli-mix at least 175 ops, 17 beyond the p90
OP_TIMEOUT_S = 60
REQUIRED = ("src/epigames/cli.py", "scenarios/baseline.ini")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_rate": "ratio",
    "peak_rss_mb": "MiB",
}


def _per_layer_units() -> dict[str, str]:
    units = {
        "interp.start_ms": "ms",
        "interp.site_ms": "ms",
        "import.total_ms": "ms",
        "import.epigames_ms": "ms",
        "cli.bytes_out": "B/op",
        "trace.overhead_ratio": "ratio",
        "distancing.optimum_distinct_ratio": "ratio",
    }
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms/op"
    for name in ("cli.build_parser_ms", "scenario.parse_ms", "distancing.optimum_ms", "distancing.curve_ms"):
        units[name] = "ms/op"
    for name in ("scenario.calls", "scenario.rejected", "games.calls", "masks.calls",
                 "distancing.optimum_calls", "distancing.objective_evals", "distancing.curve_points",
                 "policy.evaluations", "oracle.checks", "oracle.samples"):
        units[name] = "count/pass"
    return units


PER_LAYER_UNITS = _per_layer_units()


def _purge_epigames() -> None:
    for name in [name for name in sys.modules if name == "epigames" or name.startswith("epigames.")]:
        del sys.modules[name]


class Workload:
    """Inputs of one setup, and how to run, trace and check one op."""

    in_process = True

    def __init__(self, generated: inputs.Inputs, directory: Path, python: str, env: dict[str, str]):
        self.ops = generated.ops
        self.directory = directory
        self.python = python
        self.env = env
        self.recorded: list[dict] = []  # spans and counters of traced ops
        directory.mkdir(parents=True)
        for name, text in generated.files.items():
            (directory / name).write_text(text, encoding="utf-8")

    def path(self, name: str) -> str:
        return str(self.directory / name)

    def warm_up(self) -> None:
        """Import epigames afresh and run one report on the bundled scenario."""
        _purge_epigames()
        cli = importlib.import_module("epigames.cli")
        with contextlib.redirect_stderr(io.StringIO()):
            cli.run(["mask-basic", "--scenario", str(ROOT / "scenarios/baseline.ini"),
                     "--out", self.path("warm-up.out")])

    def prepare_checks(self) -> None:
        """Untimed work the checker needs before the first op."""

    def run(self, index: int, op_id: int, recorder: Recorder | None) -> tuple[float, checks.Outcome]:
        """Run op ``index``; only the call into the program is timed."""
        raise NotImplementedError


class CliMix(Workload):
    """Each op spawns ``python -m epigames.cli``; the report goes to a pipe."""

    in_process = False

    def warm_up(self) -> None:
        subprocess.run(
            [self.python, "-m", "epigames.cli", "mask-basic", "--scenario", str(ROOT / "scenarios/baseline.ini")],
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=OP_TIMEOUT_S,
        )

    def run(self, index, op_id, recorder):
        op = self.ops[index]
        spans = self.path(f"spans-{op_id}.json")
        if recorder is None:
            prefix = [self.python, "-m", "epigames.cli"]
        else:
            prefix = [self.python, str(ROOT / "perfbench/child.py"), spans, str(op_id), "--"]
        argv = [*prefix, op.command, "--scenario", self.path(op.scenario), *op.flags]
        start = time.perf_counter()
        try:
            done = subprocess.run(argv, env=self.env, capture_output=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return OP_TIMEOUT_S, checks.summarize(None, [], "", f"timed out after {OP_TIMEOUT_S} s")
        elapsed = time.perf_counter() - start
        if recorder is not None and os.path.exists(spans):  # absent if the child died early
            with open(spans, encoding="utf-8") as handle:
                self.recorded.append(json.load(handle))
            os.unlink(spans)
        stderr = done.stderr.decode("utf-8", errors="replace")
        return elapsed, checks.summarize(done.returncode, done.stdout.splitlines(keepends=True), stderr)


class ReportRender(Workload):
    """Each op calls ``epigames.cli.run`` in process with ``--out`` to a file."""

    def run(self, index, op_id, recorder):
        op = self.ops[index]
        out = self.directory / "report.out"
        out.unlink(missing_ok=True)
        argv = [op.command, "--scenario", self.path(op.scenario), "--out", str(out), *op.flags]
        cli = sys.modules["epigames.cli"]
        stderr = io.StringIO()
        code, error = None, None
        if recorder is not None:
            recorder.start_op(op_id)
        span = recorder.span("bench.op") if recorder is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stderr(stderr):
                code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaped exception is a failed op
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if not out.exists():
            return elapsed, checks.summarize(code, [], stderr.getvalue(), error)
        with open(out, "rb") as handle:
            return elapsed, checks.summarize(code, handle, stderr.getvalue(), error)


class PolicySweep(Workload):
    """Each op parses one scenario, builds it and ranks its policy sets."""

    def prepare_checks(self) -> None:
        # The oracle scan each op's optimum must dominate, once per scenario,
        # with references to the untraced functions.
        scenario = sys.modules["epigames.scenario"]
        distancing = sys.modules["epigames.distancing"]
        oracle = sys.modules["epigames.oracle"]
        self.checkers = []
        for op in self.ops:
            config = scenario.parse_scenario(self.path(op.scenario))
            d, domain = config.distancing, config.meeting_domain
            z_objective = distancing.z_objective

            def objective(z, config=config, d=d, z_objective=z_objective):
                return z_objective(z, config.benefit_fn, config.cost_fn, d.infection_prob, d.mortality)

            best = oracle.grid_argmin(lambda z, f=objective: -f(z), domain.z_min, domain.z_max,
                                      domain.grid_steps + 1)
            self.checkers.append((-best.f_star, objective))

    def run(self, index, op_id, recorder):
        op = self.ops[index]
        scenario = sys.modules["epigames.scenario"]
        policy = sys.modules["epigames.policy"]
        ranked, error = None, None
        if recorder is not None:
            recorder.start_op(op_id)
        span = recorder.span if recorder is not None else (lambda name: contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with span("bench.op"):
                config = scenario.parse_scenario(self.path(op.scenario))
                with span("scenario.to_scenario"):
                    bundle = config.to_scenario()
                ranked = policy.compare_policies(
                    bundle, [sets for _, sets in config.policy_sets], config.designer
                )
        except Exception as exc:  # an escaped exception is a failed op
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if ranked is None:
            return elapsed, checks.summarize(None, [], "", error)
        grid_best, objective = self.checkers[index]
        problems = tuple(checks.ranking_failures(op, ranked, grid_best, objective))
        return elapsed, checks.Outcome(0, "", checks.ranking_digest(ranked), 0, len(ranked), False,
                                       problems=problems)


WORKLOADS = {"cli-mix": CliMix, "policy-sweep": PolicySweep, "report-render": ReportRender}



def _pass(workload: Workload, recorder: Recorder | None, executions: list, next_id: int) -> int:
    """Run every op once, appending (op index, seconds, outcome, traced)."""
    for index in range(len(workload.ops)):
        elapsed, outcome = workload.run(index, next_id, recorder)
        executions.append((index, elapsed, outcome, recorder is not None))
        next_id += 1
    return next_id


def _setup(args: argparse.Namespace, work: Path, repeat: int, python: str, env: dict[str, str]) -> Workload:
    baseline = (ROOT / "scenarios/baseline.ini").read_text(encoding="utf-8")
    generated = inputs.generate(args.workload, args.seed, baseline)
    workload = WORKLOADS[args.workload](generated, work / f"setup{repeat}", python, env)
    workload.warm_up()
    return workload


def _layer_metrics(workload: Workload, recorder: Recorder, executions: list,
                   environment: dict, passes: int) -> dict[str, float]:
    summary = LayerSummary()
    for recorded in workload.recorded + [recorder.as_dict()]:
        summary.absorb(recorded["spans"], recorded["counts"])
    traced = [(elapsed, outcome) for _, elapsed, outcome, was_traced in executions if was_traced]
    untraced = [elapsed for _, elapsed, _, was_traced in executions if not was_traced]
    metrics = summary.metrics(len(traced), passes)
    imports = environment["importtime"]
    metrics.update(
        {
            "interp.start_ms": environment["interp_start_ms"],
            "interp.site_ms": environment["interp_start_ms"] - environment["interp_nosite_ms"],
            "import.total_ms": imports["total_ms"],
            "import.epigames_ms": imports["epigames_ms"],
            "cli.bytes_out": sum(outcome.size for _, outcome in traced) / len(traced),
            # untraced ÷ traced ops per second
            "trace.overhead_ratio": (len(untraced) / sum(untraced)) / (len(traced) / sum(e for e, _ in traced)),
        }
    )
    return metrics


def _latency_figures(latencies: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
    }


def bench(args: argparse.Namespace, work: Path) -> int:
    python = sys.executable
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    sys.path.insert(0, src)

    setups: list[float] = []

    def set_up() -> Workload:
        gc.collect()  # free modules an earlier set-up replaced, outside the timing
        start = time.perf_counter()
        fresh = _setup(args, work, len(setups), python, env)
        setups.append(time.perf_counter() - start)
        return fresh

    workload = set_up()
    workload.prepare_checks()
    environment = envinfo.record(ROOT, python, env)

    # Whole passes over the inputs until --seconds of op time is spent; with
    # --trace 1 each untraced pass is followed by a traced one.
    executions: list[tuple[int, float, checks.Outcome, bool]] = []
    recorder = Recorder() if args.trace else None
    passes = next_id = 0
    while True:
        next_id = _pass(workload, None, executions, next_id)
        if recorder is not None:
            if workload.in_process:
                recorder.install()
            try:
                next_id = _pass(workload, recorder, executions, next_id)
            finally:
                recorder.uninstall()
        passes += 1
        if not args.trace:
            # Later set-ups are measured between passes, so their median
            # spans the run rather than one moment of it; they leave the
            # inputs unchanged and, in process, re-import epigames.
            set_up()
        busy = sum(elapsed for _, elapsed, _, _ in executions)
        if busy >= args.seconds and (args.trace or passes >= MIN_PASSES):
            break
    while not args.trace and len(setups) < SETUP_REPEATS:
        set_up()

    # Untimed second run of every input, then the checks.
    second: list = []
    _pass(workload, None, second, next_id)
    references = [outcome for _, _, outcome, _ in second]
    failures: dict[str, int] = {}
    failed = trace_mismatches = 0
    correct = True
    for index, _, outcome, traced in executions:
        reasons = checks.report_failures(workload.ops[index], outcome, references[index])
        trace_mismatches += traced and not outcome.same_output(references[index])
        if reasons:
            failed += 1
            correct = correct and workload.ops[index].malformed is not None
            for reason in reasons:
                key = f"{workload.ops[index].malformed or 'valid'}: {reason}"
                failures[key] = failures.get(key, 0) + 1

    attempted = len(executions)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": attempted,
        "passes": passes,
        "ops_per_pass": len(workload.ops),
        "error_rate": failed / attempted,
        "failures": failures,
        "setup_s_samples": setups,
        "environment": environment,
    }
    if args.trace:
        values = _layer_metrics(workload, recorder, executions, environment, passes)
        units = PER_LAYER_UNITS
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans, "w", encoding="utf-8") as handle:
            json.dump({"traced": workload.recorded + [recorder.as_dict()]}, handle)
        info["spans_file"] = str(spans.relative_to(ROOT))
        info["traced_outputs_differing_from_untraced"] = trace_mismatches
    else:
        latencies = [elapsed for _, elapsed, _, _ in executions]
        best = [min(elapsed for index, elapsed, _, _ in executions if index == op)
                for op in range(len(workload.ops))]
        info["all_samples"] = _latency_figures(latencies)
        info["best_per_input"] = _latency_figures(best)
        usage = resource.getrusage(resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN)
        values = {
            "setup_s": statistics.median(setups),
            **info["best_per_input" if workload.in_process else "all_samples"],
            "ok_rate": (attempted - failed) / attempted,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced and traced, as separate processes; prints a table."""
    results = {}
    for workload in inputs.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"perfbench: {workload} --trace {trace} exited {done.returncode}", file=sys.stderr)
                return done.returncode
            info, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
            results[f"{workload}/trace{trace}"] = {**result, **info}
            print(f"== {workload}  trace={trace}  correct={result['correct']}  attempted="
                  f"{result['attempted']}  failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--json", metavar="PATH", help="with --all: also write every result to PATH")
    args = parser.parse_args(argv)
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: {ROOT} has no {' or '.join(missing)}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
