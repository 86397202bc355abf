"""Span recorder and per-layer summary for the traced benchmark run.

Tracing happens from outside the program: ``Recorder.install`` replaces
each public function of the ``epigames`` layer modules with a wrapper,
everywhere it is bound -- as a module attribute and under the names other
modules bind with ``from .x import y``.  ``uninstall`` puts the originals
back.  Functions called once per objective evaluation or grid point are
counted, not spanned.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  Spans stay in
memory and are written out once, when the run ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "scenario", "games", "masks", "distancing", "policy", "oracle")
PACKAGE_MODULES = ("epigames", "epigames.errors") + tuple(f"epigames.{layer}" for layer in LAYERS)

# Called once per objective evaluation or grid point: a span each would
# cost more than the work, so these only count calls.
COUNTED = frozenset(
    {"distancing.z_objective", "distancing.group_infection_probability", "masks.efficiency_expected_cost"}
)


def _oracle_samples(name: str, bound: inspect.BoundArguments) -> int:
    if name == "oracle.grid_argmin":
        return bound.arguments["steps"]
    if name == "oracle.check_affine":
        return 3
    game = bound.arguments["game"]
    return game.n1 * game.n2


class Recorder:
    """Collects spans and counters for the ops run while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._optimum_inputs: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def start_op(self, op_id: int) -> None:
        """Begin a new op; inputs to the meeting optimum count as distinct per op."""
        self.op_id = op_id
        self._optimum_inputs = set()

    # -- wrapping ------------------------------------------------------
    def _wrap(self, name: str, fn):
        counts = self.counts
        if name in COUNTED:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        signature = inspect.signature(fn)
        optimum = name == "distancing.optimal_meeting"
        curve = name == "distancing.curve_series"
        oracle = name.startswith("oracle.")

        def spanned(*args, **kwargs):
            counts[name] += 1
            if optimum:
                key = (args, tuple(sorted(kwargs.items())))
                if key not in self._optimum_inputs:
                    self._optimum_inputs.add(key)
                    counts["distancing.optimum_distinct"] += 1
            elif oracle:
                counts["oracle.samples"] += _oracle_samples(name, signature.bind(*args, **kwargs))
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                self.end(index)
            if curve:
                counts["distancing.curve_points"] += len(result)
            return result

        return spanned

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in PACKAGE_MODULES]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"epigames.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ == module.__name__:
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    # -- output --------------------------------------------------------
    def as_dict(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle)


class LayerSummary:
    """Per-layer totals over the spans and counters of many recorders."""

    def __init__(self) -> None:
        self.self_ns: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def absorb(self, spans: list[list], counts: dict[str, int]) -> None:
        child_ns = [0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name, start, end, _parent, _op) in enumerate(spans):
            duration = end - start
            self.total_ns[name] += duration
            self.self_ns[name.split(".", 1)[0]] += duration - child_ns[index]
        self.counts.update(counts)

    def metrics(self, ops: int, passes: int) -> dict[str, float]:
        """Times are milliseconds per op; counts are per pass over the inputs."""

        def per_op_ms(ns: int) -> float:
            return ns / 1e6 / ops

        def per_pass(count: int) -> float:
            return count / passes

        c = self.counts
        optimum_calls = c["distancing.optimal_meeting"]
        out = {f"{layer}.self_ms": per_op_ms(self.self_ns[layer]) for layer in LAYERS}
        out.update(
            {
                "cli.build_parser_ms": per_op_ms(self.total_ns["cli.build_parser"]),
                "scenario.parse_ms": per_op_ms(self.total_ns["scenario.parse_scenario"]),
                "scenario.calls": per_pass(c["scenario.parse_scenario"]),
                "scenario.rejected": per_pass(c["scenario.parse_scenario.raised"]),
                "games.calls": per_pass(sum(v for k, v in c.items() if k.startswith("games.") and not k.endswith(".raised"))),
                "masks.calls": per_pass(sum(v for k, v in c.items() if k.startswith("masks.") and not k.endswith(".raised"))),
                "distancing.optimum_ms": per_op_ms(self.total_ns["distancing.optimal_meeting"]),
                "distancing.optimum_calls": per_pass(optimum_calls),
                "distancing.optimum_distinct_ratio": (
                    c["distancing.optimum_distinct"] / optimum_calls if optimum_calls else 0.0
                ),
                "distancing.objective_evals": per_pass(c["distancing.z_objective"]),
                "distancing.curve_ms": per_op_ms(self.total_ns["distancing.curve_series"]),
                "distancing.curve_points": per_pass(c["distancing.curve_points"]),
                "policy.evaluations": per_pass(c["policy.evaluate_mechanism"]),
                "oracle.checks": per_pass(
                    c["oracle.grid_argmin"] + c["oracle.check_affine"] + c["oracle.enumerate_pure_ne"]
                ),
                "oracle.samples": per_pass(c["oracle.samples"]),
            }
        )
        return out
