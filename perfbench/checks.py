"""Output checker: decides, outside the timed region, whether an op failed.

An op fails if an exception escaped, stderr holds a traceback or (on a
nonzero exit) more than one line, the exit code is not one its input class
allows, the report contains ``nan``, its bytes differ from an untimed
second run of the same input, or an oracle check fails.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

from .inputs import Op

_NAN = re.compile(rb"\bnan\b", re.IGNORECASE)
_TRACEBACK = "Traceback (most recent call last)"
_WARNING = "epigames: warning: "


@dataclass(frozen=True)
class Outcome:
    """What one op produced; ``report`` fields summarise the report bytes."""

    exit: int | None  # None when an exception escaped
    stderr: str
    digest: str
    size: int
    lines: int
    nan: bool
    error: str | None = None
    problems: tuple[str, ...] = ()  # failed checks found when the op ran

    def same_output(self, other: "Outcome") -> bool:
        return (self.exit, self.stderr, self.digest) == (other.exit, other.stderr, other.digest)


def summarize(exit_code: int | None, report_lines, stderr: str, error: str | None = None) -> Outcome:
    """Build an Outcome from an iterable of report lines (bytes), read once."""
    digest = hashlib.sha256()
    size = lines = 0
    nan = False
    for line in report_lines:
        digest.update(line)
        size += len(line)
        lines += 1
        nan = nan or _NAN.search(line) is not None
    return Outcome(exit_code, stderr, digest.hexdigest(), size, lines, nan, error)


def report_failures(op: Op, outcome: Outcome, reference: Outcome | None) -> list[str]:
    """Reasons an op failed; empty when it passed."""
    reasons = list(outcome.problems)
    if outcome.error is not None:
        reasons.append(f"exception escaped: {outcome.error}")
    stderr_lines = outcome.stderr.splitlines()
    if _TRACEBACK in outcome.stderr:
        reasons.append("traceback on stderr")
    elif outcome.exit not in (0, None) and len(stderr_lines) != 1:
        reasons.append(f"{len(stderr_lines)} stderr lines on exit {outcome.exit}")
    elif outcome.exit == 0 and any(not line.startswith(_WARNING) for line in stderr_lines):
        reasons.append("stderr output on exit 0")
    if outcome.exit not in op.expect:
        reasons.append(f"exit {outcome.exit}, expected {'/'.join(map(str, sorted(op.expect)))}")
    if outcome.nan:
        reasons.append("report contains nan")
    if op.rows is not None and outcome.exit == 0 and outcome.lines - 1 != op.rows:
        reasons.append(f"{outcome.lines - 1} rows, expected {op.rows}")
    if reference is not None and not outcome.same_output(reference):
        reasons.append("output differs from a second run")
    return reasons


def ranking_failures(op: Op, ranked, grid_best: float, objective) -> list[str]:
    """Reasons a ``policy-sweep`` op failed.

    ``ranked`` is the output of ``compare_policies``; ``grid_best`` is the
    largest meeting objective on an ``oracle.grid_argmin`` scan of the
    scenario's z window, and ``objective(z)`` evaluates the objective.
    """
    reasons = []
    if len(ranked) != op.policy_sets:
        reasons.append(f"{len(ranked)} ranked sets, expected {op.policy_sets}")
    keys = [(report.designer_cost, report.social_cost) for _, report in ranked]
    if keys != sorted(keys):
        reasons.append("ranking is not sorted by (designer, social) cost")
    for policies, report in ranked:
        numbers = (report.expected_infections, report.social_cost, report.designer_cost,
                   report.testing_outlay, report.suppressed_benefit)
        if any(math.isnan(value) for value in numbers):
            reasons.append("report contains nan")
        if any(p.kind == "lockdown" for p in policies) and report.expected_infections != 0.0:
            reasons.append("lockdown gives nonzero infections")
        z_star = report.citizen_outcome.z_star
        if z_star is not None and objective(z_star) < grid_best - 1e-9 * max(1.0, abs(grid_best)):
            reasons.append(f"optimum at z={z_star} does not dominate the grid scan")
    return sorted(set(reasons))


def ranking_digest(ranked) -> str:
    return hashlib.sha256(repr(ranked).encode()).hexdigest()
