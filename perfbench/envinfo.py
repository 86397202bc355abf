"""Environment record: processors, Python, source revision, interpreter
baselines and the ``-X importtime`` breakdown of ``import epigames.cli``."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

_IMPORT = "import epigames.cli"


def _wall_ms(argv: list[str], env: dict[str, str], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def parse_importtime(text: str) -> list[tuple[int, str, int, int]]:
    """``-X importtime`` stderr as (depth, module, self_us, cumulative_us) rows."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        module = fields[2].rstrip()
        name = module.lstrip(" ")
        # one space follows the bar, then two per nesting level
        depth = (len(module) - len(name) - 1) // 2
        rows.append((depth, name, int(fields[0]), int(fields[1])))
    return rows


def importtime(python: str, env: dict[str, str], repeats: int = 3) -> dict:
    """Median total and epigames import time, and the slowest modules by self time."""
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            [python, "-X", "importtime", "-c", _IMPORT], env=env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        runs.append(parse_importtime(done.stderr))
    totals = [sum(cum for depth, _, _, cum in rows if depth == 0) / 1e3 for rows in runs]
    package = [sum(cum for depth, name, _, cum in rows if depth == 0 and name.startswith("epigames")) / 1e3
               for rows in runs]
    slowest = sorted(runs[-1], key=lambda row: row[2], reverse=True)[:15]
    return {
        "total_ms": statistics.median(totals),
        "epigames_ms": statistics.median(package),
        "slowest_self_us": [[name, self_us, cum] for _, name, self_us, cum in slowest],
    }


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():  # do not let git search the directories above
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def record(root: Path, python: str, env: dict[str, str]) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "interp_start_ms": _wall_ms([python, "-c", "pass"], env, 7),
        "interp_nosite_ms": _wall_ms([python, "-S", "-c", "pass"], env, 7),
        "importtime": importtime(python, env),
    }
