"""Shared fixtures, hypothesis strategies, and the writing and running of scenarios."""

import configparser
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from epigames import ActionSet, CostTable, MaskCosts, Policy, cli
from epigames.policy import POLICY_PARAMS

SAMPLE_PARAMS = {"subsidy": 12.5, "limit": 7, "per_test_cost": 3.25, "traced_fraction": 0.4}
BASELINE_FILE = Path(__file__).resolve().parents[1] / "scenarios" / "baseline.ini"


@pytest.fixture
def base_costs():
    """Cheap cloth mask, pricey respirator, a week of lost wages if infected."""
    return MaskCosts(c_out=1.0, c_in=10.0, c_use=100.0, c_infection=1000.0)


@st.composite
def mask_costs_with_gaps(draw):
    """Valid mask costs whose orderings hold with comfortable margins.

    The solvers compare costs exactly, so the strict orderings alone keep the
    equilibrium sets unique.  The gaps and the bounded magnitudes keep the
    float checks some tests make, such as the second difference within
    1e-6, well inside their allowance.
    """
    c_out = draw(st.floats(0.01, 20))
    c_in = c_out + draw(st.floats(0.01, 50))
    c_infection = c_in + draw(st.floats(0.5, 2000))
    c_use = draw(st.floats(0.001, c_infection - 0.5))
    return MaskCosts(c_out, c_in, c_use, c_infection)


def probabilities():
    return st.floats(0.0, 1.0)


def sample_policy(kind):
    """A valid policy of ``kind`` with every parameter its table row names set."""
    return Policy(kind, **{name: SAMPLE_PARAMS[name] for name in POLICY_PARAMS[kind]})


def restrict(game, keep_p1, keep_p2):
    """The sub-game of ``game`` over the given actions, each an index or a label, order kept."""

    def resolve(actions, keep):
        index = [actions.labels.index(k) if isinstance(k, str) else k for k in keep]  # ValueError if unknown
        if not all(0 <= k < len(actions) for k in index):
            raise ValueError(f"an action index of {index} is out of range")
        return index

    rows = resolve(game.actions_p1, keep_p1)
    cols = resolve(game.actions_p2, keep_p2)
    return CostTable(
        ActionSet(tuple(game.actions_p1.labels[i] for i in rows)),
        ActionSet(tuple(game.actions_p2.labels[j] for j in cols)),
        tuple(tuple(game.costs[i][j] for j in cols) for i in rows),
    )


def edited_scenario(directory, edits=(), sections=None, text=None):
    """Write ``text`` (default: the bundled scenario's) to ``directory``/edited.ini with each
    section of ``sections`` replaced by its keys, or removed where they are None, and then
    each (section, key, value) of ``edits`` set, in order, where a callable value maps the
    key's current text to its new one; returns the path."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(BASELINE_FILE.read_text(encoding="utf-8") if text is None else text)
    for section, keys in (sections or {}).items():
        parser.remove_section(section)
        if keys is not None:
            parser[section] = keys
    for section, key, value in edits:
        parser[section][key] = value(parser[section][key]) if callable(value) else value
    path = Path(directory) / "edited.ini"
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)
    return str(path)


def child_env(**changes):
    """This environment with the tested package first on PYTHONPATH, and each of
    ``changes`` set, or removed where it is None."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **changes}
    return {key: value for key, value in env.items() if value is not None}


def cli_process(args, stdout=subprocess.PIPE, **env):
    """``python -m epigames.cli *args`` writing its report to ``stdout``, with ``env``
    changed; a run that takes more than a minute fails."""
    return subprocess.run(
        [sys.executable, "-m", "epigames.cli", *args],
        env=child_env(**env), stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
    )
