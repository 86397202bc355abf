"""Shared fixtures and hypothesis strategies."""

import pytest
from hypothesis import strategies as st

from epigames import ActionSet, CostTable, MaskCosts, Policy
from epigames.policy import POLICY_PARAMS

SAMPLE_PARAMS = {"subsidy": 12.5, "limit": 7, "per_test_cost": 3.25, "traced_fraction": 0.4}


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
