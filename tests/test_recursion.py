"""The forward recursion shared by solve and the effort operator."""

import numpy as np
from hypothesis import given, settings, strategies as st

from contestlab import (
    Contest,
    ContestEnvironment,
    CostFunction,
    NumericError,
    boundaries_closed_form,
    solve,
    utilities_closed_form,
)
from contestlab.equilibrium import _forward
from contestlab.kernels import _pmf_rows, _prize_curve
from conftest import random_monotone_contest, random_parametric_env, random_probs


@st.composite
def _parametric_instances(draw):
    """A power-base environment (K <= 6, N <= 40, exponent 0.1 to 8) and a monotone ladder."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    exponent = draw(st.floats(0.1, 8.0))
    lowest = draw(st.floats(0.3, 1.0))
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=k - 1, max_size=k - 1))
    thetas = lowest + np.concatenate(([0.0], np.cumsum(gaps)))[::-1]
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    env = ContestEnvironment(
        n,
        tuple(CostFunction.power(float(t), exponent) for t in thetas),
        tuple((weights / weights.sum()).tolist()),
    )
    increments = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(any))
    prizes = np.concatenate(([0.0], np.cumsum(increments)))
    return env, Contest(tuple((prizes / prizes[1:].sum()).tolist()))


@settings(max_examples=200, deadline=None)
@given(_parametric_instances())
def test_closed_forms_equal_the_recursion(instance):
    env, contest = instance
    try:
        eqm = solve(env, contest)
    except NumericError:
        return  # outside solve's float range, which solve reports
    np.testing.assert_allclose(utilities_closed_form(env, contest), eqm.utilities, atol=1e-9)
    np.testing.assert_allclose(
        boundaries_closed_form(env, contest), eqm.boundaries[1:], atol=1e-9
    )


def _mixed_environments(rng):
    table = [(0.0, 0.0), (0.2, 0.5), (0.5, 1.4), (1.0, 3.2)]
    yield random_parametric_env(rng, 0.5, n_max=8, k_max=5)
    yield random_parametric_env(rng, 1.0, n_max=8, k_max=5)
    yield random_parametric_env(rng, 3.0, n_max=8, k_max=5)
    yield ContestEnvironment(
        5, (CostFunction.tabulated(table), CostFunction.linear(1.0)), random_probs(rng, 2)
    )
    yield ContestEnvironment(
        5, (CostFunction.linear(3.0), CostFunction.power(1.0, 2.0)), random_probs(rng, 2)
    )


def test_rows_of_one_call_equal_calls_of_one_row():
    rng = np.random.default_rng(41)
    for env in _mixed_environments(rng):
        ladders = np.array(
            [random_monotone_contest(rng, env.n_others).prizes for _ in range(7)]
        )
        pis = ladders @ _pmf_rows(env.n_others, np.asarray(env.cumulative))
        batch = _forward(env.types, pis)
        for i, row in enumerate(pis):
            for together, alone in zip(batch, _forward(env.types, row[None])):
                assert together[i].tobytes() == alone[0].tobytes()


def test_solve_is_one_row_of_the_recursion():
    rng = np.random.default_rng(43)
    for env in _mixed_environments(rng):
        for _ in range(5):
            contest = random_monotone_contest(rng, env.n_others)
            eqm = solve(env, contest)
            pis = _prize_curve(contest, np.asarray(env.cumulative))
            boundaries, utilities, _ = _forward(env.types, pis[None])
            assert np.array(eqm.boundaries).tobytes() == boundaries[0].tobytes()
            assert np.array(eqm.utilities).tobytes() == utilities[0].tobytes()
