"""The forward recursion shared by solve and the effort operator."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from contestlab import (
    Contest,
    ContestEnvironment,
    ContinuumEnvironment,
    CostFunction,
    NumericError,
    boundaries_closed_form,
    discretize,
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
        for space in (env.types,) if env.scaled is None else (env.types, env.scaled):
            batch = _forward(space, pis)
            for i, row in enumerate(pis):
                for together, alone in zip(batch, _forward(space, row[None])):
                    assert together[i].tobytes() == alone[0].tobytes()


def test_solve_is_one_row_of_the_recursion():
    rng = np.random.default_rng(43)
    for env in _mixed_environments(rng):
        for _ in range(5):
            contest = random_monotone_contest(rng, env.n_others)
            eqm = solve(env, contest)
            pis = _prize_curve(contest, np.asarray(env.cumulative))
            boundaries, utilities, _ = _forward(env._space, pis[None])
            assert np.array(eqm.boundaries).tobytes() == boundaries[0].tobytes()
            assert np.array(eqm.utilities).tobytes() == utilities[0].tobytes()


@st.composite
def _scaled_rows(draw):
    """A linear or power 0.3-8 type list (K <= 64, N <= 50) and a batch of two monotone ladders."""
    k = draw(st.integers(1, 64))
    n = draw(st.integers(1, 50))
    exponent = draw(st.one_of(st.just(1.0), st.floats(0.3, 8.0)))
    lowest = draw(st.floats(0.3, 1.0))
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=k - 1, max_size=k - 1))
    thetas = lowest + np.concatenate(([0.0], np.cumsum(gaps)))[::-1]
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    cost = CostFunction.linear if exponent == 1.0 else (lambda t: CostFunction.power(t, exponent))
    env = ContestEnvironment(
        n, tuple(cost(float(t)) for t in thetas), tuple((weights / weights.sum()).tolist())
    )
    ladders = []
    for _ in range(2):
        increments = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(any))
        prizes = np.concatenate(([0.0], np.cumsum(increments)))
        ladders.append(prizes / prizes[1:].sum())
    return env, np.array(ladders)


@settings(max_examples=60, deadline=None)
@given(_scaled_rows())
def test_cumulative_sum_rows_agree_with_the_per_type_loop(instance):
    # Both paths carry the cost level c(b_k) through K rounded steps (the
    # loop also rounds it through a cost and an inverse at every step), so
    # each level may drift by about K ulps; a power-e base stretches a
    # level's relative error by 1/e in b_k, and u_k = pi(P_{k-1}) -
    # theta_k c(b_{k-1}) inherits both paths' drift, up to the top prize.
    env, ladders = instance
    pis = ladders @ _pmf_rows(env.n_others, np.asarray(env.cumulative))
    boundaries, utilities, _ = _forward(env.scaled, pis)
    loop_boundaries, loop_utilities, _ = _forward(env.types, pis)
    drift = env.n_types * np.finfo(float).eps
    stretch = max(1.0, 1.0 / env.scaled.exponent)
    np.testing.assert_allclose(boundaries, loop_boundaries, rtol=4 * drift * stretch, atol=0.0)
    assert np.all(np.abs(utilities - loop_utilities) <= 2 * drift * ladders[:, -1:])


def test_both_paths_meet_exact_arithmetic_on_a_thousand_types():
    # 1024 equally likely atoms of the uniform continuum on [1, 2]: each
    # boundary against the cost-unit sum of the same pi and scales in
    # Fractions, c(b_k) = sum_{j<=k} (pi(P_j) - pi(P_{j-1})) / theta_j
    env = discretize(ContinuumEnvironment.uniform(3, 1.0, 2.0), 1024)
    pis = _prize_curve(Contest((0.0, 0.1, 0.3, 0.6)), np.asarray(env.cumulative))
    exact, level = [], Fraction(0)
    for theta, lo, hi in zip(env.thetas, pis.tolist(), pis[1:].tolist()):
        level += (Fraction(hi) - Fraction(lo)) / Fraction(theta)
        exact.append(level)
    for space, bound in ((env.scaled, 1.1e-15), (env.types, 1.5e-15)):
        boundaries = _forward(space, pis[None])[0][0, 1:].tolist()
        error = max(abs(Fraction(b) - e) / e for b, e in zip(boundaries, exact))
        assert error <= bound
