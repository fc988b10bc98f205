"""Vertex enumeration and the budget-allocation optimizer."""

import numpy as np
import pytest

from contestlab import (
    ArgumentError,
    Contest,
    ContestEnvironment,
    CostFunction,
    FeasibleSet,
    alpha_coefficients,
    enumerate_vertices,
    expected_effort,
    optimize_budget,
    solve,
)
from conftest import random_monotone_contest, random_parametric_env, random_probs, random_thetas


def _linear_env(n, thetas, probs):
    return ContestEnvironment(
        n, tuple(CostFunction.linear(t) for t in thetas), tuple(probs)
    )


def _effort_value(env, contest):
    if contest.degenerate:
        return 0.0
    return expected_effort(env, contest, solve(env, contest))


class TestEnumerateVertices:
    def test_three_rank_vertices(self):
        vertices = {v.prizes for v in enumerate_vertices(2, 1.0)}
        assert vertices == {(0.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0)}

    def test_four_rank_vertices_include_extremes(self):
        vertices = {v.prizes for v in enumerate_vertices(3, 1.0)}
        assert (0.0, 0.0, 0.0, 1.0) in vertices
        assert (0.0, 1 / 3, 1 / 3, 1 / 3) in vertices
        assert len(vertices) == 4

    def test_budgets_are_full_or_zero(self):
        for vertex in enumerate_vertices(5, 2.5):
            assert vertex.total_budget == pytest.approx(2.5) or vertex.total_budget == 0.0
            assert all(b >= a for a, b in zip(vertex.prizes, vertex.prizes[1:]))

    def test_rejects_bad_budget(self):
        with pytest.raises(ArgumentError):
            enumerate_vertices(3, 0.0)


class TestFeasibleSet:
    def test_contains_its_own_vertices(self):
        feasible = FeasibleSet(3, 2.0)
        for vertex in feasible.vertices():
            assert feasible.contains(vertex)

    def test_excludes_overspending_and_mismatched_contests(self):
        feasible = FeasibleSet(2, 1.0)
        assert not feasible.contains(Contest((0.0, 1.0, 1.0)))
        assert not feasible.contains(Contest((0.0, 0.0, 0.0, 1.0)))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ArgumentError):
            FeasibleSet(0, 1.0)
        with pytest.raises(ArgumentError):
            FeasibleSet(2, -1.0)


class TestLinearOptimum:
    def test_winner_takes_all_beats_everything(self):
        rng = np.random.default_rng(97)
        for _ in range(6):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(2, 5))
            env = _linear_env(n, random_thetas(rng, k), random_probs(rng, k))
            solution = optimize_budget(env, 1.0, mode="vertex")
            assert solution.label == "winner_takes_all"
            assert not solution.ties
            others = [val for c, val in solution.vertex_values if c != solution.contest]
            assert all(solution.value > val for val in others)
            alphas = alpha_coefficients(env).coefficients
            for _ in range(200):
                contest = random_monotone_contest(rng, n)
                assert solution.value > float(
                    np.dot(alphas, np.asarray(contest.prizes[1:]))
                )

    def test_budget_scaling_is_homogeneous(self):
        env = _linear_env(3, (2.0, 1.0), (0.4, 0.6))
        base = optimize_budget(env, 1.0, mode="vertex")
        scaled = optimize_budget(env, 2.5, mode="vertex")
        assert scaled.value == pytest.approx(2.5 * base.value, rel=1e-9)

    def test_single_type_linear_ties_are_flagged(self):
        env = _linear_env(3, (1.5,), (1.0,))
        solution = optimize_budget(env, 1.0, mode="vertex")
        # every full-budget vertex achieves V/((N+1) theta)
        assert len(solution.ties) == 2
        assert solution.value == pytest.approx(1.0 / (4 * 1.5), abs=1e-9)


class TestCompleteInformationOptima:
    def test_convex_base_prefers_equal_split(self):
        env = ContestEnvironment(3, (CostFunction.power(1.0, 2.0),), (1.0,))
        solution = optimize_budget(env, 1.0, mode="vertex")
        assert solution.label == "equal_split"
        rng = np.random.default_rng(101)
        for _ in range(50):
            contest = random_monotone_contest(rng, 3)
            assert _effort_value(env, contest) <= solution.value + 1e-9

    def test_concave_base_prefers_winner_takes_all(self):
        env = ContestEnvironment(3, (CostFunction.power(1.0, 0.5),), (1.0,))
        solution = optimize_budget(env, 1.0, mode="vertex")
        assert solution.label == "winner_takes_all"
        others = [val for c, val in solution.vertex_values if c != solution.contest]
        assert all(solution.value > val for val in others)


class TestSearchMode:
    def test_search_never_beats_winner_takes_all_under_concavity(self):
        rng = np.random.default_rng(103)
        thetas = random_thetas(rng, 2)
        env = ContestEnvironment(
            3, tuple(CostFunction.power(t, 0.5) for t in thetas), random_probs(rng, 2)
        )
        solution = optimize_budget(env, 1.0, mode="vertex_plus_search", seed=5)
        wta_value = _effort_value(env, Contest((0.0, 0.0, 0.0, 1.0)))
        assert solution.value <= wta_value + 1e-7
        assert solution.label == "winner_takes_all"

    def test_search_is_deterministic_given_seed(self):
        env = ContestEnvironment(
            2,
            (CostFunction.power(2.0, 2.0), CostFunction.power(1.0, 2.0)),
            (0.5, 0.5),
        )
        first = optimize_budget(env, 1.0, mode="vertex_plus_search", seed=11)
        second = optimize_budget(env, 1.0, mode="vertex_plus_search", seed=11)
        assert first.contest == second.contest
        assert first.value == second.value
        assert first.evaluations == second.evaluations

    def test_search_keeps_the_vertex_table_and_reports_expected_effort(self):
        rng = np.random.default_rng(107)
        for exponent in (0.5, 2.0):
            env = random_parametric_env(rng, exponent, n_max=4, k_max=3, k_min=2)
            vertex = optimize_budget(env, 1.0, mode="vertex")
            search = optimize_budget(env, 1.0, mode="vertex_plus_search", seed=3)
            assert search.vertex_values == vertex.vertex_values
            assert search.value == _effort_value(env, search.contest)
            assert search.value >= vertex.value

    def test_jobs_do_not_change_the_result(self):
        env = ContestEnvironment(
            2,
            (CostFunction.power(2.0, 2.0), CostFunction.power(1.0, 2.0)),
            (0.5, 0.5),
        )
        serial = optimize_budget(env, 1.0, mode="vertex_plus_search", seed=11)
        threaded = optimize_budget(env, 1.0, mode="vertex_plus_search", seed=11, jobs=4)
        assert serial.contest == threaded.contest
        assert serial.value == threaded.value

    def test_rejects_unknown_mode(self, two_type_env):
        with pytest.raises(ArgumentError):
            optimize_budget(two_type_env, 1.0, mode="grid")
