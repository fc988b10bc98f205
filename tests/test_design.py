"""Vertex enumeration and the budget-allocation optimizer."""

import numpy as np
import pytest

from contestlab import design
from contestlab import (
    ArgumentError,
    Contest,
    ContestEnvironment,
    CostFunction,
    FeasibleSet,
    NumericError,
    alpha_coefficients,
    enumerate_vertices,
    expected_effort,
    optimize_budget,
    solve,
)
from contestlab.effort import _EffortOperator
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

    def test_rejects_bad_opponent_count(self):
        for n in (0, 2.0):
            with pytest.raises(ArgumentError):
                enumerate_vertices(n, 1.0)


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

    @pytest.mark.parametrize("mode", ["vertex", "vertex_plus_search"])
    def test_seed_is_none_or_a_nonnegative_integer(self, two_type_env, mode):
        for seed in (-1, 1.5, "7"):
            with pytest.raises(ArgumentError, match="seed"):
                optimize_budget(two_type_env, 1.0, mode=mode, seed=seed)
        assert optimize_budget(two_type_env, 1.0, mode=mode, seed=None).seed is None

    def test_rejects_unknown_mode(self, two_type_env):
        with pytest.raises(ArgumentError):
            optimize_budget(two_type_env, 1.0, mode="grid")


class TestFrankWolfe:
    @pytest.mark.parametrize("exponent", [1.5, 2.0, 3.0])
    def test_convex_base_gap_certifies_the_optimum(self, exponent):
        rng = np.random.default_rng(134)
        env = random_parametric_env(rng, exponent, n_max=6, k_max=4, k_min=2)
        assert (env.n_others, env.n_types) == (5, 4)
        budget = 1.0
        solution = optimize_budget(env, budget, mode="vertex_plus_search")
        assert solution.gap <= 1e-9 * budget
        assert solution.value >= max(val for _, val in solution.vertex_values)
        for _ in range(200):
            contest = random_monotone_contest(rng, env.n_others, budget)
            assert solution.value >= _effort_value(env, contest) - 1e-12

    @pytest.mark.parametrize("exponent", [0.5, 1.0])
    def test_linear_or_concave_base_returns_the_best_vertex(self, exponent):
        rng = np.random.default_rng(113)
        for _ in range(4):
            env = random_parametric_env(rng, exponent, n_max=6, k_max=4)
            vertex = optimize_budget(env, 1.0, mode="vertex")
            search = optimize_budget(env, 1.0, mode="vertex_plus_search")
            assert search.contest == vertex.contest
            assert search.label == vertex.label
            assert search.value == vertex.value
            assert search.gap <= 1e-9
            # the N+1 vertices and one gradient, no step
            assert search.evaluations == env.n_others + 2

    @pytest.mark.parametrize("n", [50, 200])
    def test_many_ranks_reach_a_certified_gap(self, n):
        # power-2 base, so effort is concave on the face. solve fails some of
        # these vertices at N >= 39, so the operator scores them instead
        env = ContestEnvironment(
            n, tuple(CostFunction.power(t, 2.0) for t in (2.0, 1.5, 1.0)), (0.3, 0.3, 0.4)
        )
        budget = 1.0
        vertices = enumerate_vertices(n, budget)
        operator = _EffortOperator(env)
        values = operator(np.array([v.prizes for v in vertices[1:]]))
        scored = [(vertices[0], 0.0)] + list(zip(vertices[1:], values.tolist()))
        contest, gap, _ = design._frank_wolfe(operator, scored, budget)
        assert gap <= 1e-9 * budget
        # concavity: no ladder on the face beats the result by more than gap
        rng = np.random.default_rng(n)
        ladders = [random_monotone_contest(rng, n, budget).prizes for _ in range(20)]
        others = np.concatenate((values, operator(np.array(ladders))))
        value = operator(np.array([contest.prizes]))[0]
        assert np.all(value >= others - gap)

    def test_line_search_reuses_the_iteration_gradient(self, monkeypatch):
        # the N-ladder env at N=20, where solve takes every vertex
        env = ContestEnvironment(
            20, tuple(CostFunction.power(t, 2.0) for t in (2.0, 1.5, 1.0)), (0.3, 0.3, 0.4)
        )
        real_gradient, real_line_step = _EffortOperator.gradient, design._line_step
        taken = []  # (operator, ladder, gradient) for each gradient taken
        steps = []  # (step, gradients taken) for each line-search evaluation

        def gradient(self, ladder):
            taken.append((self, ladder.copy(), real_gradient(self, ladder)))
            return taken[-1][2]

        def line_step(f, hi):
            def counted(step):
                before = len(taken)
                value = f(step)
                steps.append((step, len(taken) - before))
                return value

            return real_line_step(counted, hi)

        monkeypatch.setattr(_EffortOperator, "gradient", gradient)
        monkeypatch.setattr(design, "_line_step", line_step)
        solution = optimize_budget(env, 1.0, mode="vertex_plus_search")
        searches = sum(step == 0.0 for step, _ in steps)
        assert searches > 10
        # each search starts at step 0 without a gradient; every other step takes one
        assert all(used == int(step != 0.0) for step, used in steps)
        # N+1 vertices, the gradients, the returned ladder: one gradient per
        # search fewer than a search that re-takes the gradient at step 0
        assert solution.evaluations == 21 + len(taken) + 1
        # a re-taken gradient would be bit-identical, so the path is unchanged
        for operator, ladder, g in taken:
            assert real_gradient(operator, ladder).tobytes() == g.tobytes()

    def test_a_line_step_still_open_at_the_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(design, "_ROOT_STEPS", 1)
        env = ContestEnvironment(
            20, tuple(CostFunction.power(t, 2.0) for t in (2.0, 1.5, 1.0)), (0.3, 0.3, 0.4)
        )
        with pytest.raises(NumericError, match="line step .* after 1 steps"):
            optimize_budget(env, 1.0, mode="vertex_plus_search")

    def test_mixed_powers_reach_a_stationary_point(self):
        env = ContestEnvironment(
            3, (CostFunction.power(3.0, 2.0), CostFunction.power(1.0, 2.5)), (0.5, 0.5)
        )
        solution = optimize_budget(env, 1.0, mode="vertex_plus_search")
        assert not env.parametric
        assert solution.gap <= 1e-9
        assert solution.value >= max(val for _, val in solution.vertex_values)
        assert solution.label == "mixed"

    @pytest.mark.parametrize("n", [2, 3])
    def test_tabulated_gap_is_confirmed_by_differences_of_expected_effort(self, n):
        # the baseline tables; each derivative along V_i - x is a central
        # difference of expected_effort, or a second-order forward one where
        # the backward ladder is not monotone (x has tied prizes that V_i splits)
        tables = [[(0, 0), (0.5, 0.4), (1, 1.5), (2, 5)], [(0, 0), (0.5, 0.2), (1, 0.8), (2, 3)]]
        env = ContestEnvironment(n, tuple(CostFunction.tabulated(t) for t in tables), (0.5, 0.5))
        budget = 1.0
        solution = optimize_budget(env, budget, mode="vertex_plus_search")
        assert solution.gap <= 1e-9 * budget
        x, h = np.array(solution.contest.prizes), 1e-4

        def value(ladder):
            contest = Contest(tuple(ladder.tolist()))
            return expected_effort(env, contest, solve(env, contest), tol=1e-13)

        for vertex in enumerate_vertices(n, budget)[1:]:
            d = np.array(vertex.prizes) - x
            if np.all(np.diff(x - h * d) >= 0.0):
                slope = (value(x + h * d) - value(x - h * d)) / (2 * h)
            else:
                slope = (4 * value(x + h * d) - value(x + 2 * h * d) - 3 * value(x)) / (2 * h)
            assert slope <= 1e-9 * budget

    def test_vertex_mode_reports_no_gap(self, two_type_env):
        assert optimize_budget(two_type_env, 1.0, mode="vertex").gap is None

    def test_iteration_cap_raises(self, monkeypatch):
        env = ContestEnvironment(
            2, (CostFunction.power(2.0, 2.0), CostFunction.power(1.0, 2.0)), (0.5, 0.5)
        )
        monkeypatch.setattr(design, "_FW_ITERATIONS", 0)
        with pytest.raises(NumericError, match="gap"):
            optimize_budget(env, 1.0, mode="vertex_plus_search")
