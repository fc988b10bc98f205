"""Effort quadrature against the closed-form coefficients and cost-space identity."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binom

from contestlab import (
    ArgumentError,
    CapabilityError,
    Contest,
    ContestEnvironment,
    CostFunction,
    NumericError,
    alpha_coefficients,
    expected_cost,
    expected_effort,
    expected_effort_per_type,
    prize_expectation,
    solve,
    utilities_closed_form,
)
from contestlab.effort import _EffortOperator
from conftest import random_linear_env, random_monotone_contest, random_parametric_env, random_probs


class TestExpectedEffort:
    def test_single_type_value(self, single_type_env, top_prize_contest):
        eqm = solve(single_type_env, top_prize_contest)
        assert expected_effort(single_type_env, top_prize_contest, eqm) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_two_type_value(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        assert expected_effort(two_type_env, top_prize_contest, eqm) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_vanishes_with_the_budget(self, two_type_env):
        contest = Contest((0.0, 0.0, 1e-9))
        eqm = solve(two_type_env, contest)
        assert expected_effort(two_type_env, contest, eqm) <= 1e-9

    def test_rejects_mismatched_equilibrium(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        other = Contest((0.0, 0.5, 0.5))
        with pytest.raises(ArgumentError):
            expected_effort(two_type_env, other, eqm)

    def test_linear_in_prizes_under_linear_costs(self):
        rng = np.random.default_rng(41)
        env = random_linear_env(rng, k_max=3)
        v = random_monotone_contest(rng, env.n_others)
        w = random_monotone_contest(rng, env.n_others)
        s = float(rng.uniform(0.2, 3.0))

        def value(contest):
            return expected_effort(env, contest, solve(env, contest))

        combined = Contest(tuple(a + s * b for a, b in zip(v.prizes, w.prizes)))
        assert value(combined) == pytest.approx(value(v) + s * value(w), abs=1e-9)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_rejects_tolerance_that_cannot_be_met(two_type_env, top_prize_contest, tol):
    eqm = solve(two_type_env, top_prize_contest)
    with pytest.raises(ArgumentError):
        expected_effort(two_type_env, top_prize_contest, eqm, tol=tol)
    with pytest.raises(ArgumentError):
        expected_effort_per_type(eqm, 1, tol=tol)


class TestPerTypeEffort:
    def test_single_type_matches_total(self, single_type_env, top_prize_contest):
        eqm = solve(single_type_env, top_prize_contest)
        assert expected_effort_per_type(eqm, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_two_type_values(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        assert expected_effort_per_type(eqm, 1) == pytest.approx(1.0 / 24.0, abs=1e-10)
        assert expected_effort_per_type(eqm, 2) == pytest.approx(11.0 / 24.0, abs=1e-10)

    def test_mixture_recovers_total(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            env = random_linear_env(rng)
            contest = random_monotone_contest(rng, env.n_others)
            eqm = solve(env, contest)
            total = expected_effort(env, contest, eqm)
            mixture = sum(
                p * expected_effort_per_type(eqm, k)
                for k, p in enumerate(env.probs, start=1)
            )
            assert mixture == pytest.approx(total, abs=1e-9)

    def test_rejects_bad_type_index(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        with pytest.raises(ArgumentError):
            expected_effort_per_type(eqm, 5)


class TestAlphaCoefficients:
    def test_two_type_hand_values(self, two_type_env):
        alphas = alpha_coefficients(two_type_env).coefficients
        assert alphas == pytest.approx((0.125, 0.25), abs=1e-12)

    def test_single_type_uniform_coefficients(self, single_type_env):
        alphas = alpha_coefficients(single_type_env).coefficients
        assert alphas == pytest.approx((1.0 / 3.0, 1.0 / 3.0), abs=1e-14)

    def test_dot_product_matches_quadrature_hand_instance(
        self, two_type_env, top_prize_contest
    ):
        value = alpha_coefficients(two_type_env).dot(top_prize_contest)
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_oracle_equivalence_on_random_instances(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            env = random_linear_env(rng)
            contest = random_monotone_contest(rng, env.n_others)
            eqm = solve(env, contest)
            quad_value = expected_effort(env, contest, eqm)
            closed = alpha_coefficients(env).dot(contest)
            assert abs(quad_value - closed) <= 1e-8

    @pytest.mark.parametrize("n,thetas", [(7, (4.0, 3.0, 2.5, 1.0)), (200, (2.0, 1.4, 1.0))])
    def test_matches_the_term_by_term_formula(self, n, thetas):
        probs = tuple(np.full(len(thetas), 1.0 / len(thetas)))
        env = ContestEnvironment(n, tuple(CostFunction.linear(t) for t in thetas), probs)
        expected = []
        for m in range(1, n + 1):
            acc = 1.0 / thetas[-1]
            for k in range(1, len(thetas)):
                p_k = env.cumulative[k]
                weight = binom.sf(m - 1, n + 1, p_k) + (n - m) * binom.pmf(m, n + 1, p_k)
                acc -= weight * (1.0 / thetas[k] - 1.0 / thetas[k - 1])
            expected.append(acc / (n + 1))
        alphas = alpha_coefficients(env).coefficients
        np.testing.assert_allclose(alphas, expected, rtol=0.0, atol=1e-14)

    def test_top_coefficient_dominates_with_private_types(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            env = random_linear_env(rng, k_max=4)
            if env.n_types < 2 or env.n_others < 2:
                continue
            alphas = alpha_coefficients(env).coefficients
            assert all(alphas[-1] > a for a in alphas[:-1])

    def test_requires_linear_base(self):
        env = ContestEnvironment(
            2, (CostFunction.power(2.0, 2.0), CostFunction.power(1.0, 2.0)), (0.5, 0.5)
        )
        with pytest.raises(CapabilityError):
            alpha_coefficients(env)
        assert len(alpha_coefficients(env, cost_space=True).coefficients) == 2

    def test_requires_parametric_environment(self):
        env = ContestEnvironment(
            2,
            (CostFunction.power(2.0, 2.0), CostFunction.linear(1.0)),
            (0.5, 0.5),
        )
        with pytest.raises(CapabilityError):
            alpha_coefficients(env, cost_space=True)


class TestExpectedCost:
    def test_linear_base_equals_effort(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        assert expected_cost(two_type_env, top_prize_contest) == pytest.approx(
            expected_effort(two_type_env, top_prize_contest, eqm), abs=1e-10
        )

    def test_base_invariance_hand_instance(self, top_prize_contest):
        env = ContestEnvironment(
            2, (CostFunction.power(2.0, 2.0), CostFunction.power(1.0, 2.0)), (0.5, 0.5)
        )
        assert expected_cost(env, top_prize_contest) == pytest.approx(0.25, abs=1e-12)

    def test_zero_budget_costs_nothing(self, two_type_env):
        assert expected_cost(two_type_env, Contest((0.0, 0.0, 0.0))) == 0.0

    @pytest.mark.parametrize("exponent", [0.5, 2.0])
    def test_matches_quadrature_of_cost_along_equilibrium(self, exponent):
        # independent oracle: integrate base cost of the effort profile in the
        # win-probability parameterization
        thetas = (3.0, 1.5, 1.0)
        env = ContestEnvironment(
            3,
            tuple(CostFunction.power(t, exponent) for t in thetas),
            (0.25, 0.35, 0.4),
        )
        contest = Contest((0.0, 0.1, 0.3, 1.2))
        utilities = utilities_closed_form(env, contest)

        def base_cost_at(t: float) -> float:
            k = int(np.searchsorted(np.asarray(env.cumulative), t, side="right"))
            k = min(k, env.n_types)
            return (prize_expectation(contest, t) - utilities[k - 1]) / thetas[k - 1]

        oracle = 0.0
        for k in range(1, env.n_types + 1):
            part, _ = quad(base_cost_at, env.cumulative[k - 1], env.cumulative[k])
            oracle += part
        assert expected_cost(env, contest) == pytest.approx(oracle, abs=1e-8)


def _ladders_with_zeros(rng, n: int, count: int) -> np.ndarray:
    """Random full-budget ladders whose first z prizes are zero, z = 0..n-1 in turn."""
    out = []
    for i in range(count):
        increments = rng.exponential(size=n)
        increments[: i % n] = 0.0
        prizes = np.concatenate(([0.0], np.cumsum(increments)))
        out.append(prizes / prizes[1:].sum())
    return np.array(out)


def _operator_error(env, ladders) -> float:
    """Largest |operator - expected_effort| / max(1, value) over the ladders.

    expected_effort runs at tol 1e-12 * max(1, value): its default 1e-10
    acceptance leaves up to about 2e-11 at a t^(j/2) endpoint and 4e-12 at a
    table knot, where the fixed nodes are the more accurate of the two.
    """
    values = _EffortOperator(env)(ladders)
    worst = 0.0
    for prizes, value in zip(ladders, values):
        contest = Contest(tuple(prizes.tolist()))
        eqm = solve(env, contest)
        ref = expected_effort(env, contest, eqm)
        ref = expected_effort(env, contest, eqm, tol=1e-12 * max(1.0, ref))
        worst = max(worst, abs(value - ref) / max(1.0, ref))
    return worst


# knots at costs the cost levels of test_gradient_matches_central_differences cross
_SLOPES_TABLE = ((0, 0), (0.05, 0.05), (0.2, 0.3), (1, 2.2))


class TestEffortOperator:
    @pytest.mark.parametrize("exponent", [0.1, 0.5, 1.0, 2.0, 8.0])
    def test_matches_expected_effort_across_exponents(self, exponent):
        rng = np.random.default_rng(int(exponent * 10) + 211)
        for _ in range(3):
            env = random_parametric_env(rng, exponent, n_max=6, k_max=4)
            ladders = _ladders_with_zeros(rng, env.n_others, 2 * env.n_others + 2)
            assert _operator_error(env, ladders) <= 1e-12

    @pytest.mark.parametrize("exponent", [0.1, 0.5, 1.0, 2.0, 8.0])
    def test_two_hundred_opponents(self, exponent):
        rng = np.random.default_rng(223)
        env = ContestEnvironment(
            200, tuple(CostFunction.power(t, exponent) for t in (2.0, 1.5, 1.0)), (0.3, 0.3, 0.4)
        )
        ladders = _ladders_with_zeros(rng, 200, 200)[[0, 1, 100, 198, 199]]
        solvable = []
        for prizes in ladders:
            try:
                solve(env, Contest(tuple(prizes.tolist())))
            except NumericError:
                # near winner-takes-all at exponent 0.1 the boundaries underflow;
                # solve reports it, and the operator is not asked
                continue
            solvable.append(prizes)
        assert len(solvable) >= 3
        assert _operator_error(env, np.array(solvable)) <= 1e-12

    def test_tabulated_types_crossing_table_knots(self):
        rng = np.random.default_rng(227)
        tables = [[(0.0, 0.0), (0.2, 0.2 * s), (0.5, 0.8 * s), (1.0, 2.2 * s)] for s in (2.0, 1.0)]
        env = ContestEnvironment(4, tuple(CostFunction.tabulated(t) for t in tables), (0.5, 0.5))
        assert _operator_error(env, _ladders_with_zeros(rng, 4, 8)) <= 1e-12

    def test_mixed_kind_types(self):
        rng = np.random.default_rng(229)
        table = [(0.0, 0.0), (0.2, 0.5), (0.5, 1.4), (1.0, 3.2)]
        with_table = ContestEnvironment(
            3, (CostFunction.tabulated(table), CostFunction.linear(1.0)), (0.4, 0.6)
        )
        assert _operator_error(with_table, _ladders_with_zeros(rng, 3, 6)) <= 1e-12
        curved = ContestEnvironment(
            3, (CostFunction.linear(3.0), CostFunction.power(1.0, 2.0)), (0.4, 0.6)
        )
        assert _operator_error(curved, _ladders_with_zeros(rng, 3, 9)) <= 1e-12

    @pytest.mark.parametrize(
        "types",
        [
            [CostFunction.power(t, 0.5) for t in (3.0, 2.0, 1.0)],
            [CostFunction.linear(2.0), CostFunction.linear(1.0)],
            [CostFunction.power(t, 2.0) for t in (3.0, 2.0, 1.0)],
            [CostFunction.power(3.0, 2.0), CostFunction.power(1.0, 2.5)],
            [CostFunction.tabulated([(x, s * c) for x, c in _SLOPES_TABLE]) for s in (2, 1)],
            [CostFunction.linear(4.0), CostFunction.tabulated(_SLOPES_TABLE)],
        ],
        ids=["concave", "linear", "convex", "mixed", "tabulated", "table+linear"],
    )
    def test_gradient_matches_central_differences(self, types):
        rng = np.random.default_rng(239)
        env = ContestEnvironment(4, tuple(types), tuple(random_probs(rng, len(types))))
        operator = _EffortOperator(env)
        ladder = np.array([0.0, 0.1, 0.15, 0.25, 0.5])
        directions = np.array([[0.0, 1.0, 0.0, 0.0, -1.0], [0.0, -0.5, 0.5, 0.0, 0.0]])
        directions = np.vstack((directions, np.diag(np.ones(5))[1:]))
        h = 1e-5
        steps = np.concatenate((ladder + h * directions, ladder - h * directions))
        values = operator(steps)
        central = (values[: len(directions)] - values[len(directions) :]) / (2 * h)
        np.testing.assert_allclose(
            directions @ operator.gradient(ladder), central, rtol=1e-7, atol=1e-9
        )

    def test_batch_matches_one_ladder_at_a_time(self):
        rng = np.random.default_rng(233)
        env = random_parametric_env(rng, 2.0, n_max=5, k_min=2)
        ladders = _ladders_with_zeros(rng, env.n_others, 6)
        operator = _EffortOperator(env)
        batch = operator(ladders)
        single = np.array([operator(row[None, :])[0] for row in ladders])
        np.testing.assert_allclose(batch, single, rtol=1e-14, atol=0.0)
