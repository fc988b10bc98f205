"""Effort quadrature against the closed-form coefficients and cost-space identity."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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

    @pytest.mark.parametrize("tol", [1e-10, 1e-14])
    def test_linear_expected_effort_is_alpha_dot_prizes(self, tol):
        env = ContestEnvironment(
            2, (CostFunction.linear(2.0), CostFunction.linear(1.0)), (0.5, 0.5)
        )
        contest = Contest((0.0, 0.25, 1.0))
        value = expected_effort(env, contest, solve(env, contest), tol=tol)
        # alpha . v is 9/32 exactly; its float dot product rounds to within 4 ulp
        ulp = np.spacing(0.28125)
        assert abs(alpha_coefficients(env).dot(contest) - 0.28125) <= 4.0 * ulp
        assert abs(value - 0.28125) <= 2.0 * ulp

    def test_a_power_eight_instance_matches_quad(self):
        # a steep cost inverse, c^-1(y) = (y / theta)^(1/8), in every segment
        env = ContestEnvironment(
            4, tuple(CostFunction.power(t, 8.0) for t in (4.0, 3.0, 2.0, 1.0)), (0.25,) * 4
        )
        contest = Contest((0.0, 0.25, 0.25, 0.25, 0.25))
        eqm = solve(env, contest)
        value = expected_effort(env, contest, eqm)
        assert abs(value - _quad_reference(env, contest, eqm)) <= 1e-12
        assert abs(value - 0.6860375451061458) <= 1e-12

    def test_equals_the_operator_bit_for_bit(self):
        rng = np.random.default_rng(59)
        table = [(0.0, 0.0), (0.2, 0.5), (0.5, 1.4), (1.0, 3.2)]
        envs = [random_parametric_env(rng, e, n_max=8) for e in (0.5, 1.0, 2.0)]
        types = (CostFunction.tabulated(table), CostFunction.linear(1.0))
        envs.append(ContestEnvironment(3, types, (0.4, 0.6)))
        for env in envs:
            contest = random_monotone_contest(rng, env.n_others)
            value = expected_effort(env, contest, solve(env, contest))
            assert value == _EffortOperator(env)(np.array([contest.prizes]))[0]


class TestErrorEstimate:
    def test_a_tolerance_below_a_positive_estimate_raises(self, two_type_env):
        # every segment value is below 1 here, so the bound is tol itself;
        # halving the panels moves the second segment by 2.8e-17
        contest = Contest((0.0, 0.25, 1.0))
        eqm = solve(two_type_env, contest)
        ladder = np.array([contest.prizes])
        _EffortOperator(two_type_env).segments(ladder, tol=1e-16)
        with pytest.raises(NumericError, match="by 2.78e-17"):
            _EffortOperator(two_type_env).segments(ladder, tol=1e-17)
        for tol in (1e-17, 1e-18):
            with pytest.raises(NumericError, match="halving the effort panels"):
                expected_effort(two_type_env, contest, eqm, tol=tol)
            with pytest.raises(NumericError, match="halving the effort panels"):
                expected_effort_per_type(eqm, 2, tol=tol)

    def test_the_estimates_stay_below_1e_13_across_exponents(self):
        rng = np.random.default_rng(61)
        for exponent in (0.1, 0.5, 1.0, 2.0, 8.0):
            env = random_parametric_env(rng, exponent, n_max=6, k_max=4)
            ladders = _ladders_with_zeros(rng, env.n_others, 2 * env.n_others + 2)
            _EffortOperator(env).segments(ladders, tol=1e-13)


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
            assert mixture == pytest.approx(total, abs=1e-15)

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


def _quad_reference(env, contest, eqm) -> float:
    """Expected effort by scipy's quad on each segment, from solve's utilities and the Horner curve."""
    total = 0.0
    for k, (cf, u_k) in enumerate(zip(env.types, eqm.utilities), start=1):

        def integrand(t, cf=cf, u_k=u_k):
            return cf.inverse(max(prize_expectation(contest, t) - u_k, 0.0))

        lo, hi = env.cumulative[k - 1], env.cumulative[k]
        total += quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=500)[0]
    return total


def _operator_error(env, ladders) -> float:
    """Largest |operator - quad| / max(1, value) over the ladders."""
    values = _EffortOperator(env)(ladders)
    worst = 0.0
    for prizes, value in zip(ladders, values):
        contest = Contest(tuple(prizes.tolist()))
        ref = _quad_reference(env, contest, solve(env, contest))
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

    def test_a_knot_crossing_still_moving_at_the_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr("contestlab._quad._ROOT_STEPS", 1)
        tables = [[(0.0, 0.0), (0.2, 0.2 * s), (0.5, 0.8 * s), (1.0, 2.2 * s)] for s in (2.0, 1.0)]
        env = ContestEnvironment(4, tuple(CostFunction.tabulated(t) for t in tables), (0.5, 0.5))
        with pytest.raises(NumericError, match="after 1 steps"):
            _EffortOperator(env)(np.array([[0.0, 0.0, 0.5, 1.0, 2.0]]))

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
        tables = [[(0.0, 0.0), (0.2, 0.2 * s), (0.5, 0.8 * s), (1.0, 2.2 * s)] for s in (2.0, 1.0)]
        cases = [
            (random_parametric_env(rng, 2.0, n_max=5, k_min=2), 6),
            (ContestEnvironment(
                50, tuple(CostFunction.power(t, 2.0) for t in (2.0, 1.5, 1.0)), (0.3, 0.3, 0.4)
            ), 50),
            # per-ladder panels at the knots each ladder crosses
            (ContestEnvironment(4, tuple(CostFunction.tabulated(t) for t in tables), (0.5, 0.5)), 8),
        ]
        for env, count in cases:
            ladders = _ladders_with_zeros(rng, env.n_others, count)
            operator = _EffortOperator(env)
            # and blocks of panels: 50 ladders go one panel at a time, one ladder 32
            single = [operator(row[None, :])[0] for row in ladders]
            assert operator(ladders).tolist() == single

    def test_gradient_raises_where_the_first_band_is_float_empty(self):
        # the N-ladder env at N=1000: paying the top 120 ranks, pi(P_1) underflows,
        # b_1 = 0 and c'(b_1) = 0 under the power-2 base; paying the top 121 it does not
        env = ContestEnvironment(
            1000, tuple(CostFunction.power(t, 2.0) for t in (2.0, 1.5, 1.0)), (0.3, 0.3, 0.4)
        )
        operator = _EffortOperator(env)
        ladders = np.zeros((2, 1001))
        ladders[0, -120:], ladders[1, -121:] = 1.0 / 120, 1.0 / 121
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="boundary points failed to increase at type 1"):
                operator.gradient(ladders[0])
            assert np.all(np.isfinite(operator.gradient(ladders[1])))

    def test_gradients_at_every_vertex_are_finite_or_raise_without_warnings(self):
        # under a power base below 1 the nodes whose level clamps to 0 have an
        # infinite marginal cost, and the sum drops them
        env = ContestEnvironment(
            200, tuple(CostFunction.power(t, 0.1) for t in (2.0, 1.0)), (0.5, 0.5)
        )
        operator = _EffortOperator(env)
        finite = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in range(1, 201):
                ladder = np.concatenate((np.zeros(j), np.full(201 - j, 1.0 / (201 - j))))
                try:
                    gradient = operator.gradient(ladder)
                except NumericError:
                    continue
                assert np.all(np.isfinite(gradient))
                finite += 1
        assert finite > 100


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_linear_expected_effort_is_alpha_dot_prizes_on_random_environments(data):
    n = data.draw(st.integers(1, 40), label="n")
    k = data.draw(st.integers(1, 6), label="k")
    steps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k), label="scale steps")
    thetas = np.cumsum(steps)[::-1]
    weights = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    env = ContestEnvironment(
        n, tuple(CostFunction.linear(float(t)) for t in thetas), tuple(weights / weights.sum())
    )
    increment = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    increments = data.draw(st.lists(increment, min_size=n, max_size=n), label="increments")
    prizes = np.concatenate(([0.0], np.cumsum(increments)))
    if prizes[-1] == 0.0:
        prizes[-1] = 1.0
    contest = Contest(tuple(prizes.tolist()))
    value = expected_effort(env, contest, solve(env, contest))
    assert abs(value - alpha_coefficients(env).dot(contest)) <= 1e-12 * max(1.0, value)
