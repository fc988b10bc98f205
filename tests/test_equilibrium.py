"""Solver recursion, closed forms, CDF queries, and inverse-transform sampling."""

import numpy as np
import pytest

from contestlab import (
    ArgumentError,
    CapabilityError,
    Contest,
    ContestEnvironment,
    CostFunction,
    NumericError,
    boundaries_closed_form,
    exante_cdf,
    prize_expectation,
    sample,
    solve,
    type_cdf,
    type_index,
    utilities_closed_form,
)
from contestlab.equilibrium import _draw, _mixing_cdf
from conftest import random_linear_env, random_monotone_contest, random_parametric_env


class TestSolve:
    def test_single_type(self, single_type_env, top_prize_contest):
        eqm = solve(single_type_env, top_prize_contest)
        assert eqm.boundaries == pytest.approx((0.0, 1.0), abs=1e-12)
        assert eqm.utilities == pytest.approx((0.0,), abs=1e-12)

    def test_two_type_hand_instance(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        assert eqm.utilities == pytest.approx((0.0, 0.125), abs=1e-12)
        assert eqm.boundaries == pytest.approx((0.0, 0.125, 0.875), abs=1e-12)

    def test_scaling_the_budget_scales_linearly(self, two_type_env):
        eqm = solve(two_type_env, Contest((0.0, 0.0, 2.0)))
        assert eqm.utilities == pytest.approx((0.0, 0.25), abs=1e-12)
        assert eqm.boundaries == pytest.approx((0.0, 0.25, 1.75), abs=1e-12)

    def test_rejects_degenerate_contest(self, two_type_env):
        with pytest.raises(ArgumentError):
            solve(two_type_env, Contest((0.0, 0.0, 0.0)))

    def test_rejects_invalid_environment(self, top_prize_contest):
        env = ContestEnvironment(
            2, (CostFunction.linear(1.0), CostFunction.linear(1.0)), (0.5, 0.5)
        )
        with pytest.raises(ArgumentError):
            solve(env, top_prize_contest)

    def test_rejects_mismatched_opponent_counts(self, two_type_env):
        with pytest.raises(ArgumentError):
            solve(two_type_env, Contest((0.0, 1.0)))

    def test_boundaries_strictly_increase(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            env = random_linear_env(rng)
            contest = random_monotone_contest(rng, env.n_others)
            eqm = solve(env, contest)
            assert all(b < a for b, a in zip(eqm.boundaries, eqm.boundaries[1:]))
            assert all(u2 >= u1 for u1, u2 in zip(eqm.utilities, eqm.utilities[1:]))

    def test_indifference_on_support(self):
        rng = np.random.default_rng(31)
        for exponent in (0.5, 1.0, 2.0):
            env = random_parametric_env(rng, exponent, k_min=2)
            contest = random_monotone_contest(rng, env.n_others)
            eqm = solve(env, contest)
            for k in range(1, env.n_types + 1):
                xs = np.linspace(eqm.boundaries[k - 1], eqm.boundaries[k], 200)
                payoff = prize_expectation(contest, exante_cdf(eqm, xs)) - env.types[
                    k - 1
                ].evaluate(xs)
                residual = np.max(np.abs(payoff - eqm.utilities[k - 1]))
                assert residual <= 1e-8 * contest.top_prize

    def test_underflowing_first_boundary_is_a_numeric_error(self):
        # outside solve's float range: b_1 = (pi(P_1) / theta_1)^(1/0.1) underflows
        # to 0 because pi(P_1) is about P_1^200 = 3^-200
        env = ContestEnvironment(
            200, tuple(CostFunction.power(t, 0.1) for t in (2.0, 1.5, 1.0)), (1 / 3,) * 3
        )
        contest = Contest((0.0,) * 199 + (0.5, 1.0))
        with pytest.raises(NumericError, match="boundary points failed to increase at type 1"):
            solve(env, contest)


class TestClosedForms:
    def test_two_type_utilities(self, two_type_env, top_prize_contest):
        assert utilities_closed_form(two_type_env, top_prize_contest) == pytest.approx(
            (0.0, 0.125), abs=1e-12
        )

    def test_single_type_utility_is_zero(self, single_type_env, top_prize_contest):
        assert utilities_closed_form(single_type_env, top_prize_contest) == (0.0,)

    def test_two_type_boundaries(self, two_type_env, top_prize_contest):
        assert boundaries_closed_form(two_type_env, top_prize_contest) == pytest.approx(
            (0.125, 0.875), abs=1e-12
        )

    def test_quadratic_base_boundaries(self, top_prize_contest):
        env = ContestEnvironment(
            2, (CostFunction.power(2.0, 2.0), CostFunction.power(1.0, 2.0)), (0.5, 0.5)
        )
        expected = (np.sqrt(0.125), np.sqrt(0.875))
        assert boundaries_closed_form(env, top_prize_contest) == pytest.approx(
            expected, abs=1e-12
        )

    def test_single_type_boundary(self, top_prize_contest):
        env = ContestEnvironment(2, (CostFunction.linear(4.0),), (1.0,))
        assert boundaries_closed_form(env, top_prize_contest) == pytest.approx(
            (0.25,), abs=1e-12
        )

    def test_closed_forms_match_solver(self):
        rng = np.random.default_rng(37)
        for exponent in (0.5, 1.0, 2.0):
            for _ in range(8):
                env = random_parametric_env(rng, exponent)
                contest = random_monotone_contest(rng, env.n_others)
                eqm = solve(env, contest)
                np.testing.assert_allclose(
                    utilities_closed_form(env, contest), eqm.utilities, atol=1e-9
                )
                np.testing.assert_allclose(
                    boundaries_closed_form(env, contest), eqm.boundaries[1:], atol=1e-9
                )

    def test_three_type_cross_check(self, top_prize_contest):
        env = ContestEnvironment(
            2,
            tuple(CostFunction.linear(t) for t in (4.0, 2.0, 1.0)),
            (1 / 3, 1 / 3, 1 / 3),
        )
        eqm = solve(env, top_prize_contest)
        np.testing.assert_allclose(
            utilities_closed_form(env, top_prize_contest), eqm.utilities, atol=1e-10
        )

    def test_requires_parametric_environment(self, top_prize_contest):
        env = ContestEnvironment(
            2,
            (CostFunction.power(2.0, 2.0), CostFunction.linear(1.0)),
            (0.5, 0.5),
        )
        with pytest.raises(CapabilityError):
            utilities_closed_form(env, top_prize_contest)
        with pytest.raises(CapabilityError):
            boundaries_closed_form(env, top_prize_contest)


class TestTypeIndex:
    def test_endpoints(self, two_type_env):
        assert type_index(two_type_env, 0.0) == 1
        assert type_index(two_type_env, 1.0) == 2

    def test_breakpoint_goes_to_upper_segment(self, two_type_env):
        assert type_index(two_type_env, 0.5) == 2

    def test_rejects_out_of_range(self, two_type_env):
        with pytest.raises(ArgumentError):
            type_index(two_type_env, 1.5)


class TestTypeCdf:
    def test_boundary_values(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        for k in (1, 2):
            assert type_cdf(eqm, k, eqm.boundaries[k - 1]) == 0.0
            assert type_cdf(eqm, k, eqm.boundaries[k]) == 1.0

    def test_single_type_square_root_shape(self, single_type_env, top_prize_contest):
        eqm = solve(single_type_env, top_prize_contest)
        assert type_cdf(eqm, 1, 0.25) == pytest.approx(0.5, abs=1e-10)

    def test_nondecreasing_and_continuous(self, two_type_env):
        # strictly positive prize gaps keep the mixing density bounded, so a
        # 1e-4 grid resolves continuity; a zero bottom gap would put a
        # square-root singularity at b_0 and defeat any fixed grid
        contest = Contest((0.0, 0.4, 0.6))
        eqm = solve(two_type_env, contest)
        for k in (1, 2):
            xs = np.arange(
                eqm.boundaries[k - 1] - 0.01, eqm.boundaries[k] + 0.01, 1e-4
            )
            values = type_cdf(eqm, k, xs)
            assert np.all(np.diff(values) >= -1e-12)
            assert np.max(np.abs(np.diff(values))) <= 1e-3

    def test_nondecreasing_at_singular_endpoint(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        for k in (1, 2):
            xs = np.linspace(eqm.boundaries[k - 1], eqm.boundaries[k], 4000)
            values = type_cdf(eqm, k, xs)
            assert np.all(np.diff(values) >= -1e-12)


class TestExanteCdf:
    def test_segment_junctions(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        for k in (1, 2):
            assert exante_cdf(eqm, eqm.boundaries[k]) == pytest.approx(
                two_type_env.cumulative[k], abs=1e-10
            )

    def test_hand_value_at_first_boundary(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        assert exante_cdf(eqm, 0.125) == pytest.approx(0.5, abs=1e-10)

    def test_clamps_outside_support(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        assert exante_cdf(eqm, -0.5) == 0.0
        assert exante_cdf(eqm, 2.0) == 1.0

    def test_batch_matches_per_type_mixing_cdfs(self):
        env = ContestEnvironment(
            n_others=3,
            types=(
                CostFunction.linear(3.0),
                CostFunction.tabulated([(0.0, 0.0), (0.5, 1.0), (1.0, 2.2)]),
                CostFunction.linear(1.0),
            ),
            probs=(0.3, 0.3, 0.4),
        )
        contest = Contest((0.0, 0.1, 0.3, 1.0))
        eqm = solve(env, contest)
        xs = np.concatenate((np.linspace(-0.1, 1.1 * eqm.max_effort, 301), eqm.boundaries))
        expected = np.empty_like(xs)
        for i, x in enumerate(xs):
            if x <= 0.0:
                expected[i] = 0.0
            elif x >= eqm.max_effort:
                expected[i] = 1.0
            else:
                k = min(max(int(np.searchsorted(eqm.boundaries, x, side="left")), 1), env.n_types)
                expected[i] = env.cumulative[k - 1] + env.probs[k - 1] * type_cdf(eqm, k, x)
        np.testing.assert_allclose(exante_cdf(eqm, xs), expected, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("exponent", [1.0, 0.5, 2.0, 8.0])
def test_one_call_on_a_scaled_env_equals_a_call_per_type(exponent):
    # a linear or power base takes theta_k per point in one cost call: the
    # same elementwise operations as one call per type, so the same bits
    rng = np.random.default_rng(int(exponent * 10))
    env = random_parametric_env(rng, exponent, n_max=8, k_min=3, k_max=6)
    eqm = solve(env, random_monotone_contest(rng, env.n_others))
    per_type = eqm._solved._replace(space=env.types)
    assert env.scaled is not None and eqm._solved.space is env.scaled
    seg = rng.integers(1, env.n_types + 1, size=500)
    bounds = np.asarray(eqm.boundaries)
    xs = bounds[seg - 1] + rng.random(500) * (bounds[seg] - bounds[seg - 1])
    assert _mixing_cdf(eqm._solved, seg, xs).tobytes() == _mixing_cdf(per_type, seg, xs).tobytes()
    draws = rng.random(500)
    assert _draw(eqm._solved, seg, draws).tobytes() == _draw(per_type, seg, draws).tobytes()


class TestSample:
    def test_endpoints_map_to_boundaries(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        for k in (1, 2):
            assert sample(eqm, k, 0.0) == pytest.approx(eqm.boundaries[k - 1], abs=1e-12)
            assert sample(eqm, k, 1.0) == pytest.approx(eqm.boundaries[k], abs=1e-12)

    def test_single_type_midpoint(self, single_type_env, top_prize_contest):
        eqm = solve(single_type_env, top_prize_contest)
        assert sample(eqm, 1, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_out_of_range_draw(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        with pytest.raises(ArgumentError):
            sample(eqm, 1, 1.5)

    @pytest.mark.parametrize("k", [1, 2])
    def test_kolmogorov_smirnov_band(self, two_type_env, top_prize_contest, k):
        # empirical CDF of inverse-transform draws must track the analytic CDF
        eqm = solve(two_type_env, top_prize_contest)
        rng = np.random.default_rng(424242)
        n = 100_000
        draws = np.sort(np.asarray(sample(eqm, k, rng.random(n))))
        theory = np.asarray(type_cdf(eqm, k, draws))
        grid = np.arange(1, n + 1) / n
        statistic = max(
            float(np.max(grid - theory)), float(np.max(theory - (grid - 1.0 / n)))
        )
        assert statistic <= 1.358 / np.sqrt(n)

