"""Utility gradients, transfer effects, the binary threshold, and classification."""

import numpy as np
import pytest
from scipy.integrate import quad

from contestlab import (
    ArgumentError,
    CapabilityError,
    Classification,
    CompetitionQuery,
    Contest,
    ContestEnvironment,
    CostFunction,
    StepError,
    alpha_coefficients,
    attach_numeric_estimate,
    binary_transfer_sign,
    binom_pmf,
    classify,
    competition_effect_linear,
    competition_effect_numeric,
    lambda_profile,
    solve,
    utility_gradient,
)
from contestlab.competition import _lambda_difference
from conftest import random_probs, random_spread_contest, random_thetas


def _linear_env(n, thetas, probs):
    return ContestEnvironment(
        n, tuple(CostFunction.linear(t) for t in thetas), tuple(probs)
    )


class TestUtilityGradient:
    def test_least_efficient_type_has_zero_rent(self, two_type_env):
        assert utility_gradient(two_type_env, 1)[0] == 0.0
        assert utility_gradient(two_type_env, 2)[0] == 0.0

    def test_hand_values(self, two_type_env):
        assert utility_gradient(two_type_env, 2)[1] == pytest.approx(0.125, abs=1e-14)
        assert utility_gradient(two_type_env, 1)[1] == pytest.approx(0.25, abs=1e-12)

    def test_requires_parametric(self):
        env = ContestEnvironment(
            2, (CostFunction.power(2.0, 2.0), CostFunction.linear(1.0)), (0.5, 0.5)
        )
        with pytest.raises(CapabilityError):
            utility_gradient(env, 1)

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0])
    def test_matches_finite_differences_of_solver(self, exponent):
        # u_k is linear in the prizes, so a wide central difference is exact
        rng = np.random.default_rng(61)
        for _ in range(6):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(2, 5))
            env = ContestEnvironment(
                n,
                tuple(CostFunction.power(t, exponent) for t in random_thetas(rng, k)),
                random_probs(rng, k),
            )
            contest = random_spread_contest(rng, n)
            min_gap = min(np.diff(contest.prizes))
            h = 0.4 * min_gap
            for m in range(1, n + 1):
                grads = utility_gradient(env, m)
                up = list(contest.prizes)
                up[m] += h
                down = list(contest.prizes)
                down[m] -= h
                u_up = solve(env, Contest(tuple(up))).utilities
                u_down = solve(env, Contest(tuple(down))).utilities
                for k_idx in range(env.n_types):
                    fd = (u_up[k_idx] - u_down[k_idx]) / (2.0 * h)
                    assert abs(fd - grads[k_idx]) <= 1e-6 * max(abs(grads[k_idx]), 1e-9)


class TestLinearEffect:
    def test_hand_value(self, two_type_env):
        effect = competition_effect_linear(two_type_env, CompetitionQuery(2, 1))
        assert effect == pytest.approx(0.125, abs=1e-12)

    def test_complete_information_is_neutral(self, single_type_env):
        effect = competition_effect_linear(single_type_env, CompetitionQuery(2, 1))
        assert effect == 0.0

    def test_top_prize_transfers_always_encourage(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(2, 5))
            env = _linear_env(n, random_thetas(rng, k), random_probs(rng, k))
            for mp in range(1, n):
                assert competition_effect_linear(env, CompetitionQuery(n, mp)) > 0.0

    def test_requires_linear_costs(self):
        env = ContestEnvironment(
            2, (CostFunction.power(2.0, 2.0), CostFunction.power(1.0, 2.0)), (0.5, 0.5)
        )
        with pytest.raises(CapabilityError):
            competition_effect_linear(env, CompetitionQuery(2, 1))

    def test_query_validation(self, two_type_env):
        with pytest.raises(ArgumentError):
            CompetitionQuery(1, 1)
        with pytest.raises(ArgumentError):
            competition_effect_linear(two_type_env, CompetitionQuery(5, 1))


class TestNumericEffect:
    def test_matches_closed_form_on_linear_instances(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 4))
            env = _linear_env(n, random_thetas(rng, k), random_probs(rng, k))
            contest = random_spread_contest(rng, n)
            m = int(rng.integers(2, n + 1))
            mp = int(rng.integers(1, m))
            query = CompetitionQuery(m, mp)
            numeric = competition_effect_numeric(env, contest, query)
            closed = competition_effect_linear(env, query)
            assert abs(numeric - closed) <= 1e-6

    def test_matches_alpha_difference_to_1e9_on_linear_instances(self):
        # effort is linear in the prizes, and the perturbed ladders share one
        # set of quadrature nodes, so only rounding separates the two
        rng = np.random.default_rng(79)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, 5))
            env = _linear_env(n, random_thetas(rng, k), random_probs(rng, k))
            m = int(rng.integers(2, n + 1))
            query = CompetitionQuery(m, int(rng.integers(1, m)))
            contest = random_spread_contest(rng, n)
            numeric = competition_effect_numeric(env, contest, query)
            assert abs(numeric - competition_effect_linear(env, query)) <= 1e-9
            # winner-takes-all admits only the one-sided difference
            top = CompetitionQuery(n, n - 1)
            numeric = competition_effect_numeric(env, Contest((0.0,) * n + (1.0,)), top)
            assert abs(numeric - competition_effect_linear(env, top)) <= 1e-9

    def test_convex_complete_information_discourages(self):
        env = ContestEnvironment(2, (CostFunction.power(1.0, 2.0),), (1.0,))
        effect = competition_effect_numeric(
            env, Contest((0.0, 0.5, 0.5)), CompetitionQuery(2, 1)
        )
        assert effect <= 1e-9

    def test_concave_complete_information_encourages(self):
        rng = np.random.default_rng(73)
        env = ContestEnvironment(3, (CostFunction.power(1.0, 0.5),), (1.0,))
        for _ in range(4):
            contest = random_spread_contest(rng, 3)
            m = int(rng.integers(2, 4))
            mp = int(rng.integers(1, m))
            effect = competition_effect_numeric(env, contest, CompetitionQuery(m, mp))
            assert effect >= -1e-9

    def test_boundary_contest_uses_one_sided_difference(self, single_type_env):
        # winner-takes-all admits no downward transfer from the bottom prize
        effect = competition_effect_numeric(
            single_type_env, Contest((0.0, 0.0, 1.0)), CompetitionQuery(2, 1)
        )
        assert effect == pytest.approx(0.0, abs=1e-8)

    def test_step_error_when_no_room(self, single_type_env):
        contest = Contest((0.0, 0.25, 0.5))
        with pytest.raises(StepError):
            competition_effect_numeric(
                single_type_env, contest, CompetitionQuery(2, 1), step=10.0
            )


class TestBinaryTransferSign:
    def test_positive_below_threshold(self):
        env = _linear_env(4, (2.0, 1.0), (0.5, 0.5))
        result = binary_transfer_sign(env, 2)
        assert result.sign == "positive"
        assert result.threshold == pytest.approx(0.75)

    def test_negative_above_threshold(self):
        env = _linear_env(4, (2.0, 1.0), (0.9, 0.1))
        assert binary_transfer_sign(env, 2).sign == "negative"

    def test_top_transfer_never_negative(self):
        for p1 in (0.1, 0.5, 0.9):
            env = _linear_env(2, (2.0, 1.0), (p1, 1.0 - p1))
            result = binary_transfer_sign(env, 1)
            assert result.threshold == pytest.approx(1.0)
            assert result.sign in ("positive", "zero")

    def test_requires_two_linear_types(self, single_type_env):
        with pytest.raises(CapabilityError):
            binary_transfer_sign(single_type_env, 1)

    def test_exhaustive_threshold_rule(self):
        # sign(alpha_{m+1} - alpha_m) tracks sign((m+1)/N - P_1) everywhere
        for n in range(2, 7):
            for m in range(1, n):
                threshold = (m + 1) / n
                for i in range(1, 20):
                    p1 = i / 20
                    env = _linear_env(n, (2.0, 1.0), (p1, 1.0 - p1))
                    diff = binary_transfer_sign(env, m).difference
                    margin = threshold - p1
                    if margin == 0.0:
                        assert abs(diff) <= 1e-12
                    elif margin > 0.0:
                        assert diff > -1e-12
                    else:
                        assert diff < 1e-12


class TestLambdaProfile:
    def test_vanishes_at_zero(self, two_type_env):
        profile = lambda_profile(two_type_env, CompetitionQuery(2, 1))
        assert profile.ts[0] == 0.0
        assert profile.values[0] == 0.0

    def test_endpoint_formula_for_top_prize(self):
        env = _linear_env(4, (3.0, 1.5), (0.4, 0.6))
        query = CompetitionQuery(4, 2)
        profile = lambda_profile(env, query)
        grads_m = utility_gradient(env, 4)
        grads_mp = utility_gradient(env, 2)
        theta_k = env.thetas[-1]
        expected = (1.0 - (grads_m[-1] - grads_mp[-1])) / theta_k
        assert profile.values[-1] == pytest.approx(expected, abs=1e-12)

    def test_single_type_profile_is_pmf_difference(self, single_type_env):
        query = CompetitionQuery(2, 1)
        profile = lambda_profile(single_type_env, query)
        expected = binom_pmf(2, 2, profile.ts) - binom_pmf(2, 1, profile.ts)
        np.testing.assert_allclose(profile.values, expected, atol=1e-14)
        assert profile.single_crossing

    def test_not_single_crossing_when_top_condition_fails(self):
        env = _linear_env(4, (2.0, 1.0), (0.9, 0.1))
        profile = lambda_profile(env, CompetitionQuery(3, 1))
        assert not profile.single_crossing

    def test_integral_equals_alpha_difference(self):
        rng = np.random.default_rng(79)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 4))
            env = _linear_env(n, random_thetas(rng, k), random_probs(rng, k))
            m = int(rng.integers(2, n + 1))
            mp = int(rng.integers(1, m))
            query = CompetitionQuery(m, mp)
            value, _ = quad(
                lambda t: float(_lambda_difference(env, query, np.array([t]))[0]),
                0.0,
                1.0,
                points=list(env.cumulative[1:-1]),
                limit=200,
            )
            alphas = alpha_coefficients(env).coefficients
            assert value == pytest.approx(alphas[m - 1] - alphas[mp - 1], abs=1e-8)


class TestClassify:
    def test_top_prize_transfer_encourages(self):
        rng = np.random.default_rng(83)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            env = _linear_env(n, random_thetas(rng, 3), random_probs(rng, 3))
            report = classify(env, CompetitionQuery(n, 1))
            assert report.top_type_condition
            assert Classification.ENCOURAGES_UNDER_CONCAVE in report.classifications

    def test_complete_information_fires_both(self, single_type_env):
        report = classify(single_type_env, CompetitionQuery(2, 1))
        assert report.linear_effect == 0.0
        assert set(report.classifications) == {
            Classification.ENCOURAGES_UNDER_CONCAVE,
            Classification.DISCOURAGES_UNDER_CONVEX,
        }

    def test_inconclusive_when_hypothesis_fails(self):
        env = _linear_env(4, (2.0, 1.0), (0.9, 0.1))
        report = classify(env, CompetitionQuery(3, 1))
        assert not report.top_type_condition
        assert report.classifications == (Classification.INCONCLUSIVE,)

    def test_numeric_estimate_attachment(self, two_type_env, top_prize_contest):
        report = classify(two_type_env, CompetitionQuery(2, 1))
        assert report.numeric_estimate is None
        enriched = attach_numeric_estimate(report, two_type_env, top_prize_contest)
        assert enriched.numeric_estimate == pytest.approx(report.linear_effect, abs=1e-6)

    def test_concave_label_is_consistent_with_numeric_sign(self):
        # sqrt base: wherever the concave label fires, the measured effect is
        # nonnegative up to differencing noise
        rng = np.random.default_rng(89)
        for _ in range(4):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 4))
            thetas = random_thetas(rng, k)
            probs = random_probs(rng, k)
            lin = _linear_env(n, thetas, probs)
            conc = ContestEnvironment(
                n, tuple(CostFunction.power(t, 0.5) for t in thetas), probs
            )
            conv = ContestEnvironment(
                n, tuple(CostFunction.power(t, 2.0) for t in thetas), probs
            )
            m = int(rng.integers(2, n + 1))
            mp = int(rng.integers(1, m))
            report = classify(lin, CompetitionQuery(m, mp))
            for _ in range(5):
                contest = random_spread_contest(rng, n)
                if Classification.ENCOURAGES_UNDER_CONCAVE in report.classifications:
                    effect = competition_effect_numeric(
                        conc, contest, CompetitionQuery(m, mp)
                    )
                    assert effect >= -1e-6
                if Classification.DISCOURAGES_UNDER_CONVEX in report.classifications:
                    effect = competition_effect_numeric(
                        conv, contest, CompetitionQuery(m, mp)
                    )
                    assert effect <= 1e-6
