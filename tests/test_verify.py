"""Best-response sweeps and the seeded Monte Carlo consistency check."""

import numpy as np
import pytest

from contestlab import (
    ArgumentError,
    Contest,
    ContestEnvironment,
    CostFunction,
    Equilibrium,
    best_response_gap,
    exante_cdf,
    monte_carlo_effort,
    prize_expectation,
    solve,
    verification_report,
)
from conftest import random_monotone_contest, random_probs, random_thetas


def _battery(rng):
    """Linear plus curved-base instances, K up to 4, N up to 6."""
    instances = []
    for exponent in (0.5, 1.0, 2.0):
        for _ in range(3):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 5))
            env = ContestEnvironment(
                n,
                tuple(CostFunction.power(t, exponent) for t in random_thetas(rng, k)),
                random_probs(rng, k),
            )
            instances.append((env, random_monotone_contest(rng, n)))
    return instances


class TestBestResponseGap:
    def test_battery_has_no_profitable_deviation(self):
        rng = np.random.default_rng(107)
        for env, contest in _battery(rng):
            eqm = solve(env, contest)
            for k in range(1, env.n_types + 1):
                report = best_response_gap(env, contest, eqm, k)
                assert report.gap <= 1e-6 * contest.top_prize
                assert report.on_support_residual <= 1e-8 * contest.top_prize

    def test_boundary_indifference_by_hand(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        payoff = prize_expectation(
            top_prize_contest, exante_cdf(eqm, 0.875)
        ) - two_type_env.types[1].evaluate(0.875)
        assert payoff == pytest.approx(0.125, abs=1e-12)
        assert payoff == pytest.approx(eqm.utilities[1], abs=1e-12)

    def test_detects_an_injected_utility_fault(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        corrupted = Equilibrium(
            env=eqm.env,
            contest=eqm.contest,
            boundaries=eqm.boundaries,
            utilities=(eqm.utilities[0], eqm.utilities[1] + 0.01),
        )
        report = best_response_gap(two_type_env, top_prize_contest, corrupted, 2)
        assert report.on_support_residual >= 0.009

    def test_off_support_payoffs_fall_away(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        top = eqm.max_effort
        margins = []
        for probe in (1.1, 1.25, 1.4):
            x = probe * top
            payoff = prize_expectation(
                top_prize_contest, exante_cdf(eqm, x)
            ) - two_type_env.types[1].evaluate(x)
            margins.append(eqm.utilities[1] - payoff)
        assert all(m > 0 for m in margins)
        assert margins[0] < margins[1] < margins[2]

    def test_rejects_tiny_grid(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        with pytest.raises(ArgumentError):
            best_response_gap(two_type_env, top_prize_contest, eqm, 1, grid_size=10)


class TestMonteCarloEffort:
    def test_single_type_mean_within_band(self, single_type_env, top_prize_contest):
        eqm = solve(single_type_env, top_prize_contest)
        report = monte_carlo_effort(single_type_env, top_prize_contest, eqm, 200_000, seed=3)
        assert abs(report.mean - 1.0 / 3.0) <= report.half_width
        assert report.half_width > 0.0

    def test_two_type_mean_within_band(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        report = monte_carlo_effort(two_type_env, top_prize_contest, eqm, 200_000, seed=3)
        assert abs(report.mean - 0.25) <= report.half_width

    def test_same_seed_reproduces_exactly(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        first = monte_carlo_effort(two_type_env, top_prize_contest, eqm, 50_000, seed=99)
        second = monte_carlo_effort(two_type_env, top_prize_contest, eqm, 50_000, seed=99)
        assert first == second

    def test_different_seeds_differ(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        first = monte_carlo_effort(two_type_env, top_prize_contest, eqm, 50_000, seed=1)
        second = monte_carlo_effort(two_type_env, top_prize_contest, eqm, 50_000, seed=2)
        assert first.mean != second.mean

    def test_rejects_small_samples(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        with pytest.raises(ArgumentError):
            monte_carlo_effort(two_type_env, top_prize_contest, eqm, 100, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, "7"])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(
        self, two_type_env, top_prize_contest, seed
    ):
        eqm = solve(two_type_env, top_prize_contest)
        with pytest.raises(ArgumentError, match="seed"):
            monte_carlo_effort(two_type_env, top_prize_contest, eqm, 10_000, seed=seed)
        with pytest.raises(ArgumentError, match="seed"):
            verification_report(two_type_env, top_prize_contest, eqm, 10_000, seed=seed)

    def test_rejects_mismatched_equilibrium(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        with pytest.raises(ArgumentError):
            monte_carlo_effort(
                two_type_env, Contest((0.0, 0.5, 0.5)), eqm, 50_000, seed=1
            )


class TestVerificationReport:
    def test_combines_both_audits(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        audit = verification_report(
            two_type_env, top_prize_contest, eqm, n_samples=50_000, seed=5
        )
        assert len(audit.gaps) == 2
        assert audit.worst_gap <= 1e-6
        assert audit.monte_carlo.half_width > 0.0
        assert np.isfinite(audit.monte_carlo.mean)
