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
from contestlab.verify import _MC_CHUNK
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

    @pytest.mark.parametrize("grid_size", [100.0, True, "1024", None])
    def test_rejects_a_grid_size_that_is_not_an_integer(
        self, two_type_env, top_prize_contest, grid_size
    ):
        eqm = solve(two_type_env, top_prize_contest)
        with pytest.raises(ArgumentError, match="grid_size"):
            best_response_gap(two_type_env, top_prize_contest, eqm, 1, grid_size=grid_size)
        with pytest.raises(ArgumentError, match="grid_size"):
            verification_report(
                two_type_env, top_prize_contest, eqm, 10_000, seed=1, grid_size=grid_size
            )


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

    @pytest.mark.parametrize("n_samples", [150_000.0, True, "20000", None])
    def test_rejects_a_sample_count_that_is_not_an_integer(
        self, two_type_env, top_prize_contest, n_samples
    ):
        eqm = solve(two_type_env, top_prize_contest)
        with pytest.raises(ArgumentError, match="n_samples"):
            monte_carlo_effort(two_type_env, top_prize_contest, eqm, n_samples, seed=1)

    def test_accepts_numpy_integers(self, two_type_env, top_prize_contest):
        eqm = solve(two_type_env, top_prize_contest)
        report = monte_carlo_effort(
            two_type_env, top_prize_contest, eqm, np.int64(10_000), seed=np.uint32(4)
        )
        assert report == monte_carlo_effort(two_type_env, top_prize_contest, eqm, 10_000, seed=4)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, "7", True, False])
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

    def test_gaps_equal_the_per_type_sweeps(self):
        rng = np.random.default_rng(23)
        for env, contest in _battery(rng):
            eqm = solve(env, contest)
            audit = verification_report(env, contest, eqm, n_samples=10_000, seed=1, grid_size=300)
            assert audit.gaps == tuple(
                best_response_gap(env, contest, eqm, k, grid_size=300)
                for k in range(1, env.n_types + 1)
            )


def _per_type_draws(env, contest, eqm, n_samples, seed):
    """Sum and sum of squares of the Monte Carlo efforts, one type at a time.

    The reference: each chunk draws all its types, then all its unit draws
    in one call, and takes every type's draws through the public curve and
    cost inverse together.
    """
    cuts = np.asarray(env.cumulative[1:-1])
    total = total_sq = 0.0
    remaining = n_samples
    for child in np.random.SeedSequence(seed).spawn(-(-n_samples // _MC_CHUNK)):
        size = min(_MC_CHUNK, remaining)
        remaining -= size
        rng = np.random.default_rng(child)
        kinds = np.searchsorted(cuts, rng.random(size), side="left")
        draws = rng.random(size)
        efforts = np.empty(size)
        for idx in np.unique(kinds):
            mask = kinds == idx
            ts = env.cumulative[idx] + env.probs[idx] * draws[mask]
            levels = prize_expectation(contest, ts) - eqm.utilities[idx]
            efforts[mask] = env.types[idx].inverse(np.maximum(levels, 0.0))
        total += float(np.sum(efforts))
        total_sq += float(np.sum(efforts * efforts))
    return total, total_sq


def test_monte_carlo_matches_the_per_type_reference_bit_for_bit():
    # three types, the middle band straddling 1/2 and the cheapest tabulated;
    # two chunks, the second ending in a partial block
    env = ContestEnvironment(
        12,
        (
            CostFunction.linear(3.0),
            CostFunction.linear(2.0),
            CostFunction.tabulated([(0.0, 0.0), (0.5, 0.3), (1.0, 0.9), (2.0, 2.5)]),
        ),
        (0.35, 0.3, 0.35),
    )
    contest = Contest(tuple(np.linspace(0.0, 1.0, 13) ** 2))
    eqm = solve(env, contest)
    n_samples = 2**17 + 12_345
    report = monte_carlo_effort(env, contest, eqm, n_samples, seed=31)
    total, total_sq = _per_type_draws(env, contest, eqm, n_samples, seed=31)
    mean = total / n_samples
    assert report.mean == mean
    variance = max(total_sq / n_samples - mean * mean, 0.0)
    assert report.half_width == 3.0 * np.sqrt(variance / n_samples)
