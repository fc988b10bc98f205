"""Binomial kernels, the expected-prize curve, and the Lorenz comparison."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.stats import binom

from contestlab import (
    ArgumentError,
    CompetitionQuery,
    Contest,
    ContinuumEnvironment,
    DomainError,
    binom_pmf,
    binom_tail,
    competition_effect_numeric,
    continuum_strategy,
    expected_cost,
    is_more_competitive,
    prize_expectation,
    prize_expectation_derivative,
    prize_expectation_inverse,
    solve,
    type_prize_integral,
)
from contestlab.costs import ContestEnvironment, CostFunction


class TestContest:
    def test_normalizes_offset_prizes(self):
        contest = Contest((1.0, 2.0, 3.0))
        assert contest.prizes == (0.0, 1.0, 2.0)

    def test_rejects_decreasing_prizes(self):
        with pytest.raises(ArgumentError):
            Contest((0.0, 1.0, 0.5))

    def test_rejects_single_rank(self):
        with pytest.raises(ArgumentError):
            Contest((0.0,))

    def test_degenerate_flag(self):
        assert Contest((0.0, 0.0, 0.0)).degenerate
        assert not Contest((0.0, 0.0, 1.0)).degenerate

    def test_budget_and_top(self):
        contest = Contest((0.0, 0.25, 0.75))
        assert contest.total_budget == 1.0
        assert contest.top_prize == 0.75
        assert contest.n_opponents == 2


class TestBinomPmf:
    def test_degenerate_at_zero(self):
        assert binom_pmf(3, 0, 0.0) == 1.0

    def test_hand_values(self):
        assert binom_pmf(2, 1, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert binom_pmf(3, 2, 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ArgumentError):
            binom_pmf(3, 4, 0.5)
        with pytest.raises(ArgumentError):
            binom_pmf(3, -1, 0.5)
        with pytest.raises(ArgumentError):
            binom_pmf(3, 1, 1.5)

    @given(
        n=st.integers(min_value=1, max_value=64),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sums_to_one(self, n, t):
        total = sum(binom_pmf(n, m, t) for m in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 13])
    def test_integrates_to_uniform_mass(self, n):
        for m in range(n + 1):
            value, _ = quad(lambda t: binom_pmf(n, m, t), 0.0, 1.0)
            assert value == pytest.approx(1.0 / (n + 1), abs=1e-9)

    @pytest.mark.parametrize("n,m,mp", [(4, 3, 1), (6, 5, 2), (3, 2, 1)])
    def test_pmf_differences_integrate_to_zero(self, n, m, mp):
        value, _ = quad(lambda t: binom_pmf(n, m, t) - binom_pmf(n, mp, t), 0.0, 1.0)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_large_n_stays_finite(self):
        ts = np.linspace(0.0, 1.0, 101)
        values = binom_pmf(64, 32, ts)
        assert np.all(np.isfinite(values))
        assert np.max(values) == pytest.approx(binom_pmf(64, 32, 0.5), rel=1e-9)


class TestBinomTail:
    def test_full_support(self):
        assert binom_tail(3, 0, 0.7, "at_least") == pytest.approx(1.0, abs=1e-15)

    def test_hand_values(self):
        assert binom_tail(3, 1, 0.5, "at_least") == pytest.approx(0.875, abs=1e-15)
        assert binom_tail(3, 2, 0.5, "at_least") == pytest.approx(0.5, abs=1e-15)

    def test_at_most_complements_at_least(self):
        for t in (0.0, 0.2, 0.9, 1.0):
            low = binom_tail(5, 2, t, "at_most")
            high = binom_tail(5, 3, t, "at_least")
            assert low + high == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unknown_side(self):
        with pytest.raises(ArgumentError):
            binom_tail(3, 1, 0.5, "between")

    def test_matches_scipy_at_two_hundred_trials(self):
        ts = np.array([0.0, 1e-3, 0.05, 0.3, 0.5, 0.77, 0.999, 1.0])
        for m in range(0, 201):
            np.testing.assert_allclose(
                binom_tail(200, m, ts, "at_least"), binom.sf(m - 1, 200, ts), rtol=1e-12, atol=1e-300
            )
            np.testing.assert_allclose(
                binom_tail(200, m, ts, "at_most"), binom.cdf(m, 200, ts), rtol=1e-12, atol=1e-300
            )

    @pytest.mark.parametrize("n,m", [(3, 1), (5, 4), (6, 2)])
    def test_tail_derivative_identity(self, n, m):
        # d/dt of the (n+1)-trial upper tail at m+1 equals (n+1) times the n-trial pmf at m
        ts = np.linspace(0.02, 0.98, 25)
        h = 1e-6
        fd = (
            binom_tail(n + 1, m + 1, ts + h, "at_least")
            - binom_tail(n + 1, m + 1, ts - h, "at_least")
        ) / (2 * h)
        exact = (n + 1) * binom_pmf(n, m, ts)
        np.testing.assert_allclose(fd, exact, rtol=1e-6)


class TestPrizeExpectation:
    def test_endpoints_and_midpoint(self, top_prize_contest):
        assert prize_expectation(top_prize_contest, 0.0) == 0.0
        assert prize_expectation(top_prize_contest, 0.5) == pytest.approx(0.25, abs=1e-15)
        assert prize_expectation(top_prize_contest, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_and_strictly_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            increments = rng.exponential(size=n)
            contest = Contest(tuple(np.concatenate(([0.0], np.cumsum(increments)))))
            ts = np.linspace(0.0, 1.0, 257)
            values = prize_expectation(contest, ts)
            assert np.all(np.diff(values) >= 0)
            interior = values[(ts > 0.0) & (ts < 1.0)]
            assert np.all(np.diff(interior) > 0)

    def test_derivative_hand_values(self, top_prize_contest):
        assert prize_expectation_derivative(top_prize_contest, 0.5) == pytest.approx(
            1.0, abs=1e-14
        )
        flat = Contest((0.0, 0.5, 0.5))
        assert prize_expectation_derivative(flat, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_derivative_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            contest = Contest(tuple(np.concatenate(([0.0], np.cumsum(rng.exponential(size=n))))))
            ts = np.linspace(0.0, 1.0, 101)
            assert np.all(prize_expectation_derivative(contest, ts) >= 0.0)

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(1, 7))
            contest = Contest(tuple(np.concatenate(([0.0], np.cumsum(rng.exponential(size=n))))))
            ts = np.linspace(0.05, 0.95, 31)
            h = 1e-6
            fd = (prize_expectation(contest, ts + h) - prize_expectation(contest, ts - h)) / (
                2 * h
            )
            exact = prize_expectation_derivative(contest, ts)
            np.testing.assert_allclose(fd, exact, rtol=1e-6)


    def test_long_vectors_are_evaluated_in_bounded_blocks(self, monkeypatch):
        import contestlab.kernels as kernels

        n = 200
        contest = Contest(tuple(np.arange(n + 1) / n))
        ts = np.random.default_rng(7).random(1 << 17)
        whole = contest.prizes @ kernels._pmf_rows(n, ts)
        sizes = []
        original = kernels._pmf_rows

        def recording(n_, arr):
            sizes.append((n_ + 1) * arr.size)
            return original(n_, arr)

        monkeypatch.setattr(kernels, "_pmf_rows", recording)
        blocked = prize_expectation(contest, ts)
        assert len(sizes) > 1
        assert max(sizes) <= kernels._BLOCK_ELEMENTS
        np.testing.assert_allclose(blocked, whole, rtol=1e-15, atol=0.0)


class TestPrizeExpectationInverse:
    def test_hand_value(self, top_prize_contest):
        assert prize_expectation_inverse(top_prize_contest, 0.25) == pytest.approx(
            0.5, abs=1e-11
        )

    def test_endpoints(self, top_prize_contest):
        assert prize_expectation_inverse(top_prize_contest, 0.0) == 0.0
        assert prize_expectation_inverse(top_prize_contest, 1.0) == 1.0

    def test_roundtrip(self):
        contest = Contest((0.0, 0.2, 0.3, 1.1))
        for y in np.linspace(0.0, contest.top_prize, 17):
            t = prize_expectation_inverse(contest, float(y))
            assert prize_expectation(contest, t) == pytest.approx(float(y), abs=1e-10)

    def test_rejects_out_of_range(self, top_prize_contest):
        with pytest.raises(DomainError):
            prize_expectation_inverse(top_prize_contest, 1.5)
        with pytest.raises(DomainError):
            prize_expectation_inverse(top_prize_contest, -0.1)

    def test_rejects_degenerate_contest(self):
        with pytest.raises(DomainError):
            prize_expectation_inverse(Contest((0.0, 0.0)), 0.0)


class TestTypePrizeIntegral:
    def test_single_type_full_integral(self, single_type_env, top_prize_contest):
        assert type_prize_integral(single_type_env, top_prize_contest, 1) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_two_type_lower_band(self, two_type_env, top_prize_contest):
        assert type_prize_integral(two_type_env, top_prize_contest, 1) == pytest.approx(
            1.0 / 24.0, abs=1e-12
        )

    def test_bands_sum_to_total(self):
        rng = np.random.default_rng(17)
        types = tuple(CostFunction.linear(t) for t in (3.0, 2.0, 1.0))
        env = ContestEnvironment(4, types, tuple(rng.dirichlet(np.ones(3))))
        contest = Contest(tuple(np.concatenate(([0.0], np.cumsum(rng.exponential(size=4))))))
        total = sum(type_prize_integral(env, contest, k) for k in (1, 2, 3))
        oracle, _ = quad(lambda t: prize_expectation(contest, t), 0.0, 1.0)
        assert total == pytest.approx(oracle, abs=1e-9)

    def test_rejects_bad_index(self, two_type_env, top_prize_contest):
        with pytest.raises(ArgumentError):
            type_prize_integral(two_type_env, top_prize_contest, 3)


class TestOpponentCheck:
    @pytest.mark.parametrize(
        "call",
        [
            lambda env, contest: type_prize_integral(env, contest, 1),
            lambda env, contest: expected_cost(env, contest),
            lambda env, contest: solve(env, contest),
            lambda env, contest: competition_effect_numeric(env, contest, CompetitionQuery(2, 1)),
            lambda env, contest: continuum_strategy(
                ContinuumEnvironment.uniform(env.n_others, 1.0, 2.0), contest, 1.5
            ),
        ],
        ids=[
            "type_prize_integral",
            "expected_cost",
            "solve",
            "competition_effect_numeric",
            "continuum_strategy",
        ],
    )
    def test_mismatched_counts_raise_one_error(self, two_type_env, call):
        with pytest.raises(ArgumentError, match="disagree on the number of opponents"):
            call(two_type_env, Contest((0.0, 0.0, 0.0, 1.0)))


class TestLorenzOrder:
    def test_winner_takes_all_dominates(self):
        rng = np.random.default_rng(23)
        wta = Contest((0.0, 0.0, 0.0, 1.0))
        for _ in range(10):
            prizes = np.concatenate(([0.0], np.cumsum(rng.exponential(size=3))))
            prizes *= 1.0 / prizes[1:].sum()
            assert is_more_competitive(wta, Contest(tuple(prizes)))

    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=6))
    def test_reflexive(self, increments):
        prizes = tuple(np.concatenate(([0.0], np.cumsum(increments))))
        contest = Contest(prizes)
        assert is_more_competitive(contest, contest)

    def test_equal_split_is_least_competitive(self):
        equal = Contest((0.0, 0.25, 0.25, 0.25, 0.25))
        wta = Contest((0.0, 0.0, 0.0, 0.0, 1.0))
        assert not is_more_competitive(equal, wta)
        assert is_more_competitive(wta, equal)

    def test_requires_equal_totals(self):
        small = Contest((0.0, 0.0, 0.5))
        large = Contest((0.0, 0.0, 1.0))
        assert not is_more_competitive(small, large)

    def test_rejects_mismatched_rank_counts(self):
        with pytest.raises(ArgumentError):
            is_more_competitive(Contest((0.0, 1.0)), Contest((0.0, 0.0, 1.0)))
