"""Binomial kernels, the expected-prize curve, and the Lorenz comparison."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import binom

from contestlab import (
    ArgumentError,
    CompetitionQuery,
    Contest,
    ContinuumEnvironment,
    DomainError,
    NumericError,
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


    def test_horner_matches_pmf_rows_without_calling_them(self, monkeypatch):
        import contestlab.kernels as kernels

        n = 200
        contest = Contest(tuple(np.arange(n + 1) / n))
        ts = np.random.default_rng(7).random(1 << 17)
        whole = contest.prizes @ kernels._pmf_rows(n, ts)
        calls = []
        monkeypatch.setattr(kernels, "_pmf_rows", lambda *args, **kw: calls.append(args))
        np.testing.assert_allclose(prize_expectation(contest, ts), whole, rtol=1e-13, atol=0.0)
        assert calls == []

    def test_long_vectors_above_the_cutoff_are_evaluated_in_bounded_blocks(self, monkeypatch):
        import contestlab.kernels as kernels

        n = kernels._HORNER_MAX_N + 1
        contest = Contest(tuple(np.arange(n + 1) / n))
        ts = np.random.default_rng(7).random(1000)
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


def _ladder(n, seed):
    increments = np.random.default_rng(seed).exponential(size=n)
    return Contest(tuple(np.concatenate(([0.0], np.cumsum(increments)))))


def _bernstein_mp(weights, t):
    """sum_m w_m C(n, m) t^m (1-t)^(n-m) in 40-digit arithmetic, w and t as floats."""
    mpmath = pytest.importorskip("mpmath")
    n = len(weights) - 1
    with mpmath.workdps(40):
        t = mpmath.mpf(float(t))
        return sum(
            mpmath.mpf(float(w)) * mpmath.binomial(n, m) * t**m * (1 - t) ** (n - m)
            for m, w in enumerate(weights)
        )


class TestHornerCurve:
    """The prize curve and its slope against 40-digit sums, the pmf form and the float range."""

    HALF_ULP_BELOW = float(np.nextafter(0.5, 0.0))
    HALF_ULP_ABOVE = float(np.nextafter(0.5, 1.0))

    @pytest.mark.parametrize("n", [1, 2, 7, 200, 1000])
    def test_curve_and_slope_match_forty_digits(self, n):
        contest = _ladder(n, seed=n)
        prizes = np.asarray(contest.prizes)
        gaps = n * np.diff(prizes)
        ts = np.array([0.0, 1e-12, 1e-6, self.HALF_ULP_BELOW, 0.5, self.HALF_ULP_ABOVE, 1 - 1e-6, 1.0])
        curve = prize_expectation(contest, ts)
        slope = prize_expectation_derivative(contest, ts)
        for t, value, deriv in zip(ts, curve, slope):
            for got, weights in ((value, prizes), (deriv, gaps)):
                reference = _bernstein_mp(weights, t)
                assert abs(got - reference) <= 1e-13 * abs(reference), (n, t, got, float(reference))

    @given(
        increments=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=60),
        ts=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
    )
    def test_equals_the_pmf_form(self, increments, ts):
        import contestlab.kernels as kernels

        prizes = np.concatenate(([0.0], np.cumsum(increments)))
        n = prizes.size - 1
        arr = np.asarray(ts)
        pmf = kernels._pmf_rows(n, arr)
        np.testing.assert_allclose(
            kernels._ladder_dot(prizes, n, arr), prizes @ pmf, rtol=1e-12, atol=1e-300
        )
        if n > 1:
            gaps = np.diff(prizes)
            np.testing.assert_allclose(
                kernels._ladder_dot(gaps, n - 1, arr),
                gaps @ kernels._pmf_rows(n - 1, arr),
                rtol=1e-12,
                atol=1e-300,
            )

    @pytest.mark.parametrize("n", [1, 2, 7, 200, 1000])
    def test_endpoint_values_are_exact(self, n):
        contest = _ladder(n, seed=n + 1)
        v = contest.prizes
        assert prize_expectation(contest, 0.0) == v[0]
        assert prize_expectation(contest, 1.0) == v[-1]
        assert prize_expectation_derivative(contest, 0.0) == n * (v[1] - v[0])
        assert prize_expectation_derivative(contest, 1.0) == n * (v[-1] - v[-2])

    @pytest.mark.parametrize("n", [2, 200, 1000])
    def test_huge_prizes_stay_finite(self, n):
        contest = _ladder(n, seed=3)
        top = contest.top_prize
        huge = Contest(tuple(np.asarray(contest.prizes) * (1e300 / top)))
        ts = np.linspace(0.0, 1.0, 101)
        for f in (prize_expectation, prize_expectation_derivative):
            values = f(huge, ts)
            assert np.all(np.isfinite(values))
            np.testing.assert_allclose(values, f(contest, ts) * (1e300 / top), rtol=1e-13)

    def test_a_point_does_not_depend_on_the_rest_of_the_call(self):
        import contestlab.kernels as kernels

        n = 200
        prizes = np.asarray(_ladder(n, seed=5).prizes)
        ts = np.random.default_rng(5).random(2 * kernels._HORNER_BLOCK + 17)
        whole = kernels._ladder_dot(prizes, n, ts)
        picks = np.random.default_rng(6).choice(ts.size, 40, replace=False)
        singles = [kernels._ladder_dot(prizes, n, ts[i : i + 1])[0] for i in picks]
        assert whole[picks].tolist() == singles

    def test_all_zero_weights_give_zero(self):
        import contestlab.kernels as kernels

        ts = np.linspace(0.0, 1.0, 9)
        assert kernels._ladder_dot(np.zeros(4), 3, ts).tolist() == [0.0] * 9
        assert prize_expectation_derivative(Contest((0.0, 0.0)), ts).tolist() == [0.0] * 9


def _both_orders(weights, n, t):
    """The Horner sum in s = min(t, 1-t) / max(t, 1-t) with both coefficient orders
    summed for every point and the one for its side of 1/2 kept.

    Written out here as the reference for _ladder_dot below its cutoff: powers
    in blocks of width = isqrt((n+1)/2), Horner within a block and then over
    the blocks in s^width, coefficients scaled down by a power of two.
    """
    width = max(1, math.isqrt((n + 1) // 2))
    blocks = -(-(n + 1) // width)
    scale = math.ldexp(1.0, max(math.frexp(max(weights.tolist()))[1] + n - 1020, 0))
    combs = [float(math.comb(n, m)) for m in range(n + 1)]
    rest = 1.0 - t
    q = np.maximum(t, rest)
    s = np.minimum(t, rest) / q

    def coef(p, order):
        if p > n:
            return 0.0
        m = p if order == 0 else n - p
        return weights[m] * (1.0 / scale) * combs[p]

    sums = []
    for order in (0, 1):
        inner = []
        for j in range(blocks):
            row = np.full(t.size, coef(j * width + width - 1, order))
            for i in range(width - 2, -1, -1):
                row = row * s + coef(j * width + i, order)
            inner.append(row)
        s_width = s**width if width > 1 else s
        acc = inner[-1]
        for row in inner[-2::-1]:
            acc = acc * s_width + row
        sums.append(acc)
    return np.where(t <= 0.5, sums[0], sums[1]) * (q**n * scale)


class TestHornerLayouts:
    """Each point is summed in its own order only; its value must not depend on its neighbours."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([0, 1, 2, 6, 7, 200, 1000]),
        exponent=st.integers(min_value=-300, max_value=299),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_a_point_sums_alike_in_every_layout(self, n, exponent, seed):
        import contestlab.kernels as kernels

        rng = np.random.default_rng(seed)
        weights = np.sort(rng.random(n + 1)) * 10.0**exponent
        edges = [0.0, 0.5, float(np.nextafter(0.5, 1.0)), float(np.nextafter(0.5, 0.0)), 1.0]
        ts = np.concatenate([edges, rng.random(59)])
        reference = _both_orders(weights, n, ts)

        ascending = np.argsort(ts, kind="stable")
        layouts = {
            "shuffled": rng.permutation(ts.size),
            "ascending": ascending,
            "descending": ascending[::-1],
            "lower side": np.flatnonzero(ts <= 0.5),
            "upper side": np.flatnonzero(ts > 0.5),
        }
        for name, picks in layouts.items():
            got = kernels._ladder_dot(weights, n, ts[picks])
            assert np.array_equal(got, reference[picks]), name

        # the same points scattered through three blocks of random filler
        spread = rng.random(2 * kernels._HORNER_BLOCK + 300)
        slots = rng.choice(spread.size, ts.size, replace=False)
        spread[slots] = ts
        got = kernels._ladder_dot(weights, n, spread)
        assert np.array_equal(got[slots], reference), "spanning blocks"


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

    @pytest.mark.parametrize(
        "prizes",
        [
            [m / 200 for m in range(201)],
            [(m / 200) ** 2 for m in range(201)],
            [0.0] * 191 + [0.1] * 10,
            [0.0] * 200 + [1.0],
        ],
        ids=["linear", "quadratic", "top_10", "winner_takes_all"],
    )
    def test_a_third_of_the_bisection_steps_at_n_200(self, prizes, monkeypatch):
        # bisection takes 50 steps to bring [0, 1] down to 1e-15; the Newton
        # steps from each target's grid cell take at most 17 curve and slope
        # passes, the grid's included, over at most 1,000 points for 126
        # targets spread in prize and in t
        import contestlab.kernels as kernels

        contest = Contest(tuple(prizes))
        curve = kernels._prize_curve
        ys = np.concatenate(
            (
                np.linspace(0.0, contest.top_prize, 65)[1:-1],
                curve(contest, np.linspace(0.0, 1.0, 65)[1:-1]),
            )
        )
        calls = []

        def counted(real):
            def pass_(contest, t):
                calls.append(t.size)
                return real(contest, t)

            return pass_

        monkeypatch.setattr(kernels, "_prize_curve", counted(curve))
        monkeypatch.setattr(kernels, "_prize_slope", counted(kernels._prize_slope))
        ts = kernels._prize_inverse(contest, ys.copy())
        assert len(calls) <= 17
        assert sum(calls) <= 1000
        np.testing.assert_allclose(curve(contest, ts), ys, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize(
        "prizes",
        [[0.0] + [1.0] * 200, [0.0] * 200 + [1.0]],
        ids=["flat_top", "winner_takes_all"],
    )
    def test_steep_ladders_at_n_200(self, prizes):
        # over whole grid cells the curve underflows to 0 (winner-takes-all,
        # t^200) or is the top prize to rounding (flat top); no target is
        # bracketed there, and no step may warn of a vanishing slope
        contest = Contest(tuple(prizes))
        ys = np.linspace(0.0, contest.top_prize, 513)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ts = prize_expectation_inverse(contest, ys)
        assert ts[0] == 0.0 and ts[-1] == 1.0
        np.testing.assert_allclose(prize_expectation(contest, ts), ys, rtol=0.0, atol=1e-13)

    def test_a_target_still_moving_at_the_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr("contestlab._quad._ROOT_STEPS", 1)
        with pytest.raises(NumericError, match="after 1 steps"):
            prize_expectation_inverse(Contest((0.0, 0.2, 0.3, 1.1)), 0.3)


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
