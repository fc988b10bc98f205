"""Continuum equilibrium, quantile discretization, and CDF convergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import contestlab.continuum as continuum
from contestlab import (
    ArgumentError,
    Contest,
    ContinuumEnvironment,
    NumericError,
    boundaries_closed_form,
    continuum_effort_cdf,
    continuum_strategy,
    convergence_report,
    discretize,
    exante_cdf,
    prize_expectation_derivative,
    solve,
    validate_environment,
)
from contestlab._quad import _PANEL_BLOCK, gauss_panels


@pytest.fixture
def uniform_example():
    """Marginal costs uniform on [1, 2], one opponent, single unit prize.

    Hand-solved: effort of type theta is log(2/theta), top effort log 2, and
    the population effort CDF is 2 - 2 exp(-x) on [0, log 2].
    """
    return ContinuumEnvironment.uniform(1, 1.0, 2.0), Contest((0.0, 1.0))


class TestContinuumStrategy:
    def test_top_type_exerts_nothing(self, uniform_example):
        cenv, contest = uniform_example
        assert continuum_strategy(cenv, contest, 2.0) == 0.0

    def test_hand_values(self, uniform_example):
        cenv, contest = uniform_example
        assert continuum_strategy(cenv, contest, 1.0) == pytest.approx(
            np.log(2.0), abs=1e-10
        )
        assert continuum_strategy(cenv, contest, 1.5) == pytest.approx(
            np.log(4.0 / 3.0), abs=1e-10
        )

    def test_decreasing_in_theta(self, uniform_example):
        cenv, contest = uniform_example
        thetas = np.linspace(1.0, 2.0, 21)
        efforts = [continuum_strategy(cenv, contest, float(t)) for t in thetas]
        assert all(a > b for a, b in zip(efforts, efforts[1:]))

    def test_array_of_types_matches_scalar_calls(self, uniform_example):
        cenv, contest = uniform_example
        thetas = np.linspace(1.0, 2.0, 9)
        scalars = [continuum_strategy(cenv, contest, float(t)) for t in thetas]
        np.testing.assert_allclose(
            continuum_strategy(cenv, contest, thetas), scalars, rtol=0.0, atol=1e-15
        )

    @pytest.mark.parametrize("shape", [0.2, 0.5, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("offset", [0.0, 1e-6])
    def test_power_shapes_near_the_bottom_type(self, shape, offset):
        # below shape 1 the type density is singular at theta_lo; in the
        # quantile variable q = G(t) the same integral is smooth. At shape
        # 1.5 the density has a square-root cusp there instead.
        cenv = ContinuumEnvironment.power(2, 1.0, 2.0, shape=shape)
        contest = Contest((0.0, 0.3, 1.0))
        theta = 1.0 + offset
        reference, _ = quad(
            lambda q: prize_expectation_derivative(contest, 1.0 - q) / (1.0 + q ** (1.0 / shape)),
            cenv.cdf(theta),
            1.0,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=200,
        )
        assert continuum_strategy(cenv, contest, theta) == pytest.approx(reference, abs=1e-9)

    def test_a_table_whose_halves_disagree_raises(self, monkeypatch):
        # one panel and no grading: the square-root cusp of the shape-1.5
        # density at theta_lo moves the halved table by about 4e-7
        monkeypatch.setattr(continuum, "_PANELS", 1)
        monkeypatch.setattr(continuum, "_GRADED", 0)
        cenv = ContinuumEnvironment.power(1, 1.0, 2.0, shape=1.5)
        with pytest.raises(NumericError, match="halving the strategy table"):
            continuum_strategy(cenv, Contest((0.0, 1.0)), 1.5)
        # the uniform example's integrand is smooth enough for one panel
        assert continuum_strategy(
            ContinuumEnvironment.uniform(1, 1.0, 2.0), Contest((0.0, 1.0)), 1.0
        ) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_rejects_theta_outside_support(self, uniform_example):
        cenv, contest = uniform_example
        with pytest.raises(ArgumentError):
            continuum_strategy(cenv, contest, 0.5)


class TestContinuumEffortCdf:
    def test_zero_below_support(self, uniform_example):
        cenv, contest = uniform_example
        assert continuum_effort_cdf(cenv, contest, 0.0) == 0.0
        assert continuum_effort_cdf(cenv, contest, -1.0) == 0.0

    def test_saturates_at_top_effort(self, uniform_example):
        cenv, contest = uniform_example
        assert continuum_effort_cdf(cenv, contest, np.log(2.0)) == pytest.approx(1.0, abs=1e-9)

    def test_hand_value(self, uniform_example):
        cenv, contest = uniform_example
        assert continuum_effort_cdf(cenv, contest, 0.2) == pytest.approx(
            2.0 - 2.0 * np.exp(-0.2), abs=1e-9
        )

    def test_nondecreasing(self, uniform_example):
        cenv, contest = uniform_example
        xs = np.linspace(0.0, 0.75, 31)
        values = [continuum_effort_cdf(cenv, contest, float(x)) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_closed_form_on_the_report_grid(self, uniform_example):
        # the strategy inverse runs to float resolution, so the CDF meets the
        # closed form to rounding on the 513 points of the default report grid
        cenv, contest = uniform_example
        xs = np.linspace(0.0, np.log(2.0), 513)
        values = continuum_effort_cdf(cenv, contest, xs)
        assert np.max(np.abs(values - (2.0 - 2.0 * np.exp(-xs)))) <= 1e-14
        top = convergence_report(cenv, contest, [4]).max_effort
        assert abs(top - np.log(2.0)) <= 1e-15

    def test_closed_form_with_a_flat_top(self):
        # winner-takes-all against 5 opponents, G(theta) = sqrt(theta - 1) on
        # [1, 2]: h = 0 at the top type, where Newton's method alone crawls.
        # With u = sqrt(theta - 1), s = 5 (F(1) - F(u)) for the antiderivative
        # F of (1 - w)^4 / (1 + w^2), and the effort CDF at s(u) is 1 - u.
        cenv, contest = _FLAT_TOP

        def antiderivative(w):
            return w**3 / 3.0 - 2.0 * w**2 + 5.0 * w - 4.0 * math.atan(w)

        top = 50.0 / 3.0 - 5.0 * math.pi
        xs = np.linspace(0.0, 1.05 * top, 513)
        expected = [
            1.0 - brentq(lambda u: 5.0 * (antiderivative(1.0) - antiderivative(u)) - x,
                         0.0, 1.0, xtol=1e-16, rtol=1e-15)
            if 0.0 < x < top else float(x > 0.0)
            for x in xs
        ]
        values = continuum_effort_cdf(cenv, contest, xs)
        assert np.max(np.abs(values - expected)) <= 1e-13

    def test_a_point_still_moving_at_the_step_cap_raises(self, uniform_example, monkeypatch):
        monkeypatch.setattr(continuum, "_ROOT_STEPS", 1)
        cenv, contest = uniform_example
        with pytest.raises(NumericError, match="strategy inverse"):
            continuum_effort_cdf(cenv, contest, 0.2)

    @pytest.mark.parametrize("case", ["flat top", "tabulated"])
    def test_a_point_alone_matches_the_grid_bit_for_bit(self, case):
        cenv, contest = _FLAT_TOP if case == "flat top" else (
            ContinuumEnvironment.tabulated(1, [(1.0, 0.0), (1.4, 0.35), (1.7, 0.7), (2.0, 1.0)]),
            Contest((0.0, 1.0)),
        )
        table = continuum._StrategyTable(cenv, contest)
        xs = np.linspace(0.0, 1.05 * table.max_effort, 513)
        together = table.effort_cdf(xs)
        alone = np.concatenate([table.effort_cdf(xs[i : i + 1]) for i in range(xs.size)])
        assert alone.tobytes() == together.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["uniform", "power", "tabulated"]),
        shape=st.floats(0.3, 4.0),
        knots=st.lists(st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0)), min_size=2, max_size=4),
        increments=st.lists(st.floats(0.1, 1.0), min_size=1, max_size=8),
        support=st.tuples(st.floats(0.2, 2.0), st.floats(0.1, 2.0)),
    )
    def test_the_effort_cdf_at_a_types_effort_is_its_upper_tail(
        self, family, shape, knots, increments, support
    ):
        # the paper's identity for the pure strategy: a strictly increasing
        # ladder makes s strictly decreasing, so P[s(theta') <= s(theta)] = 1 - G(theta)
        lo, width = support
        n = len(increments)
        if family == "uniform":
            cenv = ContinuumEnvironment.uniform(n, lo, lo + width)
        elif family == "power":
            cenv = ContinuumEnvironment.power(n, lo, lo + width, shape)
        else:
            steps = np.array(knots)
            ts, gs = (np.cumsum(col) / col.sum() for col in steps.T)
            points = [(lo, 0.0)] + [(lo + width * t, g) for t, g in zip(ts[:-1], gs[:-1])]
            cenv = ContinuumEnvironment.tabulated(n, points + [(lo + width, 1.0)])
        contest = Contest(tuple(np.concatenate(([0.0], np.cumsum(increments)))))
        thetas = np.linspace(cenv.theta_lo, cenv.theta_hi, 65)
        efforts = continuum_strategy(cenv, contest, thetas)
        values = continuum_effort_cdf(cenv, contest, efforts)
        assert np.max(np.abs(values - (1.0 - cenv.cdf(thetas)))) <= 1e-13


class TestDistributionFamilies:
    def test_power_family_quantile_roundtrip(self):
        cenv = ContinuumEnvironment.power(2, 1.0, 3.0, shape=2.0)
        for q in np.linspace(0.0, 1.0, 11):
            assert cenv.cdf(cenv.quantile(float(q))) == pytest.approx(float(q), abs=1e-12)

    def test_tabulated_family_roundtrip(self):
        cenv = ContinuumEnvironment.tabulated(
            1, [(1.0, 0.0), (1.5, 0.4), (2.0, 1.0)]
        )
        for q in (0.1, 0.4, 0.75):
            assert cenv.cdf(cenv.quantile(q)) == pytest.approx(q, abs=1e-10)
        levels = np.linspace(0.0, 1.0, 33)
        assert list(cenv.quantile(levels)) == [cenv.quantile(float(q)) for q in levels]

    @pytest.mark.parametrize(
        "points",
        [
            [(1.0, 0.0), (1.5, 0.4), (2.0, 1.0)],
            # a thin top tail: the end rule clips the density at theta_hi to 0
            [(1.0, 0.0), (1.1, 0.02), (1.2, 0.9), (3.0, 0.99), (4.0, 1.0)],
            [(0.5, 0.0), (0.6, 1e-6), (0.7, 0.5), (5.0, 1.0)],
        ],
    )
    def test_tabulated_quantile_inverts_the_cdf(self, points):
        cenv = ContinuumEnvironment.tabulated(1, points)
        levels = np.concatenate((np.linspace(0.0, 1.0, 257), [g for _, g in points]))
        thetas = cenv.quantile(levels)
        np.testing.assert_allclose(cenv.cdf(thetas), levels, rtol=0.0, atol=1e-14)
        assert np.all((thetas >= cenv.theta_lo) & (thetas <= cenv.theta_hi))

    def test_quantile_rejects_levels_outside_the_unit_interval(self):
        cenv = ContinuumEnvironment.uniform(1, 1.0, 2.0)
        for bad in (-0.1, 1.5, float("nan"), np.array([0.5, 1.2])):
            with pytest.raises(ArgumentError):
                cenv.quantile(bad)

    def test_rejects_bad_support(self):
        with pytest.raises(ArgumentError):
            ContinuumEnvironment.uniform(1, 2.0, 1.0)
        with pytest.raises(ArgumentError):
            ContinuumEnvironment.uniform(1, 0.0, 1.0)


class TestDiscretize:
    def test_two_atoms_sit_at_quartile_midpoints(self, uniform_example):
        cenv, _ = uniform_example
        env = discretize(cenv, 2)
        assert tuple(cf.theta for cf in env.types) == pytest.approx((1.75, 1.25))
        assert env.probs == (0.5, 0.5)

    def test_single_atom_is_the_median(self, uniform_example):
        cenv, _ = uniform_example
        env = discretize(cenv, 1)
        assert env.types[0].theta == pytest.approx(1.5)

    def test_probabilities_sum_to_one(self, uniform_example):
        cenv, _ = uniform_example
        for n in (1, 3, 10, 64):
            env = discretize(cenv, n)
            assert sum(env.probs) == pytest.approx(1.0, abs=1e-12)
            assert validate_environment(env).passed

    @pytest.mark.parametrize("n", [2.0, 2.5, True, 0])
    def test_rejects_counts_that_are_not_positive_integers(self, uniform_example, n):
        with pytest.raises(ArgumentError, match="n must be"):
            discretize(uniform_example[0], n)

    def test_accepts_numpy_integers(self, uniform_example):
        assert discretize(uniform_example[0], np.int32(2)) == discretize(uniform_example[0], 2)

    def test_step_cdf_converges_pointwise(self, uniform_example):
        cenv, _ = uniform_example
        thetas = np.linspace(1.05, 1.95, 7)
        previous = None
        for n in (8, 64, 512):
            env = discretize(cenv, n)
            atoms = np.array([cf.theta for cf in env.types])
            worst = max(
                abs(np.mean(atoms <= t) - cenv.cdf(float(t))) for t in thetas
            )
            if previous is not None:
                assert worst < previous
            previous = worst


class TestConvergence:
    def test_uniform_example_gaps_shrink(self, uniform_example):
        cenv, contest = uniform_example
        report = convergence_report(cenv, contest, [4, 16, 64, 256])
        gaps = [gap for _, gap in report.entries]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05
        assert report.max_effort == pytest.approx(np.log(2.0), abs=1e-10)

    def test_gap_vanishes_beyond_the_support(self, uniform_example):
        cenv, contest = uniform_example
        xs = np.linspace(1.1 * np.log(2.0), 2.0, 5)
        report = convergence_report(cenv, contest, [8], x_grid=xs)
        assert report.entries[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_boundary_points_approach_the_strategy(self, uniform_example):
        cenv, contest = uniform_example
        for theta in (1.25, 1.5, 1.75):
            target = continuum_strategy(cenv, contest, theta)
            gaps = []
            for n in (4, 16, 64, 256):
                env = discretize(cenv, n)
                atoms = [cf.theta for cf in env.types]
                bracketing = sum(1 for t in atoms if t > theta)
                bounds = boundaries_closed_form(env, contest)
                b_val = bounds[bracketing - 1] if bracketing >= 1 else 0.0
                gaps.append(abs(b_val - target))
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] < 5e-3

    def test_power_family_converges_too(self):
        cenv = ContinuumEnvironment.power(1, 1.0, 2.0, shape=2.0)
        contest = Contest((0.0, 1.0))
        report = convergence_report(cenv, contest, [4, 32], grid_points=129)
        gaps = [gap for _, gap in report.entries]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05

    def test_tabulated_family_converges_too(self):
        cenv = ContinuumEnvironment.tabulated(
            1, [(1.0, 0.0), (1.4, 0.35), (1.7, 0.7), (2.0, 1.0)]
        )
        contest = Contest((0.0, 1.0))
        report = convergence_report(cenv, contest, [4, 32], grid_points=129)
        gaps = [gap for _, gap in report.entries]
        assert gaps[-1] < gaps[0]

    def test_rejects_unordered_n_list(self, uniform_example):
        cenv, contest = uniform_example
        with pytest.raises(ArgumentError):
            convergence_report(cenv, contest, [16, 4])

    @pytest.mark.parametrize(
        "options",
        [
            {"n_list": [4.7, 16]},
            {"n_list": [True, 16]},
            {"n_list": [0, 4]},
            {"grid_points": 100.9},
            {"grid_points": True},
            {"grid_points": 1},
        ],
    )
    def test_rejects_counts_that_are_not_integers(self, uniform_example, options):
        cenv, contest = uniform_example
        with pytest.raises(ArgumentError, match="must be"):
            convergence_report(cenv, contest, **{"n_list": [4], **options})

    def test_accepts_numpy_integers(self, uniform_example):
        cenv, contest = uniform_example
        report = convergence_report(cenv, contest, np.array([4, 16]), grid_points=np.int64(9))
        assert report == convergence_report(cenv, contest, [4, 16], grid_points=9)
        assert [type(n) for n, _ in report.entries] == [int, int]

    def test_solver_failures_carry_the_atom_count(self, uniform_example, monkeypatch):
        import contestlab.continuum as continuum_module

        cenv, contest = uniform_example

        def broken_solve(env, c):
            raise ArgumentError("synthetic failure")

        monkeypatch.setattr(continuum_module, "solve", broken_solve)
        with pytest.raises(Exception, match="n=4"):
            convergence_report(cenv, contest, [4])


class TestFiniteContinuumAgreement:
    def test_finite_solution_tracks_strategy_at_midpoints(self, uniform_example):
        # at large n the k-th boundary sits close to the strategy of the type
        # just below it
        cenv, contest = uniform_example
        env = discretize(cenv, 128)
        eqm = solve(env, contest)
        for k in (16, 64, 100):
            theta_k = env.types[k - 1].theta
            assert eqm.boundaries[k] == pytest.approx(
                continuum_strategy(cenv, contest, theta_k), abs=5e-3
            )


_FLAT_TOP = (ContinuumEnvironment.power(5, 1.0, 2.0, shape=0.5), Contest((0.0,) * 5 + (1.0,)))


def _quad_strategy(cenv, contest, theta):
    """Reference strategy: scipy's quad over [theta, hi], split at knots."""

    def integrand(t):
        win = 1.0 - min(max(cenv.cdf(t), 0.0), 1.0)
        return prize_expectation_derivative(contest, win) * cenv.pdf(t) / t

    pieces = {theta, cenv.theta_hi}
    if cenv.family == "tabulated":
        pieces |= {knot for knot, _ in cenv.points if theta < knot < cenv.theta_hi}
    pieces = sorted(pieces)
    return sum(
        quad(integrand, a, b, epsabs=1e-13, epsrel=1e-13)[0] for a, b in zip(pieces, pieces[1:])
    )


def _bisected_effort_cdf(cenv, contest, x):
    """Reference effort CDF: 60 bisection steps on theta, one quadrature per step."""
    upper = _quad_strategy(cenv, contest, cenv.theta_lo)
    if x <= 0.0:
        return 0.0
    if x >= upper:
        return 1.0
    lo, hi = cenv.theta_lo, cenv.theta_hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _quad_strategy(cenv, contest, mid) > x:
            lo = mid
        else:
            hi = mid
    return 1.0 - cenv.cdf(0.5 * (lo + hi))


class TestTableAgainstPerTypeQuadrature:
    FAMILIES = {
        "uniform": ContinuumEnvironment.uniform(2, 1.0, 2.0),
        "power": ContinuumEnvironment.power(2, 1.0, 2.5, shape=2.0),
        "tabulated": ContinuumEnvironment.tabulated(
            2, [(1.0, 0.0), (1.3, 0.45), (1.6, 0.7), (2.0, 1.0)]
        ),
    }
    CONTEST = Contest((0.0, 0.3, 1.0))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_strategy_cdf_and_gaps_agree(self, family):
        cenv, contest = self.FAMILIES[family], self.CONTEST
        thetas = np.linspace(cenv.theta_lo, cenv.theta_hi, 9)
        expected = [_quad_strategy(cenv, contest, float(t)) for t in thetas]
        np.testing.assert_allclose(
            continuum_strategy(cenv, contest, thetas), expected, rtol=0.0, atol=1e-10
        )

        upper = expected[0]
        xs = np.linspace(-0.1 * upper, 1.05 * upper, 9)
        reference = np.array([_bisected_effort_cdf(cenv, contest, float(x)) for x in xs])
        np.testing.assert_allclose(
            continuum_effort_cdf(cenv, contest, xs), reference, rtol=0.0, atol=1e-10
        )

        report = convergence_report(cenv, contest, [4, 16], x_grid=xs)
        for n, gap in report.entries:
            finite = exante_cdf(solve(discretize(cenv, n), contest), xs)
            assert gap == pytest.approx(float(np.max(np.abs(finite - reference))), abs=1e-10)
        assert report.max_effort == pytest.approx(upper, abs=1e-10)


def test_gauss_panels_value_does_not_depend_on_batch_mates():
    # the strategy table and its bisection rely on each panel being summed
    # the same way whichever panels share the call
    rng = np.random.default_rng(8)
    a = np.sort(rng.uniform(0.0, 5.0, 3 * _PANEL_BLOCK))
    b = a + rng.uniform(1e-3, 1.0, a.size)

    def f(x):
        return np.exp(np.sin(3.0 * x)) * np.sqrt(x + 1.0)

    alone = np.array([gauss_panels(f, a[i : i + 1], b[i : i + 1])[0] for i in range(a.size)])
    for start, stop in ((0, a.size), (7, a.size), (1, 50), (_PANEL_BLOCK - 3, 2 * _PANEL_BLOCK + 5)):
        batch = gauss_panels(f, a[start:stop], b[start:stop])
        assert batch.tobytes() == alone[start:stop].tobytes()
