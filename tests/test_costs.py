"""Cost functions, environments, and the ordered-type-space audit."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.interpolate import PchipInterpolator

from contestlab import (
    ArgumentError,
    Contest,
    ContestEnvironment,
    CostFunction,
    NumericError,
    cost_eval,
    cost_inverse,
    validate_environment,
)
from contestlab._quad import _Pchip


class TestCostEval:
    def test_linear_hand_value(self):
        assert cost_eval(CostFunction.linear(2.0), 0.125) == pytest.approx(0.25)

    def test_zero_effort_costs_nothing(self):
        for cf in (
            CostFunction.linear(3.0),
            CostFunction.power(1.5, 2.0),
            CostFunction.tabulated([(0.0, 0.0), (1.0, 2.0), (2.0, 5.0)]),
        ):
            assert cost_eval(cf, 0.0) == 0.0

    def test_power_hand_value(self):
        assert cost_eval(CostFunction.power(1.0, 2.0), 0.5) == pytest.approx(0.25)

    def test_rejects_negative_effort(self):
        with pytest.raises(ArgumentError):
            cost_eval(CostFunction.linear(1.0), -0.5)

    def test_tabulated_extrapolates_linearly(self):
        cf = CostFunction.tabulated([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
        slope = cf.slope(2.0)
        assert cost_eval(cf, 4.0) == pytest.approx(3.0 + 2.0 * slope)

    def test_tabulated_strictly_increasing(self):
        cf = CostFunction.tabulated([(0.0, 0.0), (0.5, 0.3), (1.0, 1.1), (2.0, 4.0)])
        xs = np.linspace(0.0, 3.0, 301)
        values = cf.evaluate(xs)
        assert np.all(np.diff(values) > 0)


class TestCostInverse:
    def test_linear_hand_value(self):
        assert cost_inverse(CostFunction.linear(2.0), 0.25) == pytest.approx(0.125)

    def test_zero_maps_to_zero(self):
        for cf in (
            CostFunction.linear(2.0),
            CostFunction.power(2.0, 0.5),
            CostFunction.tabulated([(0.0, 0.0), (1.0, 2.0)]),
        ):
            assert cost_inverse(cf, 0.0) == 0.0

    def test_power_hand_value(self):
        assert cost_inverse(CostFunction.power(1.0, 2.0), 0.25) == pytest.approx(0.5)

    def test_rejects_negative_level(self):
        with pytest.raises(ArgumentError):
            cost_inverse(CostFunction.power(1.0, 2.0), -1.0)

    @pytest.mark.parametrize(
        "cf",
        [
            CostFunction.linear(2.5),
            CostFunction.power(0.7, 2.0),
            CostFunction.power(1.3, 0.5),
            CostFunction.tabulated([(0.0, 0.0), (0.4, 0.9), (1.0, 1.7), (3.0, 6.0)]),
        ],
    )
    def test_roundtrip_on_grid(self, cf):
        for x in np.linspace(0.0, 5.0, 26):
            level = cost_eval(cf, float(x))
            assert cost_eval(cf, cost_inverse(cf, level)) == pytest.approx(level, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_tabulated_inverse_residual(self, y):
        cf = CostFunction.tabulated([(0.0, 0.0), (1.0, 1.5), (2.0, 2.5)])
        x = cost_inverse(cf, y)
        assert cost_eval(cf, x) == pytest.approx(y, abs=1e-9 * max(1.0, y))

    def test_tabulated_inverse_of_an_array_matches_pointwise_bisection(self):
        cf = CostFunction.tabulated([(0.0, 0.0), (0.5, 0.2), (1.0, 0.7), (2.0, 2.5)])

        def pointwise(y):
            # one bracket and one scalar bisection per target, run until the
            # bracket ends are adjacent floats
            if y == 0.0:
                return 0.0
            hi = cf.points[-1][0]
            while cf.evaluate(hi) < y:
                hi += (y - cf.evaluate(hi)) / cf.slope(hi) + 1e-12
            lo = 0.0
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    return mid
                if cf.evaluate(mid) < y:
                    lo = mid
                else:
                    hi = mid

        # targets inside the table, on the last knot and beyond it
        ys = np.concatenate(([0.0, 1e-14, 0.2, 2.5, 2.5 + 1e-9], np.linspace(0.01, 40.0, 57)))
        xs = cost_inverse(cf, ys)
        expected = np.array([pointwise(float(y)) for y in ys])
        np.testing.assert_allclose(xs, expected, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(cf.evaluate(xs), ys, rtol=1e-12, atol=1e-12)


class TestShapeFlags:
    @pytest.mark.parametrize(
        "exponent,concave,convex",
        [(0.5, True, False), (1.0, True, True), (2.0, False, True)],
    )
    def test_power_flags(self, exponent, concave, convex):
        cf = CostFunction.power(1.0, exponent)
        assert cf.concave is concave
        assert cf.convex is convex

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0])
    def test_flags_match_second_differences(self, exponent):
        cf = CostFunction.power(1.3, exponent)
        xs = np.linspace(0.1, 4.0, 64)
        second = np.diff(cf.evaluate(xs), 2)
        if cf.concave and not cf.convex:
            assert np.all(second <= 1e-12)
        if cf.convex and not cf.concave:
            assert np.all(second >= -1e-12)
        if cf.concave and cf.convex:
            np.testing.assert_allclose(second, 0.0, atol=1e-12)

    def test_tabulated_flags(self):
        convex = CostFunction.tabulated([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (3.0, 6.0)])
        assert convex.convex and not convex.concave
        concave = CostFunction.tabulated([(0.0, 0.0), (1.0, 3.0), (2.0, 5.0), (3.0, 6.0)])
        assert concave.concave and not concave.convex


class TestCostFunctionConstruction:
    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ArgumentError):
            CostFunction.linear(0.0)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ArgumentError):
            CostFunction.power(1.0, -2.0)

    def test_rejects_table_not_anchored_at_origin(self):
        with pytest.raises(ArgumentError):
            CostFunction.tabulated([(0.5, 0.5), (1.0, 1.0)])

    def test_rejects_nonincreasing_table(self):
        with pytest.raises(ArgumentError):
            CostFunction.tabulated([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])

    @pytest.mark.parametrize(
        "fields", [{"theta": 99.0}, {"exponent": 5.0}, {"theta": float("nan")}]
    )
    def test_tabulated_takes_no_theta_or_exponent(self, fields):
        with pytest.raises(ArgumentError, match="theta 1 and exponent 1"):
            CostFunction("tabulated", points=((0.0, 0.0), (1.0, 3.0), (2.0, 7.0)), **fields)

    def test_rejects_table_ending_on_a_zero_slope(self):
        # the three-point end rule clips the last slope to zero: a bounded cost
        with pytest.raises(ArgumentError, match="positive slope at its last point"):
            CostFunction.tabulated([(0.0, 0.0), (1.0, 20.0), (2.0, 21.0)])


def _random_table(rng):
    """2 to 12 strictly increasing knots from (0, 0), steps spanning five decades."""
    n = int(rng.integers(2, 13))
    xs = np.concatenate(([0.0], np.cumsum(10.0 ** rng.uniform(-2.5, 2.5, n - 1))))
    cs = np.concatenate(([0.0], np.cumsum(10.0 ** rng.uniform(-2.5, 2.5, n - 1))))
    return xs, cs


@st.composite
def _tables(draw):
    """Cost tables whose segments run from near-flat to very steep (slopes over
    eight decades). Knots are at least 0.5 apart, which keeps c'(x) x / c(x)
    small enough for double precision in x to resolve c to 1e-12."""
    n = draw(st.integers(2, 7))
    steps = draw(st.lists(st.floats(0.5, 1.0), min_size=n - 1, max_size=n - 1))
    log_rises = draw(st.lists(st.floats(-4.0, 4.0), min_size=n - 1, max_size=n - 1))
    points = [(0.0, 0.0)]
    for step, log_rise in zip(steps, log_rises):
        points.append((points[-1][0] + step, points[-1][1] + 10.0**log_rise))
    try:
        return CostFunction.tabulated(points)
    except ArgumentError:  # a table that ends on a zero slope is no cost
        assume(False)


class TestMonotoneCubic:
    def test_values_and_slopes_match_scipy(self):
        rng = np.random.default_rng(20)
        for _ in range(500):
            xs, cs = _random_table(rng)
            ours, theirs = _Pchip(xs, cs), PchipInterpolator(xs, cs)
            ts = np.concatenate((xs, rng.uniform(0.0, xs[-1], 64)))
            np.testing.assert_allclose(ours(ts), theirs(ts), rtol=1e-14, atol=0.0)
            # a slope is compared relative to the terms it sums, the scale of
            # both evaluations' rounding where those terms cancel
            i = np.clip(np.searchsorted(xs, ts, side="right") - 1, 0, xs.size - 2)
            dx = ts - xs[i]
            c3, c2, c1 = np.abs(theirs.c[:3, i])
            terms = 3.0 * c3 * dx**2 + 2.0 * c2 * dx + c1
            assert np.all(np.abs(ours.slope(ts) - theirs.derivative()(ts)) <= 1e-14 * terms)

    @given(_tables(), st.data())
    def test_residual_bound(self, cf, data):
        top = cf.points[-1][1]
        y = data.draw(
            st.one_of(
                st.floats(0.0, top),  # inside the table
                st.sampled_from([c for _, c in cf.points]),  # on the knots, 0 among them
                st.floats(-12.0, 3.0).map(lambda e: top * (1.0 + 10.0**e)),  # beyond them
            )
        )
        x = cost_inverse(cf, y)
        assert abs(cost_eval(cf, x) - y) <= 1e-12 * max(1.0, y)

    def test_array_inverse_equals_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            xs, cs = _random_table(rng)
            if _Pchip(xs, cs).d[-1] == 0.0:
                continue  # a table ending on a zero slope is no cost
            cf = CostFunction.tabulated(zip(xs, cs))
            ys = np.concatenate((cs, [0.0, 1e-300], rng.uniform(0.0, 1.5 * cs[-1], 64)))
            xs_out = cost_inverse(cf, ys)
            assert [float(x) for x in xs_out] == [cost_inverse(cf, float(y)) for y in ys]

    def test_levels_far_below_the_grid_at_a_flat_first_knot(self):
        # the first knot's slope clips to 0, so the cost rises like c2 x^2 from
        # it and the graded grid ends near x = 1e-16: the levels below start at
        # the root of that quadratic term, not from the grid
        cf = CostFunction.tabulated([(0.0, 0.0), (1.0, 0.01), (2.0, 1.0)])
        ys = np.array([1e-100, 1e-200, 1e-300])
        xs = cost_inverse(cf, ys)
        np.testing.assert_allclose(cost_eval(cf, xs), ys, rtol=1e-12, atol=0.0)

    def test_a_level_still_moving_at_the_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr("contestlab._quad._NEWTON_STEPS", 1)
        cf = CostFunction.tabulated([(0.0, 0.0), (1.0, 0.01), (2.0, 1.0)])
        with pytest.raises(NumericError, match="after 1 Newton steps"):
            cost_inverse(cf, 0.5)


class TestContestEnvironment:
    def test_cumulative_probabilities(self, two_type_env):
        assert two_type_env.cumulative == (0.0, 0.5, 1.0)

    def test_parametric_flags(self, two_type_env):
        assert two_type_env.parametric
        assert two_type_env.linear
        assert two_type_env.thetas == (2.0, 1.0)

    def test_mixed_exponents_are_not_parametric(self):
        env = ContestEnvironment(
            2,
            (CostFunction.power(2.0, 2.0), CostFunction.linear(1.0)),
            (0.5, 0.5),
        )
        assert not env.parametric
        with pytest.raises(ArgumentError):
            env.thetas

    def test_linear_counts_as_power_one(self):
        env = ContestEnvironment(
            2,
            (CostFunction.power(2.0, 1.0), CostFunction.linear(1.0)),
            (0.5, 0.5),
        )
        assert env.parametric and env.linear

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ArgumentError):
            ContestEnvironment(2, (CostFunction.linear(1.0),), (0.5, 0.5))

    def test_rejects_nonpositive_probs(self):
        with pytest.raises(ArgumentError):
            ContestEnvironment(2, (CostFunction.linear(1.0),), (0.0,))

    def test_type_at_is_one_based(self, two_type_env):
        assert two_type_env.type_at(1).theta == 2.0
        with pytest.raises(ArgumentError):
            two_type_env.type_at(0)


class TestValidateEnvironment:
    def test_ordered_pair_passes(self, two_type_env):
        report = validate_environment(two_type_env)
        assert report.passed
        assert report.ordering_method == "analytic"

    def test_equal_scales_fail(self):
        env = ContestEnvironment(
            2, (CostFunction.linear(1.0), CostFunction.linear(1.0)), (0.5, 0.5)
        )
        report = validate_environment(env)
        assert not report.passed
        assert "ordering" in report.failures[0]

    def test_bad_simplex_fails_naming_probs(self):
        env = ContestEnvironment(
            2, (CostFunction.linear(2.0), CostFunction.linear(1.0)), (0.5, 0.4)
        )
        report = validate_environment(env)
        assert not report.passed
        assert "probs" in report.failures[0]

    def test_mixed_family_uses_grid(self):
        env = ContestEnvironment(
            2,
            (CostFunction.power(3.0, 1.2), CostFunction.linear(1.0)),
            (0.5, 0.5),
        )
        report = validate_environment(env, Contest((0.0, 0.0, 1.0)))
        assert report.ordering_method == "grid"
        assert report.grid is not None and report.grid[2] == 256

    def test_grid_detects_crossing_slopes(self):
        # slopes cross: 1.2 * x^0.2 vs 1 means the "less efficient" type is
        # cheaper at small efforts
        env = ContestEnvironment(
            2,
            (CostFunction.power(1.0, 1.2), CostFunction.linear(1.0)),
            (0.5, 0.5),
        )
        report = validate_environment(env, x_max=2.0)
        assert not report.passed
        assert "ordering" in report.failures[0]

    def test_tabulated_ordering_on_grid(self):
        steep = CostFunction.tabulated([(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)])
        shallow = CostFunction.tabulated([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        env = ContestEnvironment(2, (steep, shallow), (0.5, 0.5))
        report = validate_environment(env, x_max=1.8)
        assert report.passed
        assert report.ordering_method == "grid"
