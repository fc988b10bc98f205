"""Cost functions, environments, and the ordered-type-space audit."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from contestlab import (
    ArgumentError,
    Contest,
    ContestEnvironment,
    CostFunction,
    cost_eval,
    cost_inverse,
    validate_environment,
)


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
            # one bracket and one scalar bisection per target
            if y == 0.0:
                return 0.0
            hi = cf.points[-1][0]
            while cf.evaluate(hi) < y:
                hi += (y - cf.evaluate(hi)) / cf._last_slope + 1e-12
            lo = 0.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if cf.evaluate(mid) < y:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-15 * max(1.0, hi):
                    break
            return 0.5 * (lo + hi)

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
