"""The bracketed root finder under every monotone inverse of the package."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import contestlab._quad as quad
from contestlab import NumericError
from contestlab._quad import _monotone_inverse


def _curve(weights, powers, lo, hi):
    """A nondecreasing f on [lo, hi]: a mix of u, u^k (flat at lo) and 1 - (1 - u)^m (flat at hi).

    Every operation rounds monotonically, so f is nondecreasing in floating
    point too, and y has one threshold min{x : f(x) >= y}.
    """
    (w_lin, w_low, w_high), (k, m) = weights, powers

    def f(x):
        u = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
        return w_lin * u + w_low * u**k + w_high * (1.0 - (1.0 - u) ** m)

    return f


def _threshold(f, y, lo, hi):
    """Smallest float x in [lo, hi] with f(x) >= y, by scalar bisection to adjacent floats."""
    if f(np.array([lo]))[0] >= y:
        return lo
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if f(np.array([mid]))[0] < y:
            lo = mid
        else:
            hi = mid


_WEIGHTS = st.tuples(*[st.sampled_from([0.0, 1e-3, 1.0, 7.5])] * 3).filter(lambda w: sum(w) > 0.0)
_POWERS = st.tuples(st.integers(2, 40), st.integers(2, 40))


@settings(max_examples=200, deadline=None)
@given(
    weights=_WEIGHTS,
    powers=_POWERS,
    lo=st.floats(-10.0, 10.0),
    width=st.floats(1e-3, 100.0),
    level=st.floats(0.0, 1.0),
    tol=st.sampled_from([1e-15, 1e-10, 1e-6]),
)
def test_agrees_with_bisection_to_the_tolerance(weights, powers, lo, width, level, tol):
    hi = lo + width
    f = _curve(weights, powers, lo, hi)
    f_lo, f_hi = f(np.array([lo, hi]))
    y = f_lo + level * (f_hi - f_lo)
    x = _monotone_inverse(f, np.array([y]), lo, hi, tol=tol)[0]
    reference = _threshold(f, y, lo, hi)
    room = max(tol * max(1.0, abs(reference)), 4.0 * np.spacing(abs(reference)))
    # the midpoint of a bracket at most room wide, up to the rounding of
    # room and of the midpoint; a point where f equals y exactly is a root,
    # however wide f's plateau there
    near = abs(x - reference) <= 0.5 * room * (1.0 + 1e-12) + np.spacing(abs(reference))
    assert near or f(np.array([x]))[0] == y


@pytest.mark.parametrize("powers", [(2, 2), (12, 3), (40, 40)])
def test_tolerance_zero_is_float_resolution(powers):
    # 4 ulp of the bracket's top; near zero that is far below any caller's
    # need and can take more than _ROOT_STEPS, so this is checked on [1, 2]
    f = _curve((1e-3, 1.0, 1.0), powers, 1.0, 2.0)
    f_lo, f_hi = f(np.array([1.0, 2.0]))
    ys = f_lo + np.linspace(0.0, 1.0, 65)[1:-1] * (f_hi - f_lo)
    xs = _monotone_inverse(f, ys, 1.0, 2.0)
    for x, y in zip(xs, ys):
        reference = _threshold(f, y, 1.0, 2.0)
        assert abs(x - reference) <= 4.0 * np.spacing(reference) or f(np.array([x]))[0] == y


def test_targets_at_the_end_values_return_the_ends():
    f = _curve((0.0, 1.0, 1.0), (5, 3), 0.5, 2.0)
    f_lo, f_hi = f(np.array([0.5, 2.0]))
    ys = np.array([f_lo - 1.0, f_lo, f_hi, f_hi + 1.0])
    assert _monotone_inverse(f, ys, 0.5, 2.0, tol=1e-12).tolist() == [0.5, 0.5, 2.0, 2.0]


def test_a_batch_equals_its_elements_bit_for_bit():
    rng = np.random.default_rng(3)
    f = _curve((1e-3, 1.0, 7.5), (12, 7), 0.0, 1.0)
    ys = np.sort(rng.random(257)) * f(np.array([1.0]))[0]
    lo = rng.uniform(-1.0, 0.0, ys.size)
    batch = _monotone_inverse(f, ys, lo, 1.0, tol=0.0)
    single = [_monotone_inverse(f, ys[i : i + 1], lo[i], 1.0, tol=0.0)[0] for i in range(ys.size)]
    assert batch.tolist() == single


def test_a_bracket_left_open_at_the_step_cap_raises(monkeypatch):
    monkeypatch.setattr(quad, "_ROOT_STEPS", 3)
    f = _curve((0.0, 1.0, 0.0), (30, 2), 0.0, 1.0)
    with pytest.raises(NumericError, match="3 steps"):
        _monotone_inverse(f, np.array([1e-20]), 0.0, 1.0, tol=1e-15)
