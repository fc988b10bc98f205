"""The safeguarded Newton root finder under every monotone inverse that has a slope."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import contestlab._quad as quad
from contestlab import NumericError
from contestlab._quad import _rtsafe


def _curve(weights, powers, lo, hi):
    """A nondecreasing f on [lo, hi]: a mix of u, u^k (flat at lo) and 1 - (1 - u)^m (flat at hi).

    f(x, index) returns f and its slope at x, as _rtsafe calls it (index is
    not needed). Every operation rounds monotonically, so f is nondecreasing
    in floating point too, and y has one threshold min{x : f(x) >= y}.
    """
    (w_lin, w_low, w_high), (k, m) = weights, powers

    def f(x, index=None):
        u = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
        value = w_lin * u + w_low * u**k + w_high * (1.0 - (1.0 - u) ** m)
        slope = (w_lin + w_low * k * u ** (k - 1) + w_high * m * (1.0 - u) ** (m - 1)) / (hi - lo)
        return value, np.where((x >= lo) & (x <= hi), slope, 0.0)

    return f


def _value(f, x):
    return f(np.array([x]))[0][0]


def _threshold(f, y, lo, hi):
    """Smallest float x in [lo, hi] with f(x) >= y, by scalar bisection to adjacent floats."""
    if _value(f, lo) >= y:
        return lo
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if _value(f, mid) < y:
            lo = mid
        else:
            hi = mid


def _solve(f, ys, lo, hi, tol=0.0):
    """_rtsafe on f over [lo, hi], given f's values at the ends."""
    f_lo, f_hi = (f(np.broadcast_to(end, np.shape(ys)))[0] for end in (lo, hi))
    return _rtsafe(f, ys, lo, hi, f_lo, f_hi, tol)


def _meets_the_contract(f, x, y, reference, room, lo, hi):
    # a Newton stop is within about its last step of the root, so x is within
    # 2 room of the threshold, not half a bracket; where f rounds to within a
    # few ulp of y over a wider plateau, any point of it is a root
    scale = max(abs(_value(f, lo)), abs(_value(f, hi)))
    return abs(x - reference) <= 2.0 * room or abs(_value(f, x) - y) <= 4.0 * np.spacing(scale)


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
    f_lo, f_hi = _value(f, lo), _value(f, hi)
    y = f_lo + level * (f_hi - f_lo)
    x = _solve(f, np.array([y]), lo, hi, tol=tol)[0]
    reference = _threshold(f, y, lo, hi)
    room = max(tol * max(1.0, abs(reference)), 4.0 * np.spacing(abs(reference)))
    assert _meets_the_contract(f, x, y, reference, room, lo, hi)


@pytest.mark.parametrize("powers", [(2, 2), (12, 3), (40, 40)])
def test_tolerance_zero_is_float_resolution(powers):
    # 4 ulp of the point; near zero that is far below any caller's need and
    # can take more than _ROOT_STEPS, so this is checked on [1, 2]
    f = _curve((1e-3, 1.0, 1.0), powers, 1.0, 2.0)
    f_lo, f_hi = _value(f, 1.0), _value(f, 2.0)
    ys = f_lo + np.linspace(0.0, 1.0, 65)[1:-1] * (f_hi - f_lo)
    xs = _solve(f, ys, 1.0, 2.0)
    for x, y in zip(xs, ys):
        reference = _threshold(f, y, 1.0, 2.0)
        assert _meets_the_contract(f, x, y, reference, 4.0 * np.spacing(reference), 1.0, 2.0)


def test_targets_at_the_end_values_return_the_ends():
    f = _curve((0.0, 1.0, 1.0), (5, 3), 0.5, 2.0)
    f_lo, f_hi = _value(f, 0.5), _value(f, 2.0)
    ys = np.array([f_lo - 1.0, f_lo, f_hi, f_hi + 1.0])

    def unused(x, index):
        raise AssertionError("a target at an end needs no evaluation")

    assert _rtsafe(unused, ys, 0.5, 2.0, f_lo, f_hi, tol=1e-12).tolist() == [0.5, 0.5, 2.0, 2.0]


def test_a_batch_equals_its_elements_bit_for_bit():
    rng = np.random.default_rng(3)
    f = _curve((1e-3, 1.0, 7.5), (12, 7), 0.0, 1.0)
    ys = np.sort(rng.random(257)) * _value(f, 1.0)
    lo = rng.uniform(-1.0, 0.0, ys.size)
    batch = _solve(f, ys, lo, 1.0)
    single = [_solve(f, ys[i : i + 1], lo[i], 1.0)[0] for i in range(ys.size)]
    assert batch.tolist() == single


def test_only_moving_elements_are_evaluated():
    f = _curve((1e-3, 1.0, 7.5), (12, 7), 0.0, 1.0)
    ys = np.linspace(0.0, _value(f, 1.0), 257)
    seen = []

    def counted(x, index):
        assert x.size == index.size
        seen.append(index)
        return f(x)

    _rtsafe(counted, ys, 0.0, 1.0, _value(f, 0.0), _value(f, 1.0))
    assert all(np.isin(later, earlier).all() for earlier, later in zip(seen, seen[1:]))
    assert seen[-1].size < seen[0].size == ys.size - 2


def test_a_bracket_left_open_at_the_step_cap_raises(monkeypatch):
    monkeypatch.setattr(quad, "_ROOT_STEPS", 3)
    f = _curve((0.0, 1.0, 0.0), (30, 2), 0.0, 1.0)
    with pytest.raises(NumericError, match="3 steps"):
        _solve(f, np.array([1e-20]), 0.0, 1.0, tol=1e-15)
