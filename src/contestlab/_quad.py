"""Numeric primitives: the scalar/array convention, Gauss-Legendre panels,
a vectorised safeguarded Newton root finder and the monotone cubic
interpolant.

Every public elementwise function of the package (of t, effort, cost level,
type or quantile level) goes through _elementwise: it takes a scalar or an
array of any shape, rejects NaN, infinities and points outside its interval,
and returns the argument's shape, a scalar as a Python float. Internal
loops, integrands and root finders call the unchecked cores instead. Count
arguments (atom counts, grid sizes, sample counts, seeds) go through
_check_count, which takes Python and numpy integers only.

The integrands fed through here are smooth except possibly at panel
endpoints (segment breakpoints are never interior), so a 64-node rule per
panel converges fast. Callers lay their panels out once and estimate the
error by the same layout with every panel halved; nothing refines. Every
monotone inverse whose slope costs about as much as its value runs on
_rtsafe, Newton's method safeguarded by bisection inside a bracket: the
prize curve (slope N * dv . pmf(N-1)), the effort operator's knot crossings
on that curve, and the continuum strategy (whose slope is -integrand).
Tabulated costs and tabulated continuum CDFs are _Pchip interpolants, which
invert their own cubics by a clipped Newton iteration that shares the
cubic's Horner sums with its slope and needs no bracket updates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ArgumentError, NumericError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)

# Panels per integrand call in gauss_panels: 8192 nodes keep the integrand's
# temporaries small; larger blocks were slower and raised peak memory.
_PANEL_BLOCK = 128

# Cap on the steps of an element in _rtsafe, which raises NumericError past
# it, and of the search's line step; bisection alone would need 50 to take
# [0, 1] down to 1e-15.
_ROOT_STEPS = 100


def _elementwise(core, x, lo: float, hi: float, name: str, error=ArgumentError):
    """core applied to x under the convention above; raises error unless x lies in [lo, hi]."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr) & (arr >= lo) & (arr <= hi)):
        raise error(f"{name} must be finite and lie in [{lo:g}, {hi:g}], got {x!r}")
    out = core(arr.ravel())
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _check_count(name: str, value, least: int, shown: str) -> None:
    """ArgumentError unless value is an integer, not a bool, and at least least.

    shown is how least reads in the message.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ArgumentError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ArgumentError(f"{name} must be at least {shown}, got {value!r}")


def gauss_panels(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray):
    """64-node Gauss-Legendre integrals of f over each [a[i], b[i]], f called per block of panels.

    Each panel is summed on its own row by einsum, not by a BLAS
    matrix-vector product, whose summation order for a row depends on the
    row's place in the block: a panel's value must not depend on which
    other panels share the call.
    """
    out = np.empty_like(a)
    for i in range(0, a.size, _PANEL_BLOCK):
        lo, hi = a[i : i + _PANEL_BLOCK], b[i : i + _PANEL_BLOCK]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * _NODES
        values = f(nodes.ravel()).reshape(nodes.shape)
        out[i : i + _PANEL_BLOCK] = half * np.einsum("ij,j->i", values, _WEIGHTS)
    return out


def _rtsafe(f, y, lo, hi, f_lo, f_hi, tol: float = 0.0) -> np.ndarray:
    """Solve f(x) = y elementwise for f nondecreasing on [lo, hi], taking f_lo and f_hi there.

    f(x, index) returns f and its slope at the moving elements index of the
    flattened, broadcast arguments. A target at or beyond an end returns
    that end; the others start at their bracket's chord and take the Newton
    step where it lands inside the bracket and is at most half the one
    before, else bisect (rtsafe, Numerical Recipes 9.4). An element stops,
    within 2 room of the root, once f = y or its step or bracket is at most
    room = max(tol * max(1, |x|), 4 ulp of x). Updates are elementwise, so a
    result does not depend on the other elements; NumericError if one still
    moves after _ROOT_STEPS steps.
    """
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (y, lo, hi, f_lo, f_hi)))
    y, lo, hi, f_lo, f_hi = (v.ravel() for v in args)
    out = np.where(y <= f_lo, lo, hi)
    index = np.flatnonzero((f_lo < y) & (y < f_hi))
    y, a, b = y[index], lo[index], hi[index]
    z = a + (y - f_lo[index]) / (f_hi[index] - f_lo[index]) * (b - a)
    last = b - a
    for _ in range(_ROOT_STEPS):
        if not index.size:
            break
        value, slope = f(z, index)
        g = value - y
        a, b = np.where(g < 0.0, z, a), np.where(g > 0.0, z, b)
        with np.errstate(divide="ignore", over="ignore"):
            step = np.divide(g, slope, out=np.zeros_like(g), where=g != 0.0)
        newton, top = z - step, np.abs(z)
        room = np.maximum(tol * np.maximum(1.0, top), 4.0 * np.spacing(top))
        # a Newton step within room (zero where f = y, even at a zero slope) ends
        # the element, since the far end of a one-sided bracket never moves
        small = np.abs(step) <= room
        take = (newton > a) & (newton < b) & (np.abs(step) <= 0.5 * last)
        new = np.where(small, np.clip(newton, a, b), np.where(take, newton, 0.5 * (a + b)))
        last = np.abs(new - z)
        done = small | (b - a <= room)
        out[index[done]] = new[done]
        index, y, z, a, b, last = (v[~done] for v in (index, y, new, a, b, last))
    if index.size:
        width = float(np.max(b - a))
        raise NumericError(f"root finder left a bracket {width:.3g} wide after {_ROOT_STEPS} steps")
    return out.reshape(args[0].shape)


# _Pchip.inverse takes its first guess from a grid of this many uniform
# steps per knot interval, plus the inflection points; from there Newton's
# method takes two to six steps.
_GRID_STEPS = 32

# Where an end knot has zero slope, the inverse grows like a square root
# there, and the grid adds these offsets toward it, as fractions of the
# end interval: ratio 2**-0.5 down to 2**-48 of a uniform step.
_GRADED = 2.0 ** (-np.arange(1, 97) / 2) / _GRID_STEPS

# Cap on the Newton steps of an element in _Pchip.inverse, which raises
# NumericError past it.
_NEWTON_STEPS = 100

_TINY = np.finfo(float).tiny


def _end_slope(h0, h1, m0, m1):
    """Three-point one-sided slope at an end knot, clipped at zero (increasing data)."""
    return max(((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1), 0.0)


class _Pchip:
    """Monotone piecewise-cubic interpolant through strictly increasing knots.

    Knot slopes follow Fritsch & Carlson (SIAM J. Numer. Anal. 1980):
    interior slopes are weighted harmonic means of the adjacent secants, end
    slopes the three-point rule clipped at zero, and two knots give a line.
    These are the slopes of scipy's PchipInterpolator, whose values and
    slopes this matches to rounding. Each interval holds its cubic in the
    local variable dx = t - x[i], evaluated by Horner's rule. Beyond the
    last knot the interpolant continues linearly at the end slope, as one
    more interval; below the first knot it is undefined.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        secant = np.diff(y) / h
        d = np.full_like(x, secant[0])
        if x.size > 2:
            w1 = 2.0 * h[1:] + h[:-1]
            w2 = h[1:] + 2.0 * h[:-1]
            d[1:-1] = 1.0 / ((w1 / secant[:-1] + w2 / secant[1:]) / (w1 + w2))
            d[0] = _end_slope(h[0], h[1], secant[0], secant[1])
            d[-1] = _end_slope(h[-1], h[-2], secant[-1], secant[-2])
        excess = (d[:-1] + d[1:] - 2.0 * secant) / h
        self.x, self.y, self.d = x, y, d
        # coefficients of dx**3 and dx**2 (those of dx and 1 are d and y)
        self._c3 = np.append(excess / h, 0.0)
        self._c2 = np.append((secant - d[:-1]) / h - excess, 0.0)

        # Starting points for inverse: between neighbouring grid points the
        # cubic has one sign of curvature.
        with np.errstate(divide="ignore", invalid="ignore"):
            bend = -self._c2[:-1] / (3.0 * self._c3[:-1])
        bent = (bend > 0.0) & (bend < h)
        uniform = x[:-1, None] + h[:, None] * (np.arange(_GRID_STEPS) / _GRID_STEPS)
        ends = [x[0] + h[0] * _GRADED] if d[0] == 0.0 else []
        ends += [x[-1] - h[-1] * _GRADED] if d[-1] == 0.0 else []
        grid = np.unique(
            np.concatenate((uniform.ravel(), x[:-1][bent] + bend[bent], x[-1:], *ends))
        )
        values = self(grid)
        # keep the values strictly increasing where rounding ties them, as it
        # does near an end knot of zero slope
        keep = np.append(values[:-1] < np.minimum.accumulate(values[::-1])[-2::-1], True)
        grid, values = grid[keep], values[keep]
        self._grid, self._grid_values = grid, values
        self._grid_next = np.append(grid[1:], np.inf)
        self._grid_owner = np.searchsorted(x[1:], grid, side="right")
        # a zero end slope (a CDF's, never a cost's) is inverted at its knot value only
        self._grid_run = np.append(np.diff(grid) / np.diff(values), 1.0 / max(d[-1], _TINY))

    def __call__(self, t: np.ndarray) -> np.ndarray:
        i = np.searchsorted(self.x[1:], t, side="right")
        dx = t - self.x[i]
        return ((self._c3[i] * dx + self._c2[i]) * dx + self.d[i]) * dx + self.y[i]

    def slope(self, t: np.ndarray) -> np.ndarray:
        """Derivative at t >= x[0]."""
        i = np.searchsorted(self.x[1:], t, side="right")
        dx = t - self.x[i]
        return (3.0 * self._c3[i] * dx + 2.0 * self._c2[i]) * dx + self.d[i]

    def inverse(self, v: np.ndarray) -> np.ndarray:
        """The t >= x[0] at which the interpolant takes each value v >= y[0].

        Newton's method on the cubic of the owning interval, clipped to the
        two grid points around v, converges from one side. It starts at
        their chord, or next to a knot of zero slope, where the cubic rises
        like c2 dx^2 below the graded grid, at the root of that term. An
        element is frozen once its value is within 4 ulp of v or its step
        within 4 ulp of t, so its result does not depend on the others;
        NumericError if one still moves after _NEWTON_STEPS steps.
        """
        j = np.searchsorted(self._grid_values, v, side="right") - 1
        lo, hi = self._grid[j], self._grid_next[j]
        t = lo + (v - self._grid_values[j]) * self._grid_run[j]
        i = self._grid_owner[j]
        start, rise = self.x[i], v - self.y[i]
        c3, c2, c1 = self._c3[i], self._c2[i], self.d[i]
        if not self.d.all():  # a knot of zero slope; fmax takes lo where rise / c2 is 0 / 0
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(c1 == 0.0, np.fmin(np.fmax(start + np.sqrt(rise / c2), lo), hi), t)
        value_tol = 4.0 * np.spacing(v)
        frozen = np.zeros(v.shape, dtype=bool)
        with np.errstate(over="ignore"):  # f / _TINY where the slope vanishes
            for _ in range(_NEWTON_STEPS):
                dx = t - start
                # Horner's rule for the cubic and, sharing its partial sums, its slope
                a = c3 * dx
                b = a + c2
                c = b * dx + c1
                f = c * dx - rise
                step = f / np.maximum((a + b) * dx + c, _TINY)
                frozen |= np.abs(f) <= value_tol
                t = np.where(frozen, t, np.minimum(np.maximum(t - step, lo), hi))
                frozen |= np.abs(step) <= 4.0 * np.spacing(t)
                if frozen.all():
                    return t
        raise NumericError(f"cubic inverse still moving after {_NEWTON_STEPS} Newton steps")
