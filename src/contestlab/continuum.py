"""Continuum-type equilibrium and convergence of finite discretizations.

With a continuum of marginal-cost types and linear costs, the symmetric
equilibrium is a pure strategy: a type theta exerts the integral, from theta
up to the top of the support, of the prize-curve slope at that type's win
probability, weighted by the type density over the marginal cost. Quantile
discretizations of the type CDF produce finite environments whose mixed
equilibria converge to this pure one, which this module measures. The
strategy is tabulated once per contest on fixed Gauss panels, each checked
against its two halves, and inverted by Newton's method on its own
integrand, safeguarded by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._quad import _ROOT_STEPS, _check_count, _Pchip, _elementwise, gauss_panels
from .costs import ContestEnvironment, CostFunction
from .equilibrium import exante_cdf, solve
from .errors import ArgumentError, ContestError, NumericError
from .kernels import Contest, _check_opponents, _prize_slope

UNIFORM = "uniform"
POWER = "power"
TABULATED = "tabulated"


@dataclass(frozen=True)
class ContinuumEnvironment:
    """Marginal-cost types on [theta_lo, theta_hi] with CDF from a small family.

    family "uniform" spreads mass evenly; "power" uses ((t - lo)/(hi - lo))**shape;
    "tabulated" interpolates supplied (theta, G) samples by the monotone cubic
    _Pchip, which also gives the density and the quantiles. Costs are linear
    in effort with slope theta, matching the finite-model convention that
    larger scales are less efficient.
    """

    n_others: int
    theta_lo: float
    theta_hi: float
    family: str = UNIFORM
    shape: float = 1.0
    points: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n_others, (int, np.integer)) or self.n_others < 1:
            raise ArgumentError(f"n_others must be a positive integer, got {self.n_others!r}")
        if not (0.0 < self.theta_lo < self.theta_hi) or not math.isfinite(self.theta_hi):
            raise ArgumentError(
                f"need 0 < theta_lo < theta_hi, got ({self.theta_lo!r}, {self.theta_hi!r})"
            )
        if self.family not in (UNIFORM, POWER, TABULATED):
            raise ArgumentError(f"unknown type-distribution family {self.family!r}")
        if self.family == POWER and not self.shape > 0.0:
            raise ArgumentError(f"power family needs a positive shape, got {self.shape!r}")
        if self.family == TABULATED:
            if self.points is None or len(self.points) < 2:
                raise ArgumentError("tabulated CDFs need at least two sample points")
            pts = tuple((float(t), float(g)) for t, g in self.points)
            ts = [p[0] for p in pts]
            gs = [p[1] for p in pts]
            if ts[0] != self.theta_lo or ts[-1] != self.theta_hi:
                raise ArgumentError("tabulated CDF must span the full support")
            if gs[0] != 0.0 or gs[-1] != 1.0:
                raise ArgumentError("tabulated CDF must run from 0 to 1")
            if any(b <= a for a, b in zip(ts, ts[1:])) or any(
                b <= a for a, b in zip(gs, gs[1:])
            ):
                raise ArgumentError("tabulated CDF samples must be strictly increasing")
            object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, n_others: int, theta_lo: float, theta_hi: float) -> "ContinuumEnvironment":
        return cls(n_others, float(theta_lo), float(theta_hi), family=UNIFORM)

    @classmethod
    def power(cls, n_others: int, theta_lo: float, theta_hi: float, shape: float) -> "ContinuumEnvironment":
        return cls(n_others, float(theta_lo), float(theta_hi), family=POWER, shape=float(shape))

    @classmethod
    def tabulated(cls, n_others: int, points) -> "ContinuumEnvironment":
        pts = tuple((float(t), float(g)) for t, g in points)
        return cls(n_others, pts[0][0], pts[-1][0], family=TABULATED, points=pts)

    @cached_property
    def _interp(self) -> _Pchip:
        return _Pchip(*zip(*self.points))

    def cdf(self, theta):
        """Type CDF G at theta; clipped to the support, so 0 below it and 1 above."""
        return _elementwise(self._cdf, theta, -np.inf, np.inf, "theta")

    def _cdf(self, arr: np.ndarray) -> np.ndarray:
        arr = np.clip(arr, self.theta_lo, self.theta_hi)
        u = (arr - self.theta_lo) / (self.theta_hi - self.theta_lo)
        if self.family == UNIFORM:
            return u
        if self.family == POWER:
            return np.power(u, self.shape)
        return self._interp(arr)

    def pdf(self, theta):
        """Type density at theta, taken at the nearest point of the support."""
        return _elementwise(self._pdf, theta, -np.inf, np.inf, "theta")

    def _pdf(self, arr: np.ndarray) -> np.ndarray:
        arr = np.clip(arr, self.theta_lo, self.theta_hi)
        span = self.theta_hi - self.theta_lo
        if self.family == UNIFORM:
            return np.full_like(arr, 1.0 / span)
        if self.family == POWER:
            u = (arr - self.theta_lo) / span
            return self.shape * np.power(u, self.shape - 1.0) / span
        return self._interp.slope(arr)

    def quantile(self, q):
        """Type at CDF level q; accepts a scalar or an array of levels."""
        return _elementwise(self._quantile, q, 0.0, 1.0, "quantile level")

    def _quantile(self, arr: np.ndarray) -> np.ndarray:
        span = self.theta_hi - self.theta_lo
        if self.family == UNIFORM:
            return self.theta_lo + arr * span
        if self.family == POWER:
            return self.theta_lo + span * np.power(arr, 1.0 / self.shape)
        return self._interp.inverse(arr)


# Tail-table layout: uniform panels per segment, plus geometric panels that
# grade the lowest one toward the bottom of the support, where non-integer
# power densities are not smooth.
_PANELS = 32
_GRADED = 30


class _StrategyTable:
    """The pure strategy s(theta) = int_theta^hi h(t) dt, tabulated once.

    h(t) = pi'(1 - G(t)) g(t) / t. The support is cut into fixed panels:
    _PANELS uniform ones per segment (tabulated CDFs end segments at their
    knots, where the density kinks) and _GRADED geometric ones refining the
    lowest panel toward theta_lo. Each panel is integrated as the sum of its
    two halves, in one gauss_panels call with the whole panels; NumericError
    if the halves and the wholes differ by more than 1e-11 * max(1, |total|)
    in sum. Reverse cumulative sums give the tail beyond every edge, so s at
    any theta is the tail beyond its panel plus one Gauss panel from theta to
    the panel's right edge, and its slope is -h; effort_cdf inverts s by
    safeguarded Newton steps inside each effort's table panel.
    Power shapes below 1 integrate in the quantile variable q = G(t),
    cancelling the density's singularity at theta_lo: h dt = pi'(1-q)/Q(q) dq.
    """

    def __init__(self, cenv: ContinuumEnvironment, contest: Contest):
        _check_opponents(cenv, contest)
        self.cenv = cenv
        self.contest = contest
        self.in_quantiles = cenv.family == POWER and cenv.shape < 1.0
        if self.in_quantiles:
            breaks = [0.0, 1.0]
        else:
            breaks = [cenv.theta_lo, cenv.theta_hi]
            if cenv.family == TABULATED:
                breaks[1:1] = [knot for knot, _ in cenv.points[1:-1]]
        uniform = np.unique(
            np.concatenate([np.linspace(a, b, _PANELS + 1) for a, b in zip(breaks, breaks[1:])])
        )
        graded = uniform[0] + (uniform[1] - uniform[0]) * np.exp2(-np.arange(_GRADED, 0, -1))
        self.edges = np.concatenate((uniform[:1], graded, uniform[1:]))
        lo, hi = self.edges[:-1], self.edges[1:]
        mid = 0.5 * (lo + hi)
        ends = np.concatenate((lo, lo, mid)), np.concatenate((hi, mid, hi))
        whole, left, right = gauss_panels(self._integrand, *ends).reshape(3, -1)
        pieces = left + right
        error = float(np.abs(pieces - whole).sum())
        if error > 1e-11 * max(1.0, abs(float(pieces.sum()))):
            raise NumericError(f"halving the strategy table's panels moved it by {error:.3g}")
        self.tail = np.append(np.cumsum(pieces[::-1])[::-1], 0.0)
        self.max_effort = float(self.strategy(self.edges[:1])[0])

    def _integrand(self, z: np.ndarray) -> np.ndarray:
        cenv, contest = self.cenv, self.contest
        if self.in_quantiles:
            return _prize_slope(contest, 1.0 - z) / cenv._quantile(z)
        win = 1.0 - np.clip(cenv._cdf(z), 0.0, 1.0)
        return _prize_slope(contest, win) * cenv._pdf(z) / z

    def strategy(self, z: np.ndarray) -> np.ndarray:
        """s at integration-variable points z (types, or quantile levels)."""
        j = np.clip(np.searchsorted(self.edges, z, side="right") - 1, 0, self.edges.size - 2)
        return self.tail[j + 1] + gauss_panels(self._integrand, z, self.edges[j + 1])

    def effort_cdf(self, x: np.ndarray) -> np.ndarray:
        """P[s(theta) <= x]: one minus the type CDF at the inverse strategy.

        Each x in (0, max_effort) is bracketed in its table panel, the j with
        tail[j] > x >= tail[j+1], and starts at the chord through the
        panel's tabulated ends. Each step evaluates s by one Gauss panel
        over panel j and its slope -h by one integrand value, shrinks the
        bracket by the sign of s - x and takes the Newton step (s - x) / h
        where it lands inside the bracket and is at most half the step
        before it; elsewhere, as where h vanishes at a flat end, it bisects
        (rtsafe, Numerical Recipes 9.4). A point stops once s equals x or its
        step or bracket is at most 4 ulp of z, and only moving points are
        evaluated. Every update is elementwise, so a point's result does not
        depend on the others in the call. Raises NumericError if a point is
        still moving after _ROOT_STEPS steps.
        """
        out = np.where(x <= 0.0, 0.0, 1.0)
        inside = (x > 0.0) & (x < self.max_effort)
        x = x[inside]
        j = np.clip(np.searchsorted(-self.tail, -x) - 1, 0, self.edges.size - 2)
        a, b, base = self.edges[j], self.edges[j + 1], self.tail[j + 1]
        # the chord through (a, tail[j]) and (b, tail[j+1]); rounding can
        # leave an x in [tail[0], max_effort), which fmax starts at a
        with np.errstate(divide="ignore", invalid="ignore"):
            chord = np.fmax((self.tail[j] - x) / (self.tail[j] - base), 0.0)
        z = a + chord * (b - a)
        last, right = b - a, b
        index = np.arange(x.size)
        root = np.empty_like(x)
        for _ in range(_ROOT_STEPS):
            if index.size == 0:
                break
            g = base + gauss_panels(self._integrand, z, right) - x
            a, b = np.where(g > 0.0, z, a), np.where(g < 0.0, z, b)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.divide(g, self._integrand(z), out=np.zeros_like(g), where=g != 0.0)
            newton, room = z + step, 4.0 * np.spacing(z)
            # a Newton step within rounding (zero where s = x, even at h = 0)
            # ends the point wherever it lands, since the far end of a
            # one-sided bracket never moves
            small = np.abs(step) <= room
            take = (newton > a) & (newton < b) & (np.abs(step) <= 0.5 * last)
            new = np.where(small, np.clip(newton, a, b), np.where(take, newton, 0.5 * (a + b)))
            last = np.abs(new - z)
            done = small | (b - a <= room)
            root[index[done]] = new[done]
            going = ~done
            index, x, z, a, b, last, right, base = (
                v[going] for v in (index, x, new, a, b, last, right, base)
            )
        if index.size:
            raise NumericError(
                f"strategy inverse left a bracket {float(np.max(b - a)):.3g} wide"
                f" after {_ROOT_STEPS} steps"
            )
        out[inside] = 1.0 - (root if self.in_quantiles else self.cenv._cdf(root))
        return out


def continuum_strategy(cenv: ContinuumEnvironment, contest: Contest, theta):
    """Pure-strategy equilibrium effort of type theta (a scalar or an array).

    The integral of the prize-curve slope at win probability 1 - G(t), scaled
    by the density over the marginal cost, from theta to the top of the
    support. Decreasing in theta and identically zero at the top type. The
    integral is read off a table of cumulative panel integrals built once per
    call (see _StrategyTable), so an array of types costs one build.
    """

    def core(arr: np.ndarray) -> np.ndarray:
        table = _StrategyTable(cenv, contest)
        return table.strategy(cenv._cdf(arr) if table.in_quantiles else arr)

    return _elementwise(core, theta, cenv.theta_lo, cenv.theta_hi, "theta")


def continuum_effort_cdf(cenv: ContinuumEnvironment, contest: Contest, x):
    """CDF of equilibrium effort: one minus the type CDF at the inverse strategy.

    The strategy is strictly decreasing, so its inverse is recovered to float
    resolution for all of x at once by Newton's method on the strategy table,
    whose slope is the integrand, safeguarded by bisection inside each x's
    table panel; below zero the CDF is 0 and above the lowest type's effort
    it is 1.
    """
    return _elementwise(
        lambda arr: _StrategyTable(cenv, contest).effort_cdf(arr), x, -np.inf, np.inf, "effort"
    )


def discretize(cenv: ContinuumEnvironment, n: int) -> ContestEnvironment:
    """Replace the type CDF by n equal-probability atoms at quantile midpoints.

    Atom k sits at the quantile of level (2(n-k)+1)/(2n), so scales decrease
    with k matching the finite-model ordering (least efficient first) and stay
    strictly inside the support; the induced step CDF converges pointwise to
    the continuum CDF as n grows.
    """
    _check_count("n", n, 1, "1")
    levels = (2 * (n - np.arange(1, n + 1)) + 1) / (2 * n)
    types = tuple(CostFunction.linear(float(theta)) for theta in cenv.quantile(levels))
    return ContestEnvironment(
        n_others=cenv.n_others,
        types=types,
        probs=(1.0 / n,) * n,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-norm gaps between finite and continuum effort CDFs, per atom count."""

    entries: tuple[tuple[int, float], ...]
    max_effort: float  # top of the continuum effort support
    grid_points: int


def convergence_report(
    cenv: ContinuumEnvironment,
    contest: Contest,
    n_list,
    x_grid=None,
    grid_points: int = 513,
) -> ConvergenceReport:
    """Measure sup |F_n - F| over x_grid for each atom count in n_list.

    The continuum CDF F is computed once on the whole grid: the strategy is
    tabulated as cumulative panel integrals and inverted for every grid
    point at once by safeguarded Newton steps inside its table panel. For
    each n the continuum CDF is then discretized, the finite equilibrium is
    solved, and its population effort CDF is compared pointwise against F.
    Solver failures are re-raised with the offending n attached. The default
    grid covers the effort support with a 5% overshoot and grid_points points.
    """
    ns = list(n_list)
    for n in ns:
        _check_count("n_list entry", n, 1, "1")
    ns = [int(n) for n in ns]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ArgumentError(f"n_list must be nonempty and increasing, got {n_list!r}")

    table = _StrategyTable(cenv, contest)
    if x_grid is None:
        _check_count("grid_points", grid_points, 2, "2")
        xs = np.linspace(0.0, 1.05 * table.max_effort, grid_points)
    else:
        xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
        if xs.size == 0:
            raise ArgumentError("x_grid must be nonempty")
    continuum_vals = table.effort_cdf(xs)

    gaps = []
    for n in ns:
        try:
            env = discretize(cenv, n)
            eqm = solve(env, contest)
        except ContestError as exc:
            raise NumericError(f"discretization n={n} failed: {exc}") from exc
        finite_vals = exante_cdf(eqm, xs)
        gaps.append(float(np.max(np.abs(finite_vals - continuum_vals))))
    return ConvergenceReport(
        entries=tuple(zip(ns, gaps)),
        max_effort=table.max_effort,
        grid_points=int(xs.size),
    )
