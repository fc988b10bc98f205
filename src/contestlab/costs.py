"""Cost functions and the contest-environment container.

A type is a strictly increasing, unbounded cost of effort with zero cost at
zero effort. Environments hold an ordered list of K such types, least
efficient first (type 1 has the steepest cost), together with a probability
vector over types. The ordering requirement is on derivatives: every less
efficient type must have a strictly larger marginal cost at every positive
effort level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator

from ._quad import _monotone_inverse
from .errors import ArgumentError

LINEAR = "linear"
POWER = "power"
TABULATED = "tabulated"

_ORDERING_GRID_POINTS = 256
_DEFAULT_X_MAX = 10.0


@dataclass(frozen=True)
class CostFunction:
    """One member of the type-space: evaluation, inverse, slope, shape flags.

    kind is one of "linear" (theta * x), "power" (theta * x**exponent), or
    "tabulated" (monotone piecewise-cubic through sample points, linear
    extrapolation at the last slope). theta and exponent must be positive;
    tabulated tables must start at (0, 0) and be strictly increasing.
    """

    kind: str
    theta: float = 1.0
    exponent: float = 1.0
    points: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (LINEAR, POWER, TABULATED):
            raise ArgumentError(f"unknown cost kind {self.kind!r}")
        if self.kind == TABULATED:
            if self.points is None or len(self.points) < 2:
                raise ArgumentError("tabulated costs need at least two sample points")
            pts = tuple((float(x), float(c)) for x, c in self.points)
            xs = [p[0] for p in pts]
            cs = [p[1] for p in pts]
            if xs[0] != 0.0 or cs[0] != 0.0:
                raise ArgumentError("tabulated costs must start at (0, 0)")
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ArgumentError("tabulated efforts must be strictly increasing")
            if any(b <= a for a, b in zip(cs, cs[1:])):
                raise ArgumentError("tabulated costs must be strictly increasing")
            object.__setattr__(self, "points", pts)
        else:
            if not (math.isfinite(self.theta) and self.theta > 0.0):
                raise ArgumentError(f"theta must be positive, got {self.theta!r}")
            if not (math.isfinite(self.exponent) and self.exponent > 0.0):
                raise ArgumentError(f"exponent must be positive, got {self.exponent!r}")
            if self.kind == LINEAR and self.exponent != 1.0:
                raise ArgumentError("linear costs have exponent 1")

    @classmethod
    def linear(cls, theta: float) -> "CostFunction":
        return cls(LINEAR, theta=float(theta))

    @classmethod
    def power(cls, theta: float, exponent: float) -> "CostFunction":
        return cls(POWER, theta=float(theta), exponent=float(exponent))

    @classmethod
    def tabulated(cls, points) -> "CostFunction":
        return cls(TABULATED, points=tuple((float(x), float(c)) for x, c in points))

    @cached_property
    def _interp(self) -> PchipInterpolator:
        xs = np.array([p[0] for p in self.points])
        cs = np.array([p[1] for p in self.points])
        return PchipInterpolator(xs, cs, extrapolate=False)

    @cached_property
    def _last_slope(self) -> float:
        slope = float(self._interp.derivative()(self.points[-1][0]))
        if slope <= 0.0:
            raise ArgumentError("tabulated cost must have positive slope at its last point")
        return slope

    @property
    def effective_exponent(self) -> float:
        """Curvature exponent with linear treated as power 1."""
        return 1.0 if self.kind == LINEAR else self.exponent

    @property
    def concave(self) -> bool:
        if self.kind == TABULATED:
            return self._table_shape() <= 0
        return self.effective_exponent <= 1.0

    @property
    def convex(self) -> bool:
        if self.kind == TABULATED:
            return self._table_shape() >= 0
        return self.effective_exponent >= 1.0

    def _table_shape(self) -> int:
        """Sign of curvature from second differences: -1, 0, or +1; 2 if mixed."""
        xs = np.array([p[0] for p in self.points])
        cs = np.array([p[1] for p in self.points])
        slopes = np.diff(cs) / np.diff(xs)
        d2 = np.diff(slopes)
        if np.all(d2 <= 0):
            return -1 if np.any(d2 < 0) else 0
        if np.all(d2 >= 0):
            return 1
        return 2

    def evaluate(self, x):
        """Cost of effort x >= 0. Accepts scalars or arrays."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(~np.isfinite(arr)) or np.any(arr < 0.0):
            raise ArgumentError(f"effort must be nonnegative, got {x!r}")
        out = self._evaluate(arr)
        return float(out[0]) if scalar else out

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        """evaluate without argument checks, for an array of efforts known valid."""
        if self.kind == LINEAR:
            return self.theta * arr
        if self.kind == POWER:
            return self.theta * np.power(arr, self.exponent)
        x_last, c_last = self.points[-1]
        return np.where(
            arr <= x_last,
            self._interp(np.minimum(arr, x_last)),
            c_last + self._last_slope * (arr - x_last),
        )

    def inverse(self, y):
        """Effort whose cost is y >= 0; closed form except for tables.

        Tabulated costs grow the bracket along the last slope until the target
        is covered, then bisect; the result satisfies |c(g(y)) - y| <= 1e-12
        relative to the target scale.
        """
        arr = np.asarray(y, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(~np.isfinite(arr)) or np.any(arr < 0.0):
            raise ArgumentError(f"cost level must be nonnegative, got {y!r}")
        out = self._inverse(arr)
        return float(out[0]) if scalar else out

    def _inverse(self, arr: np.ndarray) -> np.ndarray:
        """inverse without argument checks, for an array of cost levels known valid."""
        if self.kind == LINEAR:
            return arr / self.theta
        if self.kind == POWER:
            return np.power(arr / self.theta, 1.0 / self.exponent)
        return self._invert_table(arr)

    def _invert_table(self, y: np.ndarray) -> np.ndarray:
        x_last, _ = self.points[-1]
        hi = np.full_like(y, x_last)
        while True:
            cost = self._evaluate(hi)
            short = cost < y
            if not short.any():
                break
            hi = np.where(short, hi + ((y - cost) / self._last_slope + 1e-12), hi)
        out = _monotone_inverse(self._evaluate, y, 0.0, hi, steps=80, tol=1e-15)
        out[y == 0.0] = 0.0
        return out

    def slope(self, x):
        """Marginal cost at effort x >= 0."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(~np.isfinite(arr)) or np.any(arr < 0.0):
            raise ArgumentError(f"effort must be nonnegative, got {x!r}")
        if self.kind == LINEAR:
            out = np.full_like(arr, self.theta)
        elif self.kind == POWER:
            out = self.theta * self.exponent * np.power(arr, self.exponent - 1.0)
        else:
            x_last, _ = self.points[-1]
            deriv = self._interp.derivative()
            out = np.where(arr <= x_last, deriv(np.minimum(arr, x_last)), self._last_slope)
        return float(out[0]) if scalar else out

    def __call__(self, x):
        return self.evaluate(x)


def cost_eval(cf: CostFunction, x):
    """Cost of effort x under cf."""
    return cf.evaluate(x)


def cost_inverse(cf: CostFunction, y):
    """Effort whose cost under cf is y."""
    return cf.inverse(y)


@dataclass(frozen=True)
class ContestEnvironment:
    """N opponents plus an ordered type list with its probability vector.

    Types are listed least efficient first. Construction performs structural
    checks only (shapes, positive probabilities); the full ordered-type-space
    audit, including the derivative ordering, lives in validate_environment so
    that malformed inputs can be reported rather than rejected outright.
    """

    n_others: int
    types: tuple[CostFunction, ...]
    probs: tuple[float, ...]
    cumulative: tuple[float, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n_others, (int, np.integer)) or self.n_others < 1:
            raise ArgumentError(f"n_others must be a positive integer, got {self.n_others!r}")
        types = tuple(self.types)
        probs = tuple(float(p) for p in self.probs)
        if len(types) < 1:
            raise ArgumentError("an environment needs at least one type")
        if len(types) != len(probs):
            raise ArgumentError("types and probs must have the same length")
        if any(not math.isfinite(p) or p <= 0.0 for p in probs):
            raise ArgumentError(f"type probabilities must be positive, got {probs}")
        running = 0.0
        cumulative = [0.0]
        for p in probs:
            running = math.fsum((running, p))
            cumulative.append(running)
        if abs(cumulative[-1] - 1.0) <= 1e-9:
            # snap roundoff so P_K is exactly 1 and no partial sum overshoots
            cumulative = [min(c, 1.0) for c in cumulative]
            cumulative[-1] = 1.0
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "cumulative", tuple(cumulative))

    @property
    def n_types(self) -> int:
        return len(self.types)

    @property
    def parametric(self) -> bool:
        """True when all types share one base cost and differ only in scale."""
        if any(cf.kind == TABULATED for cf in self.types):
            return False
        exponents = {cf.effective_exponent for cf in self.types}
        if len(exponents) != 1:
            return False
        thetas = [cf.theta for cf in self.types]
        return all(a > b for a, b in zip(thetas, thetas[1:]))

    @property
    def linear(self) -> bool:
        return self.parametric and self.types[0].effective_exponent == 1.0

    @property
    def thetas(self) -> tuple[float, ...]:
        if not self.parametric:
            raise ArgumentError("thetas are defined for parametric environments only")
        return tuple(cf.theta for cf in self.types)

    @property
    def base_exponent(self) -> float:
        if not self.parametric:
            raise ArgumentError("base exponent is defined for parametric environments only")
        return self.types[0].effective_exponent

    def type_at(self, k: int) -> CostFunction:
        """Type by 1-based index, least efficient first."""
        if not isinstance(k, (int, np.integer)) or k < 1 or k > self.n_types:
            raise ArgumentError(f"type index must lie in [1, {self.n_types}], got {k!r}")
        return self.types[k - 1]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the ordered-type-space audit.

    failures lists every violated requirement, first violation first. When
    the derivative ordering had to be checked numerically, grid records the
    geometric grid (low, high, points) so the coverage can be judged;
    analytically checkable families leave it as None.
    """

    passed: bool
    failures: tuple[str, ...]
    ordering_method: str
    grid: tuple[float, float, int] | None = None


def validate_environment(env: ContestEnvironment, contest=None, x_max: float | None = None) -> ValidationReport:
    """Audit the probability simplex and the derivative ordering of env.

    Linear or common-exponent power families are checked analytically via
    their scale parameters. Mixed or tabulated families are checked on a
    256-point geometric effort grid using central-difference slopes; the grid
    tops out at the largest effort the contest under study could demand
    (inverse of the least efficient cost at the top prize), or 10.0 when no
    contest is in scope.
    """
    failures: list[str] = []

    total = math.fsum(env.probs)
    if abs(total - 1.0) > 1e-12:
        failures.append(f"probs must sum to 1, got {total!r}")

    kinds = {cf.kind for cf in env.types}
    exponents = {cf.effective_exponent for cf in env.types}
    analytic = TABULATED not in kinds and len(exponents) == 1

    grid = None
    if env.n_types > 1:
        if analytic:
            method = "analytic"
            thetas = [cf.theta for cf in env.types]
            for i, (a, b) in enumerate(zip(thetas, thetas[1:]), start=1):
                if a <= b:
                    failures.append(
                        f"ordering violated: theta[{i}]={a!r} must exceed theta[{i + 1}]={b!r}"
                    )
                    break
        else:
            method = "grid"
            if x_max is None:
                if contest is not None:
                    x_max = float(env.types[0].inverse(contest.top_prize))
                else:
                    x_max = _DEFAULT_X_MAX
            if x_max <= 0.0:
                x_max = _DEFAULT_X_MAX
            xs = np.geomspace(x_max * 1e-6, x_max, _ORDERING_GRID_POINTS)
            grid = (float(xs[0]), float(xs[-1]), _ORDERING_GRID_POINTS)
            h = 1e-6 * xs
            slopes = np.array(
                [(cf.evaluate(xs + h) - cf.evaluate(xs - h)) / (2.0 * h) for cf in env.types]
            )
            for i in range(env.n_types - 1):
                bad = np.nonzero(slopes[i] <= slopes[i + 1])[0]
                if bad.size:
                    x_bad = float(xs[bad[0]])
                    failures.append(
                        f"ordering violated between types {i + 1} and {i + 2} at effort {x_bad!r}"
                    )
                    break
    else:
        method = "analytic"

    return ValidationReport(
        passed=not failures,
        failures=tuple(failures),
        ordering_method=method,
        grid=grid,
    )
