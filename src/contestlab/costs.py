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
from typing import NamedTuple

import numpy as np

from ._quad import _Pchip, _elementwise
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
    "tabulated" (the monotone cubic _Pchip through sample points, linear
    extrapolation at the last slope). theta and exponent must be positive;
    tabulated tables must start at (0, 0), be strictly increasing and end
    on a positive slope, and their theta and exponent stay at 1, as a
    linear cost's exponent does: the table alone sets the cost.
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
            xs, cs = zip(*pts)
            if xs[0] != 0.0 or cs[0] != 0.0:
                raise ArgumentError("tabulated costs must start at (0, 0)")
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ArgumentError("tabulated efforts must be strictly increasing")
            if any(b <= a for a, b in zip(cs, cs[1:])):
                raise ArgumentError("tabulated costs must be strictly increasing")
            object.__setattr__(self, "points", pts)
            if self.theta != 1.0 or self.exponent != 1.0:
                raise ArgumentError(
                    "tabulated costs have theta 1 and exponent 1, "
                    f"got theta={self.theta!r}, exponent={self.exponent!r}"
                )
            if self._interp.d[-1] <= 0.0:
                raise ArgumentError("tabulated cost must have positive slope at its last point")
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
    def _interp(self) -> _Pchip:
        return _Pchip(*zip(*self.points))

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
        xs, cs = np.array(self.points).T
        slopes = np.diff(cs) / np.diff(xs)
        d2 = np.diff(slopes)
        if np.all(d2 <= 0):
            return -1 if np.any(d2 < 0) else 0
        if np.all(d2 >= 0):
            return 1
        return 2

    def evaluate(self, x):
        """Cost of effort x >= 0. Accepts scalars or arrays."""
        return _elementwise(self._evaluate, x, 0.0, np.inf, "effort")

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        """evaluate without argument checks, for an array of efforts known valid."""
        if self.kind == TABULATED:
            return self._interp(arr)
        return _scaled_cost(self.effective_exponent, self.theta, arr)

    def inverse(self, y):
        """Effort whose cost is y >= 0; closed form except for tables.

        Tabulated costs solve the table's cubic by Newton's method from a
        chord of a fine grid (_Pchip.inverse); beyond the last point that
        chord is the linear extrapolation, inverted in closed form. The
        result satisfies |c(g(y)) - y| <= 1e-12 * max(1, y) wherever double
        precision in the effort resolves the cost that finely, that is while
        c'(x) * x stays below about 1e3 * max(1, y).
        """
        return _elementwise(self._inverse, y, 0.0, np.inf, "cost level")

    def _inverse(self, arr: np.ndarray) -> np.ndarray:
        """inverse without argument checks, for an array of cost levels known valid."""
        if self.kind == TABULATED:
            return self._interp.inverse(arr)
        return _scaled_inverse(self.effective_exponent, self.theta, arr)

    def slope(self, x):
        """Marginal cost at effort x >= 0."""
        return _elementwise(self._slope, x, 0.0, np.inf, "effort")

    def _slope(self, arr: np.ndarray) -> np.ndarray:
        if self.kind == LINEAR:
            return np.full_like(arr, self.theta)
        if self.kind == POWER:
            return self.theta * self.exponent * np.power(arr, self.exponent - 1.0)
        return self._interp.slope(arr)

    def __call__(self, x):
        return self.evaluate(x)


def _scaled_cost(exponent: float, theta, x: np.ndarray) -> np.ndarray:
    """theta * x**exponent elementwise; theta is one scale or one per point."""
    return theta * x if exponent == 1.0 else theta * np.power(x, exponent)


def _scaled_inverse(exponent: float, theta, level: np.ndarray) -> np.ndarray:
    """(level / theta)**(1/exponent) elementwise, the inverse of _scaled_cost."""
    return level / theta if exponent == 1.0 else np.power(level / theta, 1.0 / exponent)


class _ScaledFamily(NamedTuple):
    """Types c_k(x) = theta_k * x**exponent on one base cost, the scales in list order."""

    exponent: float
    thetas: np.ndarray

    def ordering_failure(self) -> str | None:
        """validate_environment's message for the first scale that fails to decrease, or None."""
        bad = np.flatnonzero(self.thetas[:-1] <= self.thetas[1:])
        if not bad.size:
            return None
        i = int(bad[0])
        a, b = self.thetas[i : i + 2].tolist()
        return f"ordering violated: theta[{i + 1}]={a!r} must exceed theta[{i + 2}]={b!r}"


def _cumulative(probs) -> np.ndarray:
    """P_0 = 0, P_1, ..., P_K as running sums of probs; within 1e-9 of 1, P_K is
    snapped to 1 and no partial sum overshoots it."""
    cumulative = np.concatenate(([0.0], np.cumsum(probs)))
    if abs(cumulative[-1] - 1.0) <= 1e-9:
        np.minimum(cumulative, 1.0, out=cumulative)
        cumulative[-1] = 1.0
    return cumulative


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
    scaled is the list's _ScaledFamily view when no type is tabulated and all
    share one exponent, else None; it is taken once, here.
    """

    n_others: int
    types: tuple[CostFunction, ...]
    probs: tuple[float, ...]
    cumulative: tuple[float, ...] = field(init=False, compare=False)
    scaled: _ScaledFamily | None = field(init=False, compare=False, repr=False)

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
        exponents, scaled = {cf.effective_exponent for cf in types}, None
        if len(exponents) == 1 and all(cf.kind != TABULATED for cf in types):
            thetas = np.array([cf.theta for cf in types])
            thetas.flags.writeable = False
            scaled = _ScaledFamily(exponents.pop(), thetas)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "cumulative", tuple(_cumulative(probs).tolist()))
        object.__setattr__(self, "scaled", scaled)

    @property
    def n_types(self) -> int:
        return len(self.types)

    @property
    def parametric(self) -> bool:
        """True when all types share one base cost and differ only in scale, decreasing."""
        return self.scaled is not None and self.scaled.ordering_failure() is None

    @property
    def linear(self) -> bool:
        return self.parametric and self.scaled.exponent == 1.0

    @property
    def thetas(self) -> tuple[float, ...]:
        if not self.parametric:
            raise ArgumentError("thetas are defined for parametric environments only")
        return tuple(self.scaled.thetas.tolist())

    @property
    def base_exponent(self) -> float:
        if not self.parametric:
            raise ArgumentError("base exponent is defined for parametric environments only")
        return self.scaled.exponent

    @property
    def _space(self) -> _ScaledFamily | tuple[CostFunction, ...]:
        """What the equilibrium routines read: the scaled view if there is one, else the types."""
        return self.types if self.scaled is None else self.scaled

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
    256-point geometric effort grid using exact marginal costs; the grid
    tops out at the largest effort the contest under study could demand
    (inverse of the least efficient cost at the top prize), or 10.0 when no
    contest is in scope.
    """
    return _audit(env._space, env.probs, contest, x_max)


def _audit(space, probs, contest=None, x_max: float | None = None) -> ValidationReport:
    """validate_environment of an environment's _space and probs, or of a family of none."""
    failures: list[str] = []

    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-12:
        failures.append(f"probs must sum to 1, got {total!r}")

    scaled = isinstance(space, _ScaledFamily)
    analytic, grid = scaled or len(space) == 1, None
    if scaled and (failure := space.ordering_failure()) is not None:
        failures.append(failure)
    elif not analytic:
        if x_max is None and contest is not None:
            x_max = float(space[0].inverse(contest.top_prize))
        if x_max is None or x_max <= 0.0:
            x_max = _DEFAULT_X_MAX
        xs = np.geomspace(x_max * 1e-6, x_max, _ORDERING_GRID_POINTS)
        grid = (float(xs[0]), float(xs[-1]), _ORDERING_GRID_POINTS)
        slopes = np.array([cf._slope(xs) for cf in space])
        bad = np.argwhere(slopes[:-1] <= slopes[1:])  # the first pair, at its first effort
        if bad.size:
            i, x_bad = int(bad[0, 0]) + 1, float(xs[bad[0, 1]])
            failures.append(f"ordering violated between types {i} and {i + 1} at effort {x_bad!r}")

    return ValidationReport(
        passed=not failures,
        failures=tuple(failures),
        ordering_method="analytic" if analytic else "grid",
        grid=grid,
    )
