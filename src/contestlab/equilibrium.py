"""Symmetric equilibrium of the rank-order all-pay contest.

In the unique symmetric equilibrium, types mix over consecutive effort
intervals [b_{k-1}, b_k] with b_0 = 0, more efficient types choosing higher
intervals, and each type indifferent across its own interval. The boundary
points and per-type utilities come out of a two-line recursion: evaluating the
indifference condition at the lower end of type k's interval gives u_k, and at
the upper end gives b_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._quad import _elementwise
from .costs import ContestEnvironment, _audit, _scaled_cost, _scaled_inverse, _ScaledFamily
from .errors import ArgumentError, CapabilityError, NumericError
from .kernels import Contest, _check_opponents, _prize_curve, _prize_inverse


class _Solved(NamedTuple):
    """A solved equilibrium as arrays, for the CDFs and the draws: space is an environment's
    _space or a family of none (convergence_report's atoms), cumulative P_0..P_K."""

    contest: Contest
    space: _ScaledFamily | tuple
    probs: np.ndarray
    cumulative: np.ndarray
    boundaries: np.ndarray
    utilities: np.ndarray


@dataclass(frozen=True)
class Equilibrium:
    """Solved equilibrium: boundaries b_0..b_K and utilities u_1..u_K.

    Both are a row of _forward, as floats. b_0 = 0 and the boundaries are
    strictly increasing (solve checks); u_1 = 0 and the utilities are
    nondecreasing (more efficient types collect weakly larger information
    rents). Per-type mixing distributions are implicit: they are recovered
    pointwise through type_cdf rather than stored.
    """

    env: ContestEnvironment
    contest: Contest
    boundaries: tuple[float, ...]
    utilities: tuple[float, ...]

    @property
    def max_effort(self) -> float:
        return self.boundaries[-1]

    @cached_property
    def _solved(self) -> _Solved:
        parts = self.env.probs, self.env.cumulative, self.boundaries, self.utilities
        return _Solved(self.contest, self.env._space, *map(np.asarray, parts))


def _check_prize(contest: Contest) -> None:
    if contest.degenerate:
        raise ArgumentError("equilibrium needs a positive top prize")


def _check_solved(env: ContestEnvironment, contest: Contest, eqm) -> None:
    if not isinstance(eqm, Equilibrium):
        raise ArgumentError("expected a solved Equilibrium")
    if eqm.env != env or eqm.contest != contest:
        raise ArgumentError("equilibrium was solved for a different environment or contest")


def _forward(space, pis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundaries b_0..b_K, utilities and unclamped levels per row of pis = pi(P_0)..pi(P_K).

    u_k = pi(P_{k-1}) - c_k(b_{k-1}) and b_k = c_k^-1(max(level_k, 0)) with
    level_k = pi(P_k) - u_k, unchecked and elementwise, so rows are independent.
    space is an environment's _space: a type list (tabulated or mixed exponents)
    takes one step per type. A scaled family c_k = theta_k c is the linear-cost
    game in cost units, all rows in a few array operations: u_k = pi(P_{k-1}) -
    theta_k c(b_{k-1}), and c(b_k) = max(c(b_{k-1}) + (pi(P_k) - pi(P_{k-1})) /
    theta_k, 0) is the running sum S_k of those increments less min(0, S_1..S_k),
    the plain running sum where no level clamps.
    """
    if isinstance(space, _ScaledFamily):
        sums = np.cumsum(np.diff(pis, axis=1) / space.thetas, axis=1)
        sums -= np.minimum.accumulate(np.minimum(sums, 0.0), axis=1)
        costs = np.hstack((np.zeros((pis.shape[0], 1)), sums))
        utilities = pis[:, :-1] - space.thetas * costs[:, :-1]
        return _scaled_inverse(space.exponent, 1.0, costs), utilities, pis[:, 1:] - utilities
    boundaries = np.zeros((len(space) + 1, pis.shape[0]))  # type-major: a step writes a row
    utilities = np.empty_like(boundaries[1:])
    boundary = zero = boundaries[0]
    for k, (cf, lo, hi, u) in enumerate(zip(space, pis.T, pis.T[1:], utilities), start=1):
        np.subtract(lo, cf._evaluate(boundary), out=u)
        try:
            boundary = cf._inverse(np.maximum(hi - u, zero))
        except Exception as exc:  # noqa: BLE001 - annotate which type failed
            raise NumericError(f"cost inversion failed for type {k}: {exc}") from exc
        boundaries[k] = boundary
    return boundaries.T, utilities.T, pis[:, 1:] - utilities.T


def _solve_core(space, probs: np.ndarray, cumulative: np.ndarray, contest: Contest) -> _Solved:
    """solve on arrays: space is an environment's _space or a scaled family of no environment.

    Runs solve's checks: a positive top prize, validate_environment's audit,
    no cost level below -1e-12 * top prize and strictly increasing boundaries.
    """
    _check_prize(contest)
    report = _audit(space, probs, contest)
    if not report.passed:
        raise ArgumentError(f"invalid environment: {report.failures[0]}")
    pis = _prize_curve(contest, cumulative)  # pis[0] == 0
    boundaries, utilities, levels = (row[0] for row in _forward(space, pis[None]))
    negative = np.flatnonzero(levels < -1e-12 * contest.top_prize)
    if negative.size:
        k = int(negative[0])
        raise NumericError(f"negative cost level {float(levels[k])!r} while inverting type {k + 1}")
    stalled = np.flatnonzero(~(boundaries[1:] > boundaries[:-1]))  # a NaN boundary also fails
    if stalled.size:
        raise NumericError(f"boundary points failed to increase at type {int(stalled[0]) + 1}")
    return _Solved(contest, space, probs, cumulative, boundaries, utilities)


def solve(env: ContestEnvironment, contest: Contest) -> Equilibrium:
    """Compute boundary points and utilities by forward recursion (_forward, one row).

    Starting from b_0 = 0, each step reads off u_k from the prize at the
    segment's lower end and then inverts type k's cost at the upper end; a
    parametric env takes all steps as one running sum in cost units. The
    recursion and its checks are _solve_core's, which convergence_report
    runs on its atoms without building an environment.
    Float range: under a power-e base b_1 = (pi(P_1)/theta_1)^(1/e), and
    pi(P_1) is about P_1^N when only the top prizes are paid, so b_1 can
    underflow to 0 (N = 200, e = 0.1): that raises NumericError.
    """
    _check_opponents(env, contest)
    solved = _solve_core(env._space, np.asarray(env.probs), np.asarray(env.cumulative), contest)
    boundaries, utilities = solved.boundaries.tolist(), solved.utilities.tolist()
    return Equilibrium(env, contest, tuple(boundaries), tuple(utilities))


def _closed_form(env: ContestEnvironment, contest: Contest) -> tuple[np.ndarray, np.ndarray]:
    """b_0..b_K and the utilities of a parametric env: _forward's cost-unit row, unchecked."""
    if not env.parametric:
        msg = "closed forms need a parametric type-space (one base cost, decreasing scales)"
        raise CapabilityError(msg)
    _check_opponents(env, contest)
    _check_prize(contest)
    pis = _prize_curve(contest, np.asarray(env.cumulative))
    return tuple(part[0] for part in _forward(env.scaled, pis[None])[:2])


def utilities_closed_form(env: ContestEnvironment, contest: Contest) -> tuple[float, ...]:
    """Utilities u_k = pi(P_{k-1}) - theta_k c(b_{k-1}) in cost units c (boundaries_closed_form).

    By parts this is theta_k * sum_{j<k} pi(P_j) (1/theta_{j+1} - 1/theta_j).
    Valid for any parametric type-space regardless of the base cost: the game
    re-expressed in cost units is the linear-cost game, and utilities are
    measured in prize-value units, which the re-expression leaves untouched.
    """
    return tuple(_closed_form(env, contest)[1].tolist())


def boundaries_closed_form(env: ContestEnvironment, contest: Contest) -> tuple[float, ...]:
    """Boundaries b_1..b_K from cumulative prize increments over scales.

    The cost level at b_k is sum_{j<=k} (pi(P_j) - pi(P_{j-1})) / theta_j;
    applying the base inverse maps levels back to efforts. That running sum
    is _forward's for every scaled family, so solve returns these boundaries.
    """
    return tuple(_closed_form(env, contest)[0][1:].tolist())


def type_index(env: ContestEnvironment, t: float) -> int:
    """Segment index k(t) = max{k : P_{k-1} <= t} for t in [0, 1]."""
    if not np.isfinite(t) or t < 0.0 or t > 1.0:
        raise ArgumentError(f"t must lie in [0, 1], got {t!r}")
    k = int(np.searchsorted(np.asarray(env.cumulative), t, side="right"))
    return min(k, env.n_types)


def _by_type(space, seg: np.ndarray, values: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Cost (or cost inverse) of each value under its own type k = seg: one call with theta_k
    per point on a scaled family, else one per type present, put back in seg's order."""
    if isinstance(space, _ScaledFamily):
        scaled = _scaled_inverse if inverse else _scaled_cost
        return scaled(space.exponent, space.thetas[seg - 1], values)
    out = np.empty_like(values)
    for k in np.flatnonzero(np.bincount(seg)):
        mask, cf = seg == k, space[k - 1]
        out[mask] = cf._inverse(values[mask]) if inverse else cf._evaluate(values[mask])
    return out


def _mixing_cdf(solved: _Solved, seg: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F_k(x) at each point x under its own type k = seg, in one prize-curve inversion."""
    levels = _by_type(solved.space, seg, x) + solved.utilities[seg - 1]
    # cost levels beyond the top prize clamp to certainty of winning:
    # off-support and perturbed queries are legitimate probes here
    ts = _prize_inverse(solved.contest, np.clip(levels, 0.0, solved.contest.top_prize))
    return np.clip((ts - solved.cumulative[seg - 1]) / solved.probs[seg - 1], 0.0, 1.0)


def type_cdf(eqm: Equilibrium, k: int, x):
    """Mixing CDF of type k at effort x, clamped to [0, 1] off its interval.

    Queries outside [b_{k-1}, b_k] return the clamped value rather than an
    error: verification and quadrature probe off-support points on purpose.
    """
    eqm.env.type_at(k)  # rejects an out-of-range k
    b_lo, b_hi = eqm.boundaries[k - 1], eqm.boundaries[k]

    def core(arr: np.ndarray) -> np.ndarray:
        below = arr <= b_lo
        inside = ~(below | (arr >= b_hi))
        out = np.where(below, 0.0, 1.0)
        if np.any(inside):
            seg = np.full(np.count_nonzero(inside), k)
            out[inside] = _mixing_cdf(eqm._solved, seg, arr[inside])
        return out

    return _elementwise(core, x, -np.inf, np.inf, "effort")


def _exante(solved: _Solved, arr: np.ndarray) -> np.ndarray:
    """exante_cdf without argument checks, for an array of finite efforts."""
    boundaries = solved.boundaries
    out = np.where(arr <= 0.0, 0.0, 1.0)
    interior = (arr > 0.0) & (arr < boundaries[-1])
    if np.any(interior):
        xi = arr[interior]
        seg = np.clip(np.searchsorted(boundaries, xi, side="left"), 1, boundaries.size - 1)
        p_lo = solved.cumulative[seg - 1]
        out[interior] = p_lo + solved.probs[seg - 1] * _mixing_cdf(solved, seg, xi)
    return out


def exante_cdf(eqm: Equilibrium, x):
    """CDF of the effort of an arbitrary agent: P_{k-1} + p_k F_k(x) segmentwise.

    Each interior point is taken under the type whose interval holds it, and
    all points share one call of the inverse prize curve.
    """
    return _elementwise(lambda arr: _exante(eqm._solved, arr), x, -np.inf, np.inf, "effort")


def sample(eqm: Equilibrium, k: int, unit_draw):
    """Inverse-transform draw from type k's mixing distribution.

    Maps a uniform unit draw through the indifference condition: effort is the
    cost inverse of the expected prize at win probability P_{k-1} + p_k * u,
    net of the type's utility. Randomness policy stays with the caller, which
    supplies the unit draw.
    """
    eqm.env.type_at(k)  # rejects an out-of-range k
    return _elementwise(
        lambda arr: _draw(eqm._solved, np.full(arr.size, k), arr), unit_draw, 0.0, 1.0, "unit draw"
    )


def _draw(solved: _Solved, seg: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """sample without argument checks, for unit draws known to lie in [0, 1].

    Each draw is taken under its own type seg, so one call serves a batch that
    mixes types.
    """
    ts = solved.cumulative[seg - 1] + solved.probs[seg - 1] * arr
    levels = _prize_curve(solved.contest, ts) - solved.utilities[seg - 1]
    np.maximum(levels, 0.0, out=levels)
    return _by_type(solved.space, seg, levels, inverse=True)
