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

import numpy as np

from ._quad import _elementwise
from .costs import ContestEnvironment, validate_environment
from .errors import ArgumentError, CapabilityError, NumericError
from .kernels import Contest, _check_opponents, _prize_curve, _prize_inverse


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


def _check_pair(env: ContestEnvironment, contest: Contest) -> None:
    _check_opponents(env, contest)
    if contest.degenerate:
        raise ArgumentError("equilibrium needs a positive top prize")


def _check_solved(env: ContestEnvironment, contest: Contest, eqm) -> None:
    if not isinstance(eqm, Equilibrium):
        raise ArgumentError("expected a solved Equilibrium")
    if eqm.env != env or eqm.contest != contest:
        raise ArgumentError("equilibrium was solved for a different environment or contest")


def _forward(types, pis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundaries b_0..b_K, utilities and unclamped levels per row of pis = pi(P_0)..pi(P_K).

    u_k = pi(P_{k-1}) - c_k(b_{k-1}) and b_k = c_k^-1(max(level_k, 0)) with
    level_k = pi(P_k) - u_k, unchecked and elementwise, so rows are independent.
    """
    boundaries = np.zeros((len(types) + 1, pis.shape[0]))  # type-major: a step writes a row
    utilities = np.empty_like(boundaries[1:])
    boundary = zero = boundaries[0]
    for k, (cf, lo, hi, u) in enumerate(zip(types, pis.T, pis.T[1:], utilities), start=1):
        np.subtract(lo, cf._evaluate(boundary), out=u)
        try:
            boundary = cf._inverse(np.maximum(hi - u, zero))
        except Exception as exc:  # noqa: BLE001 - annotate which type failed
            raise NumericError(f"cost inversion failed for type {k}: {exc}") from exc
        boundaries[k] = boundary
    return boundaries.T, utilities.T, pis[:, 1:] - utilities.T


def solve(env: ContestEnvironment, contest: Contest) -> Equilibrium:
    """Compute boundary points and utilities by forward recursion (_forward, one row).

    Starting from b_0 = 0, each step reads off u_k from the prize at the
    segment's lower end and then inverts type k's cost at the upper end.
    Float range: under a power-e base b_1 = (pi(P_1)/theta_1)^(1/e), and
    pi(P_1) is about P_1^N when only the top prizes are paid, so b_1 can
    underflow to 0 (N = 200, e = 0.1): that raises NumericError.
    """
    _check_pair(env, contest)
    report = validate_environment(env, contest)
    if not report.passed:
        raise ArgumentError(f"invalid environment: {report.failures[0]}")

    pis = _prize_curve(contest, np.asarray(env.cumulative))  # pis[0] == 0
    boundaries, utilities, levels = (row[0].tolist() for row in _forward(env.types, pis[None]))
    for k, level in enumerate(levels, start=1):
        if level < -1e-12 * contest.top_prize:
            raise NumericError(f"negative cost level {level!r} while inverting type {k}")
    for k in range(1, len(boundaries)):
        if not boundaries[k] > boundaries[k - 1]:  # written so that a NaN boundary also fails
            raise NumericError(f"boundary points failed to increase at type {k}")
    return Equilibrium(env, contest, tuple(boundaries), tuple(utilities))


def _require_parametric(env: ContestEnvironment) -> None:
    if not env.parametric:
        raise CapabilityError(
            "closed forms need a parametric type-space (one base cost, decreasing scales)"
        )


def utilities_closed_form(env: ContestEnvironment, contest: Contest) -> tuple[float, ...]:
    """Utilities u_k = theta_k * sum_{j<k} pi(P_j) (1/theta_{j+1} - 1/theta_j).

    Valid for any parametric type-space regardless of the base cost: the game
    re-expressed in cost units is the linear-cost game, and utilities are
    measured in prize-value units, which the re-expression leaves untouched.
    """
    _require_parametric(env)
    _check_pair(env, contest)
    thetas = env.thetas
    pis = _prize_curve(contest, np.asarray(env.cumulative[1:])).tolist()
    utilities = []
    acc = 0.0
    for k in range(1, env.n_types + 1):
        utilities.append(thetas[k - 1] * acc)
        if k < env.n_types:
            acc += pis[k - 1] * (1.0 / thetas[k] - 1.0 / thetas[k - 1])
    return tuple(utilities)


def boundaries_closed_form(env: ContestEnvironment, contest: Contest) -> tuple[float, ...]:
    """Boundaries b_1..b_K from cumulative prize increments over scales.

    The cost level at b_k is sum_{j<=k} (pi(P_j) - pi(P_{j-1})) / theta_j;
    applying the base inverse maps levels back to efforts.
    """
    _require_parametric(env)
    _check_pair(env, contest)
    thetas = env.thetas
    exponent = env.base_exponent
    pis = _prize_curve(contest, np.asarray(env.cumulative)).tolist()
    level = 0.0
    out = []
    for k in range(1, env.n_types + 1):
        level += (pis[k] - pis[k - 1]) / thetas[k - 1]
        out.append(level ** (1.0 / exponent))
    return tuple(out)


def type_index(env: ContestEnvironment, t: float) -> int:
    """Segment index k(t) = max{k : P_{k-1} <= t} for t in [0, 1]."""
    if not np.isfinite(t) or t < 0.0 or t > 1.0:
        raise ArgumentError(f"t must lie in [0, 1], got {t!r}")
    k = int(np.searchsorted(np.asarray(env.cumulative), t, side="right"))
    return min(k, env.n_types)


def _by_type(seg: np.ndarray, values: np.ndarray, f) -> np.ndarray:
    """f(k, values[seg == k]) for each type k in seg, put back in seg's order."""
    out = np.empty_like(values)
    for k in np.flatnonzero(np.bincount(seg)):
        mask = seg == k
        out[mask] = f(k, values[mask])
    return out


def _mixing_cdf(eqm: Equilibrium, seg: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F_k(x) at each point x under its own type k = seg, in one prize-curve inversion."""
    env = eqm.env
    levels = _by_type(
        seg, x, lambda k, part: env.types[k - 1]._evaluate(part) + eqm.utilities[k - 1]
    )
    # cost levels beyond the top prize clamp to certainty of winning:
    # off-support and perturbed queries are legitimate probes here
    ts = _prize_inverse(eqm.contest, np.clip(levels, 0.0, eqm.contest.top_prize))
    p_lo = np.asarray(env.cumulative)[seg - 1]
    return np.clip((ts - p_lo) / np.asarray(env.probs)[seg - 1], 0.0, 1.0)


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
            out[inside] = _mixing_cdf(eqm, np.full(np.count_nonzero(inside), k), arr[inside])
        return out

    return _elementwise(core, x, -np.inf, np.inf, "effort")


def exante_cdf(eqm: Equilibrium, x):
    """CDF of the effort of an arbitrary agent: P_{k-1} + p_k F_k(x) segmentwise.

    Each interior point is taken under the type whose interval holds it, and
    all points share one call of the inverse prize curve.
    """
    env = eqm.env
    boundaries = np.asarray(eqm.boundaries)

    def core(arr: np.ndarray) -> np.ndarray:
        out = np.where(arr <= 0.0, 0.0, 1.0)
        interior = (arr > 0.0) & (arr < boundaries[-1])
        if np.any(interior):
            xi = arr[interior]
            seg = np.clip(np.searchsorted(boundaries, xi, side="left"), 1, env.n_types)
            p_lo = np.asarray(env.cumulative)[seg - 1]
            out[interior] = p_lo + np.asarray(env.probs)[seg - 1] * _mixing_cdf(eqm, seg, xi)
        return out

    return _elementwise(core, x, -np.inf, np.inf, "effort")


def sample(eqm: Equilibrium, k: int, unit_draw):
    """Inverse-transform draw from type k's mixing distribution.

    Maps a uniform unit draw through the indifference condition: effort is the
    cost inverse of the expected prize at win probability P_{k-1} + p_k * u,
    net of the type's utility. Randomness policy stays with the caller, which
    supplies the unit draw.
    """
    eqm.env.type_at(k)  # rejects an out-of-range k
    return _elementwise(
        lambda arr: _draw(eqm, np.full(arr.size, k), arr), unit_draw, 0.0, 1.0, "unit draw"
    )


def _draw(eqm: Equilibrium, seg: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """sample without argument checks, for unit draws known to lie in [0, 1].

    Each draw is taken under its own type seg, so one call serves a batch that
    mixes types.
    """
    env = eqm.env
    ts = np.asarray(env.cumulative)[seg - 1] + np.asarray(env.probs)[seg - 1] * arr
    levels = _prize_curve(eqm.contest, ts) - np.asarray(eqm.utilities)[seg - 1]
    np.maximum(levels, 0.0, out=levels)
    return _by_type(seg, levels, lambda k, part: env.types[k - 1]._inverse(part))
