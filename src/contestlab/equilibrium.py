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

from .costs import ContestEnvironment, validate_environment
from .errors import ArgumentError, CapabilityError, NumericError
from .kernels import Contest, prize_expectation, prize_expectation_inverse

# Absolute agreement (in prize-value units) required between the iterative
# solver and any closed form that claims to reproduce it.
EQM_TOL = 1e-10


@dataclass(frozen=True)
class Equilibrium:
    """Solved equilibrium: boundaries b_0..b_K and utilities u_1..u_K.

    b_0 = 0 and the boundaries are strictly increasing; u_1 = 0 and the
    utilities are nondecreasing (more efficient types collect weakly larger
    information rents). Per-type mixing distributions are implicit: they are
    recovered pointwise through type_cdf rather than stored.
    """

    env: ContestEnvironment
    contest: Contest
    boundaries: tuple[float, ...]
    utilities: tuple[float, ...]

    @property
    def max_effort(self) -> float:
        return self.boundaries[-1]


def _check_pair(env: ContestEnvironment, contest: Contest) -> None:
    if env.n_others != contest.n_opponents:
        raise ArgumentError("environment and contest disagree on the number of opponents")
    if contest.degenerate:
        raise ArgumentError("equilibrium needs a positive top prize")


def solve(env: ContestEnvironment, contest: Contest) -> Equilibrium:
    """Compute boundary points and utilities by forward recursion.

    Starting from b_0 = 0, each step reads off u_k from the prize at the
    segment's lower end and then inverts type k's cost at the upper end.
    """
    _check_pair(env, contest)
    report = validate_environment(env, contest)
    if not report.passed:
        raise ArgumentError(f"invalid environment: {report.failures[0]}")

    pis = prize_expectation(contest, np.asarray(env.cumulative)).tolist()  # pis[0] == 0
    boundaries = [0.0]
    utilities = []
    for k in range(1, env.n_types + 1):
        cf = env.types[k - 1]
        u_k = pis[k - 1] - cf.evaluate(boundaries[-1])
        level = pis[k] - u_k
        if level < 0.0:
            if level < -1e-12 * contest.top_prize:
                raise NumericError(f"negative cost level {level!r} while inverting type {k}")
            level = 0.0
        try:
            b_k = float(cf.inverse(level))
        except Exception as exc:  # noqa: BLE001 - annotate which type failed
            raise NumericError(f"cost inversion failed for type {k}: {exc}") from exc
        boundaries.append(b_k)
        utilities.append(u_k)

    for k in range(1, len(boundaries)):
        if boundaries[k] <= boundaries[k - 1]:
            raise NumericError(f"boundary points failed to increase at type {k}")

    return Equilibrium(
        env=env,
        contest=contest,
        boundaries=tuple(boundaries),
        utilities=tuple(utilities),
    )


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
    pis = prize_expectation(contest, np.asarray(env.cumulative[1:])).tolist()
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
    pis = prize_expectation(contest, np.asarray(env.cumulative)).tolist()
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


def _mixing_cdf(eqm: Equilibrium, seg: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F_k(x) at each point x under its own type k = seg, in one prize-curve inversion."""
    env = eqm.env
    levels = np.empty_like(x)
    for k in np.unique(seg):
        mask = seg == k
        levels[mask] = env.types[k - 1].evaluate(x[mask]) + eqm.utilities[k - 1]
    # cost levels beyond the top prize clamp to certainty of winning:
    # off-support and perturbed queries are legitimate probes here
    ts = prize_expectation_inverse(eqm.contest, np.clip(levels, 0.0, eqm.contest.top_prize))
    p_lo = np.asarray(env.cumulative)[seg - 1]
    return np.clip((ts - p_lo) / np.asarray(env.probs)[seg - 1], 0.0, 1.0)


def type_cdf(eqm: Equilibrium, k: int, x):
    """Mixing CDF of type k at effort x, clamped to [0, 1] off its interval.

    Queries outside [b_{k-1}, b_k] return the clamped value rather than an
    error: verification and quadrature probe off-support points on purpose.
    """
    eqm.env.type_at(k)  # rejects an out-of-range k
    b_lo, b_hi = eqm.boundaries[k - 1], eqm.boundaries[k]

    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    below = arr <= b_lo
    inside = ~(below | (arr >= b_hi))
    out = np.where(below, 0.0, 1.0)
    if np.any(inside):
        out[inside] = _mixing_cdf(eqm, np.full(np.count_nonzero(inside), k), arr[inside])
    return float(out[0]) if scalar else out


def exante_cdf(eqm: Equilibrium, x):
    """CDF of the effort of an arbitrary agent: P_{k-1} + p_k F_k(x) segmentwise.

    Each interior point is taken under the type whose interval holds it, and
    all points share one call of the inverse prize curve.
    """
    env = eqm.env
    boundaries = np.asarray(eqm.boundaries)

    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.where(arr <= 0.0, 0.0, 1.0)
    interior = (arr > 0.0) & (arr < boundaries[-1])
    if np.any(interior):
        xi = arr[interior]
        seg = np.clip(np.searchsorted(boundaries, xi, side="left"), 1, env.n_types)
        p_lo = np.asarray(env.cumulative)[seg - 1]
        out[interior] = p_lo + np.asarray(env.probs)[seg - 1] * _mixing_cdf(eqm, seg, xi)
    return float(out[0]) if scalar else out


def sample(eqm: Equilibrium, k: int, unit_draw):
    """Inverse-transform draw from type k's mixing distribution.

    Maps a uniform unit draw through the indifference condition: effort is the
    cost inverse of the expected prize at win probability P_{k-1} + p_k * u,
    net of the type's utility. Randomness policy stays with the caller, which
    supplies the unit draw.
    """
    cf = eqm.env.type_at(k)
    p_lo = eqm.env.cumulative[k - 1]
    p_k = eqm.env.probs[k - 1]
    u_k = eqm.utilities[k - 1]

    arr = np.asarray(unit_draw, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ArgumentError(f"unit draw must lie in [0, 1], got {unit_draw!r}")
    levels = np.atleast_1d(prize_expectation(eqm.contest, p_lo + p_k * arr)) - u_k
    out = np.atleast_1d(cf.inverse(np.maximum(levels, 0.0)))
    return float(out[0]) if scalar else out
