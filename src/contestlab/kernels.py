"""Binomial order-statistic kernels and the expected-prize curve.

Everything in this module is a pure function of small integers, a prize
vector, and a win probability t in [0, 1]. An agent who beats each of N
opponents independently with probability t beats exactly m of them with
probability C(N, m) t^m (1-t)^(N-m); weighting the prize ladder by these
probabilities gives the expected prize as a function of t, which is the
object every other module is built on.

All t-arguments accept either a scalar or a numpy array and return the
matching shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quad import _monotone_inverse
from .errors import ArgumentError, DomainError

# Absolute tolerance on t for the bisection inverse of the prize curve.
ROOT_TOL = 1e-12

# Largest pmf block (elements) that prize-curve evaluation holds at once;
# 2^18 was faster than 2^20 and holds about a quarter of the memory.
_BLOCK_ELEMENTS = 1 << 18

_AT_MOST = "at_most"
_AT_LEAST = "at_least"


@dataclass(frozen=True)
class Contest:
    """A nondecreasing prize ladder v_0 <= v_1 <= ... <= v_N.

    Prizes are normalized so that v_0 = 0 on construction (subtracting a
    constant from every prize changes no incentives). The all-zero ladder is
    representable (the design module's vertex enumeration includes it) but is
    flagged degenerate and rejected by the equilibrium routines.
    """

    prizes: tuple[float, ...]

    def __post_init__(self) -> None:
        prizes = tuple(float(v) for v in self.prizes)
        if len(prizes) < 2:
            raise ArgumentError("a contest needs at least two ranks (N >= 1)")
        if any(not math.isfinite(v) for v in prizes):
            raise ArgumentError("prizes must be finite")
        if any(hi < lo for lo, hi in zip(prizes, prizes[1:])):
            raise ArgumentError(f"prizes must be nondecreasing, got {prizes}")
        if prizes[0] != 0.0:
            prizes = tuple(v - prizes[0] for v in prizes)
        object.__setattr__(self, "prizes", prizes)

    @property
    def n_opponents(self) -> int:
        return len(self.prizes) - 1

    @property
    def top_prize(self) -> float:
        return self.prizes[-1]

    @property
    def total_budget(self) -> float:
        return float(math.fsum(self.prizes))

    @property
    def degenerate(self) -> bool:
        return self.prizes[-1] == 0.0


def _check_index(n: int, m: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ArgumentError(f"n must be a positive integer, got {n!r}")
    if not isinstance(m, (int, np.integer)) or m < 0 or m > n:
        raise ArgumentError(f"m must lie in [0, {n}], got {m!r}")


def _as_prob(t):
    """Validate t in [0, 1]; return (array view, was_scalar)."""
    arr = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ArgumentError(f"t must lie in [0, 1], got {t!r}")
    return arr, arr.ndim == 0


def _ret(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


def binom_pmf(n: int, m: int, t):
    """P[Bin(n, t) = m], evaluated stably via log-space coefficients.

    The combination coefficient is assembled from lgamma so the formula stays
    accurate through n = 64 and beyond; endpoints t = 0 and t = 1 are handled
    exactly.
    """
    _check_index(n, m)
    arr, scalar = _as_prob(t)
    out = _pmf_rows(n, np.atleast_1d(arr), rows=[m])[0]
    return _ret(out[0] if scalar else out, scalar)


def binom_tail(n: int, m: int, t, side: str):
    """P[Bin(n, t) <= m] or P[Bin(n, t) >= m], by summing pmf rows."""
    _check_index(n, m)
    if side == _AT_MOST:
        rows = np.arange(0, m + 1)
    elif side == _AT_LEAST:
        rows = np.arange(m, n + 1)
    else:
        raise ArgumentError(f"side must be 'at_most' or 'at_least', got {side!r}")
    arr, scalar = _as_prob(t)
    total = _pmf_rows(n, np.atleast_1d(arr), rows=rows).sum(axis=0)
    return _ret(total[0] if scalar else total, scalar)


@lru_cache(maxsize=256)
def _log_combs(n: int) -> np.ndarray:
    lg_n = math.lgamma(n + 1)
    return np.array(
        [lg_n - math.lgamma(m + 1) - math.lgamma(n - m + 1) for m in range(n + 1)]
    )


def _pmf_rows(n: int, arr: np.ndarray, rows=None) -> np.ndarray:
    """The binomial kernel: row i holds P[Bin(n, t) = rows[i]] over the t-vector.

    rows defaults to all of 0..n. Every pmf and tail in the package is a row
    or a sum of rows of this matrix.
    """
    ms = np.arange(n + 1) if rows is None else np.asarray(rows)
    out = np.zeros((ms.size, arr.size))
    interior = (arr > 0.0) & (arr < 1.0)
    ti = arr[interior]
    if ti.size:
        out[:, interior] = np.exp(
            _log_combs(n)[ms][:, None]
            + ms[:, None] * np.log(ti)[None, :]
            + (n - ms)[:, None] * np.log1p(-ti)[None, :]
        )
    out[np.ix_(ms == 0, arr == 0.0)] = 1.0
    out[np.ix_(ms == n, arr == 1.0)] = 1.0
    return out


def _upper_tails(n: int, arr: np.ndarray) -> np.ndarray:
    """Row m holds P[Bin(n, t) >= m] for m = 0..n: reverse cumulative pmf rows."""
    return np.cumsum(_pmf_rows(n, arr)[::-1], axis=0)[::-1]


def _ladder_dot(weights: np.ndarray, n: int, arr: np.ndarray) -> np.ndarray:
    """weights @ _pmf_rows(n, arr), one block of columns at a time.

    A block holds at most _BLOCK_ELEMENTS pmf values unless n is so large
    that 64 columns exceed it. Blocks span a multiple of 64 columns, so with
    a single-threaded BLAS each column's value is the same as from one
    unblocked product.
    """
    step = max(64, (_BLOCK_ELEMENTS // (n + 1)) // 64 * 64)
    if arr.size <= step:
        return weights @ _pmf_rows(n, arr)
    return np.concatenate(
        [weights @ _pmf_rows(n, arr[i : i + step]) for i in range(0, arr.size, step)]
    )


def prize_expectation(contest: Contest, t):
    """Expected prize for an agent beating each opponent independently w.p. t."""
    arr, scalar = _as_prob(t)
    arr = np.atleast_1d(arr)
    total = _ladder_dot(np.asarray(contest.prizes), contest.n_opponents, arr)
    return _ret(total[0] if scalar else total, scalar)


def prize_expectation_derivative(contest: Contest, t):
    """Slope of the expected-prize curve in t.

    Uses the telescoped form N * sum_m (v_{m+1} - v_m) * pmf(N-1, m, t), which
    is nonnegative whenever the prize ladder is nondecreasing.
    """
    arr, scalar = _as_prob(t)
    arr = np.atleast_1d(arr)
    n = contest.n_opponents
    gaps = np.diff(np.asarray(contest.prizes))
    total = n * _ladder_dot(gaps, n - 1, arr) if n > 1 else gaps[0] * np.ones_like(arr)
    return _ret(total[0] if scalar else total, scalar)


def prize_expectation_inverse(contest: Contest, y):
    """Win probability t at which the expected prize equals y.

    Bracketing bisection on [0, 1]; the curve is strictly increasing on (0, 1)
    whenever the top prize is positive, and the slope may vanish at the
    endpoints, which rules out Newton steps. Accepts a scalar or an array of
    target values.
    """
    if contest.degenerate:
        raise DomainError("expected prize is constant for an all-zero contest")
    top = contest.top_prize
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    slack = 1e-12 * max(top, 1.0)
    if np.any(~np.isfinite(arr)) or np.any(arr < -slack) or np.any(arr > top + slack):
        raise DomainError(f"target prize must lie in [0, {top}], got {y!r}")
    arr = np.clip(arr, 0.0, top)

    out = _monotone_inverse(
        lambda t: prize_expectation(contest, t), arr, 0.0, 1.0, steps=64, tol=1e-15
    )
    out[arr == 0.0] = 0.0
    out[arr == top] = 1.0
    return _ret(out[0] if scalar else out, scalar)


def type_prize_integral(env, contest: Contest, k: int) -> float:
    """Integral of the expected-prize curve over type k's win-probability band.

    Evaluated exactly (no quadrature) from binomial upper tails at the band
    endpoints: the tail of N+1 trials antidifferentiates the N-trial pmf after
    dividing by N+1.
    """
    cumulative = env.cumulative
    n_types = len(cumulative) - 1
    if not isinstance(k, (int, np.integer)) or k < 1 or k > n_types:
        raise ArgumentError(f"type index must lie in [1, {n_types}], got {k!r}")
    if env.n_others != contest.n_opponents:
        raise ArgumentError("environment and contest disagree on the number of opponents")
    n = contest.n_opponents
    tails = _upper_tails(n + 1, np.array([cumulative[k - 1], cumulative[k]]))
    return float(np.asarray(contest.prizes[1:]) @ (tails[2:, 1] - tails[2:, 0])) / (n + 1)


def is_more_competitive(v: Contest, w: Contest) -> bool:
    """Lorenz comparison: v is more unequal than w with the same total.

    True iff every prefix sum of v is weakly below the matching prefix sum of
    w and the totals agree.
    """
    if v.n_opponents != w.n_opponents:
        raise ArgumentError("contests must rank the same number of agents")
    tol = 1e-12 * max(v.total_budget, w.total_budget, 1.0)
    run_v = 0.0
    run_w = 0.0
    for pv, pw in zip(v.prizes, w.prizes):
        run_v += pv
        run_w += pw
        if run_v > run_w + tol:
            return False
    return abs(run_v - run_w) <= tol
