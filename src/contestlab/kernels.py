"""Binomial order-statistic kernels and the expected-prize curve.

Everything in this module is a pure function of small integers, a prize
vector, and a win probability t in [0, 1]. An agent who beats each of N
opponents independently with probability t beats exactly m of them with
probability C(N, m) t^m (1-t)^(N-m); weighting the prize ladder by these
probabilities gives the expected prize as a function of t, which is the
object every other module is built on.

The public functions of t take a scalar or an array of any shape: t is
checked once to be finite and in [0, 1] (ArgumentError otherwise), and the
result has t's shape, a scalar t giving a Python float (see
_quad._elementwise). Internal loops call the unchecked cores _pmf_rows,
_ladder_dot, _prize_curve, _prize_slope and _prize_inverse on flat arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quad import _elementwise, _monotone_inverse
from .errors import ArgumentError, DomainError

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


def _check_opponents(env, contest: Contest) -> None:
    if env.n_others != contest.n_opponents:
        raise ArgumentError("environment and contest disagree on the number of opponents")


def binom_pmf(n: int, m: int, t):
    """P[Bin(n, t) = m], evaluated stably via log-space coefficients.

    The combination coefficient is assembled from lgamma so the formula stays
    accurate through n = 64 and beyond; endpoints t = 0 and t = 1 are handled
    exactly.
    """
    _check_index(n, m)
    return _elementwise(lambda arr: _pmf_rows(n, arr, rows=[m])[0], t, 0.0, 1.0, "t")


def binom_tail(n: int, m: int, t, side: str):
    """P[Bin(n, t) <= m] or P[Bin(n, t) >= m], by summing pmf rows."""
    _check_index(n, m)
    if side == _AT_MOST:
        rows = np.arange(0, m + 1)
    elif side == _AT_LEAST:
        rows = np.arange(m, n + 1)
    else:
        raise ArgumentError(f"side must be 'at_most' or 'at_least', got {side!r}")
    return _elementwise(lambda arr: _pmf_rows(n, arr, rows=rows).sum(axis=0), t, 0.0, 1.0, "t")


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
    if ti.size < arr.size:
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
    return _elementwise(lambda arr: _prize_curve(contest, arr), t, 0.0, 1.0, "t")


def _prize_curve(contest: Contest, arr: np.ndarray) -> np.ndarray:
    return _ladder_dot(np.asarray(contest.prizes), contest.n_opponents, arr)


def prize_expectation_derivative(contest: Contest, t):
    """Slope of the expected-prize curve in t.

    Uses the telescoped form N * sum_m (v_{m+1} - v_m) * pmf(N-1, m, t), which
    is nonnegative whenever the prize ladder is nondecreasing.
    """
    return _elementwise(lambda arr: _prize_slope(contest, arr), t, 0.0, 1.0, "t")


def _prize_slope(contest: Contest, arr: np.ndarray) -> np.ndarray:
    n = contest.n_opponents
    gaps = np.diff(np.asarray(contest.prizes))
    return n * _ladder_dot(gaps, n - 1, arr) if n > 1 else gaps[0] * np.ones_like(arr)


def prize_expectation_inverse(contest: Contest, y):
    """Win probability t at which the expected prize equals y.

    Bracketing bisection on [0, 1]; the curve is strictly increasing on (0, 1)
    whenever the top prize is positive, and the slope may vanish at the
    endpoints, which rules out Newton steps. Accepts a scalar or an array of
    target values; targets within 1e-12 * max(1, top prize) outside [0, top
    prize] are clipped to it, and farther ones raise DomainError.
    """
    if contest.degenerate:
        raise DomainError("expected prize is constant for an all-zero contest")
    top = contest.top_prize
    slack = 1e-12 * max(top, 1.0)
    return _elementwise(
        lambda arr: _prize_inverse(contest, np.clip(arr, 0.0, top)),
        y, -slack, top + slack, "target prize", DomainError,
    )


def _prize_inverse(contest: Contest, arr: np.ndarray) -> np.ndarray:
    """prize_expectation_inverse for targets in [0, top prize], top prize > 0."""
    out = _monotone_inverse(
        lambda t: _prize_curve(contest, t), arr, 0.0, 1.0, steps=64, tol=1e-15
    )
    out[arr == 0.0] = 0.0
    out[arr == contest.top_prize] = 1.0
    return out


def type_prize_integral(env, contest: Contest, k: int) -> float:
    """Integral of the expected-prize curve over type k's win-probability band.

    Evaluated exactly (no quadrature) from binomial upper tails at the band
    endpoints: the tail of N+1 trials antidifferentiates the N-trial pmf after
    dividing by N+1.
    """
    env.type_at(k)  # rejects an out-of-range k
    _check_opponents(env, contest)
    cumulative = env.cumulative
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
