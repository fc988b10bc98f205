"""Binomial order-statistic kernels and the expected-prize curve.

Everything in this module is a pure function of small integers, a prize
vector, and a win probability t in [0, 1]. An agent who beats each of N
opponents independently with probability t beats exactly m of them with
probability C(N, m) t^m (1-t)^(N-m); weighting the prize ladder by these
probabilities gives the expected prize as a function of t, which is the
object every other module is built on.

That curve and its slope are polynomials in Bernstein form with
nonnegative coefficients (prizes and prize gaps). _ladder_dot sums them by
Horner's rule up to N = _HORNER_MAX_N, each point in the one coefficient
order of its side of 1/2, and as pmf rows above it. _pmf_rows
stays the one binomial kernel for the pmf and its tails, the alpha
coefficients, the competition effects and the effort operator's matrices.

The public functions of t take a scalar or an array of any shape: t is
checked once to be finite and in [0, 1] (ArgumentError otherwise), and the
result has t's shape, a scalar t giving a Python float (see
_quad._elementwise). Internal loops call the unchecked cores _pmf_rows,
_ladder_dot, _prize_curve, _prize_slope and _prize_inverse on flat arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from ._quad import _elementwise, _rtsafe
from .errors import ArgumentError, DomainError

# Largest N at which _ladder_dot runs Horner's rule: past N = 1022 the factor
# max(t, 1-t)^N can fall to the subnormals, and past N = 1029 C(N, N/2)
# overflows a float.
_HORNER_MAX_N = 1000

# Points per block of _ladder_dot's Horner sums: 2^13 was the fastest of 2^12
# to 2^15 at N = 20, 200 and 1000.
_HORNER_BLOCK = 1 << 13

# Largest block of pmf values that _ladder_dot holds at once above
# _HORNER_MAX_N; 2^18 was faster than 2^20 and holds about a quarter of the
# memory.
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
    or a sum of rows of this matrix, and so is the prize curve above
    _HORNER_MAX_N.
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


@lru_cache(maxsize=256)
def _horner_plan(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """_ladder_dot's layout at n: power p = j * width + i of s sits at [i, j].

    Returns width, the index of the weight that multiplies s^p for t <= 1/2
    (p) and for t > 1/2 (n - p), shape (width, blocks, 2, 1), and C(n, p),
    shape (width, blocks, 1, 1), zero for the powers past n that fill the
    last block.
    """
    width = max(1, math.isqrt((n + 1) // 2))
    blocks = -(-(n + 1) // width)
    p = np.arange(width * blocks).reshape(blocks, width).T[:, :, None, None]
    combs = np.array([float(math.comb(n, m)) for m in range(n + 1)] + [0.0])
    return width, np.concatenate([p, n - p], axis=2).clip(0, n), combs[np.minimum(p, n + 1)]


def _ladder_dot(weights: np.ndarray, n: int, arr: np.ndarray) -> np.ndarray:
    """sum_m weights[m] C(n, m) t^m (1-t)^(n-m) over the t-vector, for weights >= 0.

    Up to n = _HORNER_MAX_N this is q^n times a polynomial in s = min(t, 1-t)
    / q <= 1, q = max(t, 1-t), with the coefficients in order for t <= 1/2
    and reversed above. Horner's rule runs in two levels, within blocks of
    about sqrt(n/2) powers and then over the blocks in s^width, so a call
    makes O(sqrt(n)) numpy calls however few its points. Each point is
    summed in the order for its side of 1/2 only (see _horner for the
    layout). Every step is elementwise, so a point's value does not depend
    on the others in the call or on where it sits among them. Nonnegative
    coefficients keep either order well conditioned on its own side
    (Farouki & Rajan, CAGD 1987); the rounding of 1 - t adds up
    to n * 2^-54 relative error. The coefficients are divided by the
    smallest power of two, at least 1, that keeps every partial sum below
    2^1020: it is 1 for weights below 2^(1020-n), so t = 0 and t = 1 give
    weights[0] and weights[n] exactly.

    Above the cutoff it is weights @ _pmf_rows(n, arr), one block of at most
    _BLOCK_ELEMENTS pmf values at a time (or 64 columns, if more).
    """
    if n > _HORNER_MAX_N:
        step = max(64, (_BLOCK_ELEMENTS // (n + 1)) // 64 * 64)
        return _blockwise(lambda part: weights @ _pmf_rows(n, part), arr, step)
    top = max(weights.tolist())
    if top == 0.0:
        return np.zeros(arr.size)
    scale = math.ldexp(1.0, max(math.frexp(top)[1] + n - 1020, 0))
    width, index, combs = _horner_plan(n)
    coefs = weights[index] * (1.0 / scale)
    coefs *= combs
    return _blockwise(partial(_horner, coefs, width, n, scale), arr, _HORNER_BLOCK)


def _blockwise(f, arr: np.ndarray, step: int) -> np.ndarray:
    """f over arr, step points at a time, each block written into one output.

    Concatenating a list of the blocks' results instead took two to three
    times as long on 2*10^5 ascending points at n = 2, nearly all of it in
    memory allocation: with glibc's mmap and trim thresholds raised, the
    gap nearly closed (2.5 against 2.0 ms).
    """
    if arr.size <= step:
        return f(arr)
    out = np.empty(arr.size)
    for i in range(0, arr.size, step):
        out[i : i + step] = f(arr[i : i + step])
    return out


def _horner(coefs: np.ndarray, width: int, n: int, scale: float, t: np.ndarray) -> np.ndarray:
    """One block of _ladder_dot below the cutoff, for coefficients in _horner_plan's layout.

    Each point is summed in the coefficient order for its side of 1/2 only.
    At width 1 every block is one power, and each point picks that power's
    coefficient for its side. Wider blocks lay their points out in rows of
    one side each. A one-sided block is one row as it lies. Any other block
    is permuted into a row of its points at or below 1/2 and a row of those
    above, the shorter row padded with t = 0, and the sums are scattered
    back. Each Horner step is then one numpy call on contiguous rows. A
    single point takes the two-row layout too: numpy's in-place ufuncs are
    slower on one-element arrays.
    """
    upper = t > 0.5
    high = int(np.count_nonzero(upper))
    low = t.size - high
    order = None
    if width == 1:
        u = t
        inner = np.where(upper, coefs[0, :, 1], coefs[0, :, 0])
    elif t.size > 1 and high in (0, t.size):
        side = int(high > 0)
        u, coefs = t[None], coefs[:, :, side : side + 1]
    else:
        order = np.argsort(upper, kind="stable")
        u = np.zeros((2, max(low, high)))
        u[0, :low] = t[order[:low]]
        u[1, :high] = t[order[low:]]
    rest = 1.0 - u
    q = np.maximum(u, rest)
    s = np.minimum(u, rest, out=rest)
    s /= q
    if width > 1:
        inner = np.empty((coefs.shape[1], *u.shape))
        inner[...] = coefs[-1]
        for col in coefs[-2::-1]:
            inner *= s
            inner += col
        s **= width
    acc = inner[-1]
    for row in inner[-2::-1]:
        acc *= s
        acc += row
    q **= n
    q *= scale
    acc *= q
    if order is None:
        return acc.reshape(t.size)
    out = np.empty(t.size)
    out[order[:low]] = acc[0, :low]
    out[order[low:]] = acc[1, :high]
    return out


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
    return n * _ladder_dot(np.diff(np.asarray(contest.prizes)), n - 1, arr)


def prize_expectation_inverse(contest: Contest, y):
    """Win probability t at which the expected prize equals y.

    Newton steps on the curve and its slope inside a cell of a fixed grid of
    the curve, safeguarded by bisection where the slope vanishes at t = 0 or
    1 (_quad._rtsafe), to the curve's own resolution, max(1e-15, N * 2^-52)
    in t. Accepts a scalar or an array of target values; targets within
    1e-12 * max(1, top prize) outside [0, top prize] are clipped to it, and
    farther ones raise DomainError.
    """
    if contest.degenerate:
        raise DomainError("expected prize is constant for an all-zero contest")
    top = contest.top_prize
    slack = 1e-12 * max(top, 1.0)
    return _elementwise(
        lambda arr: _prize_inverse(contest, np.clip(arr, 0.0, top)),
        y, -slack, top + slack, "target prize", DomainError,
    )


_INVERSE_GRID = np.linspace(0.0, 1.0, 65)


def _prize_inverse(contest: Contest, arr: np.ndarray) -> np.ndarray:
    """prize_expectation_inverse for targets in [0, top prize], top prize > 0.

    A target y starts in the cell of _INVERSE_GRID whose curve values have
    v_j < y <= v_{j+1} (from the chord of all of [0, 1], steep ladders at
    N = 200 took twice the passes), so 0 returns 0. The top prize returns 1,
    not the start of a plateau that rounds to it.
    """
    values, below = _prize_curve(contest, _INVERSE_GRID), arr < contest.top_prize
    # the top prize goes to the last cell, which ends it without a step
    j = np.where(below, np.searchsorted(values, arr) - 1, _INVERSE_GRID.size - 2).clip(0)
    t = _rtsafe(
        lambda ts, index: (_prize_curve(contest, ts), _prize_slope(contest, ts)),
        arr, _INVERSE_GRID[j], _INVERSE_GRID[j + 1], values[j], values[j + 1],
        max(1e-15, contest.n_opponents * 2.0**-52),
    )
    return np.where(below, t, 1.0)


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
