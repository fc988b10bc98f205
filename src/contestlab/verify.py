"""Independent equilibrium verification.

Two checks that never reuse the solver's internals: a deterministic
best-response sweep (no effort level may beat the equilibrium utility, and
on-support efforts must match it), and a seeded Monte Carlo estimate of mean
effort built from inverse-transform draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import _check_count
from .costs import ContestEnvironment
from .equilibrium import Equilibrium, _check_solved, _draw, exante_cdf
from .kernels import _HORNER_BLOCK, Contest, _prize_curve

_MC_CHUNK = 1 << 17


@dataclass(frozen=True)
class BestResponseReport:
    """Deviation audit for one type: max payoff gap and indifference residual."""

    type_index: int
    gap: float
    argmax_effort: float
    on_support_residual: float
    grid_size: int


@dataclass(frozen=True)
class MonteCarloReport:
    """Sample mean effort with a three-standard-error half-width."""

    mean: float
    half_width: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class VerificationReport:
    """Full audit: one best-response row per type plus the Monte Carlo estimate."""

    gaps: tuple["BestResponseReport", ...]
    monte_carlo: MonteCarloReport

    @property
    def worst_gap(self) -> float:
        return max(row.gap for row in self.gaps)


def _sweeps(
    env: ContestEnvironment, contest: Contest, eqm: Equilibrium, ks, grid_size: int
) -> tuple[BestResponseReport, ...]:
    """best_response_gap for each type in ks, from one prize-curve evaluation.

    Type k's grid is the shared grid plus b_{k-1} and b_k. The prize term is
    evaluated once, on the shared grid plus the boundaries of every type in
    ks, and each type reads its own points from it; a point's value does not
    depend on the others in the call, so each row is what a sweep of its own
    grid gives.
    """
    _check_count("grid_size", grid_size, 100, "100")
    _check_solved(env, contest, eqm)
    boundaries = np.asarray(eqm.boundaries)
    grid = np.linspace(0.0, 1.5 * eqm.max_effort, grid_size)
    points = np.union1d(grid, boundaries[sorted({j for k in ks for j in (k - 1, k)})])
    prize = _prize_curve(contest, exante_cdf(eqm, points))
    rows = []
    for k in ks:
        b_lo, b_hi = boundaries[k - 1], boundaries[k]
        xs = np.union1d(grid, np.array([b_lo, b_hi]))
        payoff = prize[np.searchsorted(points, xs)] - env.types[k - 1]._evaluate(xs)
        advantage = payoff - eqm.utilities[k - 1]
        arg = int(np.argmax(advantage))
        support = (xs >= b_lo) & (xs <= b_hi)
        rows.append(
            BestResponseReport(
                type_index=k,
                gap=float(advantage[arg]),
                argmax_effort=float(xs[arg]),
                on_support_residual=float(np.max(np.abs(advantage[support]))),
                grid_size=int(xs.size),
            )
        )
    return tuple(rows)


def best_response_gap(
    env: ContestEnvironment,
    contest: Contest,
    eqm: Equilibrium,
    k: int,
    grid_size: int = 1024,
) -> BestResponseReport:
    """Sweep payoffs of type k over a grid of candidate efforts.

    The payoff of effort x against the equilibrium is the expected prize at
    the population CDF of x minus the type's cost. The grid spans
    [0, 1.5 * b_K] plus the type's boundaries b_{k-1} and b_k: beyond the top
    boundary the prize is capped at the top rank, so payoffs only fall further
    and probing farther adds nothing. Returns the maximum payoff advantage
    over the equilibrium utility (should be nonpositive up to numerics) and
    the worst indifference residual on the type's own interval. grid_size
    must be an integer of at least 100, and eqm solved for env and contest.
    """
    env.type_at(k)
    return _sweeps(env, contest, eqm, (k,), grid_size)[0]


def monte_carlo_effort(
    env: ContestEnvironment,
    contest: Contest,
    eqm: Equilibrium,
    n_samples: int,
    seed: int,
) -> MonteCarloReport:
    """Seeded Monte Carlo mean effort: draw a type, then an inverse-transform draw.

    Samples are generated in chunks of _MC_CHUNK draws, each from its own
    child of the master seed, so reruns with the same seed are bit-identical.
    A chunk draws all its types first and then its unit draws, _HORNER_BLOCK
    at a time, each block taken through the prize curve and the cost
    inverses at once; so memory holds the chunk's types and efforts plus one
    block's work. n_samples must be an integer of at least 10^4, seed a
    nonnegative integer and eqm solved for env and contest.
    """
    _check_count("seed", seed, 0, "0")
    _check_count("n_samples", n_samples, 10_000, "10^4")
    _check_solved(env, contest, eqm)

    cuts = np.asarray(env.cumulative[1:-1])
    n_chunks = (n_samples + _MC_CHUNK - 1) // _MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)

    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    for child in children:
        size = min(_MC_CHUNK, remaining)
        remaining -= size
        rng = np.random.default_rng(child)
        kinds = np.searchsorted(cuts, rng.random(size), side="left") + 1
        efforts = np.empty(size)
        for start in range(0, size, _HORNER_BLOCK):
            seg = kinds[start : start + _HORNER_BLOCK]
            efforts[start : start + seg.size] = _draw(eqm, seg, rng.random(seg.size))
        total += float(np.sum(efforts))
        efforts *= efforts
        total_sq += float(np.sum(efforts))

    mean = total / n_samples
    variance = max(total_sq / n_samples - mean * mean, 0.0)
    half_width = 3.0 * np.sqrt(variance / n_samples)
    return MonteCarloReport(
        mean=mean,
        half_width=float(half_width),
        n_samples=n_samples,
        seed=seed,
    )


def verification_report(
    env: ContestEnvironment,
    contest: Contest,
    eqm: Equilibrium,
    n_samples: int,
    seed: int,
    grid_size: int = 1024,
) -> VerificationReport:
    """Run both audits: the deviation sweeps and the sampled mean effort.

    All K sweeps share one evaluation of the prize term, on the grid plus
    every boundary; each row equals best_response_gap for its type. An eqm
    solved for another env or contest is rejected before any sweep runs.
    """
    gaps = _sweeps(env, contest, eqm, range(1, env.n_types + 1), grid_size)
    mc = monte_carlo_effort(env, contest, eqm, n_samples, seed)
    return VerificationReport(gaps=gaps, monte_carlo=mc)
