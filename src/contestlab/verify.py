"""Independent equilibrium verification.

Two checks that never reuse the solver's internals: a deterministic
best-response sweep (no effort level may beat the equilibrium utility, and
on-support efforts must match it), and a seeded Monte Carlo estimate of mean
effort built from inverse-transform draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import ContestEnvironment
from .equilibrium import Equilibrium, _draw, exante_cdf
from .errors import ArgumentError
from .kernels import Contest, _prize_curve

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
    [0, 1.5 * b_K]: beyond the top boundary the prize is capped at the top
    rank, so payoffs only fall further and probing farther adds nothing.
    Returns the maximum payoff advantage over the equilibrium utility (should
    be nonpositive up to numerics) and the worst indifference residual on the
    type's own interval.
    """
    if grid_size < 100:
        raise ArgumentError(f"grid_size must be at least 100, got {grid_size!r}")
    env.type_at(k)
    cf = env.types[k - 1]
    u_k = eqm.utilities[k - 1]
    b_lo, b_hi = eqm.boundaries[k - 1], eqm.boundaries[k]

    xs = np.union1d(
        np.linspace(0.0, 1.5 * eqm.max_effort, grid_size),
        np.array([b_lo, b_hi]),
    )
    payoff = _prize_curve(contest, exante_cdf(eqm, xs)) - cf._evaluate(xs)
    advantage = payoff - u_k
    arg = int(np.argmax(advantage))

    support = (xs >= b_lo) & (xs <= b_hi)
    residual = float(np.max(np.abs(advantage[support])))

    return BestResponseReport(
        type_index=k,
        gap=float(advantage[arg]),
        argmax_effort=float(xs[arg]),
        on_support_residual=residual,
        grid_size=int(xs.size),
    )


def monte_carlo_effort(
    env: ContestEnvironment,
    contest: Contest,
    eqm: Equilibrium,
    n_samples: int,
    seed: int,
) -> MonteCarloReport:
    """Seeded Monte Carlo mean effort: draw a type, then an inverse-transform draw.

    Samples are generated in chunks of _MC_CHUNK draws, each from its own
    child of the master seed, so memory stays bounded and reruns with the
    same seed are bit-identical. seed must be a nonnegative integer.
    """
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ArgumentError(f"seed must be a nonnegative integer, got {seed!r}")
    if n_samples < 10_000:
        raise ArgumentError(f"n_samples must be at least 10^4, got {n_samples!r}")
    if eqm.env != env or eqm.contest != contest:
        raise ArgumentError("equilibrium was solved for a different environment or contest")

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
        kinds = np.searchsorted(cuts, rng.random(size), side="left")
        draws = rng.random(size)
        efforts = np.empty(size)
        for idx in np.unique(kinds):
            mask = kinds == idx
            efforts[mask] = _draw(eqm, int(idx) + 1, draws[mask])
        total += float(np.sum(efforts))
        total_sq += float(np.sum(efforts * efforts))

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
    """Run both audits: per-type deviation sweeps and the sampled mean effort."""
    gaps = tuple(
        best_response_gap(env, contest, eqm, k, grid_size=grid_size)
        for k in range(1, env.n_types + 1)
    )
    mc = monte_carlo_effort(env, contest, eqm, n_samples, seed)
    return VerificationReport(gaps=gaps, monte_carlo=mc)
