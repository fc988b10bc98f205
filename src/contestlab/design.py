"""Budget allocation: maximize expected effort over monotone prize ladders.

The feasible set is all nondecreasing ladders with v_0 = 0 and total at most
V. Its extreme points are the zero ladder and, for each j, the ladder paying
V/(N-j+1) to each of the top N-j+1 ranks; when the objective is linear in the
prizes (linear costs) a vertex attains the maximum, so vertex evaluation is
exact there. For curved bases a projected coordinate-ascent search explores
the full-budget face on top of the vertices. The search ranks candidates on
fixed quadrature nodes (effort._EffortOperator, built once per call); every
value it reports comes from expected_effort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import ContestEnvironment
from .effort import _EffortOperator, expected_effort
from .equilibrium import solve
from .errors import ArgumentError
from .kernels import Contest

TIE_RTOL = 1e-9

_SEARCH_RESTARTS = 8
_SEARCH_EVAL_CAP = 10_000


@dataclass(frozen=True)
class FeasibleSet:
    """All monotone prize ladders spending at most the budget."""

    n_opponents: int
    budget: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_opponents, (int, np.integer)) or self.n_opponents < 1:
            raise ArgumentError(
                f"n_opponents must be a positive integer, got {self.n_opponents!r}"
            )
        if not self.budget > 0.0:
            raise ArgumentError(f"budget must be positive, got {self.budget!r}")

    def contains(self, contest: Contest) -> bool:
        return (
            contest.n_opponents == self.n_opponents
            and contest.total_budget <= self.budget * (1.0 + 1e-12)
        )

    def vertices(self) -> list[Contest]:
        return enumerate_vertices(self.n_opponents, self.budget)


@dataclass(frozen=True)
class BudgetSolution:
    """Best contest found, with the vertex table and tie diagnostics."""

    contest: Contest
    value: float
    vertex_values: tuple[tuple[Contest, float], ...]
    ties: tuple[Contest, ...]
    label: str
    mode: str
    evaluations: int
    seed: int | None


def enumerate_vertices(n_opponents: int, budget: float) -> list[Contest]:
    """Extreme points of the monotone budget simplex.

    Returns N+1 contests: the zero ladder plus, for j = 1..N, the ladder
    splitting the budget equally over the top N-j+1 ranks. j = N is
    winner-takes-all; j = 1 pays every rank but the last.
    """
    if not isinstance(n_opponents, (int, np.integer)) or n_opponents < 1:
        raise ArgumentError(f"n_opponents must be a positive integer, got {n_opponents!r}")
    if not budget > 0.0:
        raise ArgumentError(f"budget must be positive, got {budget!r}")
    out = [Contest((0.0,) * (n_opponents + 1))]
    for j in range(1, n_opponents + 1):
        paid = n_opponents - j + 1
        prizes = [0.0] * (n_opponents + 1 - paid) + [budget / paid] * paid
        out.append(Contest(tuple(prizes)))
    return out


def _label(contest: Contest, budget: float) -> str:
    n = contest.n_opponents
    tol = 1e-12 * max(budget, 1.0)
    if all(abs(v) <= tol for v in contest.prizes):
        return "zero"
    wta = [0.0] * n + [budget]
    if all(abs(a - b) <= tol for a, b in zip(contest.prizes, wta)):
        return "winner_takes_all"
    equal = [0.0] + [budget / n] * n
    if all(abs(a - b) <= tol for a, b in zip(contest.prizes, equal)):
        return "equal_split"
    return "mixed"


def _objective(env: ContestEnvironment, contest: Contest) -> float:
    if contest.degenerate:
        return 0.0
    return expected_effort(env, contest, solve(env, contest))


def _prizes_from_increments(d: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(np.maximum(d, 0.0))))


def _restart_search(env: ContestEnvironment, budget: float, seed_seq, eval_budget: int, score):
    """One coordinate-ascent pass over prize increments on the full-budget face.

    Contests are parameterized by nonnegative increments d_m = v_m - v_{m-1},
    which makes monotonicity automatic; the budget constraint becomes a single
    weighted simplex sum_m (N-m+1) d_m = V, preserved by weighted pairwise
    transfers with shrinking step sizes. Candidates are ranked by score, the
    fixed-node effort operator; the final ladder is scored once more by
    _objective, so the value returned is expected_effort's.
    """
    n = env.n_others
    weights = np.array([n - j + 1 for j in range(1, n + 1)], dtype=float)
    rng = np.random.default_rng(seed_seq)
    used = 0

    def value(increments: np.ndarray) -> float:
        return float(score(_prizes_from_increments(increments)[None, :])[0])

    raw = rng.exponential(size=n)
    d = budget * (raw / raw.sum()) / weights
    val = value(d)
    used += 1
    step = 0.25
    while step > 1e-7 and used < eval_budget:
        improved = False
        for i in range(n):
            for j in range(n):
                if i == j or used >= eval_budget:
                    continue
                move = min(step * budget, d[i] * weights[i])
                if move <= 0.0:
                    continue
                cand = d.copy()
                cand[i] -= move / weights[i]
                cand[j] += move / weights[j]
                cand_val = value(cand)
                used += 1
                if cand_val > val:
                    d, val = cand, cand_val
                    improved = True
        if not improved:
            step *= 0.5
    contest = Contest(tuple(_prizes_from_increments(d).tolist()))
    return contest, _objective(env, contest), used


def optimize_budget(
    env: ContestEnvironment,
    budget: float,
    mode: str = "vertex",
    seed: int | None = 0,
    jobs: int = 1,
) -> BudgetSolution:
    """Allocate a prize budget to maximize expected equilibrium effort.

    mode "vertex" evaluates the extreme points only, which is exact when the
    objective is linear in the prizes; "vertex_plus_search" additionally runs
    a seeded coordinate-ascent search (8 restarts splitting a 10^4 evaluation
    cap) and returns the best candidate found. Each restart derives its own
    seed and evaluation budget from its index. Search candidates are ranked
    by the fixed-node effort operator, built once for env; the vertex table,
    each restart's final ladder and hence the returned value are scored by
    expected_effort, so mode "vertex" is unaffected by the operator. jobs is accepted for
    compatibility and ignored: restarts run serially, since a thread pool
    over these small numpy calls was slower than one thread. Ties within
    1e-9 of the best value per unit budget are reported, never silently
    broken: optimality claims are for tests to assert, not for the optimizer
    to assume.
    """
    if mode not in ("vertex", "vertex_plus_search"):
        raise ArgumentError(f"mode must be 'vertex' or 'vertex_plus_search', got {mode!r}")
    vertices = enumerate_vertices(env.n_others, budget)
    evaluations = 0
    scored: list[tuple[Contest, float]] = []
    for contest in vertices:
        evaluations += 1
        scored.append((contest, _objective(env, contest)))

    candidates = list(scored)
    if mode == "vertex_plus_search":
        # the vertex solves above validated env, the winner-takes-all one up
        # to the largest effort any ladder within the budget can demand
        score = _EffortOperator(env)
        children = np.random.SeedSequence(seed).spawn(_SEARCH_RESTARTS)
        per_restart = _SEARCH_EVAL_CAP // _SEARCH_RESTARTS
        for child in children:
            contest, val, used = _restart_search(env, budget, child, per_restart, score)
            evaluations += used
            candidates.append((contest, val))

    best_contest, best_val = max(candidates, key=lambda item: item[1])
    tie_tol = TIE_RTOL * max(budget, 1.0)
    ties = tuple(
        contest
        for contest, val in candidates
        if contest != best_contest and abs(val - best_val) <= tie_tol
    )
    return BudgetSolution(
        contest=best_contest,
        value=best_val,
        vertex_values=tuple(scored),
        ties=ties,
        label=_label(best_contest, budget),
        mode=mode,
        evaluations=evaluations,
        seed=seed,
    )
