"""Budget allocation: maximize expected effort over monotone prize ladders.

The feasible set is all nondecreasing ladders with v_0 = 0 and total at most
V. Its extreme points are the zero ladder and, for each j, the ladder paying
V/(N-j+1) to each of the top N-j+1 ranks. Mode "vertex" scores them all;
"vertex_plus_search" then runs pairwise Frank-Wolfe (Jaggi, ICML 2013;
Lacoste-Julien & Jaggi, NeurIPS 2015) over the full-budget face from the best
vertex, on the exact gradient of the fixed-node effort operator.
In a parametric type space the cost level is affine in the prizes, so effort
is convex in them under a linear or concave base (the best vertex is optimal:
gap <= 0, zero iterations) and concave under a convex base, where the duality
gap certifies the optimum. Otherwise (mixed kinds or exponents, tabulated
costs) it certifies a stationary point only. Values come from the operator,
checked as expected_effort checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import _ROOT_STEPS
from .costs import ContestEnvironment
from .effort import QUAD_TOL, _EffortOperator, _fold
from .equilibrium import solve
from .errors import ArgumentError, NumericError
from .kernels import Contest

TIE_RTOL = 1e-9
GAP_RTOL = 1e-9

# Frank-Wolfe iterations before NumericError
_FW_ITERATIONS = 1000


@dataclass(frozen=True)
class FeasibleSet:
    """All monotone prize ladders spending at most the budget."""

    n_opponents: int
    budget: float

    def __post_init__(self) -> None:
        if not isinstance(self.n_opponents, (int, np.integer)) or self.n_opponents < 1:
            raise ArgumentError(f"n_opponents must be a positive integer, got {self.n_opponents!r}")
        if not self.budget > 0.0:
            raise ArgumentError(f"budget must be positive, got {self.budget!r}")

    def contains(self, contest: Contest) -> bool:
        fits = contest.total_budget <= self.budget * (1.0 + 1e-12)
        return contest.n_opponents == self.n_opponents and fits

    def vertices(self) -> list[Contest]:
        """Extreme points of the set; see enumerate_vertices."""
        n, budget = self.n_opponents, self.budget
        return [Contest((0.0,) * (n + 1))] + [
            Contest((0.0,) * j + (budget / (n - j + 1),) * (n - j + 1)) for j in range(1, n + 1)
        ]


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
    gap: float | None


def enumerate_vertices(n_opponents: int, budget: float) -> list[Contest]:
    """Extreme points of the monotone budget simplex.

    Returns N+1 contests: the zero ladder plus, for j = 1..N, the ladder
    splitting the budget equally over the top N-j+1 ranks. j = N is
    winner-takes-all; j = 1 pays every rank but the last.
    """
    return FeasibleSet(n_opponents, budget).vertices()


def _label(contest: Contest, budget: float) -> str:
    n, tol = contest.n_opponents, 1e-12 * max(budget, 1.0)
    named = {"winner_takes_all": [0.0] * n + [budget], "equal_split": [0.0] + [budget / n] * n}
    for name, prizes in named.items():
        if np.allclose(contest.prizes, prizes, rtol=0.0, atol=tol):
            return name
    return "mixed"


def _scored(env: ContestEnvironment, operator: _EffortOperator, contests: list) -> list:
    """Each contest with its expected effort, 0 for the zero ladder; solve checks the others."""
    live = [contest for contest in contests if not contest.degenerate]
    for contest in live:
        solve(env, contest)
    ladders = np.array([contest.prizes for contest in live])
    values = iter(_fold(operator.segments(ladders, QUAD_TOL)).tolist())
    return [(contest, 0.0 if contest.degenerate else next(values)) for contest in contests]


def _line_step(f, hi: float) -> float:
    """The step in [0, hi] where the nondecreasing f, evaluated at 0 and hi first, crosses 0.

    f has no slope: Chandrupatla's method (Adv. Eng. Softw. 28, 1997) to a bracket of
    max(1e-15 * max(1, |b|), 4 ulp of b), NumericError after _ROOT_STEPS steps.
    """
    a, b, t = 0.0, hi, 0.5
    ga, gb = f(a), f(b)
    if ga >= 0.0 or gb <= 0.0:
        return a if ga >= 0.0 else b
    for step in range(_ROOT_STEPS + 1):
        width, top = abs(b - a), abs(max(a, b))
        room = max(1e-15 * max(1.0, top), 4.0 * np.spacing(top))
        if ga == 0.0 or width <= room:
            return a if ga == 0.0 else 0.5 * (a + b)
        if step == _ROOT_STEPS:
            raise NumericError(f"line step left a bracket {width:.3g} wide after {step} steps")
        x = a + min(max(t, 0.5 * room / width), 1.0 - 0.5 * room / width) * (b - a)
        g = f(x)
        # a is the newest point, b the other end of the bracket, c the point a replaced
        b, c, gb, gc = (a, b, ga, gb) if (g < 0.0) != (ga < 0.0) else (b, a, gb, ga)
        a, ga = x, g
        # the inverse quadratic through a, b and c is monotone between a and b
        # exactly when these hold (Chandrupatla, eq. 1)
        xi, phi = (a - b) / (c - b), (ga - gb) / (gc - gb)
        t = 0.5
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = ga / (gb - ga) * gc / (gb - gc)
            t += (c - a) / (b - a) * ga / (gc - ga) * gb / (gc - gb)


def _frank_wolfe(operator: _EffortOperator, scored: list, budget: float):
    """Pairwise Frank-Wolfe over the full-budget face, from its best vertex in scored.

    Works in weights w over the N full-budget vertices, whose solves validated
    env. Each step moves weight from the active vertex with the lowest slope
    to the vertex with the highest (Lacoste-Julien & Jaggi, NeurIPS 2015, sec.
    3). Returns the ladder as a contest, its gap and the gradient count.
    """
    corners = np.array([contest.prizes for contest, _ in scored[1:]])
    n = len(corners)
    share = budget / np.arange(n, 0, -1.0)

    def ladder(w: np.ndarray) -> np.ndarray:  # running sums of w_j V/(N-j+1): monotone, >= 0
        return np.concatenate(([0.0], np.cumsum(np.maximum(w, 0.0) * share)))

    weights = np.eye(n)[max(range(n), key=lambda j: scored[j + 1][1])]
    tol = GAP_RTOL * budget
    for iteration in range(_FW_ITERATIONS + 1):
        x = ladder(weights)
        g = operator.gradient(x)
        slopes = (corners - x) @ g
        toward = int(np.argmax(slopes))
        gap = float(slopes[toward])
        if gap <= tol:
            return Contest(tuple(x.tolist())), gap, operator.gradients
        if iteration == _FW_ITERATIONS:
            raise NumericError(f"Frank-Wolfe stopped at its iteration cap with gap {gap:.3g}")
        # the weighted mean of slopes is 0 < gap, so away != toward
        active = np.flatnonzero(weights > 0.0)
        away = int(active[np.argmin(slopes[active])])
        move, direction = np.eye(n)[toward] - np.eye(n)[away], corners[toward] - corners[away]

        def falling(step: float) -> float:  # step 0 is x, whose gradient is g
            at = g if step == 0.0 else operator.gradient(ladder(weights + step * move))
            return -direction @ at

        step = _line_step(falling, weights[away])
        # at step == weights[away] this drops the away vertex: its weight becomes exactly 0
        weights = weights + step * move


def optimize_budget(
    env: ContestEnvironment,
    budget: float,
    mode: str = "vertex",
    seed: int | None = 0,
) -> BudgetSolution:
    """Allocate a prize budget to maximize expected equilibrium effort.

    mode "vertex" scores the N+1 extreme points, exact when effort is convex in
    the prizes. "vertex_plus_search" adds the ladder where pairwise
    Frank-Wolfe's duality gap falls to 1e-9 of the budget, and raises
    NumericError if _FW_ITERATIONS iterations do not get there. gap is that
    duality gap (None in mode "vertex"): an optimality certificate under a
    convex parametric base, a stationarity one elsewhere. evaluations counts
    ladders valued and gradients of the effort operator. seed (None or
    a nonnegative integer) is validated and echoed but ignored.
    Ties within 1e-9 of the best value per unit budget are reported.
    """
    if seed is not None and not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ArgumentError(f"seed must be None or a nonnegative integer, got {seed!r}")
    if mode not in ("vertex", "vertex_plus_search"):
        raise ArgumentError(f"mode must be 'vertex' or 'vertex_plus_search', got {mode!r}")
    vertices = enumerate_vertices(env.n_others, budget)
    operator = _EffortOperator(env)
    scored = _scored(env, operator, vertices)
    candidates, evaluations, gap = list(scored), len(scored), None
    if mode == "vertex_plus_search":
        contest, gap, used = _frank_wolfe(operator, scored, budget)
        evaluations += used
        if contest not in vertices:
            evaluations += 1
            candidates += _scored(env, operator, [contest])
    best_contest, best_val = max(candidates, key=lambda item: item[1])
    tie_tol = TIE_RTOL * max(budget, 1.0)
    ties = tuple(c for c, val in candidates if c != best_contest and abs(val - best_val) <= tie_tol)
    return BudgetSolution(
        contest=best_contest,
        value=best_val,
        vertex_values=tuple(scored),
        ties=ties,
        label=_label(best_contest, budget),
        mode=mode,
        evaluations=evaluations,
        seed=seed,
        gap=gap,
    )
