"""Expected equilibrium effort, by quadrature and in closed form.

The workhorse identity: the win probability of an arbitrary agent is uniform
on [0, 1], so expected effort is the integral over t of the effort an agent
exerts when its win probability is t. That integrand is continuous on [0, 1]
but kinked at the type breakpoints P_k, so quadrature proceeds segment by
segment. Under linear costs the same integral collapses to a dot product
alpha . v whose coefficients depend only on the type distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import _NODES, _WEIGHTS, QUAD_TOL, adaptive
from .costs import TABULATED, ContestEnvironment
from .equilibrium import Equilibrium
from .errors import ArgumentError, CapabilityError
from .kernels import Contest, _ladder_dot, _pmf_rows, _upper_tails


@dataclass(frozen=True)
class AlphaVector:
    """Marginal expected effort per unit of each prize under linear costs.

    coefficients[m-1] is the response of expected effort to prize m. With a
    single type all coefficients equal 1/((N+1) theta); with two or more types
    the top coefficient strictly dominates every other one.
    """

    coefficients: tuple[float, ...]
    env: ContestEnvironment

    def dot(self, contest: Contest) -> float:
        return float(
            np.dot(np.asarray(self.coefficients), np.asarray(contest.prizes[1:]))
        )


def _check_solved(env: ContestEnvironment, contest: Contest, eqm) -> Equilibrium:
    if not isinstance(eqm, Equilibrium):
        raise ArgumentError("expected a solved Equilibrium")
    if eqm.env != env or eqm.contest != contest:
        raise ArgumentError("equilibrium was solved for a different environment or contest")
    return eqm


def expected_effort(
    env: ContestEnvironment,
    contest: Contest,
    eqm: Equilibrium,
    tol: float = QUAD_TOL,
) -> float:
    """Expected effort of an arbitrary agent, integrated segment by segment.

    Each segment [P_{k-1}, P_k] uses a 64-node Gauss-Legendre panel with
    adaptive bisection when two refinement levels disagree beyond tol;
    integrating across the kinks at P_k would degrade convergence, so they are
    always panel endpoints.
    """
    _check_solved(env, contest, eqm)
    prizes = np.asarray(contest.prizes)
    total = 0.0
    for k in range(1, env.n_types + 1):
        total += _segment_integral(env, prizes, k, eqm.utilities[k - 1], tol)
    return total


def expected_effort_per_type(eqm: Equilibrium, k: int, tol: float = QUAD_TOL) -> float:
    """Expected effort of an agent conditional on being type k."""
    env = eqm.env
    env.type_at(k)
    p_k = env.probs[k - 1]
    prizes = np.asarray(eqm.contest.prizes)
    return _segment_integral(env, prizes, k, eqm.utilities[k - 1], tol) / p_k


def _segment_integral(env, prizes: np.ndarray, k: int, u_k: float, tol: float) -> float:
    """Adaptive integral of type k's effort over its band, for one prize ladder."""
    cf = env.types[k - 1]
    n = prizes.size - 1

    def integrand(ts: np.ndarray) -> np.ndarray:
        return cf.inverse(np.maximum(_ladder_dot(prizes, n, ts) - u_k, 0.0))

    return adaptive(integrand, env.cumulative[k - 1], env.cumulative[k], tol=tol)


# Fixed-node layout of _EffortOperator: uniform 64-node Gauss panels per
# segment, and in segment 1 geometric panels shrinking by _GRADE_RATIO toward
# t = 0 (the smallest ends 16^-12, about 4e-15, of a uniform panel from 0).
_UNIFORM_PANELS = 4
_GRADED_PANELS = 12
_GRADE_RATIO = 1.0 / 16.0


class _EffortOperator:
    """Expected effort of many prize ladders on one environment, on fixed nodes.

    Built once per environment. Each segment [P_{k-1}, P_k] carries fixed
    64-node Gauss panels: a few uniform ones, and in segment 1 a geometric
    grading toward t = 0, where the cost level vanishes and the cost inverse
    can have unbounded slope (t^(j/e) when the first j prizes are zero under a
    power-e base). The pmf matrices at the nodes and at the cuts P_k are kept,
    so a batch of ladders costs two products for the prize curve, the forward
    recursion of solve for the utilities, and one cost inverse per segment.

    A tabulated type's inverse has second-derivative jumps where the cost
    level crosses a table knot, at win probabilities that move with the
    ladder; fixed panels leave about 1e-10 there, so its segment is integrated
    by the same adaptive rule as expected_effort, ladder by ladder.

    Nothing is checked per ladder: callers validate the environment once and
    pass nondecreasing ladders with v_0 = 0 and a positive top prize.
    """

    def __init__(self, env: ContestEnvironment) -> None:
        self.env = env
        cuts = env.cumulative
        nodes, weights, self._segments = [np.empty(0)], [np.empty(0)], []
        start = 0
        for k, cf in enumerate(env.types, start=1):
            if cf.kind == TABULATED:
                self._segments.append(None)
                continue
            edges = np.linspace(cuts[k - 1], cuts[k], _UNIFORM_PANELS + 1)
            if k == 1:
                graded = edges[1] * _GRADE_RATIO ** np.arange(_GRADED_PANELS, 0, -1)
                edges = np.concatenate(([0.0], graded, edges[1:]))
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * (edges[1:] - edges[:-1])
            nodes.append((mid[:, None] + half[:, None] * _NODES).ravel())
            weights.append((half[:, None] * _WEIGHTS).ravel())
            self._segments.append(slice(start, start + nodes[-1].size))
            start += nodes[-1].size
        self._weights = np.concatenate(weights)
        self._node_pmf = _pmf_rows(env.n_others, np.concatenate(nodes))
        self._cut_pmf = _pmf_rows(env.n_others, np.asarray(cuts))

    def __call__(self, ladders: np.ndarray) -> np.ndarray:
        """Expected effort of each row of a (batch, N+1) array of prize ladders."""
        pis = ladders @ self._cut_pmf
        curve = ladders @ self._node_pmf
        total = np.zeros(ladders.shape[0])
        boundary = np.zeros(ladders.shape[0])
        for k, (cf, seg) in enumerate(zip(self.env.types, self._segments), start=1):
            u_k = pis[:, k - 1] - cf._evaluate(boundary)
            boundary = cf._inverse(np.maximum(pis[:, k] - u_k, 0.0))
            if seg is None:
                total += [
                    _segment_integral(self.env, ladder, k, u, QUAD_TOL)
                    for ladder, u in zip(ladders, u_k)
                ]
                continue
            levels = np.maximum(curve[:, seg] - u_k[:, None], 0.0)
            total += cf._inverse(levels.ravel()).reshape(levels.shape) @ self._weights[seg]
        return total


def alpha_coefficients(env: ContestEnvironment, cost_space: bool = False) -> AlphaVector:
    """Closed-form effort coefficients for a linear parametric type-space.

    alpha_m combines binomial tails of N+1 trials at each breakpoint with the
    increments of the inverse scales. The coefficients use only the scales and
    the type distribution, never the prize values. With cost_space=True the
    linear-base requirement is waived: the same numbers then price expected
    effort *cost* for any parametric base (see expected_cost).
    """
    if not env.parametric:
        raise CapabilityError("alpha coefficients need a parametric type-space")
    if not cost_space and env.base_exponent != 1.0:
        raise CapabilityError(
            "alpha coefficients price effort only under a linear base; "
            "use cost_space=True for the cost-space reading"
        )
    n = env.n_others
    inv_thetas = 1.0 / np.asarray(env.thetas)
    cuts = np.asarray(env.cumulative[1:-1])
    pmf = _pmf_rows(n + 1, cuts)[1 : n + 1]
    weights = _upper_tails(n + 1, cuts)[1 : n + 1] + np.arange(n - 1, -1, -1)[:, None] * pmf
    coeffs = (inv_thetas[-1] - weights @ np.diff(inv_thetas)) / (n + 1)
    return AlphaVector(coefficients=tuple(float(c) for c in coeffs), env=env)


def expected_cost(env: ContestEnvironment, contest: Contest) -> float:
    """Expected equilibrium effort *cost* of an arbitrary agent.

    Re-reading the game as one where agents choose their cost level directly
    makes the cost-space game linear in the scales, so the alpha coefficients
    price it for any parametric base: E[c(X)] = sum_m alpha_m v_m, independent
    of the base cost.
    """
    if not env.parametric:
        raise CapabilityError("expected cost in closed form needs a parametric type-space")
    if env.n_others != contest.n_opponents:
        raise ArgumentError("environment and contest disagree on the number of opponents")
    return alpha_coefficients(env, cost_space=True).dot(contest)
