"""Expected equilibrium effort, by quadrature and in closed form.

The workhorse identity: the win probability of an arbitrary agent is uniform
on [0, 1], so expected effort is the integral over t of the effort an agent
exerts when its win probability is t. That integrand is continuous on [0, 1]
but kinked at the type breakpoints P_k, so quadrature proceeds segment by
segment. Under linear costs the same integral collapses to a dot product
alpha . v whose coefficients depend only on the type distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import _NODES, _WEIGHTS, QUAD_TOL, _monotone_inverse, adaptive
from .costs import TABULATED, ContestEnvironment
from .equilibrium import Equilibrium
from .errors import ArgumentError, CapabilityError
from .kernels import Contest, _check_opponents, _ladder_dot, _pmf_rows, _upper_tails


@dataclass(frozen=True)
class AlphaVector:
    """Marginal expected effort per unit of each prize under linear costs.

    coefficients[m-1] is the response of expected effort to prize m. With a
    single type all coefficients equal 1/((N+1) theta); with two or more types
    the top coefficient strictly dominates every other one. cost_space tells
    whether they price effort or effort cost (see alpha_coefficients).
    """

    coefficients: tuple[float, ...]
    env: ContestEnvironment
    cost_space: bool

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


def _check_tol(tol: float) -> None:
    # adaptive never meets a tolerance that is NaN or not positive
    if not (math.isfinite(tol) and tol > 0.0):
        raise ArgumentError(f"tol must be finite and positive, got {tol!r}")


def expected_effort(
    env: ContestEnvironment,
    contest: Contest,
    eqm: Equilibrium,
    tol: float = QUAD_TOL,
) -> float:
    """Expected effort of an arbitrary agent, integrated segment by segment.

    Each segment [P_{k-1}, P_k] uses a 64-node Gauss-Legendre panel with
    adaptive bisection, one integrand call per level, where two refinement
    levels disagree beyond tol; integrating across the kinks at P_k would
    degrade convergence, so they are always panel endpoints.
    """
    _check_solved(env, contest, eqm)
    _check_tol(tol)
    prizes = np.asarray(contest.prizes)
    total = 0.0
    for k in range(1, env.n_types + 1):
        total += _segment_integral(env, prizes, k, eqm.utilities[k - 1], tol)
    return total


def expected_effort_per_type(eqm: Equilibrium, k: int, tol: float = QUAD_TOL) -> float:
    """Expected effort of an agent conditional on being type k."""
    env = eqm.env
    env.type_at(k)
    _check_tol(tol)
    p_k = env.probs[k - 1]
    prizes = np.asarray(eqm.contest.prizes)
    return _segment_integral(env, prizes, k, eqm.utilities[k - 1], tol) / p_k


def _segment_integral(env, prizes: np.ndarray, k: int, u_k: float, tol: float) -> float:
    """Adaptive integral of type k's effort over its band, for one prize ladder."""
    cf = env.types[k - 1]
    n = prizes.size - 1

    def integrand(ts: np.ndarray) -> np.ndarray:
        return cf._inverse(np.maximum(_ladder_dot(prizes, n, ts) - u_k, 0.0))

    return adaptive(integrand, env.cumulative[k - 1], env.cumulative[k], tol=tol)


# Fixed-node layout of _EffortOperator: uniform 64-node Gauss panels per
# segment, and in segment 1 geometric panels shrinking by _GRADE_RATIO toward
# t = 0 (the smallest ends 16^-12, about 4e-15, of a uniform panel from 0).
_UNIFORM_PANELS = 4
_GRADED_PANELS = 12
_GRADE_RATIO = 1.0 / 16.0


def _gauss_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 64-node Gauss panels between consecutive edges along the last axis."""
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = edges.shape[:-1] + (-1,)
    nodes = (mid[..., None] + half[..., None] * _NODES).reshape(shape)
    return nodes, (half[..., None] * _WEIGHTS).reshape(shape)


class _EffortOperator:
    """Expected effort of many prize ladders on one environment, on fixed nodes.

    Built once per environment. Each segment [P_{k-1}, P_k] carries fixed
    64-node Gauss panels: a few uniform ones, and in segment 1 a geometric
    grading toward t = 0, where the cost level vanishes and the cost inverse
    can have unbounded slope (t^(j/e) when the first j prizes are zero under a
    power-e base). The pmf matrices at the nodes and at the cuts P_k are kept,
    so a batch of ladders costs matrix products for the prize curve, the
    forward recursion of solve for the utilities, and one cost inverse per
    segment.

    A tabulated type's inverse has second-derivative jumps where the cost
    level crosses a table knot, at win probabilities that move with the
    ladder. Its segment's panels are split there for each ladder, so every
    panel integrates a smooth piece; the crossings come from one root-finder
    call on the prize curve for all knots, segments and ladders of a call.

    Nothing is checked per ladder: callers validate the environment once and
    pass nondecreasing ladders with v_0 = 0 and a positive top prize.
    """

    def __init__(self, env: ContestEnvironment) -> None:
        self.env = env
        cuts = env.cumulative
        self._edges, self._panels = [], []
        for k, cf in enumerate(env.types, start=1):
            edges = np.linspace(cuts[k - 1], cuts[k], _UNIFORM_PANELS + 1)
            if k == 1:
                graded = edges[1] * _GRADE_RATIO ** np.arange(_GRADED_PANELS, 0, -1)
                edges = np.concatenate(([0.0], graded, edges[1:]))
            self._edges.append(edges)
            nodes, weights = _gauss_nodes(edges)
            # a tabulated segment's nodes are laid per ladder, by _segment_panels
            tabulated = cf.kind == TABULATED
            self._panels.append(None if tabulated else (_pmf_rows(env.n_others, nodes), weights))
        self._cut_pmf = _pmf_rows(env.n_others, np.asarray(cuts))
        self.gradients = 0  # gradients taken

    def _segment_panels(self, ladders: np.ndarray, pis: np.ndarray, utilities: np.ndarray):
        """pmf at the nodes and weights of each segment, for a (batch, N+1) array of ladders.

        Shared by the batch, (N+1, M) and (M,), except on a tabulated segment:
        there (batch, N+1, M) and (batch, M), the segment's fixed panels split
        for each ladder where its cost level pi(t) - u_k crosses a table knot.
        pis holds pi at the cuts and utilities the u_k, one row per ladder.
        Only knots that some ladder crosses inside their segment are solved for.
        """
        tabulated = [k for k, panels in enumerate(self._panels) if panels is None]
        if not tabulated:
            return self._panels
        n, cuts = self.env.n_others, np.asarray(self.env.cumulative)
        knots = [np.array(self.env.types[k].points[1:])[:, 1] for k in tabulated]
        owner = np.concatenate([np.full(c.size, k) for k, c in zip(tabulated, knots)])
        targets = utilities[:, owner] + np.concatenate(knots)
        crossed = ((pis[:, owner] < targets) & (targets < pis[:, owner + 1])).any(axis=0)
        owner, targets = owner[crossed], targets[:, crossed]

        def pmf(ts: np.ndarray) -> np.ndarray:  # (batch, N+1, M) at ts of shape (batch, M)
            return _pmf_rows(n, ts.ravel()).reshape(n + 1, *ts.shape).transpose(1, 0, 2)

        # a crossing off by d moves the node sum by about d^2 (the integrand of
        # the gradient has a kink there), so a bracket of 1e-10 is far below rounding
        crossings = _monotone_inverse(
            lambda ts: (ladders[:, None] @ pmf(ts))[:, 0],
            targets, cuts[owner], cuts[owner + 1], tol=1e-10,
        )
        panels = list(self._panels)
        for k in tabulated:
            fixed = np.broadcast_to(self._edges[k], (ladders.shape[0], self._edges[k].size))
            nodes, weights = _gauss_nodes(np.sort(np.hstack((fixed, crossings[:, owner == k]))))
            panels[k] = pmf(nodes), weights
        return panels

    def __call__(self, ladders: np.ndarray) -> np.ndarray:
        """Expected effort of each row of a (batch, N+1) array of prize ladders."""
        pis = ladders @ self._cut_pmf
        utilities = np.zeros((ladders.shape[0], self.env.n_types))
        boundary = np.zeros(ladders.shape[0])
        for k, cf in enumerate(self.env.types):
            utilities[:, k] = pis[:, k] - cf._evaluate(boundary)
            boundary = cf._inverse(np.maximum(pis[:, k + 1] - utilities[:, k], 0.0))
        total = np.zeros(ladders.shape[0])
        panels = self._segment_panels(ladders, pis, utilities)
        for k, (cf, (pmf, weights)) in enumerate(zip(self.env.types, panels)):
            levels = np.maximum((ladders[:, None] @ pmf)[:, 0] - utilities[:, k, None], 0.0)
            total += (cf._inverse(levels.ravel()).reshape(levels.shape) * weights).sum(axis=1)
        return total

    def gradient(self, ladder: np.ndarray) -> np.ndarray:
        """Gradient of the fixed-node effort at one ladder, as an (N+1)-vector.

        Exact for the node sum: through 1 / c'(c^-1(level)) at every node (a
        node whose marginal cost is 0 or underflows adds nothing) and through
        the utilities of solve's recursion, whose derivatives are taken with
        respect to the prize curve at each cut P_j and then pulled back to the
        prizes (an adjoint pass). A tabulated segment's split points are held
        where they are; moving them changes the sum only by its quadrature
        error. The derivative along a direction that keeps v_0 = 0 is its dot
        product with the gradient.
        """
        pis, d_pis = ladder @ self._cut_pmf, np.eye(self.env.n_types + 1)
        self.gradients += 1
        utilities = np.zeros(self.env.n_types)  # u_1 = 0 and, as v_0 = 0, so is its derivative
        d_utilities = np.zeros((self.env.n_types + 1, self.env.n_types))
        for k, cf in enumerate(self.env.types):
            if k > 0:  # skips c'(b_0 = 0), infinite under a power base below 1
                utilities[k] = pis[k] - cf._evaluate(boundary)[0]
                d_utilities[:, k] = d_pis[:, k] - cf._slope(boundary) * d_boundary
            boundary = cf._inverse(np.maximum(pis[k + 1 : k + 2] - utilities[k], 0.0))
            d_boundary = (d_pis[:, k + 1] - d_utilities[:, k]) / cf._slope(boundary)
        total, mass = np.zeros(ladder.size), np.zeros(self.env.n_types)
        panels = self._segment_panels(ladder[None], pis[None], utilities[None])
        for k, (cf, (pmf, weights)) in enumerate(zip(self.env.types, panels)):
            if pmf.ndim == 3:  # a tabulated segment, split for this ladder
                pmf, weights = pmf[0], weights[0]
            rates = cf._slope(cf._inverse(np.maximum(ladder @ pmf - utilities[k], 0.0)))
            scaled = np.divide(weights, rates, out=np.zeros_like(rates), where=rates > 0)
            total += pmf @ scaled
            mass[k] = scaled.sum()
        return total - self._cut_pmf @ (d_utilities @ mass)


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
    return AlphaVector(
        coefficients=tuple(float(c) for c in coeffs), env=env, cost_space=cost_space
    )


def expected_cost(env: ContestEnvironment, contest: Contest) -> float:
    """Expected equilibrium effort *cost* of an arbitrary agent.

    Re-reading the game as one where agents choose their cost level directly
    makes the cost-space game linear in the scales, so the alpha coefficients
    price it for any parametric base: E[c(X)] = sum_m alpha_m v_m, independent
    of the base cost.
    """
    if not env.parametric:
        raise CapabilityError("expected cost in closed form needs a parametric type-space")
    _check_opponents(env, contest)
    return alpha_coefficients(env, cost_space=True).dot(contest)
