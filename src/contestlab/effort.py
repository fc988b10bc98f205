"""Expected equilibrium effort, by quadrature and in closed form.

The workhorse identity: the win probability of an arbitrary agent is uniform
on [0, 1], so expected effort is the integral over t of the effort an agent
exerts when its win probability is t. That integrand is continuous on [0, 1]
but kinked at the type breakpoints P_k, so it is summed segment by segment on
fixed Gauss panels (_EffortOperator) and checked against the same panels
halved. Under linear costs the same integral collapses to a dot product
alpha . v whose coefficients depend only on the type distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import _NODES, _WEIGHTS, _rtsafe
from .costs import TABULATED, ContestEnvironment
from .equilibrium import Equilibrium, _check_solved, _forward
from .errors import ArgumentError, CapabilityError, NumericError
from .kernels import Contest, _check_opponents, _pmf_rows, _upper_tails

# Default bound on each segment's error estimate, relative to max(1, |segment|).
QUAD_TOL = 1e-10


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
        return float(np.dot(np.asarray(self.coefficients), np.asarray(contest.prizes[1:])))


def _check_tol(tol: float) -> None:
    # no error estimate meets a tolerance that is NaN or not positive
    if not (math.isfinite(tol) and tol > 0.0):
        raise ArgumentError(f"tol must be finite and positive, got {tol!r}")


def expected_effort(
    env: ContestEnvironment,
    contest: Contest,
    eqm: Equilibrium,
    tol: float = QUAD_TOL,
) -> float:
    """Expected effort of an arbitrary agent: the effort operator's value of the contest.

    Each segment [P_{k-1}, P_k] is summed on the operator's fixed Gauss panels,
    whose ends include the kinks at P_k, and again with every panel halved at
    its midpoint. NumericError if the two differ by more than
    tol * max(1, |segment|) on any segment.
    """
    _check_solved(env, contest, eqm)
    return _effort_by_type(eqm, tol)[0]


def expected_effort_per_type(eqm: Equilibrium, k: int, tol: float = QUAD_TOL) -> float:
    """Expected effort of an agent conditional on being type k, checked as expected_effort."""
    eqm.env.type_at(k)
    return _effort_by_type(eqm, tol)[1][k - 1]


def _effort_by_type(eqm: Equilibrium, tol: float) -> tuple[float, list[float]]:
    """expected_effort and the expected_effort_per_type of every type, from one operator call."""
    _check_tol(tol)
    segments = _EffortOperator(eqm.env).segments(np.array([eqm.contest.prizes]), tol)[0]
    return float(_fold(segments)), [float(s / p) for s, p in zip(segments, eqm.env.probs)]


def _fold(values: np.ndarray) -> np.ndarray:
    """Sums along the last axis, left to right as a scalar loop adds: exact zeros change nothing."""
    return np.cumsum(values, axis=-1)[..., -1]


# Fixed-node layout of _EffortOperator: uniform 64-node Gauss panels per
# segment, and in segment 1 geometric panels shrinking by _GRADE_RATIO toward
# t = 0 (the smallest ends 16^-12, about 4e-15, of a uniform panel from 0).
_UNIFORM_PANELS = 4
_GRADED_PANELS = 12
_GRADE_RATIO = 1.0 / 16.0

# About this many values per array in _EffortOperator._integrate. Whole segments at
# once grew and trimmed glibc's heap by up to 1.5 MB (380 page faults) per request.
_NODE_BLOCK = 1 << 11


def _gauss_nodes(edges: np.ndarray, halved: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 64-node Gauss panels between consecutive edges along the last axis,
    each panel first split at its midpoint if halved."""
    if halved:
        mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
        edges = np.sort(np.concatenate((edges, mid), axis=-1), axis=-1)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = edges.shape[:-1] + (-1,)
    nodes = (mid[..., None] + half[..., None] * _NODES).reshape(shape)
    return nodes, (half[..., None] * _WEIGHTS).reshape(shape)


def _pmf_at(n: int, ts: np.ndarray) -> np.ndarray:
    """pmf rows of Bin(n, t) at ts of shape (M,) or (batch, M): (n+1, M) or (batch, n+1, M)."""
    return np.moveaxis(_pmf_rows(n, ts.ravel()).reshape(n + 1, *ts.shape), 0, -2)


def _curve(ladders: np.ndarray, pmf: np.ndarray) -> np.ndarray:
    """Prize curve of each ladder at pmf's nodes, (N+1, M) shared or (batch, N+1, M).

    einsum sums each row on its own, where BLAS orders a row by its place in the batch."""
    return np.einsum("bn,nm->bm" if pmf.ndim == 2 else "bn,bnm->bm", ladders, pmf)


class _EffortOperator:
    """Expected effort of many prize ladders on one environment, on fixed nodes.

    Built once per environment. Each segment [P_{k-1}, P_k] carries fixed
    64-node Gauss panels: a few uniform ones, and in segment 1 a geometric
    grading toward t = 0, where the cost level vanishes and the cost inverse
    can have unbounded slope (t^(j/e) when the first j prizes are zero under a
    power-e base). The pmf matrices at the nodes and at the cuts P_k are kept,
    so a batch of ladders costs products for the prize curve, one call of
    _forward (solve's recursion) for the utilities, and one cost inverse per
    block of panels. The same layout with every panel halved, which gives
    the error estimates of segments, is built on first use.

    A tabulated type's inverse has second-derivative jumps where the cost
    level crosses a table knot, at win probabilities that move with the
    ladder. Its segment's panels are split there for each ladder, so every
    panel integrates a smooth piece; the crossings come from one _rtsafe
    call on the prize curve for all knots, segments and ladders of a call.

    Nothing is checked per ladder: callers validate the environment once and
    pass nondecreasing ladders with v_0 = 0 and a positive top prize.
    """

    def __init__(self, env: ContestEnvironment) -> None:
        self.env = env
        cuts = env.cumulative
        self._edges = [np.linspace(a, b, _UNIFORM_PANELS + 1) for a, b in zip(cuts, cuts[1:])]
        graded = self._edges[0][1] * _GRADE_RATIO ** np.arange(_GRADED_PANELS, 0, -1)
        self._edges[0] = np.concatenate(([0.0], graded, self._edges[0][1:]))
        self._cut_pmf = _pmf_rows(env.n_others, np.asarray(cuts))
        self._fixed = {}  # (segment, halved) -> pmf at its fixed nodes and their weights
        self.gradients = 0  # gradients taken

    def _layout(self, ladders: np.ndarray, pis: np.ndarray, utilities: np.ndarray) -> list:
        """Edges of each segment for a (batch, N+1) array of ladders, pi at the cuts and the u_k.

        Shared (E,), except on a tabulated segment where some ladder's cost
        level pi(t) - u_k crosses a table knot: there (batch, E'), split for
        each ladder at its crossings. Only knots that some ladder crosses are
        solved for; for the other ladders the root is a segment end, an empty panel.
        """
        edges = list(self._edges)
        tabulated = [k for k, cf in enumerate(self.env.types) if cf.kind == TABULATED]
        if not tabulated:
            return edges
        n, cuts = self.env.n_others, np.asarray(self.env.cumulative)
        knots = [np.array(self.env.types[k].points[1:])[:, 1] for k in tabulated]
        owner = np.concatenate([np.full(c.size, k) for k, c in zip(tabulated, knots)])
        targets = utilities[:, owner] + np.concatenate(knots)
        crossed = ((pis[:, owner] < targets) & (targets < pis[:, owner + 1])).any(axis=0)
        owner, targets = owner[crossed], targets[:, crossed]
        if not owner.size:
            return edges
        rises = n * np.diff(ladders, axis=1)

        def curve(ts: np.ndarray, index: np.ndarray):  # each crossing on its own ladder's curve
            rows = index // owner.size
            return (np.einsum("mn,nm->m", ladders[rows], _pmf_rows(n, ts)),
                    np.einsum("mn,nm->m", rises[rows], _pmf_rows(n - 1, ts)))

        # a crossing off by d moves the node sum by about d^2 (the integrand of
        # the gradient has a kink there), so a step of 1e-10 is far below rounding
        crossings = _rtsafe(
            curve, targets, cuts[owner], cuts[owner + 1], pis[:, owner], pis[:, owner + 1], 1e-10
        )
        for k in np.unique(owner):
            fixed = np.broadcast_to(self._edges[k], (ladders.shape[0], self._edges[k].size))
            edges[k] = np.sort(np.hstack((fixed, crossings[:, owner == k])))
        return edges

    def _panels(self, edges: list, halved: bool) -> list:
        """pmf at the nodes and weights of each segment, on its edges or with every panel halved.

        Shared edges give (N+1, M) and (M,), kept for later calls; a tabulated
        segment's per-ladder edges give (batch, N+1, M) and (batch, M).
        """
        panels = []
        for k, segment in enumerate(edges):
            if segment.ndim == 2 or (k, halved) not in self._fixed:
                nodes, weights = _gauss_nodes(segment, halved)
                panels.append((_pmf_at(self.env.n_others, nodes), weights))
                if segment.ndim == 1:
                    self._fixed[k, halved] = panels[-1]
            else:
                panels.append(self._fixed[k, halved])
        return panels

    def _integrate(self, ladders: np.ndarray, utilities: np.ndarray, panels: list) -> np.ndarray:
        """Node sums of each segment's effort, (batch, K): per panel, then panel by panel,
        so that empty panels add exact zeros and a ladder's value does not depend on the batch.
        Whole panels go in blocks of about _NODE_BLOCK values, which change no node or sum."""
        batch, out = ladders.shape[0], np.empty(utilities.shape)
        step = _NODES.size * max(1, _NODE_BLOCK // (_NODES.size * batch))
        for k, (cf, (pmf, weights)) in enumerate(zip(self.env.types, panels)):
            sums = []
            for block in (slice(i, i + step) for i in range(0, weights.shape[-1], step)):
                levels = np.maximum(_curve(ladders, pmf[..., block]) - utilities[:, k, None], 0.0)
                pieces = cf._inverse(levels.ravel()).reshape(levels.shape) * weights[..., block]
                sums.append(pieces.reshape(batch, -1, _NODES.size).sum(axis=2))
            out[:, k] = _fold(np.concatenate(sums, axis=1))
        return out

    def segments(self, ladders: np.ndarray, tol: float | None = None) -> np.ndarray:
        """Effort integral over each segment, (batch, K), for a (batch, N+1) array of ladders.

        With tol, NumericError where an integral and the same integral with every
        panel halved at its midpoint differ by more than tol * max(1, |integral|)."""
        pis = _curve(ladders, self._cut_pmf)
        utilities = _forward(self.env._space, pis)[1]
        edges = self._layout(ladders, pis, utilities)
        values = self._integrate(ladders, utilities, self._panels(edges, False))
        if tol is not None:
            halved = self._integrate(ladders, utilities, self._panels(edges, True))
            error = np.max(np.abs(values - halved) / np.maximum(1.0, np.abs(values)))
            if not error <= tol:
                raise NumericError(f"halving the effort panels moved a segment by {error:.3g}")
        return values

    def __call__(self, ladders: np.ndarray) -> np.ndarray:
        """Expected effort of each row of a (batch, N+1) array of prize ladders."""
        return _fold(self.segments(ladders))

    def gradient(self, ladder: np.ndarray) -> np.ndarray:
        """Gradient of the fixed-node effort at one ladder, as an (N+1)-vector.

        Exact for the node sum: through 1 / c'(c^-1(level)) at every node (a
        node whose marginal cost is 0 or underflows adds nothing) and through
        the utilities of _forward, whose tangents are taken with respect to
        the prize curve at each cut P_j and then pulled back to the prizes (an
        adjoint pass). A tabulated segment's split points are held where they
        are; moving them changes the sum only by its quadrature error. The
        derivative along a direction that keeps v_0 = 0 is its dot product
        with the gradient. Where a cost slope at b_k is 0 or infinite (bands
        1..k did not rise from b_0 = 0) it raises NumericError, not NaN.
        """
        types, pis, d_pis = self.env.types, ladder @ self._cut_pmf, np.eye(self.env.n_types + 1)
        self.gradients += 1
        boundaries, utilities = (part[0] for part in _forward(self.env._space, pis[None])[:2])
        # u_1 = 0 and, as v_0 = 0, so is its derivative; b_K feeds no utility
        d_utilities = np.zeros((self.env.n_types + 1, self.env.n_types))
        with np.errstate(divide="ignore"):  # c'(0) is infinite under a power base below 1
            for k in range(1, self.env.n_types):
                rate, next_rate = (cf._slope(boundaries[k : k + 1]) for cf in types[k - 1 : k + 1])
                if not (0.0 < rate[0] < np.inf and next_rate[0] < np.inf):
                    raise NumericError(f"boundary points failed to increase at type {k}")
                d_boundary = (d_pis[:, k] - d_utilities[:, k - 1]) / rate
                d_utilities[:, k] = d_pis[:, k] - next_rate * d_boundary
        total, mass = np.zeros(ladder.size), np.zeros(self.env.n_types)
        edges = self._layout(ladder[None], pis[None], utilities[None])
        for k, (cf, (pmf, weights)) in enumerate(zip(types, self._panels(edges, False))):
            if pmf.ndim == 3:  # a tabulated segment, split for this ladder
                pmf, weights = pmf[0], weights[0]
            # a node whose level clamps to 0 adds nothing; c'(0) is infinite below power 1
            with np.errstate(divide="ignore"):
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
