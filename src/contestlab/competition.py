"""Effects of increasing competition on effort and utilities.

Increasing competition means moving prize value from a worse rank m' to a
better rank m. Under linear costs the effect on expected effort is the
coefficient difference alpha_m - alpha_{m'}; in general it also shifts the
information rents of the more efficient types. The classifier implements the
sufficient conditions under which the linear-cost sign extends to concave or
convex bases: the transfer must not raise the top type's utility (or must
target the best rank), which makes the pointwise cost-space weight profile
single-crossing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .costs import ContestEnvironment
from .effort import _EffortOperator, alpha_coefficients
from .equilibrium import solve
from .errors import ArgumentError, CapabilityError, NumericError, StepError
from .kernels import Contest, _pmf_rows, binom_pmf

_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class CompetitionQuery:
    """A transfer from prize m_prime to the better-ranked prize m."""

    m: int
    m_prime: int

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and isinstance(self.m_prime, int)):
            raise ArgumentError("prize indices must be integers")
        if not 1 <= self.m_prime < self.m:
            raise ArgumentError(
                f"need 1 <= m_prime < m, got m={self.m}, m_prime={self.m_prime}"
            )


class Classification(enum.Enum):
    ENCOURAGES_UNDER_CONCAVE = "encourages_under_concave"
    DISCOURAGES_UNDER_CONVEX = "discourages_under_convex"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CompetitionReport:
    """Assembled comparative statics for one transfer query.

    linear_effect is alpha_m - alpha_{m'} in cost space; utility_effects lists
    the per-type utility responses to the transfer; classifications carries
    one or both conditional labels (both fire when the linear effect is
    exactly zero), or the single inconclusive marker when the hypothesis
    fails. numeric_estimate is optional and attached by callers that evaluated
    a finite-difference effect at a concrete contest.
    """

    query: CompetitionQuery
    linear_effect: float
    utility_effects: tuple[float, ...]
    top_type_condition: bool
    single_crossing: bool
    classifications: tuple[Classification, ...]
    numeric_estimate: float | None = None

    @property
    def label(self) -> str:
        return "+".join(c.value for c in self.classifications)


@dataclass(frozen=True)
class LambdaProfile:
    """Sampled cost-space weight difference for a transfer query."""

    ts: np.ndarray
    values: np.ndarray
    single_crossing: bool


@dataclass(frozen=True)
class TransferSign:
    """Sign of moving one unit from prize m to prize m+1 in a two-type world."""

    sign: str  # "positive" | "zero" | "negative"
    threshold: float  # (m+1)/N: the effect is nonnegative iff P_1 <= threshold
    difference: float


def _check_query(env: ContestEnvironment, query: CompetitionQuery) -> None:
    if query.m > env.n_others:
        raise ArgumentError(
            f"prize index {query.m} exceeds the number of opponents {env.n_others}"
        )


def utility_gradient(env: ContestEnvironment, m: int) -> tuple[float, ...]:
    """Per-type utility response to raising prize m.

    du_k/dv_m = theta_k * sum_{j<k} pmf(N, m, P_j) (1/theta_{j+1} - 1/theta_j).
    The response does not depend on the base cost or on the contest, only on
    the scales and the type distribution; it is zero for the least efficient
    type, whose rent is always zero.
    """
    if not env.parametric:
        raise CapabilityError("utility gradients need a parametric type-space")
    if not isinstance(m, int) or not 1 <= m <= env.n_others:
        raise ArgumentError(f"prize index must lie in [1, {env.n_others}], got {m!r}")
    thetas = np.asarray(env.thetas)
    pmf = _pmf_rows(env.n_others, np.asarray(env.cumulative[1:-1]), rows=[m])[0]
    acc = np.concatenate(([0.0], np.cumsum(pmf * np.diff(1.0 / thetas))))
    return tuple((thetas * acc).tolist())


def competition_effect_linear(env: ContestEnvironment, query: CompetitionQuery) -> float:
    """Effect of the transfer on expected effort under linear costs."""
    if not (env.parametric and env.base_exponent == 1.0):
        raise CapabilityError("the closed-form effect needs linear parametric costs")
    _check_query(env, query)
    alphas = alpha_coefficients(env).coefficients
    return alphas[query.m - 1] - alphas[query.m_prime - 1]


def _transfer_slack(contest: Contest, query: CompetitionQuery, direction: int) -> float:
    """Largest h keeping contest + direction*h*(e_m - e_m') nondecreasing."""
    v = contest.prizes
    n = contest.n_opponents
    m, mp = query.m, query.m_prime
    if direction > 0:
        # v_m rises toward its upper neighbor, v_m' falls toward its lower one
        slack = v[mp] - v[mp - 1]
        if m < n:
            slack = min(slack, v[m + 1] - v[m])
    elif m == mp + 1:
        # adjacent ranks move toward each other, splitting the gap
        slack = (v[m] - v[mp]) / 2.0
    else:
        slack = min(v[m] - v[m - 1], v[mp + 1] - v[mp])
    return max(slack, 0.0)


def _perturbed(contest: Contest, query: CompetitionQuery, hs) -> np.ndarray:
    """One prize ladder per step h: contest + h * (e_m - e_m'), as array rows."""
    hs = np.asarray(hs, dtype=float)
    ladders = np.tile(np.asarray(contest.prizes), (hs.size, 1))
    ladders[:, query.m] += hs
    ladders[:, query.m_prime] -= hs
    return ladders


def competition_effect_numeric(
    env: ContestEnvironment,
    contest: Contest,
    query: CompetitionQuery,
    step: float | None = None,
) -> float:
    """Finite-difference effect of the transfer on expected effort.

    Central differences with Richardson extrapolation over steps h and h/2.
    Derivative-of-integrand formulas are avoided on purpose: for convex bases
    the inverse base cost has unbounded slope at zero, while the effort value
    itself stays perfectly finite. All perturbed ladders are evaluated in one
    batch by the fixed-node effort operator, so every difference is taken on
    the same quadrature nodes and carries no adaptive-refinement noise; the
    environment is validated once, by solving at contest. Contests sitting on
    the monotone boundary in one direction fall back to a one-sided
    Richardson difference; if the requested step does not fit on either side,
    a StepError suggests shrinking it.
    """
    _check_query(env, query)
    if env.n_others != contest.n_opponents:
        raise ArgumentError("environment and contest disagree on the number of opponents")
    h = 1e-4 * contest.top_prize if step is None else float(step)
    if h <= 0.0:
        raise ArgumentError(f"step must be positive, got {step!r}")

    def values(hs) -> np.ndarray:
        solve(env, contest)  # validates env and the pair once for the whole batch
        return _EffortOperator(env)(_perturbed(contest, query, hs))

    slack_plus = _transfer_slack(contest, query, +1)
    slack_minus = _transfer_slack(contest, query, -1)
    hh = 0.5 * h

    if slack_plus >= h and slack_minus >= h:
        e = values([h, -h, hh, -hh])
        d_coarse = (e[0] - e[1]) / (2.0 * h)
        d_fine = (e[2] - e[3]) / (2.0 * hh)
        return (4.0 * d_fine - d_coarse) / 3.0

    for direction, slack in ((+1, slack_plus), (-1, slack_minus)):
        if slack >= h:
            e = values([0.0, direction * h, direction * hh])
            d_coarse = direction * (e[1] - e[0]) / h
            d_fine = direction * (e[2] - e[0]) / hh
            return 2.0 * d_fine - d_coarse

    best = max(slack_plus, slack_minus)
    raise StepError(
        f"step {h!r} breaks prize monotonicity in both transfer directions; "
        f"retry with a step no larger than {best!r}"
    )


def binary_transfer_sign(env: ContestEnvironment, m: int) -> TransferSign:
    """Sign of alpha_{m+1} - alpha_m in a two-type linear world.

    The sign is pinned by a pure threshold rule on the probability of the
    inefficient type: nonnegative exactly when P_1 <= (m+1)/N. Differences
    within 1e-12 of zero report as zero, which occurs at the threshold itself.
    """
    if env.n_types != 2 or not (env.parametric and env.base_exponent == 1.0):
        raise CapabilityError("the threshold rule applies to two-type linear environments")
    n = env.n_others
    if not isinstance(m, int) or not 1 <= m <= n - 1:
        raise ArgumentError(f"prize index must lie in [1, {n - 1}], got {m!r}")
    alphas = alpha_coefficients(env).coefficients
    diff = alphas[m] - alphas[m - 1]
    if abs(diff) <= _SIGN_TOL:
        sign = "zero"
    elif diff > 0.0:
        sign = "positive"
    else:
        sign = "negative"
    return TransferSign(sign=sign, threshold=(m + 1) / n, difference=diff)


def _lambda_difference(env: ContestEnvironment, query: CompetitionQuery, ts: np.ndarray) -> np.ndarray:
    thetas = np.asarray(env.thetas)
    n = env.n_others
    grads_m = np.asarray(utility_gradient(env, query.m))
    grads_mp = np.asarray(utility_gradient(env, query.m_prime))
    # scale-free gradient term: dividing the utility gradient by theta_k
    # cancels the scale, leaving the pure breakpoint sum
    grad_term = (grads_m - grads_mp) / thetas
    k_idx = np.minimum(
        np.searchsorted(np.asarray(env.cumulative), ts, side="right"), env.n_types
    )
    pm = np.atleast_1d(binom_pmf(n, query.m, ts))
    pmp = np.atleast_1d(binom_pmf(n, query.m_prime, ts))
    return (pm - pmp) / thetas[k_idx - 1] - grad_term[k_idx - 1]


def _is_single_crossing(values: np.ndarray, tol: float = _SIGN_TOL) -> bool:
    """True when the sampled profile is <= 0 then >= 0 with one sign change."""
    pos = values > tol
    neg = values < -tol
    if np.any(pos):
        first_pos = int(np.argmax(pos))
        if np.any(neg[first_pos:]):
            return False
    return bool(values[-1] >= -tol)


def lambda_profile(
    env: ContestEnvironment,
    query: CompetitionQuery,
    grid: np.ndarray | None = None,
) -> LambdaProfile:
    """Sampled cost-space weight difference lambda_m - lambda_{m'}.

    The profile depends on the scales and the type distribution only, not on
    the contest or the base cost; it starts at exactly zero and is piecewise
    smooth with kinks only at the type breakpoints, so the default grid is
    2048 uniform points with the breakpoints spliced in.
    """
    if not env.parametric:
        raise CapabilityError("lambda profiles need a parametric type-space")
    _check_query(env, query)
    if grid is None:
        ts = np.union1d(np.linspace(0.0, 1.0, 2048), np.asarray(env.cumulative))
    else:
        ts = np.unique(np.asarray(grid, dtype=float))
        if ts.size == 0 or ts[0] < 0.0 or ts[-1] > 1.0:
            raise ArgumentError("grid points must lie in [0, 1]")
    values = _lambda_difference(env, query, ts)
    if ts[0] == 0.0 and abs(values[0]) > 1e-14:
        raise NumericError(f"lambda difference must vanish at t=0, got {values[0]!r}")
    return LambdaProfile(ts=ts, values=values, single_crossing=_is_single_crossing(values))


def classify(env: ContestEnvironment, query: CompetitionQuery) -> CompetitionReport:
    """Apply the sufficient conditions for sign transfer to general bases.

    The hypothesis is that the transfer targets the best rank or weakly lowers
    the top type's utility. Under it, a nonnegative linear effect extends to
    concave bases and a nonpositive one to convex bases; a zero linear effect
    fires both labels. When the hypothesis fails the report is inconclusive,
    mirroring the open status of the general case.
    """
    if not env.parametric:
        raise CapabilityError("classification needs a parametric type-space")
    _check_query(env, query)
    grads_m = utility_gradient(env, query.m)
    grads_mp = utility_gradient(env, query.m_prime)
    utility_effects = tuple(a - b for a, b in zip(grads_m, grads_mp))
    top_effect = utility_effects[-1]
    top_type_condition = query.m == env.n_others or top_effect <= _SIGN_TOL

    alphas = alpha_coefficients(env, cost_space=True).coefficients
    linear_effect = alphas[query.m - 1] - alphas[query.m_prime - 1]
    single_crossing = lambda_profile(env, query).single_crossing

    labels: list[Classification] = []
    if top_type_condition and linear_effect >= 0.0:
        labels.append(Classification.ENCOURAGES_UNDER_CONCAVE)
    if top_type_condition and linear_effect <= 0.0:
        labels.append(Classification.DISCOURAGES_UNDER_CONVEX)
    if not labels:
        labels.append(Classification.INCONCLUSIVE)

    return CompetitionReport(
        query=query,
        linear_effect=linear_effect,
        utility_effects=utility_effects,
        top_type_condition=top_type_condition,
        single_crossing=single_crossing,
        classifications=tuple(labels),
    )


def attach_numeric_estimate(
    report: CompetitionReport,
    env: ContestEnvironment,
    contest: Contest,
    step: float | None = None,
) -> CompetitionReport:
    """Return a copy of report carrying a finite-difference effect at contest."""
    estimate = competition_effect_numeric(env, contest, report.query, step=step)
    return replace(report, numeric_estimate=estimate)
