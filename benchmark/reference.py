"""Independent references and the checker for every request kind.

Nothing here imports contestlab. Prize curves come from `scipy.stats.binom`,
integrals from `scipy.integrate.quad`, cost inverses of tabulated types from
`scipy.optimize.brentq` on the monotone cubic (PCHIP) interpolant that
defines them. `check(request, outcome)` returns a list of problems; an empty
list means the output agrees with the references.
"""

from __future__ import annotations

import bisect
import json
import math

import numpy as np
from scipy import integrate, optimize, stats
from scipy.interpolate import PchipInterpolator

SOLVE_TOL = 1e-10
EFFORT_TOL = 1e-8
ALPHA_TOL = 1e-12
BUDGET_TOL = 1e-9
GAP_TOL = 1e-6
MAX_EFFORT_TOL = 1e-9
FD_TOL = 1e-6


def _close(a: float, b: float, tol: float) -> bool:
    """Relative agreement, with an absolute floor of tol * 1e-6 for values near zero."""
    return abs(a - b) <= tol * (abs(b) + 1e-6)


# ---------------------------------------------------------------------------
# environment model, rebuilt from the config alone
# ---------------------------------------------------------------------------


class Cost:
    """c(x) = theta x, theta x^e, or the PCHIP table with linear extrapolation."""

    def __init__(self, kind: str, theta: float = 1.0, exponent: float = 1.0, table=None):
        self.kind = kind
        self.theta = float(theta)
        self.exponent = 1.0 if kind == "linear" else float(exponent)
        if kind == "tabulated":
            xs = np.array([p[0] for p in table], dtype=float)
            cs = np.array([p[1] for p in table], dtype=float)
            self.pchip = PchipInterpolator(xs, cs, extrapolate=False)
            self.xs, self.cs = xs, cs
            self.last_slope = float(self.pchip.derivative()(xs[-1]))
            # per-piece cubic coefficients, highest power first, for fast scalar evaluation
            self.coef = [tuple(float(c) for c in self.pchip.c[:, i]) for i in range(len(xs) - 1)]

    def value(self, x: float) -> float:
        if self.kind == "tabulated":
            if x >= self.xs[-1]:
                return float(self.cs[-1] + self.last_slope * (x - self.xs[-1]))
            return float(self.pchip(x))
        return self.theta * x**self.exponent

    def inverse(self, y: float) -> float:
        if y <= 0.0:
            return 0.0
        if self.kind != "tabulated":
            return (y / self.theta) ** (1.0 / self.exponent)
        if y >= self.cs[-1]:
            return float(self.xs[-1] + (y - self.cs[-1]) / self.last_slope)
        i = min(bisect.bisect_right(self.cs.tolist(), y) - 1, len(self.coef) - 1)
        a, b, c, d = self.coef[i]
        x0, x1 = float(self.xs[i]), float(self.xs[i + 1])

        def f(x: float) -> float:
            s = x - x0
            return ((a * s + b) * s + c) * s + d - y

        return optimize.brentq(f, x0, x1, xtol=1e-15, rtol=4 * np.finfo(float).eps)


class Env:
    """Finite environment: N opponents, ordered costs, probabilities."""

    def __init__(self, body: dict):
        self.n = int(body["n_others"])
        types = body["types"]
        if types and isinstance(types[0], dict):
            self.costs = [Cost(t["kind"], t.get("theta", 1.0), t.get("exponent", 1.0), t.get("table")) for t in types]
            self.probs = [float(t["prob"]) for t in types]
        else:
            k = len(types)
            thetas = body.get("thetas", [1.0] * k)
            exps = body.get("exponents", [1.0] * k)
            self.costs = [Cost(kind, th, ex) for kind, th, ex in zip(types, thetas, exps)]
            self.probs = [float(p) for p in body["probs"]]
        self.cum = [0.0] + list(np.cumsum(self.probs))
        self.cum[-1] = 1.0
        self.k = len(self.costs)

    @property
    def base_exponent(self) -> float | None:
        """The common exponent of a parametric environment, None for tabulated types."""
        if any(c.kind == "tabulated" for c in self.costs):
            return None
        exps = {c.exponent for c in self.costs}
        return exps.pop() if len(exps) == 1 else None


def prize_curve(prizes, n: int, t: float) -> float:
    """pi(t) = sum_m v_m P[Bin(N, t) = m]."""
    return float(np.dot(prizes, stats.binom.pmf(np.arange(n + 1), n, t)))


def recursion(env: Env, prizes) -> tuple[list[float], list[float]]:
    """Boundaries b_0..b_K and utilities u_1..u_K by the indifference recursion."""
    b = [0.0]
    u = []
    for k in range(1, env.k + 1):
        cost = env.costs[k - 1]
        u_k = prize_curve(prizes, env.n, env.cum[k - 1]) - cost.value(b[-1])
        level = max(prize_curve(prizes, env.n, env.cum[k]) - u_k, 0.0)
        b.append(cost.inverse(level))
        u.append(u_k)
    return b, u


def segment_efforts(env: Env, prizes) -> list[float]:
    """Integral over [P_{k-1}, P_k] of c_k^{-1}(pi(t) - u_k), per type k."""
    _, u = recursion(env, prizes)
    out = []
    for k in range(1, env.k + 1):
        cost = env.costs[k - 1]
        u_k = u[k - 1]

        def integrand(t: float) -> float:
            return cost.inverse(max(prize_curve(prizes, env.n, t) - u_k, 0.0))

        val, _ = integrate.quad(integrand, env.cum[k - 1], env.cum[k], epsabs=1e-14, epsrel=1e-12, limit=500)
        out.append(val)
    return out


def expected_effort(env: Env, prizes) -> float:
    if not any(p > 0.0 for p in prizes):
        return 0.0
    return math.fsum(segment_efforts(env, prizes))


def unit_utilities(env: Env, m: int, thetas) -> list[float]:
    """Utilities under the unit prize vector e_m in cost space (linear in the prizes)."""
    n = env.n
    pi = [float(stats.binom.pmf(m, n, p)) for p in env.cum]
    b_prev, u = 0.0, []
    for k in range(1, env.k + 1):
        u_k = pi[k - 1] - thetas[k - 1] * b_prev
        b_prev = (pi[k] - u_k) / thetas[k - 1]
        u.append(u_k)
    return u


def alpha(env: Env, thetas) -> list[float]:
    """alpha_m = sum_k (1/theta_k) (int_seg pmf(N, m, t) dt - p_k u_k(e_m)).

    The segment integral of the binomial pmf is a binomial upper tail of N+1
    trials: int_0^x pmf(N, m, t) dt = P[Bin(N+1, x) > m] / (N+1).
    """
    n = env.n
    out = []
    for m in range(1, n + 1):
        tails = stats.binom.sf(m, n + 1, env.cum) / (n + 1)
        u = unit_utilities(env, m, thetas)
        acc = 0.0
        for k in range(1, env.k + 1):
            acc += ((tails[k] - tails[k - 1]) - env.probs[k - 1] * u[k - 1]) / thetas[k - 1]
        out.append(acc)
    return out


def vertices(n: int, budget: float) -> list[list[float]]:
    out = [[0.0] * (n + 1)]
    for paid in range(n, 0, -1):
        out.append([0.0] * (n + 1 - paid) + [budget / paid] * paid)
    return out


# ---------------------------------------------------------------------------
# continuum environment
# ---------------------------------------------------------------------------


def continuum_max_effort(body: dict, prizes) -> float:
    """Effort of the lowest type: int_lo^hi pi'(1 - G(t)) g(t) / t dt."""
    n = int(body["n_others"])
    family = body.get("family", "uniform")
    knots: list[float] = []
    if family == "tabulated":
        table = body["table"]
        ts = np.array([p[0] for p in table])
        gs = np.array([p[1] for p in table])
        interp = PchipInterpolator(ts, gs)
        dens = interp.derivative()
        lo, hi = float(ts[0]), float(ts[-1])
        cdf, pdf = (lambda t: float(interp(t))), (lambda t: float(dens(t)))
        knots = [float(t) for t in ts[1:-1]]
    else:
        lo, hi = (float(v) for v in body["support"])
        span = hi - lo
        shape = float(body.get("shape", 1.0)) if family == "power" else 1.0
        cdf = lambda t: ((t - lo) / span) ** shape  # noqa: E731
        pdf = lambda t: shape * ((t - lo) / span) ** (shape - 1.0) / span  # noqa: E731
    gaps = np.diff(np.asarray(prizes, dtype=float))
    ms = np.arange(n)

    def slope(w: float) -> float:
        return float(n * np.dot(gaps, stats.binom.pmf(ms, n - 1, w)))

    def integrand(t: float) -> float:
        return slope(1.0 - min(max(cdf(t), 0.0), 1.0)) * pdf(t) / t

    val, _ = integrate.quad(integrand, lo, hi, points=knots or None, epsabs=1e-14, epsrel=1e-12, limit=500)
    return val


# ---------------------------------------------------------------------------
# checks per command
# ---------------------------------------------------------------------------


class Checker:
    """Checks outcomes against references, computing each reference once per request."""

    def __init__(self):
        self._cache: dict = {}
        self._keep: list = []

    def _ref(self, req, key, fn):
        """fn() once per request and key; the request is kept alive so its id stays unique."""
        key = (id(req), key)
        if key not in self._cache:
            self._cache[key] = fn()
            self._keep.append(req)
        return self._cache[key]

    def check(self, req, outcome) -> list[str]:
        """outcome: (exit code or exception name, stdout text)."""
        code, stdout = outcome
        if code != req.expect_exit:
            return [f"exit {code!r}, expected {req.expect_exit}"]
        if req.expect_exit != 0:
            return [] if stdout == "" else ["error exit wrote a report"]
        try:
            results = json.loads(stdout)["results"]
        except (ValueError, KeyError) as exc:
            return [f"unreadable report: {exc}"]
        return getattr(self, "_" + req.command)(req, results)

    def _solve(self, req, res):
        env, prizes = Env(req.config["environment"]), req.config["contest"]["prizes"]
        b, u = self._ref(req, "rec", lambda: recursion(env, prizes))
        errs = []
        if len(res["boundaries"]) != len(b) or len(res["utilities"]) != len(u):
            return ["wrong number of boundaries or utilities"]
        for i, (got, want) in enumerate(zip(res["boundaries"], b)):
            if not _close(got, want, SOLVE_TOL):
                errs.append(f"b_{i}={got!r}, reference {want!r}")
        for i, (got, want) in enumerate(zip(res["utilities"], u)):
            if not _close(got, want, SOLVE_TOL):
                errs.append(f"u_{i + 1}={got!r}, reference {want!r}")
        return errs

    def _effort(self, req, res):
        env, prizes = Env(req.config["environment"]), req.config["contest"]["prizes"]
        segs = self._ref(req, "segs", lambda: segment_efforts(env, prizes))
        errs = []
        total = math.fsum(segs)
        if not _close(res["expected_effort"], total, EFFORT_TOL):
            errs.append(f"E[X]={res['expected_effort']!r}, quadrature {total!r}")
        for k, (got, seg) in enumerate(zip(res["per_type"], segs), start=1):
            want = seg / env.probs[k - 1]
            if not _close(got, want, EFFORT_TOL):
                errs.append(f"E[X|type {k}]={got!r}, quadrature {want!r}")
        if env.base_exponent == 1.0:
            thetas = [c.theta for c in env.costs]
            a = self._ref(req, "alpha", lambda: alpha(env, thetas))
            dot = math.fsum(x * v for x, v in zip(a, prizes[1:]))
            if not _close(res["expected_effort"], dot, EFFORT_TOL):
                errs.append(f"E[X]={res['expected_effort']!r}, alpha.v {dot!r}")
        return errs

    def _alpha(self, req, res):
        env = Env(req.config["environment"])
        want = self._ref(req, "alpha", lambda: alpha(env, [c.theta for c in env.costs]))
        got = res["alpha"]
        if len(got) != len(want):
            return ["wrong number of coefficients"]
        return [f"alpha_{m}={g!r}, reference {w!r}" for m, (g, w) in enumerate(zip(got, want), 1) if abs(g - w) > ALPHA_TOL]

    def _compare(self, req, res):
        env = Env(req.config["environment"])
        m, mp = req.config["command"]["m"], req.config["command"]["m_prime"]
        thetas = [c.theta for c in env.costs]
        a = self._ref(req, "alpha", lambda: alpha(env, thetas))
        effect = a[m - 1] - a[mp - 1]
        um, ump = unit_utilities(env, m, thetas), unit_utilities(env, mp, thetas)
        utility = [x - y for x, y in zip(um, ump)]
        errs = []
        if abs(res["linear_effect"] - effect) > ALPHA_TOL:
            errs.append(f"linear_effect={res['linear_effect']!r}, reference {effect!r}")
        if len(res["utility_effects"]) != len(utility) or any(
            abs(g - w) > ALPHA_TOL for g, w in zip(res["utility_effects"], utility)
        ):
            errs.append(f"utility_effects={res['utility_effects']!r}, reference {utility!r}")
        # the label is a function of the two effects; compare it away from their thresholds
        top_ok = m == env.n or utility[-1] <= 1e-12
        if abs(effect) > 1e-9 and (m == env.n or abs(utility[-1] - 1e-12) > 1e-9):
            labels = []
            if top_ok and effect >= 0.0:
                labels.append("encourages_under_concave")
            if top_ok and effect <= 0.0:
                labels.append("discourages_under_convex")
            label = "+".join(labels) or "inconclusive"
            if res["classification"] != label:
                errs.append(f"classification {res['classification']!r}, expected {label!r}")
        if req.config["command"].get("numeric"):
            errs += self._numeric_effect(req, res, env, m, mp)
        return errs

    def _numeric_effect(self, req, res, env, m, mp):
        """Richardson central difference of the reference effort, and the sign the theorem gives."""
        prizes = list(req.config["contest"]["prizes"])
        h = 1e-4 * prizes[-1]

        def value(step: float) -> float:
            moved = list(prizes)
            moved[m] += step
            moved[mp] -= step
            return expected_effort(env, moved)

        def estimate():
            coarse = (value(h) - value(-h)) / (2 * h)
            fine = (value(h / 2) - value(-h / 2)) / h
            return (4 * fine - coarse) / 3

        want = self._ref(req, "fd", estimate)
        got = res["numeric_estimate"]
        errs = []
        if not _close(got, want, FD_TOL):
            errs.append(f"numeric_estimate={got!r}, reference {want!r}")
        label = res["classification"]
        exponent = env.base_exponent
        if "encourages_under_concave" in label and exponent <= 1.0 and got < -FD_TOL:
            errs.append(f"effect {got!r} is negative under a concave base")
        if "discourages_under_convex" in label and exponent >= 1.0 and got > FD_TOL:
            errs.append(f"effect {got!r} is positive under a convex base")
        return errs

    def _optimize(self, req, res):
        env = Env(req.config["environment"])
        budget = float(req.config["contest"]["budget"])
        prizes = res["prizes"]
        errs = []
        if len(prizes) != env.n + 1 or prizes[0] != 0.0:
            return [f"ladder {prizes!r} is not a normalized ladder over {env.n + 1} ranks"]
        if any(b < a for a, b in zip(prizes, prizes[1:])):
            errs.append(f"ladder {prizes!r} is not monotone")
        if abs(math.fsum(prizes) - budget) > BUDGET_TOL * budget:
            errs.append(f"ladder spends {math.fsum(prizes)!r} of budget {budget!r}")
        value = self._ref(req, ("value", tuple(prizes)), lambda: expected_effort(env, prizes))
        if not _close(res["value"], value, EFFORT_TOL):
            errs.append(f"value={res['value']!r}, effort of the ladder {value!r}")
        vertex_values = self._ref(req, "vertices", lambda: [expected_effort(env, v) for v in vertices(env.n, budget)])
        best_vertex = max(vertex_values)
        if res["value"] < best_vertex - EFFORT_TOL * max(1.0, best_vertex):
            errs.append(f"value={res['value']!r} is below the best vertex {best_vertex!r}")
        exponent = env.base_exponent
        if exponent is not None and exponent <= 1.0 and res["label"] != "winner_takes_all":
            errs.append(f"label {res['label']!r} under a concave base")
        if res["mode"] == "vertex" and res["evaluations"] != env.n + 1:
            errs.append(f"vertex mode made {res['evaluations']} evaluations for {env.n + 1} vertices")
        return errs

    def _verify(self, req, res):
        env, prizes = Env(req.config["environment"]), req.config["contest"]["prizes"]
        cmd = req.config["command"]
        top = prizes[-1]
        b, _ = self._ref(req, "rec", lambda: recursion(env, prizes))
        effort = self._ref(req, "effort", lambda: expected_effort(env, prizes))
        errs = []
        gaps = res["gaps"]
        if [g["type"] for g in gaps] != list(range(1, env.k + 1)):
            return ["gap rows do not cover every type once"]
        grid = np.linspace(0.0, 1.5 * b[-1], int(cmd.get("grid_size", 1024)))
        for g in gaps:
            k = g["type"]
            if g["gap"] > GAP_TOL * top:
                errs.append(f"type {k}: best-response gap {g['gap']!r} exceeds {GAP_TOL} of the top prize")
            if g["on_support_residual"] > GAP_TOL * top:
                errs.append(f"type {k}: indifference residual {g['on_support_residual']!r}")
            points = np.concatenate((grid, [b[k - 1], b[k]]))
            if np.min(np.abs(points - g["argmax_effort"])) > SOLVE_TOL * max(1.0, b[-1]):
                errs.append(f"type {k}: argmax effort {g['argmax_effort']!r} is not a sweep point")
        mc = res["monte_carlo"]
        if mc["n_samples"] != int(cmd["n_samples"]) or mc["seed"] != req.config["output"]["seed"]:
            errs.append("Monte Carlo sample count or seed differs from the request")
        if not abs(mc["mean"] - effort) <= mc["half_width"]:
            errs.append(f"Monte Carlo mean {mc['mean']!r} +- {mc['half_width']!r} misses E[X]={effort!r}")
        return errs

    def _converge(self, req, res):
        cmd = req.config["command"]
        body = req.config["environment"]
        prizes = req.config["contest"]["prizes"]
        errs = []
        entries = res["entries"]
        if [e[0] for e in entries] != list(cmd["n_list"]):
            errs.append("entries do not follow n_list")
        gaps = [e[1] for e in entries]
        if any(not b < a for a, b in zip(gaps, gaps[1:])):
            errs.append(f"gaps {gaps!r} do not strictly decrease in n")
        if res["grid_points"] != int(cmd.get("grid_points", 513)):
            errs.append(f"grid of {res['grid_points']} points")
        want = self._ref(req, "max", lambda: continuum_max_effort(body, prizes))
        if not _close(res["max_effort"], want, MAX_EFFORT_TOL):
            errs.append(f"max_effort={res['max_effort']!r}, quadrature {want!r}")
        if body.get("family", "uniform") == "uniform" and int(body["n_others"]) == 1:
            lo, hi = body["support"]
            closed = prizes[-1] * math.log(hi / lo) / (hi - lo)
            if not _close(res["max_effort"], closed, MAX_EFFORT_TOL):
                errs.append(f"max_effort={res['max_effort']!r}, v ln(hi/lo)/(hi-lo) = {closed!r}")
        return errs
