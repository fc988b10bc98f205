"""Seeded request lists for the three workloads.

A workload is a fixed list of CLI requests (a "round"). Every request
carries its own config, the exit code it must end with, and, when it is
expected to fail because of a known fault in the program, the name of that
fault. The seed only moves parameter values; sizes, request kinds and
counts are fixed so that every seed asks for about the same amount of work.
Requests whose checks are statistical (the Monte Carlo band of `verify`) and
the malformed configs use fixed inputs: a 3-standard-error band misses with
probability 0.27 % per draw, so seeding it would fail on some seeds with
correct code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("design", "converge", "query")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SCHEMA = 3
EXIT_VALIDATION = 4


@dataclass(frozen=True)
class Request:
    """One CLI call: a config (JSON mapping, or raw text) and what must come back."""

    name: str
    command: str
    config: dict | None = None
    text: str | None = None
    expect_exit: int = EXIT_OK
    known_fault: str | None = None

    @property
    def suffix(self) -> str:
        return ".json" if self.text is None else ".cfg"


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])


def _near(rng, value: float, rel: float) -> float:
    return float(value * (1.0 + rng.uniform(-rel, rel)))


def _probs(rng, k: int) -> list[float]:
    p = rng.uniform(0.9, 1.1, size=k)
    return [float(v) for v in p / p.sum()]


def _thetas(rng, k: int) -> list[float]:
    """Scales k, k-1, ..., 1 (least efficient first), each moved by at most 5 %."""
    return [_near(rng, float(k - i), 0.05) for i in range(k)]


def _ladder(rng, n: int, total: float) -> list[float]:
    """Strictly increasing ladder 0 < v_1 < ... < v_N summing to total, steps within 10 % of 1, 2, ..., N."""
    steps = [_near(rng, float(m), 0.1) for m in range(1, n + 1)]
    prizes = np.concatenate(([0.0], np.cumsum(steps)))
    prizes *= total / prizes[1:].sum()
    return [float(v) for v in prizes]


def _parametric(rng, kind: str, k: int, n: int, exponent: float | None = None) -> dict:
    env = {"n_others": n, "types": [kind] * k, "thetas": _thetas(rng, k), "probs": _probs(rng, k)}
    if kind == "power":
        env["exponents"] = [exponent] * k
    return env


def _tables(rng, k: int) -> list[list[list[float]]]:
    """k tabulated costs, least efficient (steepest) first.

    Each table is one convex base scaled by a strictly decreasing factor, so
    marginal costs are ordered at every effort. The interior knot (effort 3)
    lies beyond every effort these workloads reach, so the cost is one smooth
    cubic piece there and every seed asks for the same quadrature work.
    """
    xs = [0.0, 3.0, 6.0]
    slopes = [_near(rng, s, 0.05) for s in (1.0, 1.6)]
    base = np.concatenate(([0.0], np.cumsum(np.diff(xs) * slopes)))
    return [[[x, float(s * c)] for x, c in zip(xs, base)] for s in _thetas(rng, k)]


def _tabulated(rng, k: int, n: int) -> dict:
    probs = _probs(rng, k)
    return {
        "n_others": n,
        "types": [
            {"kind": "tabulated", "prob": p, "table": table}
            for p, table in zip(probs, _tables(rng, k))
        ],
    }


def _config(env: dict, command: dict, contest: dict | None = None, seed: int = 0) -> dict:
    cfg = {"environment": env, "command": command, "output": {"format": "json", "seed": seed}}
    if contest is not None:
        cfg["contest"] = contest
    return cfg


def design(seed: int, tiny: bool = False) -> list[Request]:
    """Heavy `optimize` requests and numeric `compare` requests.

    Each request evaluates expected effort many times on one environment,
    so the design, effort and equilibrium layers do nearly all the work.
    """
    rng = _rng(seed, "design")
    n_concave, n_convex, n_tab = (1, 1, 1) if tiny else (4, 2, 3)
    k_concave, k_convex = (2, 2) if tiny else (4, 3)
    out = []
    # Three concave searches, so that req_s.p50 (the middle one of them) does
    # not hang on the path length of a single seeded search.
    for name, exponent, k, n in (
        ("optimize_concave_0", 0.5, k_concave, n_concave),
        ("optimize_concave_1", 0.5, k_concave, n_concave),
        ("optimize_concave_2", 0.5, k_concave, n_concave),
        ("optimize_convex", 2.0, k_convex, n_convex),
    ):
        budget = _near(rng, 1.0, 0.05)
        env = _parametric(rng, "power", k, n, exponent)
        cfg = _config(
            env,
            {"name": "optimize", "mode": "vertex_plus_search"},
            {"budget": budget},
            seed=int(rng.integers(1 << 30)),
        )
        out.append(Request(name, "optimize", cfg))
    budget = _near(rng, 1.0, 0.05)
    cfg = _config(_tabulated(rng, 2, n_tab), {"name": "optimize", "mode": "vertex"}, {"budget": budget})
    out.append(Request("optimize_tabulated", "optimize", cfg))
    for name, exponent in (("compare_concave", 0.5), ("compare_convex", 2.0)):
        n = 3
        env = _parametric(rng, "power", 3, n, exponent)
        m_prime = int(rng.integers(1, n))
        cfg = _config(
            env,
            {"name": "compare", "m": n, "m_prime": m_prime, "numeric": True},
            {"prizes": _ladder(rng, n, _near(rng, 1.0, 0.05))},
        )
        out.append(Request(name, "compare", cfg))
    return out


def converge(seed: int, tiny: bool = False) -> list[Request]:
    """`converge` on the uniform, power and tabulated continuum families."""
    rng = _rng(seed, "converge")
    n_list = [2, 8] if tiny else [4, 16, 64, 256]
    command = {"name": "converge", "n_list": n_list}
    if tiny:
        command["grid_points"] = 17
    out = []

    def support():
        lo = _near(rng, 1.0, 0.05)
        return lo, lo + _near(rng, 1.0, 0.05)

    lo, hi = support()
    env = {"n_others": 1, "family": "uniform", "support": [lo, hi]}
    contest = {"prizes": [0.0, _near(rng, 1.0, 0.05)]}
    out.append(Request("converge_uniform", "converge", _config(env, dict(command), contest)))

    lo, hi = support()
    env = {"n_others": 2, "family": "power", "support": [lo, hi], "shape": _near(rng, 2.0, 0.05)}
    contest = {"prizes": _ladder(rng, 2, _near(rng, 1.0, 0.05))}
    out.append(Request("converge_power", "converge", _config(env, dict(command), contest)))

    lo, hi = support()
    table = [[lo, 0.0], [0.5 * (lo + hi), _near(rng, 0.5, 0.1)], [hi, 1.0]]
    env = {"n_others": 1, "family": "tabulated", "table": table}
    contest = {"prizes": [0.0, _near(rng, 1.0, 0.05)]}
    out.append(Request("converge_tabulated", "converge", _config(env, dict(command), contest)))
    return out


# Malformed configs: fixed inputs, each with the exit code the CLI documents.
_GOOD_ENV = {"n_others": 2, "types": ["linear", "linear"], "thetas": [2.0, 1.0], "probs": [0.5, 0.5]}

_MALFORMED = (
    ("malformed_text_syntax", "[environment]\nn_others 2\n", EXIT_PARSE, None),
    ("malformed_json_syntax", '{"environment": {"n_others": 2,', EXIT_PARSE, None),
    ("malformed_unknown_section", {"environment": _GOOD_ENV, "extras": {}, "command": {"name": "solve"}}, EXIT_SCHEMA, None),
    ("malformed_unknown_command", {"environment": _GOOD_ENV, "contest": {"prizes": [0, 0, 1]}, "command": {"name": "frobnicate"}}, EXIT_SCHEMA, None),
    ("malformed_compare_without_m", {"environment": _GOOD_ENV, "command": {"name": "compare", "m_prime": 1}}, EXIT_SCHEMA, None),
    ("malformed_probs_sum", {"environment": dict(_GOOD_ENV, probs=[0.5, 0.4]), "contest": {"prizes": [0, 0, 1]}, "command": {"name": "solve"}}, EXIT_VALIDATION, None),
    ("malformed_theta_order", {"environment": dict(_GOOD_ENV, thetas=[1.0, 2.0]), "contest": {"prizes": [0, 0, 1]}, "command": {"name": "solve"}}, EXIT_VALIDATION, None),
    ("malformed_decreasing_prizes", {"environment": _GOOD_ENV, "contest": {"prizes": [0, 1, 0.5]}, "command": {"name": "solve"}}, EXIT_VALIDATION, None),
    ("malformed_prize_count", {"environment": _GOOD_ENV, "contest": {"prizes": [0, 1]}, "command": {"name": "solve"}}, EXIT_VALIDATION, None),
    # The two below let a ValueError escape cli.main instead of exiting 3
    # (cli.py:400 converts prizes with float(); cli.py:677 n_samples with int()).
    ("malformed_prize_string", {"environment": _GOOD_ENV, "contest": {"prizes": [0, "ten", 20]}, "command": {"name": "solve"}}, EXIT_SCHEMA, "prizes entry given as a string escapes cli.main as ValueError"),
    ("malformed_n_samples_string", {"environment": _GOOD_ENV, "contest": {"prizes": [0, 0, 1]}, "command": {"name": "verify", "n_samples": "many"}}, EXIT_SCHEMA, "string n_samples escapes cli.main as ValueError"),
)


def _to_text(cfg: dict) -> str:
    """Render a parametric config in the sectioned key-value format."""
    lines = []
    for section, body in cfg.items():
        lines.append(f"[{section}]")
        for key, value in body.items():
            if isinstance(value, list):
                value = ", ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def query(seed: int, tiny: bool = False) -> list[Request]:
    """A shuffled stream of short one-shot requests, each on its own environment."""
    rng = _rng(seed, "query")
    big_n = 12 if tiny else 200
    out: list[Request] = []

    # (kind, K, N, exponent) per slot: shapes are fixed, values move with the
    # seed. Ten malformed configs run faster than any solve and ten requests
    # slower, so the median request is a parametric solve whatever the
    # shuffle: CLI parsing, validation and one small recursion.
    solves = tuple(
        (kind, k, n, exponent)
        for kind, exponent in (("linear", None), ("power", 0.5), ("power", 2.0), ("power", 3.0))
        for k, n in ((2, 2), (3, 4), (4, 6), (2, 5))
    ) + (("linear", 3, 3, None), ("tabulated", 2, 3, None), ("tabulated", 2, 4, None))
    efforts = (("linear", 3, 4, None), ("power", 3, 3, 0.5), ("power", 2, 4, 2.0), ("tabulated", 2, 2, None))
    for command, slots in (("solve", solves), ("effort", efforts)):
        for i, (kind, k, n, exponent) in enumerate(slots):
            env = _tabulated(rng, k, n) if kind == "tabulated" else _parametric(rng, kind, k, n, exponent)
            cfg = _config(env, {"name": command}, {"prizes": _ladder(rng, n, _near(rng, 1.0, 0.05))})
            as_text = i % 2 == 0 and kind != "tabulated"
            out.append(Request(f"{command}_{i}", command, cfg, _to_text(cfg) if as_text else None))

    for i, (kind, cost_space) in enumerate((("linear", False), ("power", True))):
        env = _parametric(rng, kind, 2, big_n, 2.0 if kind == "power" else None)
        cfg = _config(env, {"name": "alpha", "cost_space": cost_space})
        out.append(Request(f"alpha_{i}", "alpha", cfg))

    for i, (kind, k, n, m, m_prime) in enumerate((("linear", 3, 4, 4, 2), ("power", 2, 6, 3, 1))):
        env = _parametric(rng, kind, k, n, 0.5 if kind == "power" else None)
        cfg = _config(env, {"name": "compare", "m": m, "m_prime": m_prime})
        out.append(Request(f"compare_{i}", "compare", cfg))

    verify_cases = (
        ({"n_others": 2, "types": ["linear", "linear"], "thetas": [2.0, 1.0], "probs": [0.5, 0.5]}, [0.0, 0.25, 1.0], 20_000, 11),
        ({"n_others": big_n, "types": ["linear"] * 3, "thetas": [3.0, 2.0, 1.0], "probs": [0.3, 0.3, 0.4]}, [float(m) / big_n for m in range(big_n + 1)], 20_000 if tiny else 200_000, 13),
    )
    for i, (env, prizes, n_samples, mc_seed) in enumerate(verify_cases):
        cfg = _config(env, {"name": "verify", "n_samples": n_samples}, {"prizes": prizes}, seed=mc_seed)
        out.append(Request(f"verify_{i}", "verify", cfg))

    for name, body, code, fault in _MALFORMED:
        if isinstance(body, str):
            out.append(Request(name, "malformed", text=body, expect_exit=code, known_fault=fault))
        else:
            out.append(Request(name, "malformed", body, expect_exit=code, known_fault=fault))

    order = rng.permutation(len(out))
    return [out[i] for i in order]


GENERATORS = {"design": design, "converge": converge, "query": query}


def warmup(workload: str) -> Request:
    """One light request of the workload's kind, served before timing starts."""
    env = {"n_others": 2, "types": ["linear", "linear"], "thetas": [2.0, 1.0], "probs": [0.5, 0.5]}
    if workload == "design":
        cfg = _config(env, {"name": "optimize", "mode": "vertex"}, {"budget": 1.0})
    elif workload == "converge":
        cfg = _config(
            {"n_others": 1, "family": "uniform", "support": [1.0, 2.0]},
            {"name": "converge", "n_list": [2, 4], "grid_points": 9},
            {"prizes": [0.0, 1.0]},
        )
    else:
        cfg = _config(env, {"name": "solve"}, {"prizes": [0.0, 0.0, 1.0]})
    return Request("warmup", cfg["command"]["name"], cfg)
