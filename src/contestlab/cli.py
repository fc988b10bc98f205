"""Config-driven batch runner: `contestlab <config> [flags]`.

Configs are flat sectioned key-value text ([environment], [contest],
[command], [output]; lists comma-separated), chosen for hand-editability in
experiment sweeps; a JSON document with the same schema is accepted
interchangeably. Every run is deterministic given its config and seed, and
reports are written atomically.

Exit codes: 0 ok, 2 parse, 3 schema, 4 validation, 5 numeric, 6 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any

from . import __version__
from .competition import CompetitionQuery, attach_numeric_estimate, classify
from .continuum import ContinuumEnvironment, convergence_report
from .costs import ContestEnvironment, CostFunction, validate_environment
from .design import optimize_budget
from .effort import alpha_coefficients, expected_effort, expected_effort_per_type
from .equilibrium import EQM_TOL, solve
from .errors import ContestError
from ._quad import QUAD_TOL
from .kernels import ROOT_TOL, Contest
from .verify import verification_report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SCHEMA = 3
EXIT_VALIDATION = 4
EXIT_NUMERIC = 5
EXIT_IO = 6

_DEFAULT_TOLERANCES = {
    "tol_root": ROOT_TOL,
    "tol_eqm": EQM_TOL,
    "tol_quad": QUAD_TOL,
}

_COMMANDS = {
    "solve": (),
    "effort": (),
    "alpha": ("cost_space",),
    "compare": ("m", "m_prime", "numeric", "step"),
    "optimize": ("mode",),
    "verify": ("n_samples", "grid_size"),
    "converge": ("n_list", "grid_points"),
}

_SECTIONS = ("environment", "contest", "command", "output")


class ConfigError(ContestError):
    exit_code = EXIT_PARSE


class ConfigParseError(ConfigError):
    exit_code = EXIT_PARSE


class ConfigSchemaError(ConfigError):
    exit_code = EXIT_SCHEMA


class ConfigValidationError(ConfigError):
    exit_code = EXIT_VALIDATION


@dataclass(frozen=True)
class RunConfig:
    """Fully validated description of one batch run."""

    environment: ContestEnvironment | ContinuumEnvironment
    contest: Contest | None
    budget: float | None
    command: str
    options: dict
    fmt: str
    out_path: str | None
    seed: int
    tolerances: dict


@dataclass(frozen=True)
class RunReport:
    """Report payload plus its tabular projection for CSV output."""

    command: str
    inputs_digest: str
    results: dict
    meta: dict
    csv_header: tuple[str, ...]
    csv_rows: tuple[tuple, ...]


# ---------------------------------------------------------------------------
# parsing: text and JSON front ends producing one raw mapping
# ---------------------------------------------------------------------------


def _read_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: dict[str, tuple[str, int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigParseError(f"line {lineno}: malformed section header {raw.strip()!r}")
            name = line[1:-1].strip().lower()
            if not name:
                raise ConfigParseError(f"line {lineno}: empty section name")
            if name in sections:
                raise ConfigParseError(f"line {lineno}: duplicate section [{name}]")
            if name not in _SECTIONS:
                raise ConfigSchemaError(f"line {lineno}: unknown section [{name}]")
            current = {}
            sections[name] = current
        elif "=" in line:
            if current is None:
                raise ConfigParseError(f"line {lineno}: key outside any section")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if not key:
                raise ConfigParseError(f"line {lineno}: missing key before '='")
            if key in current:
                raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
            current[key] = (value.strip(), lineno)
        else:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
    return sections


def _where(key: str, line: int) -> str:
    return f"line {line}: field '{key}'" if line > 0 else f"field '{key}'"


def _coerce_scalar(key: str, raw: str, kind: str, line: int):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigSchemaError(f"{_where(key, line)} must be {kind}, got {raw!r}") from None


def _coerce(key: str, raw: str, kind: str, line: int):
    if kind.startswith("list:"):
        inner = kind.split(":", 1)[1]
        items = [piece.strip() for piece in raw.split(",") if piece.strip()]
        if not items:
            raise ConfigSchemaError(f"{_where(key, line)} must be a nonempty list")
        return [_coerce_scalar(key, item, inner, line) for item in items]
    if kind == "pairs":
        pairs = []
        for piece in raw.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            left, sep, right = piece.partition(":")
            if not sep:
                raise ConfigSchemaError(f"{_where(key, line)} pairs must look like 'x:y'")
            pairs.append(
                [
                    _coerce_scalar(key, left.strip(), "float", line),
                    _coerce_scalar(key, right.strip(), "float", line),
                ]
            )
        if not pairs:
            raise ConfigSchemaError(f"{_where(key, line)} must list at least one pair")
        return pairs
    return _coerce_scalar(key, raw, kind, line)


# key -> coercion kind, shared by every section (key names are globally unique)
_KEY_KINDS = {
    "n_others": "int",
    "types": "list:str",
    "thetas": "list:float",
    "exponents": "list:float",
    "probs": "list:float",
    "family": "str",
    "support": "list:float",
    "shape": "float",
    "table": "pairs",
    "prizes": "list:float",
    "budget": "float",
    "name": "str",
    "m": "int",
    "m_prime": "int",
    "numeric": "bool",
    "step": "float",
    "mode": "str",
    "n_samples": "int",
    "grid_size": "int",
    "n_list": "list:int",
    "grid_points": "int",
    "cost_space": "bool",
    "format": "str",
    "path": "str",
    "seed": "int",
    **{key: "float" for key in _DEFAULT_TOLERANCES},
}


def _raw_from_text(text: str) -> tuple[dict[str, dict[str, Any]], dict[str, dict[str, int]]]:
    sections = _read_sections(text)
    raw: dict[str, dict[str, Any]] = {}
    lines: dict[str, dict[str, int]] = {}
    for name, entries in sections.items():
        raw[name] = {}
        lines[name] = {}
        for key, (value, line) in entries.items():
            if key in _KEY_KINDS:
                kind = _KEY_KINDS[key]
            elif key.startswith("table_"):
                kind = "pairs"
            else:
                raise ConfigSchemaError(f"{_where(key, line)} is not a recognized field")
            raw[name][key] = _coerce(key, value, kind, line)
            lines[name][key] = line
    return raw, lines


_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


def _check_json(key: str, value, kind: str) -> None:
    """Reject a JSON value whose type does not fit the field's coercion kind.

    JSON values arrive typed and are not converted: a string or a fraction
    where a number or an integer belongs is a schema error here, not a
    ValueError in a later float() or int() call.
    """
    if kind == "pairs":
        pairs = isinstance(value, list) and all(isinstance(p, list) and len(p) == 2 for p in value)
        items, inner = (sum(value, []) if pairs else None), "float"
    elif kind.startswith("list:"):
        items, inner = (value if isinstance(value, list) else None), kind[5:]
    else:
        items, inner = [value], kind
    wanted = _JSON_TYPES.get(inner)
    if wanted is not None and (
        items is None
        or any(isinstance(v, bool) != (inner == "bool") or not isinstance(v, wanted) for v in items)
    ):
        raise ConfigSchemaError(f"field '{key}' must be {kind}, got {value!r}")


def _raw_from_json(text: str) -> tuple[dict[str, dict[str, Any]], dict[str, dict[str, int]]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"invalid JSON config: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigParseError("JSON config must be an object of sections")
    raw: dict[str, dict[str, Any]] = {}
    for name, body in data.items():
        if name not in _SECTIONS:
            raise ConfigSchemaError(f"unknown section {name!r}")
        if not isinstance(body, dict):
            raise ConfigSchemaError(f"section {name!r} must be an object")
        for key, value in body.items():
            if key.startswith("table"):
                _check_json(key, value, "pairs")
            elif key in _KEY_KINDS:
                _check_json(key, value, _KEY_KINDS[key])
            elif key.startswith("tol_"):
                raise ConfigSchemaError(f"field '{key}' is not a recognized field")
        raw[name] = dict(body)
    lines = {name: {} for name in raw}
    return raw, lines


# ---------------------------------------------------------------------------
# building a RunConfig from the raw mapping
# ---------------------------------------------------------------------------


def _line(lines: dict, section: str, key: str) -> int:
    return lines.get(section, {}).get(key, 0)


def _require(raw: dict, lines: dict, section: str, key: str):
    body = raw.get(section)
    if body is None or key not in body:
        raise ConfigSchemaError(f"section [{section}] is missing required field '{key}'")
    return body[key]


def _type_records(env_body: dict, lines: dict) -> list[dict]:
    """Normalize the two accepted type layouts into per-type records."""
    types = env_body.get("types")
    if isinstance(types, list) and types and isinstance(types[0], dict):
        for record in types:
            for key in ("theta", "exponent", "prob", "table"):
                if isinstance(record, dict) and key in record:
                    _check_json(key, record[key], "pairs" if key == "table" else "float")
        return types
    if not isinstance(types, list):
        raise ConfigSchemaError("field 'types' must list cost kinds")
    kinds = [str(kind) for kind in types]
    count = len(kinds)

    def spread(key: str, default=None):
        values = env_body.get(key)
        if values is None:
            return [default] * count
        if not isinstance(values, list) or len(values) != count:
            raise ConfigSchemaError(
                f"{_where(key, _line(lines, 'environment', key))} must list one value per type"
            )
        return values

    thetas = spread("thetas", 1.0)
    exponents = spread("exponents", None)
    probs = spread("probs")
    records = []
    for idx, kind in enumerate(kinds):
        record = {"kind": kind, "theta": thetas[idx], "prob": probs[idx]}
        if exponents[idx] is not None:
            record["exponent"] = exponents[idx]
        table = env_body.get(f"table_{idx + 1}")
        if table is not None:
            record["table"] = table
        records.append(record)
    return records


def _build_finite_environment(raw: dict, lines: dict) -> ContestEnvironment:
    body = raw["environment"]
    n_others = _require(raw, lines, "environment", "n_others")
    if not isinstance(n_others, int):
        raise ConfigSchemaError(f"{_where('n_others', _line(lines, 'environment', 'n_others'))} must be int")
    records = _type_records(body, lines)
    types = []
    probs = []
    for idx, record in enumerate(records, start=1):
        if not isinstance(record, dict) or "kind" not in record or "prob" not in record:
            raise ConfigSchemaError(f"type {idx} must carry at least 'kind' and 'prob'")
        kind = str(record["kind"])
        try:
            if kind == "linear":
                types.append(CostFunction.linear(float(record.get("theta", 1.0))))
            elif kind == "power":
                types.append(
                    CostFunction.power(
                        float(record.get("theta", 1.0)), float(record.get("exponent", 1.0))
                    )
                )
            elif kind == "tabulated":
                table = record.get("table")
                if table is None:
                    raise ConfigSchemaError(f"type {idx} is tabulated but has no table")
                types.append(CostFunction.tabulated(table))
            else:
                raise ConfigSchemaError(f"type {idx} has unknown kind {kind!r}")
        except ContestError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigValidationError(f"type {idx}: {exc}") from None
        probs.append(float(record["prob"]))
    try:
        return ContestEnvironment(n_others=n_others, types=tuple(types), probs=tuple(probs))
    except ContestError as exc:
        raise ConfigValidationError(f"environment: {exc}") from None


def _build_continuum_environment(raw: dict, lines: dict) -> ContinuumEnvironment:
    body = raw["environment"]
    n_others = _require(raw, lines, "environment", "n_others")
    family = str(body.get("family", "uniform"))
    try:
        if family == "tabulated":
            # the table's endpoints define the support; a support key, if
            # given, must agree with them
            table = body.get("table")
            if table is None:
                raise ConfigSchemaError("tabulated type distribution needs a 'table'")
            env = ContinuumEnvironment.tabulated(n_others, table)
            support = body.get("support")
            if support is not None and (
                float(support[0]) != env.theta_lo or float(support[1]) != env.theta_hi
            ):
                raise ConfigValidationError(
                    f"{_where('support', _line(lines, 'environment', 'support'))} "
                    "disagrees with the table endpoints"
                )
            return env
        support = _require(raw, lines, "environment", "support")
        if not isinstance(support, list) or len(support) != 2:
            raise ConfigSchemaError(
                f"{_where('support', _line(lines, 'environment', 'support'))} must be two numbers"
            )
        return ContinuumEnvironment(
            n_others=n_others,
            theta_lo=float(support[0]),
            theta_hi=float(support[1]),
            family=family,
            shape=float(body.get("shape", 1.0)),
        )
    except ContestError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigValidationError(f"environment: {exc}") from None


def _build_contest(raw: dict, lines: dict) -> tuple[Contest | None, float | None]:
    body = raw.get("contest") or {}
    contest = None
    budget = None
    if "prizes" in body:
        try:
            contest = Contest(tuple(float(v) for v in body["prizes"]))
        except ContestError as exc:
            raise ConfigValidationError(f"contest: {exc}") from None
    if "budget" in body:
        budget = float(body["budget"])
        if budget <= 0.0:
            raise ConfigValidationError(
                f"{_where('budget', _line(lines, 'contest', 'budget'))} must be positive"
            )
    if budget is None and contest is not None:
        budget = contest.total_budget
    return contest, budget


def _build_config(raw: dict, lines: dict) -> RunConfig:
    command_body = raw.get("command")
    if not command_body or "name" not in command_body:
        raise ConfigSchemaError("section [command] must set 'name'")
    command = str(command_body["name"])
    if command not in _COMMANDS:
        raise ConfigSchemaError(
            f"{_where('name', _line(lines, 'command', 'name'))} must be one of {sorted(_COMMANDS)}"
        )
    allowed = _COMMANDS[command]
    options = {}
    for key, value in command_body.items():
        if key == "name":
            continue
        if key not in allowed:
            raise ConfigSchemaError(
                f"{_where(key, _line(lines, 'command', key))} is not an option of '{command}'"
            )
        options[key] = value
    if command == "compare":
        for needed in ("m", "m_prime"):
            if needed not in options:
                raise ConfigSchemaError(f"command 'compare' requires option '{needed}'")
    if command == "converge" and "n_list" not in options:
        raise ConfigSchemaError("command 'converge' requires option 'n_list'")

    if "environment" not in raw:
        raise ConfigSchemaError("section [environment] is required")
    continuum_wanted = command == "converge"
    has_continuum_keys = "support" in raw["environment"] or "family" in raw["environment"]
    if continuum_wanted:
        if not has_continuum_keys:
            raise ConfigSchemaError(
                "command 'converge' needs a continuum environment (family/support)"
            )
        environment: ContestEnvironment | ContinuumEnvironment = _build_continuum_environment(
            raw, lines
        )
    else:
        if has_continuum_keys:
            raise ConfigSchemaError(
                f"command '{command}' needs a finite environment, not a continuum one"
            )
        environment = _build_finite_environment(raw, lines)

    contest, budget = _build_contest(raw, lines)

    output = raw.get("output") or {}
    fmt = str(output.get("format", "json"))
    if fmt not in ("json", "csv"):
        raise ConfigSchemaError(
            f"{_where('format', _line(lines, 'output', 'format'))} must be 'json' or 'csv'"
        )
    seed = output.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigSchemaError(f"{_where('seed', _line(lines, 'output', 'seed'))} must be int")
    path = output.get("path")
    tolerances = {
        key: float(value) for key, value in output.items() if key in _DEFAULT_TOLERANCES
    }
    for key, value in tolerances.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigValidationError(
                f"{_where(key, _line(lines, 'output', key))} must be finite and positive"
            )

    config = RunConfig(
        environment=environment,
        contest=contest,
        budget=budget,
        command=command,
        options=options,
        fmt=fmt,
        out_path=str(path) if path is not None else None,
        seed=seed,
        tolerances=tolerances,
    )
    _validate_config(config)
    return config


def _validate_config(config: RunConfig) -> None:
    env = config.environment
    if isinstance(env, ContestEnvironment):
        report = validate_environment(env, config.contest)
        if not report.passed:
            raise ConfigValidationError(f"environment: {report.failures[0]}")
    needs_contest = config.command in ("solve", "effort", "verify", "converge") or (
        config.command == "compare" and config.options.get("numeric")
    )
    if needs_contest and config.contest is None:
        raise ConfigValidationError(f"command '{config.command}' needs contest prizes")
    if config.command == "optimize" and config.budget is None:
        raise ConfigValidationError("command 'optimize' needs a budget (or prizes to total)")
    if config.contest is not None and env.n_others != config.contest.n_opponents:
        raise ConfigValidationError(
            "field 'prizes': environment and contest disagree on the number of opponents"
        )


def load_config(path: str) -> RunConfig:
    """Parse, schema-check, and validate a config file (text or JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path!r}: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        raw, lines = _raw_from_json(text)
    else:
        raw, lines = _raw_from_text(text)
    return _build_config(raw, lines)


# ---------------------------------------------------------------------------
# canonical serialization (digest + round-trip)
# ---------------------------------------------------------------------------


def config_to_mapping(config: RunConfig) -> dict:
    env = config.environment
    if isinstance(env, ContestEnvironment):
        records = []
        for cf, prob in zip(env.types, env.probs):
            record: dict[str, Any] = {"kind": cf.kind, "prob": prob}
            if cf.kind == "tabulated":
                record["table"] = [list(point) for point in cf.points]
            else:
                record["theta"] = cf.theta
                if cf.kind == "power":
                    record["exponent"] = cf.exponent
            records.append(record)
        env_block: dict[str, Any] = {"n_others": env.n_others, "types": records}
    else:
        env_block = {
            "n_others": env.n_others,
            "family": env.family,
            "support": [env.theta_lo, env.theta_hi],
        }
        if env.family == "power":
            env_block["shape"] = env.shape
        if env.family == "tabulated":
            env_block["table"] = [list(point) for point in env.points]

    contest_block: dict[str, Any] = {}
    if config.contest is not None:
        contest_block["prizes"] = list(config.contest.prizes)
    if config.budget is not None:
        contest_block["budget"] = config.budget

    output_block: dict[str, Any] = {"format": config.fmt, "seed": config.seed}
    if config.out_path is not None:
        output_block["path"] = config.out_path
    output_block.update(config.tolerances)

    return {
        "environment": env_block,
        "contest": contest_block,
        "command": {"name": config.command, **config.options},
        "output": output_block,
    }


def dump_config(config: RunConfig) -> str:
    """Canonical JSON serialization; load_config on it reproduces the config."""
    return json.dumps(config_to_mapping(config), sort_keys=True, indent=2) + "\n"


def _digest(config: RunConfig) -> str:
    """Hash of the result-determining inputs (destination and format excluded)."""
    mapping = config_to_mapping(config)
    mapping["output"] = {
        key: value
        for key, value in mapping["output"].items()
        if key not in ("path", "format")
    }
    canonical = json.dumps(mapping, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_solve(config: RunConfig):
    eqm = solve(config.environment, config.contest)
    results = {
        "boundaries": list(eqm.boundaries),
        "utilities": list(eqm.utilities),
    }
    rows = tuple(
        (k, eqm.boundaries[k - 1], eqm.boundaries[k], eqm.utilities[k - 1])
        for k in range(1, config.environment.n_types + 1)
    )
    return results, ("k", "lower", "upper", "utility"), rows, f"b_K={eqm.max_effort:.9g}"


def _cmd_effort(config: RunConfig):
    tol = config.tolerances.get("tol_quad", _DEFAULT_TOLERANCES["tol_quad"])
    eqm = solve(config.environment, config.contest)
    total = expected_effort(config.environment, config.contest, eqm, tol=tol)
    per_type = [
        expected_effort_per_type(eqm, k, tol=tol)
        for k in range(1, config.environment.n_types + 1)
    ]
    results = {"expected_effort": total, "per_type": per_type}
    rows = [("total", total)]
    rows += [(f"type_{k}", value) for k, value in enumerate(per_type, start=1)]
    return results, ("scope", "value"), tuple(rows), f"E[X]={total:.9g}"


def _cmd_alpha(config: RunConfig):
    cost_space = bool(config.options.get("cost_space", False))
    alphas = alpha_coefficients(config.environment, cost_space=cost_space).coefficients
    results = {"alpha": list(alphas), "cost_space": cost_space}
    rows = tuple((m, value) for m, value in enumerate(alphas, start=1))
    return results, ("m", "alpha"), rows, f"alpha_N={alphas[-1]:.9g}"


def _cmd_compare(config: RunConfig):
    query = CompetitionQuery(m=config.options["m"], m_prime=config.options["m_prime"])
    report = classify(config.environment, query)
    if config.options.get("numeric") and config.contest is not None:
        report = attach_numeric_estimate(
            report, config.environment, config.contest, step=config.options.get("step")
        )
    results = {
        "m": query.m,
        "m_prime": query.m_prime,
        "linear_effect": report.linear_effect,
        "utility_effects": list(report.utility_effects),
        "top_type_condition": report.top_type_condition,
        "single_crossing": report.single_crossing,
        "classification": report.label,
    }
    if report.numeric_estimate is not None:
        results["numeric_estimate"] = report.numeric_estimate
    rows = ((query.m, query.m_prime, report.linear_effect, report.label),)
    header = ("m", "m_prime", "linear_effect", "classification")
    return results, header, rows, f"linear_effect={report.linear_effect:.9g}"


def _cmd_optimize(config: RunConfig):
    mode = str(config.options.get("mode", "vertex"))
    solution = optimize_budget(config.environment, config.budget, mode=mode, seed=config.seed)
    results = {
        "prizes": list(solution.contest.prizes),
        "value": solution.value,
        "label": solution.label,
        "mode": solution.mode,
        "tied_contests": [list(c.prizes) for c in solution.ties],
        "evaluations": solution.evaluations,
    }
    rows = tuple((m, v) for m, v in enumerate(solution.contest.prizes))
    return results, ("m", "prize"), rows, f"value={solution.value:.9g} ({solution.label})"


def _cmd_verify(config: RunConfig):
    eqm = solve(config.environment, config.contest)
    audit = verification_report(
        config.environment,
        config.contest,
        eqm,
        n_samples=int(config.options.get("n_samples", 100_000)),
        seed=config.seed,
        grid_size=int(config.options.get("grid_size", 1024)),
    )
    results = {
        "gaps": [
            {
                "type": g.type_index,
                "gap": g.gap,
                "argmax_effort": g.argmax_effort,
                "on_support_residual": g.on_support_residual,
            }
            for g in audit.gaps
        ],
        "monte_carlo": {
            "mean": audit.monte_carlo.mean,
            "half_width": audit.monte_carlo.half_width,
            "n_samples": audit.monte_carlo.n_samples,
            "seed": audit.monte_carlo.seed,
        },
    }
    rows = tuple((g.type_index, g.gap, g.on_support_residual) for g in audit.gaps)
    return (
        results,
        ("type", "gap", "on_support_residual"),
        rows,
        f"max_gap={audit.worst_gap:.3g}",
    )


def _cmd_converge(config: RunConfig):
    n_list = [int(n) for n in config.options["n_list"]]
    report = convergence_report(
        config.environment,
        config.contest,
        n_list,
        grid_points=int(config.options.get("grid_points", 513)),
    )
    results = {
        "entries": [[n, gap] for n, gap in report.entries],
        "max_effort": report.max_effort,
        "grid_points": report.grid_points,
    }
    rows = tuple(report.entries)
    final = report.entries[-1][1]
    return results, ("n", "sup_gap"), rows, f"final_gap={final:.3g}"


_HANDLERS = {
    "solve": _cmd_solve,
    "effort": _cmd_effort,
    "alpha": _cmd_alpha,
    "compare": _cmd_compare,
    "optimize": _cmd_optimize,
    "verify": _cmd_verify,
    "converge": _cmd_converge,
}


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _render(report: RunReport, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "command": report.command,
            "inputs_digest": report.inputs_digest,
            "results": report.results,
            "meta": report.meta,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = [",".join(report.csv_header)]
    for row in report.csv_rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, fmt: str, path: str | None) -> None:
    """Write the report; files are written atomically (temp file + rename)."""
    data = _render(report, fmt)
    if path is None or path == "-":
        sys.stdout.write(data)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".contestlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run(config: RunConfig) -> int:
    """Dispatch the configured command, emit its report, echo a summary line."""
    started = time.perf_counter()
    try:
        results, header, rows, scalar = _HANDLERS[config.command](config)
    except ContestError as exc:
        print(f"contestlab: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    meta = {
        "tolerances": {**_DEFAULT_TOLERANCES, **config.tolerances},
        "seed": config.seed,
        "version": __version__,
    }
    report = RunReport(
        command=config.command,
        inputs_digest=_digest(config),
        results=results,
        meta=meta,
        csv_header=header,
        csv_rows=rows,
    )
    try:
        emit_report(report, config.fmt, config.out_path)
    except OSError as exc:
        print(f"contestlab: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    elapsed = time.perf_counter() - started
    print(f"contestlab: {config.command} {scalar} ({elapsed:.3f}s)", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="contestlab",
        description="Run a contest analysis described by a config file.",
    )
    parser.add_argument("config", help="path to a sectioned key-value or JSON config")
    parser.add_argument("--jobs", type=int, default=None, help="ignored; runs are serial")
    parser.add_argument("--format", choices=("json", "csv"), default=None, dest="fmt")
    parser.add_argument("--out", default=None, help="report path ('-' for stdout)")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"contestlab: {exc}", file=sys.stderr)
        return exc.exit_code

    replacements: dict[str, Any] = {}
    if args.fmt is not None:
        replacements["fmt"] = args.fmt
    if args.out is not None:
        replacements["out_path"] = args.out
    if args.seed is not None:
        replacements["seed"] = args.seed
    if replacements:
        config = dataclasses.replace(config, **replacements)

    return run(config)


if __name__ == "__main__":
    sys.exit(main())
