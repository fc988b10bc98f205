"""Config-driven batch runner: `contestlab <config> [flags]`.

Configs are flat sectioned key-value text ([environment], [contest],
[command], [output]; lists comma-separated), chosen for hand-editability in
experiment sweeps; a JSON document with the same schema is accepted
interchangeably. Every run is deterministic given its config and seed, and
reports are written atomically.

Exit codes: 0 ok, 1 internal error (a bug: please report it), 2 parse,
3 schema (unknown, misplaced or mistyped field), 4 validation (a value out
of range, in the config or an option the library rejects), 5 numeric,
6 I/O.
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
from .costs import LINEAR, POWER, TABULATED, ContestEnvironment, CostFunction, validate_environment
from .design import optimize_budget
from .effort import QUAD_TOL, _effort_by_type, alpha_coefficients
from .equilibrium import solve
from .errors import ArgumentError, ContestError
from .kernels import Contest
from .verify import verification_report

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_SCHEMA = 3
EXIT_VALIDATION = 4
EXIT_NUMERIC = 5
EXIT_IO = 6

_DEFAULT_TOLERANCES = {"tol_quad": QUAD_TOL}


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
# the config schema, written once, and the text and JSON front ends that
# produce one typed mapping through it
# ---------------------------------------------------------------------------

# [environment] fields of a finite type space (every command but converge);
# "table_<k>" stands for table_1, table_2, ...: type k's cost table
_FINITE = {
    "n_others": "int",
    "types": "str list",  # or, in JSON, a list of type records (_RECORD)
    "thetas": "float list",
    "exponents": "float list",
    "probs": "float list",
    "table_<k>": "float pairs",
}
# [environment] fields of a continuum of types (converge)
_CONTINUUM = {
    "n_others": "int",
    "family": "str",
    "support": "float list",
    "shape": "float",
    "table": "float pairs",
}
# command -> (options it takes, with their kinds; options it requires).
# Options are passed to the library as keyword arguments, so their defaults
# live there.
_COMMANDS = {
    "solve": ({}, ()),
    "effort": ({}, ()),
    "alpha": ({"cost_space": "bool"}, ()),
    "compare": ({"m": "int", "m_prime": "int", "numeric": "bool"}, ("m", "m_prime")),
    "optimize": ({"mode": "str"}, ()),
    "verify": ({"n_samples": "int", "grid_size": "int"}, ()),
    "converge": ({"n_list": "int list", "grid_points": "int"}, ("n_list",)),
}
_OPTIONS = {key: kind for takes, _ in _COMMANDS.values() for key, kind in takes.items()}
# section -> field -> kind. "int", "float", "bool" and "str" are one value;
# "<scalar> list" is a nonempty list of them (comma-separated in text) and
# "float pairs" a nonempty list of [x, y] ("x:y; x:y" in text).
_SCHEMA = {
    "environment": {**_FINITE, **_CONTINUUM},
    "contest": {"prizes": "float list", "budget": "float"},
    "command": {"name": "str", **_OPTIONS},
    "output": {
        "format": "str",
        "path": "str",
        "seed": "int",
        "tol_quad": "float",
        # accepted for compatibility and ignored, like --jobs: nothing reads them
        "tol_root": "float",
        "tol_eqm": "float",
    },
}

# Fields of one type record, the JSON alternative to the spread lists.
_RECORD = {
    "kind": "str",
    "prob": "float",
    "theta": "float",
    "exponent": "float",
    "table": "float pairs",
}
# spread list (one value per type) -> the type-record field it fills
_SPREAD = {"thetas": "theta", "exponents": "exponent", "probs": "prob", "table_<k>": "table"}


_TEXT_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

# scalar kind -> (parser of a text value, type of a decoded JSON value)
_SCALARS = {
    "int": (int, int),
    "float": (float, float),
    "bool": (lambda raw: _TEXT_BOOLS[raw.lower()], bool),
    "str": (str, str),
}


def _pattern(key: str) -> str:
    return "table_<k>" if key.startswith("table_") and key[6:].isdecimal() else key


def _kind(fields: dict, key: str, where: str, place: str) -> str:
    """The kind fields gives key; a field it does not list is a schema error."""
    kind = fields.get(_pattern(key))
    if kind is None:
        raise ConfigSchemaError(f"{where} is not a field of {place}")
    return kind


def _scalar(where: str, value, scalar: str, kind: str, text: bool):
    parse, json_type = _SCALARS[scalar]
    try:
        if text:
            return parse(value)
        if type(value) is json_type:
            return value
        if scalar == "float" and type(value) is int:
            return float(value)
    except (ValueError, OverflowError, KeyError):
        pass
    raise ConfigSchemaError(f"{where} must be {kind}, got {value!r}")


def _typed(where: str, value, kind: str, text: bool):
    """value as kind: parsed from a text config's string, or checked as decoded JSON."""
    scalar, _, shape = kind.partition(" ")
    if not shape:
        return _scalar(where, value, scalar, kind, text)
    given = value
    if text:
        pieces = [piece.strip() for piece in value.split(";" if shape == "pairs" else ",")]
        value = [piece.split(":") if shape == "pairs" else piece for piece in pieces if piece]
    if (
        not isinstance(value, list)
        or not value
        or (shape == "pairs" and not all(isinstance(p, list) and len(p) == 2 for p in value))
    ):
        raise ConfigSchemaError(f"{where} must be {kind}, got {given!r}")
    if shape == "pairs":
        return [[_scalar(where, v, scalar, kind, text) for v in pair] for pair in value]
    return [_scalar(where, v, scalar, kind, text) for v in value]


def _read_text(text: str) -> tuple[dict[str, dict[str, str]], dict[tuple[str, str], int]]:
    """The sections of a text config, and the line of each field."""
    sections: dict[str, dict[str, str]] = {}
    lines: dict[tuple[str, str], int] = {}
    current: dict[str, str] | None = None
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
            if name not in _SCHEMA:
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
            current[key] = value.strip()
            lines[name, key] = lineno
        else:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
    return sections, lines


def _where(lines: dict, section: str, key: str) -> str:
    """Names a field in an error message, with its line in a text config."""
    line = lines.get((section, key))
    return f"line {line}: field '{key}'" if line else f"field '{key}'"


def _read_json(text: str) -> dict[str, dict[str, Any]]:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigParseError(f"invalid JSON config: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigParseError("JSON config must be an object of sections")
    for name, body in data.items():
        if name not in _SCHEMA:
            raise ConfigSchemaError(f"unknown section {name!r}")
        if not isinstance(body, dict):
            raise ConfigSchemaError(f"section {name!r} must be an object")
    return data


def _typed_fields(body: dict, fields: dict, section: str, lines: dict, text: bool) -> dict:
    """body, a section or a type record, with each field as the kind fields gives it."""
    typed = {}
    for key, value in body.items():
        where = _where(lines, section, key)
        kind = _kind(fields, key, where, f"[{section}]")
        if key == "types" and isinstance(value, list) and value and all(
            isinstance(record, dict) for record in value
        ):
            typed[key] = [
                _typed_fields(record, _RECORD, f"type record {idx}", lines, text)
                for idx, record in enumerate(value, start=1)
            ]
        else:
            typed[key] = _typed(where, value, kind, text)
    return typed


# ---------------------------------------------------------------------------
# building a RunConfig from the typed mapping
# ---------------------------------------------------------------------------


def _require(raw: dict, section: str, key: str):
    body = raw.get(section, {})
    if key not in body:
        raise ConfigSchemaError(f"section [{section}] is missing required field '{key}'")
    return body[key]


def _type_records(raw: dict, lines: dict) -> list[dict]:
    """Normalize the two accepted type layouts into per-type records."""
    body = raw["environment"]
    types = _require(raw, "environment", "types")
    spread = [key for key in body if _pattern(key) in _SPREAD]
    if isinstance(types[0], dict):
        if spread:
            raise ConfigSchemaError(f"field '{spread[0]}' cannot be given beside type records")
        return types
    records = [{"kind": kind} for kind in types]
    for key in spread:
        where = _where(lines, "environment", key)
        field = _SPREAD[_pattern(key)]
        if field == "table":
            if not 1 <= int(key[6:]) <= len(records):
                raise ConfigSchemaError(f"{where} names no type")
            records[int(key[6:]) - 1]["table"] = body[key]
        elif len(body[key]) != len(records):
            raise ConfigSchemaError(f"{where} must list one value per type")
        else:
            for record, value in zip(records, body[key]):
                record[field] = value
    return records


def _build_finite_environment(raw: dict, lines: dict) -> ContestEnvironment:
    n_others = _require(raw, "environment", "n_others")
    records = _type_records(raw, lines)
    types = []
    for idx, record in enumerate(records, start=1):
        if "kind" not in record or "prob" not in record:
            raise ConfigSchemaError(f"type {idx} must carry at least 'kind' and 'prob'")
        if record["kind"] not in (LINEAR, POWER, TABULATED):
            raise ConfigSchemaError(f"type {idx} has unknown kind {record['kind']!r}")
        if (record["kind"] == TABULATED) != ("table" in record):
            wrong = "has no table" if record["kind"] == TABULATED else "takes no table"
            raise ConfigSchemaError(f"type {idx} is {record['kind']} but {wrong}")
        fields = {("points" if key == "table" else key): value for key, value in record.items()}
        del fields["prob"]
        try:
            types.append(CostFunction(**fields))
        except ArgumentError as exc:
            raise ConfigValidationError(f"type {idx}: {exc}") from None
    probs = tuple(record["prob"] for record in records)
    try:
        return ContestEnvironment(n_others=n_others, types=tuple(types), probs=probs)
    except ArgumentError as exc:
        raise ConfigValidationError(f"environment: {exc}") from None


def _build_continuum_environment(raw: dict, lines: dict) -> ContinuumEnvironment:
    body = raw["environment"]
    n_others = _require(raw, "environment", "n_others")
    for key, family in (("shape", POWER), ("table", TABULATED)):
        if key in body and body.get("family") != family:
            raise ConfigSchemaError(f"{_where(lines, 'environment', key)} needs family = {family}")
    where = _where(lines, "environment", "support")
    try:
        if body.get("family") == TABULATED:
            # the table's endpoints define the support; a support key, if
            # given, must agree with them
            env = ContinuumEnvironment.tabulated(n_others, _require(raw, "environment", "table"))
            if body.get("support", [env.theta_lo, env.theta_hi]) != [env.theta_lo, env.theta_hi]:
                raise ConfigValidationError(f"{where} disagrees with the table endpoints")
            return env
        support = _require(raw, "environment", "support")
        if len(support) != 2:
            raise ConfigSchemaError(f"{where} must be two numbers")
        fields = {key: body[key] for key in ("family", "shape") if key in body}
        return ContinuumEnvironment(n_others, support[0], support[1], **fields)
    except ArgumentError as exc:
        raise ConfigValidationError(f"environment: {exc}") from None


def _build_contest(raw: dict, lines: dict) -> tuple[Contest | None, float | None]:
    body = raw.get("contest", {})
    contest = None
    if "prizes" in body:
        try:
            contest = Contest(tuple(body["prizes"]))
        except ArgumentError as exc:
            raise ConfigValidationError(f"contest: {exc}") from None
    budget = body.get("budget")
    if budget is not None and not (math.isfinite(budget) and budget > 0.0):
        raise ConfigValidationError(
            f"{_where(lines, 'contest', 'budget')} must be finite and positive"
        )
    if budget is None and contest is not None:
        budget = contest.total_budget
    return contest, budget


def _build_config(raw: dict, lines: dict) -> RunConfig:
    command = _require(raw, "command", "name")
    if command not in _COMMANDS:
        raise ConfigSchemaError(
            f"{_where(lines, 'command', 'name')} must be one of {sorted(_COMMANDS)}"
        )
    takes, requires = _COMMANDS[command]
    continuum = command == "converge"
    # the fields _SCHEMA allows in these sections, narrowed to this command
    narrowed = {
        "command": {"name": "str", **takes},
        "environment": _CONTINUUM if continuum else _FINITE,
    }
    for section, fields in narrowed.items():
        for key in raw.get(section, {}):
            if _pattern(key) not in fields:
                raise ConfigSchemaError(
                    f"{_where(lines, section, key)} is not a field of [{section}] for '{command}'"
                )
    options = {key: value for key, value in raw["command"].items() if key != "name"}
    for key in requires:
        if key not in options:
            raise ConfigSchemaError(f"command '{command}' requires option '{key}'")
    build = _build_continuum_environment if continuum else _build_finite_environment
    environment = build(raw, lines)

    contest, budget = _build_contest(raw, lines)

    output = raw.get("output", {})
    fmt = output.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigSchemaError(f"{_where(lines, 'output', 'format')} must be 'json' or 'csv'")
    tolerances = {key: output[key] for key in _DEFAULT_TOLERANCES if key in output}
    for key, value in tolerances.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigValidationError(
                f"{_where(lines, 'output', key)} must be finite and positive"
            )

    config = RunConfig(
        environment=environment,
        contest=contest,
        budget=budget,
        command=command,
        options=options,
        fmt=fmt,
        out_path=output.get("path"),
        seed=output.get("seed", 0),
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config {path!r}: {exc}") from None
    is_json = text.lstrip().startswith("{")
    sections, lines = (_read_json(text), {}) if is_json else _read_text(text)
    raw = {
        name: _typed_fields(body, _SCHEMA[name], name, lines, text=not is_json)
        for name, body in sections.items()
    }
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
    total, per_type = _effort_by_type(eqm, tol)
    results = {"expected_effort": total, "per_type": per_type}
    rows = [("total", total)]
    rows += [(f"type_{k}", value) for k, value in enumerate(per_type, start=1)]
    return results, ("scope", "value"), tuple(rows), f"E[X]={total:.9g}"


def _cmd_alpha(config: RunConfig):
    vector = alpha_coefficients(config.environment, **config.options)
    alphas = vector.coefficients
    results = {"alpha": list(alphas), "cost_space": vector.cost_space}
    rows = tuple((m, value) for m, value in enumerate(alphas, start=1))
    return results, ("m", "alpha"), rows, f"alpha_N={alphas[-1]:.9g}"


def _cmd_compare(config: RunConfig):
    options = config.options
    query = CompetitionQuery(m=options["m"], m_prime=options["m_prime"])
    report = classify(config.environment, query)
    if options.get("numeric", False):
        report = attach_numeric_estimate(report, config.environment, config.contest)
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
    solution = optimize_budget(
        config.environment, config.budget, seed=config.seed, **config.options
    )
    results = {
        "prizes": list(solution.contest.prizes),
        "value": solution.value,
        "label": solution.label,
        "mode": solution.mode,
        "tied_contests": [list(c.prizes) for c in solution.ties],
        "evaluations": solution.evaluations,
        "gap": solution.gap,
    }
    rows = tuple((m, v) for m, v in enumerate(solution.contest.prizes))
    return results, ("m", "prize"), rows, f"value={solution.value:.9g} ({solution.label})"


def _cmd_verify(config: RunConfig):
    eqm = solve(config.environment, config.contest)
    # verification_report has no default sample count
    options = {"n_samples": 100_000, **config.options}
    audit = verification_report(
        config.environment, config.contest, eqm, seed=config.seed, **options
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
    header = ("type", "gap", "on_support_residual")
    return results, header, rows, f"max_gap={audit.worst_gap:.3g}"


def _cmd_converge(config: RunConfig):
    report = convergence_report(config.environment, config.contest, **config.options)
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
    except ArgumentError as exc:
        print(f"contestlab: invalid option: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
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


# built once per process: parse_args keeps no state between calls
_PARSER = argparse.ArgumentParser(
    prog="contestlab", description="Run a contest analysis described by a config file."
)
_PARSER.add_argument("config", help="path to a sectioned key-value or JSON config")
_PARSER.add_argument("--jobs", type=int, default=None, help="ignored; runs are serial")
_PARSER.add_argument("--format", choices=("json", "csv"), default=None, dest="fmt")
_PARSER.add_argument("--out", default=None, help="report path ('-' for stdout)")
_PARSER.add_argument("--seed", type=int, default=None)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        config = load_config(args.config)
        flags = {"fmt": args.fmt, "out_path": args.out, "seed": args.seed}
        config = dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})
        return run(config)
    except ConfigError as exc:
        print(f"contestlab: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # the CLI ends on an exit code, never a traceback
        print(f"contestlab: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
