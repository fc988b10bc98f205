"""Config ingestion, dispatch, report emission, and exit-code contracts."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from contestlab import cli
from contestlab.cli import (
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SCHEMA,
    EXIT_VALIDATION,
    ConfigSchemaError,
    ConfigValidationError,
    dump_config,
    load_config,
    main,
)

TWO_TYPE_SOLVE = """
# worked two-type instance
[environment]
n_others = 2
types = linear, linear
thetas = 2, 1
probs = 0.5, 0.5

[contest]
prizes = 0, 0, 1

[command]
name = solve

[output]
format = json
seed = 7
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_parses_two_type_instance(self, tmp_path):
        config = load_config(_write(tmp_path, TWO_TYPE_SOLVE))
        assert config.command == "solve"
        assert config.environment.n_types == 2
        assert config.contest.prizes == (0.0, 0.0, 1.0)
        assert config.seed == 7

    def test_bad_probs_fail_validation_naming_the_field(self, tmp_path):
        text = TWO_TYPE_SOLVE.replace("probs = 0.5, 0.5", "probs = 0.5, 0.4")
        with pytest.raises(ConfigValidationError, match="probs"):
            load_config(_write(tmp_path, text))

    def test_missing_command_is_a_schema_error(self, tmp_path):
        text = TWO_TYPE_SOLVE.replace("name = solve", "")
        with pytest.raises(ConfigSchemaError):
            load_config(_write(tmp_path, text))

    def test_unknown_key_is_a_schema_error(self, tmp_path):
        text = TWO_TYPE_SOLVE.replace("seed = 7", "seed = 7\nfrobnicate = 1")
        with pytest.raises(ConfigSchemaError, match="frobnicate"):
            load_config(_write(tmp_path, text))

    def test_json_config_is_accepted(self, tmp_path):
        payload = {
            "environment": {
                "n_others": 2,
                "types": [
                    {"kind": "linear", "theta": 2.0, "prob": 0.5},
                    {"kind": "linear", "theta": 1.0, "prob": 0.5},
                ],
            },
            "contest": {"prizes": [0, 0, 1]},
            "command": {"name": "solve"},
            "output": {"format": "json", "seed": 7},
        }
        config = load_config(_write(tmp_path, json.dumps(payload), "run.json"))
        assert config.environment.n_types == 2

    def test_round_trip_through_canonical_dump(self, tmp_path):
        config = load_config(_write(tmp_path, TWO_TYPE_SOLVE))
        reloaded = load_config(_write(tmp_path, dump_config(config), "canon.json"))
        assert reloaded == config

    def test_round_trip_of_a_continuum_config(self, tmp_path):
        text = """
[environment]
n_others = 1
family = power
support = 1, 2
shape = 2

[contest]
prizes = 0, 1

[command]
name = converge
n_list = 4, 8

[output]
format = csv
"""
        config = load_config(_write(tmp_path, text))
        reloaded = load_config(_write(tmp_path, dump_config(config), "canon.json"))
        assert reloaded == config

    def test_tabulated_continuum_infers_support_from_table(self, tmp_path):
        text = """
[environment]
n_others = 1
family = tabulated
table = 1:0; 1.5:0.4; 2:1

[contest]
prizes = 0, 1

[command]
name = converge
n_list = 4, 8
grid_points = 33

[output]
format = json
"""
        config = load_config(_write(tmp_path, text))
        assert config.environment.theta_lo == 1.0
        assert config.environment.theta_hi == 2.0
        reloaded = load_config(_write(tmp_path, dump_config(config), "tabcont.json"))
        assert reloaded == config

    def test_tabulated_continuum_rejects_conflicting_support(self, tmp_path):
        text = """
[environment]
n_others = 1
family = tabulated
support = 1, 3
table = 1:0; 1.5:0.4; 2:1

[contest]
prizes = 0, 1

[command]
name = converge
n_list = 4, 8

[output]
format = json
"""
        with pytest.raises(ConfigValidationError, match="support"):
            load_config(_write(tmp_path, text))

    def test_tabulated_type_ingestion(self, tmp_path):
        text = """
[environment]
n_others = 2
types = tabulated, tabulated
probs = 0.5, 0.5
table_1 = 0:0; 1:2; 2:5
table_2 = 0:0; 1:1; 2:2.2

[contest]
prizes = 0, 0, 1

[command]
name = solve

[output]
format = json
"""
        config = load_config(_write(tmp_path, text))
        assert config.environment.types[0].kind == "tabulated"
        reloaded = load_config(_write(tmp_path, dump_config(config), "tab.json"))
        assert reloaded == config


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        path = _write(tmp_path, "not a config at all")
        assert main([path]) == EXIT_PARSE
        assert "line 1" in capsys.readouterr().err

    def test_schema_error_is_3(self, tmp_path):
        text = TWO_TYPE_SOLVE.replace("name = solve", "")
        assert main([_write(tmp_path, text)]) == EXIT_SCHEMA

    def test_validation_error_is_4(self, tmp_path, capsys):
        text = TWO_TYPE_SOLVE.replace("probs = 0.5, 0.5", "probs = 0.5, 0.4")
        assert main([_write(tmp_path, text)]) == EXIT_VALIDATION
        assert "probs" in capsys.readouterr().err

    def test_missing_file_is_parse_error(self):
        assert main(["/nonexistent/config.cfg"]) == EXIT_PARSE

    def test_numeric_failure_is_5(self, tmp_path, capsys):
        # mixed-exponent environment validates (ordering holds on the grid)
        # but the parametric-only compare command fails at dispatch
        text = """
[environment]
n_others = 2
types = power, linear
thetas = 5, 1
exponents = 0.8, 1
probs = 0.5, 0.5

[command]
name = compare
m = 2
m_prime = 1

[output]
format = json
"""
        assert main([_write(tmp_path, text), "--out", "-"]) == 5
        assert "parametric" in capsys.readouterr().err

    _ENV = {"n_others": 2, "types": ["linear", "linear"], "thetas": [2.0, 1.0], "probs": [0.5, 0.5]}
    _CONT = {"n_others": 2, "family": "uniform", "support": [1.0, 2.0]}

    @pytest.mark.parametrize(
        "env, contest, command",
        [
            (_ENV, {"prizes": [0, "ten", 20]}, {"name": "solve"}),
            (_ENV, {"prizes": [0, 0, 1]}, {"name": "verify", "n_samples": "many"}),
            (_ENV, {"prizes": [0, 0, 1]}, {"name": "verify", "n_samples": 1000.5}),
            (_ENV, {"prizes": [0, 0, 1]}, {"name": "verify", "grid_size": "fine"}),
            (_CONT, {"prizes": [0, 0, 1]}, {"name": "converge", "n_list": [4, "many"]}),
            (_CONT, {"prizes": [0, 0, 1]}, {"name": "converge", "n_list": [4, 16.5]}),
            (_CONT, {"prizes": [0, 0, 1]}, {"name": "converge", "n_list": 4}),
        ],
        ids=[
            "prize_string",
            "n_samples_string",
            "n_samples_fraction",
            "grid_size_string",
            "n_list_string",
            "n_list_fraction",
            "n_list_scalar",
        ],
    )
    def test_mistyped_json_fields_are_schema_errors(self, tmp_path, capsys, env, contest, command):
        payload = {"environment": env, "contest": contest, "command": command}
        path = _write(tmp_path, json.dumps(payload), "typed.json")
        assert main([path, "--out", "-"]) == EXIT_SCHEMA
        assert "must be" in capsys.readouterr().err


    @staticmethod
    def _with_output_key(tmp_path, front_end, key, value):
        if front_end == "text":
            text = TWO_TYPE_SOLVE.replace("seed = 7", f"seed = 7\n{key} = {value}")
            return _write(tmp_path, text)
        payload = {
            "environment": TestExitCodes._ENV,
            "contest": {"prizes": [0, 0, 1]},
            "command": {"name": "solve"},
            "output": {key: float(value)},
        }
        return _write(tmp_path, json.dumps(payload), "tol.json")

    @pytest.mark.parametrize("front_end", ["text", "json"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_unmeetable_tolerance_is_a_validation_error(self, tmp_path, capsys, front_end, value):
        path = self._with_output_key(tmp_path, front_end, "tol_quad", value)
        assert main([path, "--out", "-"]) == EXIT_VALIDATION
        assert "tol_quad" in capsys.readouterr().err

    @pytest.mark.parametrize("front_end", ["text", "json"])
    def test_unknown_tolerance_key_is_a_schema_error(self, tmp_path, capsys, front_end):
        path = self._with_output_key(tmp_path, front_end, "tol_banana", "3")
        assert main([path, "--out", "-"]) == EXIT_SCHEMA
        assert "tol_banana" in capsys.readouterr().err


class TestRunCommands:
    def test_solve_report_contents(self, tmp_path, capsys):
        path = _write(tmp_path, TWO_TYPE_SOLVE)
        out = tmp_path / "report.json"
        assert main([path, "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["command"] == "solve"
        assert report["results"]["boundaries"] == [0.0, 0.125, 0.875]
        assert report["results"]["utilities"] == [0.0, 0.125]
        assert report["meta"]["seed"] == 7

    def test_alpha_csv_rows(self, tmp_path):
        text = TWO_TYPE_SOLVE.replace("name = solve", "name = alpha")
        out = tmp_path / "alpha.csv"
        assert main([_write(tmp_path, text), "--format", "csv", "--out", str(out)]) == EXIT_OK
        assert out.read_text() == "m,alpha\n1,0.125\n2,0.25\n"

    def test_flags_of_one_call_do_not_reach_the_next(self, tmp_path):
        # one parser serves every call in a process; each call's flags are its own
        path = _write(tmp_path, TWO_TYPE_SOLVE)
        first, second = tmp_path / "first.csv", tmp_path / "second.json"
        assert main([path, "--format", "csv", "--out", str(first), "--seed", "3"]) == EXIT_OK
        assert main([path, "--out", str(second)]) == EXIT_OK
        assert first.read_text().splitlines()[0] == "k,lower,upper,utility"
        report = json.loads(second.read_text())
        assert report["command"] == "solve"
        assert report["meta"]["seed"] == 7

    def test_compare_json_with_numeric_estimate(self, tmp_path):
        text = TWO_TYPE_SOLVE.replace(
            "name = solve", "name = compare\nm = 2\nm_prime = 1\nnumeric = true"
        )
        out = tmp_path / "cmp.json"
        assert main([_write(tmp_path, text), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["results"]["single_crossing"] is True
        assert report["results"]["numeric_estimate"] == pytest.approx(0.125, abs=1e-6)

    def test_compare_csv_columns(self, tmp_path):
        text = TWO_TYPE_SOLVE.replace(
            "name = solve", "name = compare\nm = 2\nm_prime = 1"
        )
        out = tmp_path / "cmp.csv"
        assert main([_write(tmp_path, text), "--format", "csv", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "m,m_prime,linear_effect,classification"
        assert lines[1].startswith("2,1,0.125,")

    def test_optimize_returns_winner_takes_all(self, tmp_path):
        text = TWO_TYPE_SOLVE.replace("name = solve", "name = optimize")
        text = text.replace("prizes = 0, 0, 1", "budget = 1.0")
        out = tmp_path / "opt.json"
        assert main([_write(tmp_path, text), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["results"]["label"] == "winner_takes_all"
        assert report["results"]["prizes"] == [0.0, 0.0, 1.0]
        assert report["results"]["gap"] is None

    def test_search_reports_its_gap(self, tmp_path):
        text = TWO_TYPE_SOLVE.replace("types = linear, linear", "types = power, power")
        text = text.replace("thetas = 2, 1", "thetas = 2, 1\nexponents = 2, 2")
        text = text.replace("name = solve", "name = optimize\nmode = vertex_plus_search")
        text = text.replace("prizes = 0, 0, 1", "budget = 2.0")
        out = tmp_path / "opt.json"
        assert main([_write(tmp_path, text), "--out", str(out)]) == EXIT_OK
        results = json.loads(out.read_text())["results"]
        assert results["gap"] <= 1e-9 * 2.0
        assert results["label"] == "mixed"
        assert sum(results["prizes"]) == pytest.approx(2.0, rel=1e-12)

    def test_underflowing_boundary_exits_5_with_one_line(self, tmp_path, capsys):
        # b_1 = (pi(P_1) / theta_1)^10 underflows: pi(P_1) is about P_1^200
        config = {
            "environment": {
                "n_others": 200,
                "types": ["power"] * 3,
                "thetas": [2.0, 1.5, 1.0],
                "exponents": [0.1] * 3,
                "probs": [1 / 3] * 3,
            },
            "contest": {"prizes": [0.0] * 199 + [0.5, 1.0]},
            "command": {"name": "solve"},
        }
        path = _write(tmp_path, json.dumps(config), "underflow.json")
        assert main([path, "--out", "-"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "contestlab: numeric failure: boundary points failed to increase at type 1\n"
        )

    def test_effort_command(self, tmp_path):
        text = TWO_TYPE_SOLVE.replace("name = solve", "name = effort")
        out = tmp_path / "effort.json"
        assert main([_write(tmp_path, text), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["results"]["expected_effort"] == pytest.approx(0.25, abs=1e-10)

    def test_verify_command(self, tmp_path):
        text = TWO_TYPE_SOLVE.replace(
            "name = solve", "name = verify\nn_samples = 20000"
        )
        out = tmp_path / "verify.json"
        assert main([_write(tmp_path, text), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert abs(report["results"]["monte_carlo"]["mean"] - 0.25) <= report["results"][
            "monte_carlo"
        ]["half_width"]

    def test_converge_command_csv(self, tmp_path):
        text = """
[environment]
n_others = 1
family = uniform
support = 1, 2

[contest]
prizes = 0, 1

[command]
name = converge
n_list = 4, 16
grid_points = 65

[output]
format = csv
"""
        out = tmp_path / "conv.csv"
        assert main([_write(tmp_path, text), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "n,sup_gap"
        assert lines[1].startswith("4,")
        assert float(lines[2].split(",")[1]) < float(lines[1].split(",")[1])

    def test_stdout_streaming(self, tmp_path, capsys):
        path = _write(tmp_path, TWO_TYPE_SOLVE)
        assert main([path, "--out", "-"]) == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["command"] == "solve"

    def test_reruns_are_byte_identical(self, tmp_path):
        path = _write(tmp_path, TWO_TYPE_SOLVE.replace("name = solve", "name = verify"))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main([path, "--out", str(out_a), "--seed", "13"]) == EXIT_OK
        assert main([path, "--out", str(out_b), "--seed", "13"]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        path = _write(tmp_path, TWO_TYPE_SOLVE)
        out = tmp_path / "seeded.json"
        assert main([path, "--out", str(out), "--seed", "99"]) == EXIT_OK
        assert json.loads(out.read_text())["meta"]["seed"] == 99

    def test_tolerance_override_is_recorded(self, tmp_path):
        text = TWO_TYPE_SOLVE.replace("seed = 7", "seed = 7\ntol_quad = 1e-12")
        out = tmp_path / "tol.json"
        assert main([_write(tmp_path, text), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["meta"]["tolerances"]["tol_quad"] == 1e-12

    def test_jobs_flag_keeps_results_identical(self, tmp_path):
        text = """
[environment]
n_others = 1
family = uniform
support = 1, 2

[contest]
prizes = 0, 1

[command]
name = converge
n_list = 4, 16
grid_points = 65

[output]
format = json
"""
        path = _write(tmp_path, text)
        out_serial = tmp_path / "serial.json"
        out_jobs = tmp_path / "jobs.json"
        assert main([path, "--out", str(out_serial)]) == EXIT_OK
        assert main([path, "--out", str(out_jobs), "--jobs", "3"]) == EXIT_OK
        assert out_serial.read_bytes() == out_jobs.read_bytes()

    def test_unwritable_output_is_io_error(self, tmp_path):
        path = _write(tmp_path, TWO_TYPE_SOLVE)
        target = str(tmp_path / "missing-dir" / "report.json")
        assert main([path, "--out", target]) == 6



# ---------------------------------------------------------------------------
# one schema for both front ends
# ---------------------------------------------------------------------------

ENV = {"n_others": 2, "types": ["linear", "linear"], "thetas": [2.0, 1.0], "probs": [0.5, 0.5]}
BASE = {
    "environment": ENV,
    "contest": {"prizes": [0.0, 0.0, 1.0]},
    "command": {"name": "solve"},
    "output": {"format": "json", "seed": 7},
}
CONTINUUM = {"n_others": 1, "family": "uniform", "support": [1.0, 2.0]}


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list) and value and all(isinstance(v, list) for v in value):
        return "; ".join(":".join(_text_value(x) for x in pair) for pair in value)
    if isinstance(value, list):
        return ", ".join(_text_value(v) for v in value)
    return "" if value is None else str(value)


def _render(config: dict, front_end: str) -> str:
    """config in the format of the text or the JSON front end."""
    if front_end == "json":
        return json.dumps(config)
    lines = []
    for section, body in config.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_text_value(value)}" for key, value in body.items()]
    return "\n".join(lines) + "\n"


def _with(base: dict, section: str, **fields) -> dict:
    config = json.loads(json.dumps(base))
    config.setdefault(section, {}).update(fields)
    return config


def _main(tmp_path, config, front_end, *flags):
    name = "run.json" if front_end == "json" else "run.cfg"
    return main([_write(tmp_path, _render(config, front_end), name), *flags])


@pytest.mark.parametrize("front_end", ["text", "json"])
class TestSchemaTable:
    @pytest.mark.parametrize(
        "section, key",
        [
            ("environment", "frobnicate"),
            ("contest", "budjet"),
            ("command", "frobnicate"),
            ("output", "colour"),
            ("environment", "budget"),  # belongs in [contest]
            ("contest", "seed"),  # belongs in [output]
            ("command", "n_samples"),  # an option of verify, not of solve
            ("environment", "shape"),  # a continuum field in a finite environment
            ("environment", "table_3"),  # there are two types
        ],
    )
    def test_unknown_or_misplaced_field_exits_3(self, tmp_path, capsys, front_end, section, key):
        config = _with(BASE, section, **{key: 3})
        assert _main(tmp_path, config, front_end, "--out", "-") == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""

    def test_finite_field_in_a_continuum_environment_exits_3(self, tmp_path, capsys, front_end):
        config = {
            "environment": dict(CONTINUUM, thetas=[2.0]),
            "contest": {"prizes": [0.0, 1.0]},
            "command": {"name": "converge", "n_list": [2, 4]},
        }
        assert _main(tmp_path, config, front_end, "--out", "-") == EXIT_SCHEMA
        assert "thetas" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [-1.0, 0.0, 1e-3])
    def test_tol_root_and_tol_eqm_change_neither_report_nor_digest(
        self, tmp_path, capsys, front_end, value
    ):
        assert _main(tmp_path, BASE, front_end, "--out", "-") == EXIT_OK
        plain = capsys.readouterr().out
        config = _with(BASE, "output", tol_root=value, tol_eqm=value)
        assert _main(tmp_path, config, front_end, "--out", "-") == EXIT_OK
        assert capsys.readouterr().out == plain
        assert set(json.loads(plain)["meta"]["tolerances"]) == {"tol_quad"}

    @pytest.mark.parametrize(
        "command, contest",
        [
            ({"name": "optimize", "mode": "banana"}, {"budget": 1.0}),
            ({"name": "verify", "n_samples": -5}, None),
            ({"name": "verify", "grid_size": 10}, None),
            ({"name": "compare", "m": 0, "m_prime": 1}, None),
        ],
        ids=["mode", "n_samples", "grid_size", "m"],
    )
    def test_option_the_library_rejects_exits_4(
        self, tmp_path, capsys, front_end, command, contest
    ):
        config = _with(BASE, "command", **command)
        if contest is not None:
            config["contest"] = contest
        assert _main(tmp_path, config, front_end, "--out", "-") == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("contestlab: invalid option:")
        assert captured.out == ""

    def test_transfer_blocked_in_both_directions_exits_4(self, tmp_path, capsys, front_end):
        # winner-takes-all: v_1 can neither fall below v_0 nor rise above v_2
        config = {
            "environment": {
                "n_others": 4, "types": ["power"], "thetas": [1.0], "exponents": [3.0], "probs": [1.0]
            },
            "contest": {"prizes": [0.0, 0.0, 0.0, 0.0, 1.0]},
            "command": {"name": "compare", "m": 4, "m_prime": 1, "numeric": True},
        }
        assert _main(tmp_path, config, front_end, "--out", "-") == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("contestlab: invalid option:")
        assert "monotonicity in both directions" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_step_is_not_an_option_of_compare(self, tmp_path, capsys, front_end):
        config = _with(BASE, "command", name="compare", m=2, m_prime=1, numeric=True, step=0.01)
        assert _main(tmp_path, config, front_end, "--out", "-") == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert "step" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "options", [{"grid_points": 0}, {"n_list": [16, 4]}, {"n_list": [0, 4]}]
    )
    def test_converge_option_the_library_rejects_exits_4(
        self, tmp_path, capsys, front_end, options
    ):
        config = {
            "environment": CONTINUUM,
            "contest": {"prizes": [0.0, 1.0]},
            "command": {"name": "converge", "n_list": [2, 4], **options},
        }
        assert _main(tmp_path, config, front_end, "--out", "-") == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("contestlab: invalid option:")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, contest",
        [
            ({"name": "verify"}, {"prizes": [0.0, 0.0, 1.0]}),
            ({"name": "optimize", "mode": "vertex_plus_search"}, {"budget": 1.0}),
        ],
        ids=["verify", "optimize"],
    )
    def test_negative_seed_exits_4_from_config_and_flag(
        self, tmp_path, capsys, front_end, command, contest
    ):
        config = dict(_with(BASE, "command", **command), contest=contest)
        assert _main(tmp_path, _with(config, "output", seed=-1), front_end) == EXIT_VALIDATION
        assert _main(tmp_path, config, front_end, "--seed", "-1") == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.count("seed must be") == 2
        assert captured.out == ""


@pytest.mark.parametrize("front_end", ["text", "json"])
class TestFieldsTheKindReads:
    @pytest.mark.parametrize("kind", ["linear", "power"])
    def test_table_on_a_linear_or_power_type_exits_3(self, tmp_path, capsys, front_end, kind):
        env = dict(ENV, types=[kind, kind], table_1=[[0.0, 0.0], [1.0, 5.0], [2.0, 9.0]])
        if kind == "power":
            env["exponents"] = [2.0, 2.0]
        assert _main(tmp_path, dict(BASE, environment=env), front_end, "--out", "-") == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert f"type 1 is {kind} but takes no table" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "spread, code",
        [
            ({"thetas": [99.0, 1.0], "exponents": [5.0, 1.0]}, EXIT_VALIDATION),
            ({"thetas": [99.0, 1.0]}, EXIT_VALIDATION),
            ({"thetas": [1.0, 1.0], "exponents": [1.0, 1.0]}, EXIT_OK),
        ],
        ids=["theta-and-exponent", "theta", "placeholders"],
    )
    def test_spread_values_for_a_tabulated_type_must_be_1(
        self, tmp_path, capsys, front_end, spread, code
    ):
        env = {"n_others": 2, "types": ["tabulated", "linear"], "probs": [0.5, 0.5]}
        env.update(spread, table_1=[[0.0, 0.0], [1.0, 3.0], [2.0, 7.0]])
        assert _main(tmp_path, dict(BASE, environment=env), front_end, "--out", "-") == code
        if code == EXIT_VALIDATION:
            captured = capsys.readouterr()
            assert "type 1: tabulated costs have theta 1 and exponent 1" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize(
        "fields",
        [
            {"shape": 7.0},
            {"table": [[1.0, 0.0], [2.0, 1.0]]},
            {"shape": 7.0, "table": [[1.0, 0.0], [2.0, 1.0]]},
            {"family": "power", "shape": 2.0, "table": [[1.0, 0.0], [2.0, 1.0]]},
            {"family": "tabulated", "shape": 2.0, "table": [[1.0, 0.0], [2.0, 1.0]]},
        ],
        ids=["uniform-shape", "uniform-table", "uniform-both", "power-table", "tabulated-shape"],
    )
    def test_continuum_field_of_another_family_exits_3(self, tmp_path, capsys, front_end, fields):
        config = {
            "environment": dict(CONTINUUM, **fields),
            "contest": {"prizes": [0.0, 1.0]},
            "command": {"name": "converge", "n_list": [2, 4]},
        }
        assert _main(tmp_path, config, front_end, "--out", "-") == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert "needs family = " in captured.err
        assert captured.out == ""


class TestJsonTypes:
    def test_table_in_a_power_type_record_exits_3(self, tmp_path, capsys):
        records = [
            {"kind": "power", "theta": 2.0, "exponent": 2.0, "prob": 0.5, "table": [[0, 0], [1, 1]]},
            {"kind": "power", "theta": 1.0, "exponent": 2.0, "prob": 0.5},
        ]
        config = dict(BASE, environment={"n_others": 2, "types": records})
        assert _main(tmp_path, config, "json", "--out", "-") == EXIT_SCHEMA
        assert "type 1 is power but takes no table" in capsys.readouterr().err

    def test_theta_in_a_tabulated_type_record_exits_4(self, tmp_path, capsys):
        records = [
            {"kind": "tabulated", "theta": 99, "prob": 0.5, "table": [[0, 0], [1, 3], [2, 7]]},
            {"kind": "linear", "theta": 1.0, "prob": 0.5},
        ]
        config = dict(BASE, environment={"n_others": 2, "types": records})
        assert _main(tmp_path, config, "json", "--out", "-") == EXIT_VALIDATION
        assert "theta=99.0" in capsys.readouterr().err

    def test_table_ending_on_a_zero_slope_exits_4(self, tmp_path, capsys):
        records = [
            {"kind": "tabulated", "prob": 0.5, "table": [[0, 0], [1, 20], [2, 21]]},
            {"kind": "tabulated", "prob": 0.5, "table": [[0, 0], [1, 1], [2, 2]]},
        ]
        config = dict(BASE, environment={"n_others": 2, "types": records})
        assert _main(tmp_path, config, "json", "--out", "-") == EXIT_VALIDATION
        assert "positive slope at its last point" in capsys.readouterr().err

    def test_unknown_type_record_field_exits_3(self, tmp_path, capsys):
        records = [
            {"kind": "linear", "theta": 2.0, "prob": 0.5, "colour": "red"},
            {"kind": "linear", "theta": 1.0, "prob": 0.5},
        ]
        config = dict(BASE, environment={"n_others": 2, "types": records})
        assert _main(tmp_path, config, "json", "--out", "-") == EXIT_SCHEMA
        assert "colour" in capsys.readouterr().err

    def test_spread_list_beside_type_records_exits_3(self, tmp_path, capsys):
        records = [{"kind": "linear", "theta": 2.0, "prob": 0.5}, {"kind": "linear", "prob": 0.5}]
        config = dict(BASE, environment={"n_others": 2, "types": records, "probs": [0.5, 0.5]})
        assert _main(tmp_path, config, "json", "--out", "-") == EXIT_SCHEMA
        assert "probs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, fields",
        [
            ("command", {"name": "optimize", "mode": 3}),
            ("output", {"path": 5}),
            ("command", {"name": 7}),
        ],
        ids=["mode", "path", "name"],
    )
    def test_number_in_a_string_field_exits_3(self, tmp_path, capsys, monkeypatch, section, fields):
        monkeypatch.chdir(tmp_path)
        config = _with(dict(BASE, contest={"budget": 1.0}), section, **fields)
        assert _main(tmp_path, config, "json") == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert "must be str" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "5").exists()

    def test_integer_given_for_a_float_field_reads_as_in_text(self, tmp_path):
        config = _with(BASE, "contest", budget=2)
        from_json = load_config(_write(tmp_path, _render(config, "json"), "budget.json"))
        from_text = load_config(_write(tmp_path, _render(config, "text"), "budget.cfg"))
        assert from_json == from_text
        assert type(from_json.budget) is float


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, contestlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_internal_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(config):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "solve", broken)
    assert main([_write(tmp_path, TWO_TYPE_SOLVE), "--out", "-"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "contestlab: internal error: RuntimeError: boom\n"


# ---------------------------------------------------------------------------
# fuzz: one-field mutations of small valid configs end on a documented code
# ---------------------------------------------------------------------------

_RECORDS = [
    {"kind": "power", "theta": 2.0, "exponent": 2.0, "prob": 0.5},
    {"kind": "power", "theta": 1.0, "exponent": 2.0, "prob": 0.5},
]
_FINITE_RUNS = (
    ({"name": "solve"}, {"prizes": [0.0, 0.0, 1.0]}),
    ({"name": "effort"}, {"prizes": [0.0, 0.0, 1.0]}),
    ({"name": "alpha", "cost_space": True}, {}),
    (
        {"name": "compare", "m": 2, "m_prime": 1, "numeric": True},
        {"prizes": [0.0, 0.4, 1.0]},
    ),
    ({"name": "optimize", "mode": "vertex"}, {"budget": 1.0}),
    ({"name": "optimize", "mode": "vertex_plus_search"}, {"budget": 1.0}),
    ({"name": "verify", "n_samples": 10_000, "grid_size": 100}, {"prizes": [0.0, 0.0, 1.0]}),
)
_CONTINUUM_ENVS = (
    {"n_others": 1, "family": "power", "support": [1.0, 2.0], "shape": 2.0},
    {"n_others": 1, "family": "tabulated", "table": [[1.0, 0.0], [1.5, 0.4], [2.0, 1.0]]},
)


def _fuzz_bases():
    """(front end, config) for every command, in the spread and the record layout."""
    output = {"format": "csv", "seed": 3, "tol_quad": 1e-9}
    bases = []
    for command, contest in _FINITE_RUNS:
        spread = {"environment": ENV, "contest": contest, "command": command, "output": output}
        records = dict(spread, environment={"n_others": 2, "types": _RECORDS})
        bases += [("text", spread), ("json", spread), ("json", records)]
    converge = {"name": "converge", "n_list": [2, 4], "grid_points": 9}
    for env in _CONTINUUM_ENVS:
        config = {"environment": env, "contest": {"prizes": [0.0, 1.0]}, "command": converge}
        bases += [("text", config), ("json", config)]
    return bases


_FUZZ_BASES = _fuzz_bases()
_FUZZ_VALUES = ("x", 1.5, -1, 0, [], {}, None, True, [1, "a"], [[1]])
_SECTION_NAMES = ("environment", "contest", "command", "output")


@st.composite
def _mutated_configs(draw):
    """A base config with one field dropped, added, moved to another section or replaced."""
    front_end, base = draw(st.sampled_from(_FUZZ_BASES))
    config = json.loads(json.dumps(base))
    records = [r for r in config["environment"].get("types", []) if isinstance(r, dict)]
    body = draw(st.sampled_from([body for body in [*config.values(), *records] if body]))
    key = draw(st.sampled_from(sorted(body)))
    op = draw(st.sampled_from(("drop", "add", "move", "replace")))
    if op == "drop":
        del body[key]
    elif op == "add":
        body["zzz"] = draw(st.sampled_from(_FUZZ_VALUES))
    elif op == "move":
        config.setdefault(draw(st.sampled_from(_SECTION_NAMES)), {})[key] = body.pop(key)
    else:
        body[key] = draw(st.sampled_from(_FUZZ_VALUES))
    return front_end, config


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_mutated_configs())
def test_mutated_configs_end_on_a_documented_exit_code(tmp_path_factory, case):
    front_end, config = case
    path = tmp_path_factory.getbasetemp() / ("fuzz.json" if front_end == "json" else "fuzz.cfg")
    path.write_text(_render(config, front_end))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path)])
    documented = (EXIT_OK, EXIT_PARSE, EXIT_SCHEMA, EXIT_VALIDATION, EXIT_NUMERIC, EXIT_IO)
    assert code in documented, err.getvalue()
    if code != EXIT_OK:
        assert out.getvalue() == ""
