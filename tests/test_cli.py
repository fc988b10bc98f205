"""Config ingestion, dispatch, report emission, and exit-code contracts."""

import json

import pytest

from contestlab.cli import (
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
        text = TWO_TYPE_SOLVE + "\n[output]\n"  # duplicate section -> parse error
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
