"""End-to-end command-line behavior, exit codes, and output stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import temptmenu
from temptmenu.cli import EXIT_SOLVER, main

RUNNING = """
alternatives:
  - {id: A, u: 10, v: 10, c: 5}
  - {id: B, u: 8, v: 14, c: 5}
  - {id: C, u: 2, v: 16, c: 5}
cost_function:
  kind: piecewise_linear
  l: 0.5
  k: 2.0
  w: 1.0
"""

TIED = RUNNING.replace("{id: C, u: 2, v: 16, c: 5}", "{id: C, u: 10, v: 14, c: 5}")

# every menu loses money: the solver's best menu has profit -1, the grid walks away
UNPROFITABLE = """
alternatives:
  - {id: A, u: 1, v: 1, c: 5}
  - {id: B, u: 2, v: 5, c: 7}
  - {id: C, u: 0.5, v: 8, c: 6}
cost_function:
  kind: piecewise_linear
  l: 0.5
  k: 2.0
  w: 1.0
"""

# the worked instance in cents: phi(t) = 0.5 * t**1000 overflows a double
# inside the price bracket, and at prices in the thousands no double meets
# the pricing equation's residual tolerance
OVERFLOWING = """
alternatives:
  - {id: A, u: 1000, v: 1000, c: 500}
  - {id: B, u: 800, v: 1400, c: 500}
  - {id: C, u: 200, v: 1600, c: 500}
cost_function:
  kind: power
  alpha: 0.5
  gamma: 1000
"""


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.yaml"
    path.write_text(RUNNING, encoding="utf-8")
    return str(path)


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_solve_text(instance_file):
    result = run("solve", instance_file)
    assert result.exit_code == 0, result.output
    assert "sells B for profit 7" in result.output
    assert "compromising" in result.output
    assert "10.8333333333" in result.output


def test_solve_json(instance_file):
    result = run("--format", "json", "solve", instance_file)
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["sold"] == "B"
    assert payload["kind"] == "compromising"
    assert payload["profit"] == pytest.approx(7.0)
    assert payload["welfare"] == pytest.approx(-53.0 / 6.0)
    prices = {o["id"]: o["price"] for o in payload["offers"]}
    assert prices == pytest.approx({"B": 12.0, "A": 10.0, "C": 32.5 / 3.0})
    assert [o["id"] for o in payload["offers"] if o["intended"]] == ["B"]
    assert max(payload["residuals"]) < 1e-10


def test_classify_text_and_json(instance_file):
    result = run("classify", instance_file)
    assert result.exit_code == 0
    assert "case 1" in result.output
    assert "sell B at 12" in result.output
    result = run("--format", "json", "classify", instance_file)
    payload = json.loads(result.output)
    assert payload["case"] == 1
    assert payload["thresholds"] == pytest.approx([8 / 1.5, 14 / 1.5, 14 / 1.5])


def test_classify_reports_the_kind_that_solve_sells(tmp_path):
    # willpower range 4 predicts the tied shallow product A, which is the
    # bait: the solver sells it alone, by commitment
    path = tmp_path / "w10.yaml"
    path.write_text(RUNNING.replace("w: 1.0", "w: 10.0"), encoding="utf-8")
    classified = json.loads(run("--format", "json", "classify", str(path)).output)
    solved = json.loads(run("--format", "json", "solve", str(path)).output)
    assert classified["case"] == 4
    assert (classified["sold"], classified["kind"]) == (solved["sold"], solved["kind"])
    assert classified["kind"] == "commitment"


def test_sweep_csv_rows_and_injection(instance_file):
    result = run("sweep", instance_file, "--w-from", "0", "--w-to", "12",
                 "--w-steps", "13")
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "w,case,sold,e_sold,price,profit,welfare,kind"
    assert len(lines) == 1 + 13 + 2  # uniform grid plus two injected thresholds
    assert any(line.startswith("5.33333333333,") for line in lines)
    assert any(line.startswith("9.33333333333,") for line in lines)
    flat = [line for line in lines[1:] if line.split(",")[1] == "1"]
    assert all(line.split(",")[2:3] == ["B"] for line in flat)


def test_sweep_is_byte_stable(instance_file):
    first = run("sweep", instance_file, "--w-from", "0", "--w-to", "10")
    second = run("sweep", instance_file, "--w-from", "0", "--w-to", "10")
    assert first.output == second.output


def test_sweep_empty_range_emits_header_only(instance_file):
    result = run("sweep", instance_file, "--w-from", "0", "--w-to", "5",
                 "--w-steps", "0")
    assert result.exit_code == 0
    assert result.output == "w,case,sold,e_sold,price,profit,welfare,kind\n"


def test_sweep_bad_range_exits_1(instance_file):
    result = run("sweep", instance_file, "--w-from", "5", "--w-to", "1")
    assert result.exit_code == 1


def test_validation_failure_exits_1_and_names_culprits(tmp_path):
    path = tmp_path / "tied.yaml"
    path.write_text(TIED, encoding="utf-8")
    result = run("solve", str(path))
    assert result.exit_code == 1
    assert "A" in result.output and "C" in result.output


def test_missing_file_exits_1():
    result = run("solve", "/nonexistent/instance.yaml")
    assert result.exit_code == 1


def test_verify_passes(instance_file):
    result = run("verify", instance_file, "--step", "0.25")
    assert result.exit_code == 0, result.output
    assert "verdict: pass" in result.output


def test_verify_json(instance_file):
    result = run("--format", "json", "verify", instance_file, "--step", "0.5")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] is True
    assert payload["grid_profit"] == pytest.approx(7.0, abs=1e-9)
    assert payload["analytic_profit"] == pytest.approx(7.0, abs=1e-12)


def test_verify_anchors_band_at_zero_on_unprofitable_market(tmp_path):
    path = tmp_path / "unprofitable.yaml"
    path.write_text(UNPROFITABLE, encoding="utf-8")
    result = run("verify", str(path), "--step", "0.1")
    assert result.exit_code == 0, result.output
    assert "analytic profit: -1\n" in result.output
    assert "grid-best profit: 0\n" in result.output
    assert "grid-best menu" not in result.output
    assert "verdict: pass" in result.output
    result = run("--format", "json", "verify", str(path), "--step", "0.1")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["analytic_profit"] == -1.0
    assert payload["grid_profit"] == 0.0
    assert payload["grid_menu"] is None
    assert payload["lower_bound"] == pytest.approx(-0.3, abs=1e-12)
    assert payload["upper_bound"] == 1e-9
    assert payload["passed"] is True


def test_verify_detects_corrupted_claim(instance_file):
    result = run("verify", instance_file, "--step", "0.25", "--assume-profit", "8.5")
    assert result.exit_code == 3
    assert "FAIL" in result.output


def test_verify_loose_lower_bound_at_coarse_step(instance_file):
    result = run("verify", instance_file, "--step", "2.0", "--exclude-analytic")
    assert result.exit_code == 0, result.output


def test_tolerance_flag_accepted(instance_file):
    result = run("--tolerance", "1e-8", "solve", instance_file)
    assert result.exit_code == 0


@pytest.mark.parametrize("tol", ("nan", "inf", "0", "-1"))
def test_bad_tolerance_flag_is_a_one_line_input_error(instance_file, tol):
    result = run("--tolerance", tol, "solve", instance_file)
    assert result.exit_code == 1
    assert result.output.startswith("error: --tolerance must be finite and > 0")
    assert result.output.count("\n") == 1


def test_nan_tolerance_in_file_no_longer_disables_the_residual_check(tmp_path):
    # at this scale no double meets the default tolerance (exit 2); a nan
    # tolerance used to accept the price with a residual of 1.7e-9
    path = tmp_path / "steep.yaml"
    path.write_text(
        RUNNING.split("cost_function:")[0]
        + "cost_function: {kind: power, alpha: 1.0e+12, gamma: 2.0}\n"
        + "solver: {tolerance: .nan}\n",
        encoding="utf-8",
    )
    result = run("solve", str(path))
    assert result.exit_code == 1
    assert result.output.startswith("error: solver.tolerance: expected a finite number")


@pytest.mark.parametrize("args", (["solve"], ["verify", "--step", "0.5"]))
def test_numeric_overflow_is_a_one_line_solver_failure(tmp_path, args):
    path = tmp_path / "overflow.yaml"
    path.write_text(OVERFLOWING, encoding="utf-8")
    src = str(Path(temptmenu.__file__).resolve().parents[1])
    path_var = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path_var}
    proc = subprocess.run(
        [sys.executable, "-m", "temptmenu.cli", args[0], str(path), *args[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_SOLVER, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stderr.startswith("solver failure: BracketFailure: indulging price of B")
    assert proc.stderr.count("\n") == 1
