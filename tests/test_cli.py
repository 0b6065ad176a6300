"""End-to-end command-line behavior, exit codes, and output stability."""

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import temptmenu
from temptmenu import GridSpec, cli
from temptmenu.cli import EXIT_INPUT, EXIT_SOLVER, EXIT_VERIFY, _uniform_grid, main

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
# the pricing equation's residual gate, PRICE_TOL
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

# the decoy B's closed-form price doubles v(B) past the largest double
HUGE_PRICES = """
alternatives:
  - {id: A, u: 1.0e+308, v: 1.0e+308, c: 0}
  - {id: B, u: 0, v: 1.7e+308, c: 0}
cost_function: {kind: piecewise_linear, l: 0.5, k: 2, w: 1}
"""

# the optimal bait A and sold offer B tie within the choice window at signing
NEAR_TIE = """
alternatives:
  - {id: A, u: 10, v: 10, c: 5}
  - {id: B, u: 7.9999999999, v: 8.0000000001, c: 0}
  - {id: C, u: 2, v: 16, c: 5}
cost_function: {kind: piecewise_linear, l: 0.5, k: 2, w: 1}
"""

POWER = RUNNING.split("cost_function:")[0] + "cost_function: {kind: power, alpha: 1.0, gamma: 2.0}\n"

# at the unit money scale, alpha = 1e12 makes phi so steep that no double
# meets PRICE_TOL
UNIT_SCALE = RUNNING.split("cost_function:")[0] + "cost_function: {kind: power, alpha: 1.0e+12, gamma: 2.0}\n"

# phi(t) = 0.5 * t**300 overflows to inf across most of the price grid
STEEP = RUNNING.split("cost_function:")[0] + "cost_function: {kind: power, alpha: 0.5, gamma: 300}\n"

# the worked instance at ten times the money scale: the default step 0.01
# would need 12100 grid steps, past the guard
TENFOLD = """
alternatives:
  - {id: A, u: 100, v: 100, c: 50}
  - {id: B, u: 80, v: 140, c: 50}
  - {id: C, u: 20, v: 160, c: 50}
cost_function: {kind: piecewise_linear, l: 0.5, k: 2.0, w: 10.0}
"""

FILE_GRID = GridSpec(price_step=2.0, price_min=0.0, price_max=20.0, max_menu_size=1,
                     include_analytic_prices=False)
WITH_GRID = RUNNING + """solver:
  grid: {price_step: 2.0, price_min: 0, price_max: 20, max_menu_size: 1,
         include_analytic_prices: false}
"""


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.yaml"
    path.write_text(RUNNING, encoding="utf-8")
    return str(path)


def run(*args):
    return CliRunner().invoke(main, list(args))


def run_child(*argv):
    """Run a Python child with this checkout's package on its path."""
    src = str(Path(temptmenu.__file__).resolve().parents[1])
    path_var = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path_var}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120,
    )


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


@pytest.mark.parametrize("bound", ("--w-from", "--w-to"))
@pytest.mark.parametrize("value", ("nan", "inf"))
def test_sweep_non_finite_bound_is_a_one_line_input_error(instance_file, bound, value):
    bounds = {"--w-from": "0", "--w-to": "5", bound: value}
    proc = run_child("-m", "temptmenu.cli", "sweep", instance_file,
                     *(arg for item in bounds.items() for arg in item))
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: need finite 0 <= --w-from <= --w-to")
    assert proc.stderr.count("\n") == 1


LINSPACE_TABLE = [
    (a, b, k)
    for a, b in ((0.0, 12.0), (0.0, 10.0), (2.5, 2.5), (0.0, 0.0), (0.1, 0.7),
                 (1e-300, 1e-299), (0.0, 5e-324), (0.0, 1e308), (1e308, 1e308),
                 (3.0, 1.7976931348623157e308))
    for k in (0, 1, 2, 3, 25)
]


def _random_linspace_cases(count=2000, seed=20260101):
    rng = random.Random(seed)
    for _ in range(count):
        a = rng.choice((0.0, rng.uniform(0, 10), 10 ** rng.uniform(-320, 300)))
        b = a + rng.choice((0.0, rng.uniform(0, 10), 10 ** rng.uniform(-320, 300),
                            rng.uniform(0, 1e308)))
        yield a, b, rng.choice((0, 1, 2, 25, rng.randrange(2000)))


@pytest.mark.parametrize("cases", ("table", "random"))
def test_sweep_grid_equals_numpy_linspace(cases):
    cases = LINSPACE_TABLE if cases == "table" else list(_random_linspace_cases())
    for a, b, k in cases:
        with np.errstate(over="ignore"):  # numpy's step * (k - 1) can pass 1.8e308
            expected = [float(x) for x in np.linspace(a, b, k)]
        grid = _uniform_grid(a, b, k)
        assert grid == expected, (a, b, k)
        # the sign of a zero prints in the CSV, so pin it too
        assert [math.copysign(1.0, x) for x in grid] == [
            math.copysign(1.0, x) for x in expected
        ], (a, b, k)


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


def test_nan_tolerance_in_file_no_longer_disables_the_residual_check(tmp_path):
    # no double meets PRICE_TOL here (exit 2), and the gate cannot be set
    path = tmp_path / "unit_scale.yaml"
    path.write_text(UNIT_SCALE + "solver: {tolerance: .nan}\n", encoding="utf-8")
    result = run("solve", str(path))
    assert result.exit_code == EXIT_INPUT
    assert result.output == "error: solver.tolerance: unknown key; expected one of grid\n"


@pytest.mark.parametrize("args", (["solve"], ["verify", "--step", "0.5"]))
def test_numeric_overflow_is_a_one_line_solver_failure(tmp_path, args):
    path = tmp_path / "overflow.yaml"
    path.write_text(OVERFLOWING, encoding="utf-8")
    proc = run_child("-m", "temptmenu.cli", args[0], str(path), *args[1:])
    assert proc.returncode == EXIT_SOLVER, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stderr.startswith("solver failure: BracketFailure: decoy price of C")
    assert proc.stderr.count("\n") == 1


DOCUMENTS = {
    "running": RUNNING, "tied": TIED, "power": POWER, "bracket": OVERFLOWING,
    "huge": HUGE_PRICES, "bad_yaml": "alternatives:\n  - {id: A, u: 10\n",
    "unit_scale": UNIT_SCALE, "steep": STEEP,
    "tolerance": RUNNING + "solver: {tolerance: 1.0e-10}\n",
}

# (case, argv with {dir} for the documents' folder, exit code, start of the
# one stderr line; None for a click usage message, "" for an empty stderr)
EXIT_TABLE = [
    ("usage-missing-argument", ["solve"], EXIT_INPUT, None),
    ("usage-bad-float", ["verify", "{dir}/running.yaml", "--step", "abc"], EXIT_INPUT, None),
    ("usage-unknown-option", ["verify", "{dir}/running.yaml", "--mode", "auto"], EXIT_INPUT, None),
    ("usage-format-xml", ["--format", "xml", "solve", "{dir}/running.yaml"], EXIT_INPUT, None),
    ("usage-tolerance-flag", ["--tolerance", "1e-8", "solve", "{dir}/running.yaml"], EXIT_INPUT,
     None),
    ("input-bad-yaml", ["solve", "{dir}/bad_yaml.yaml"], EXIT_INPUT, "error: invalid YAML at line "),
    ("input-tied-roles", ["solve", "{dir}/tied.yaml"], EXIT_INPUT, "error: "),
    ("input-power-classify", ["classify", "{dir}/power.yaml"], EXIT_INPUT, "error: "),
    ("input-max-menu-4", ["verify", "{dir}/running.yaml", "--max-menu", "4"], EXIT_INPUT,
     "error: max_menu_size must be an integer in 1..3, got 4"),
    ("input-solver-tolerance", ["solve", "{dir}/tolerance.yaml"], EXIT_INPUT,
     "error: solver.tolerance: unknown key; expected one of grid\n"),
    ("input-assume-profit-nan",
     ["verify", "{dir}/running.yaml", "--step", "0.5", "--assume-profit", "nan"], EXIT_INPUT,
     "error: --assume-profit must be finite, got nan\n"),
    ("input-assume-profit-neg-inf",
     ["verify", "{dir}/running.yaml", "--step", "0.5", "--assume-profit", "-inf"], EXIT_INPUT,
     "error: --assume-profit must be finite, got -inf\n"),
    ("solver-bracket-failure", ["solve", "{dir}/bracket.yaml"], EXIT_SOLVER,
     "solver failure: BracketFailure: decoy price of C: residual "),
    ("solver-bracket-failure-unit-scale", ["solve", "{dir}/unit_scale.yaml"], EXIT_SOLVER,
     "solver failure: BracketFailure: decoy price of C: residual 1.7e-09 exceeds tol 1e-10\n"),
    # phi_array overflows to inf in the grid search without a numpy warning
    ("ok-steep-power-verify", ["verify", "{dir}/steep.yaml", "--step", "0.5"], 0, ""),
    # classify prices only the product its range names (the bait A, by
    # commitment), never the decoy B whose price overflows in solve
    ("ok-classify-overflow", ["classify", "{dir}/huge.yaml"], 0, ""),
    ("solver-overflow-solve", ["solve", "{dir}/huge.yaml"], EXIT_SOLVER,
     "solver failure: OverflowError: decoy price of B is inf\n"),
    ("solver-overflow-sweep", ["sweep", "{dir}/huge.yaml", "--w-from", "0", "--w-to", "1"],
     EXIT_SOLVER, "solver failure: OverflowError: decoy price of B is inf\n"),
    ("solver-overflow-verify", ["verify", "{dir}/huge.yaml"], EXIT_SOLVER,
     "solver failure: OverflowError: decoy price of B is inf\n"),
    ("verify-failure", ["verify", "{dir}/running.yaml", "--step", "0.25", "--assume-profit", "8.5"],
     EXIT_VERIFY, ""),
]


@pytest.mark.parametrize(
    "argv, code, stderr_start",
    [case[1:] for case in EXIT_TABLE],
    ids=[case[0] for case in EXIT_TABLE],
)
def test_exit_code_table(tmp_path, argv, code, stderr_start):
    for name, text in DOCUMENTS.items():
        (tmp_path / f"{name}.yaml").write_text(text, encoding="utf-8")
    proc = run_child("-m", "temptmenu.cli", *(arg.format(dir=tmp_path) for arg in argv))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    if stderr_start is None:
        assert proc.stderr.startswith("Usage: ") and "\nError: " in proc.stderr
    elif stderr_start == "":
        assert proc.stderr == ""
    else:
        assert proc.stderr.startswith(stderr_start)
        assert proc.stderr.count("\n") == 1


def test_verify_passes_on_a_near_tie(tmp_path):
    path = tmp_path / "near_tie.yaml"
    path.write_text(NEAR_TIE, encoding="utf-8")
    result = run("verify", str(path))
    assert result.exit_code == 0, result.output
    assert "grid-best menu: A@10, B@8.00000000003\n" in result.output
    assert "verdict: pass\n" in result.output


def test_verify_honours_the_file_grid(tmp_path):
    path = tmp_path / "grid.yaml"
    path.write_text(WITH_GRID, encoding="utf-8")
    result = run("verify", str(path))
    assert result.exit_code == 0, result.output
    assert "grid-best profit: 5\n" in result.output
    assert "acceptance band: [1, 7.000000001]\n" in result.output


@pytest.mark.parametrize(
    "text, flags, expected",
    (
        (WITH_GRID, [], FILE_GRID),
        (WITH_GRID, ["--step", "0.5"], replace(FILE_GRID, price_step=0.5)),
        (WITH_GRID, ["--price-min", "1"], replace(FILE_GRID, price_min=1.0)),
        (WITH_GRID, ["--price-max", "15"], replace(FILE_GRID, price_max=15.0)),
        (WITH_GRID, ["--max-menu", "3"], replace(FILE_GRID, max_menu_size=3)),
        (WITH_GRID, ["--include-analytic"], replace(FILE_GRID, include_analytic_prices=True)),
        # no file grid: past every candidate price (12), GridSpec's own defaults
        (RUNNING, [], GridSpec(price_step=0.01, price_min=0.0, price_max=13.0)),
        (RUNNING, ["--exclude-analytic", "--max-menu", "2"],
         GridSpec(0.01, 0.0, 13.0, max_menu_size=2, include_analytic_prices=False)),
    ),
    ids=("file", "step", "price-min", "price-max", "max-menu", "analytic", "default",
         "default-flags"),
)
def test_verify_grid_takes_each_field_from_flag_then_file_then_default(
    tmp_path, monkeypatch, text, flags, expected
):
    path = tmp_path / "instance.yaml"
    path.write_text(text, encoding="utf-8")
    searched = []
    monkeypatch.setattr(cli, "grid_best_contract", lambda inst, grid: searched.append(grid))
    run("verify", str(path), *flags)
    assert searched == [expected]


def test_verify_validates_the_grid_only_after_the_flags_apply(tmp_path):
    path = tmp_path / "tenfold.yaml"
    path.write_text(TENFOLD, encoding="utf-8")
    assert run("verify", str(path)).exit_code == EXIT_INPUT  # too many steps at 0.01
    result = run("verify", str(path), "--step", "1")
    assert result.exit_code == 0, result.output
    assert "grid-best profit: 70\n" in result.output


NUMPY_PROBE = """
import sys
import {module}
args = sys.argv[1:]
if args:
    from temptmenu.cli import main
    main(args, standalone_mode=False)
print("numpy loaded:", "numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "module, args, loaded",
    (
        ("temptmenu", [], False),
        ("temptmenu.cli", [], False),
        ("temptmenu.cli", ["solve"], False),
        ("temptmenu.cli", ["classify"], False),
        ("temptmenu.cli", ["sweep", "--w-from", "0", "--w-to", "12"], False),
        # the grid search does load it, which shows the probe can see it
        ("temptmenu.cli", ["verify", "--step", "0.5"], True),
    ),
    ids=("import-package", "import-cli", "solve", "classify", "sweep", "verify"),
)
def test_only_the_grid_search_imports_numpy(instance_file, module, args, loaded):
    argv = [args[0], instance_file, *args[1:]] if args else []
    proc = run_child("-c", NUMPY_PROBE.format(module=module), *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"numpy loaded: {loaded}"
