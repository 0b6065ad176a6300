"""Instance document parsing, validation diagnostics, and round-tripping."""

import pytest

from temptmenu import AssumptionViolated, GridSpec, PowerCost, ProblemInstance
from temptmenu.instancefile import (
    InstanceDocument,
    InstanceFileError,
    dump_instance,
    load_instance,
    parse_instance,
)
from helpers import running_instance

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


def test_parse_running_instance():
    doc = parse_instance(RUNNING)
    assert doc.instance == running_instance()
    assert doc.tolerance is None
    assert doc.grid is None


def test_parse_power_cost_and_overrides():
    text = """
alternatives:
  - {id: A, u: 10, v: 10, c: 5}
  - {id: B, u: 8, v: 14, c: 5}
cost_function: {kind: power, alpha: 1.0, gamma: 2.0}
solver:
  tolerance: 1.0e-9
  grid: {price_step: 0.5, price_min: 0.0, price_max: 15.0}
"""
    doc = parse_instance(text)
    assert doc.instance.cost_fn == PowerCost(alpha=1.0, gamma=2.0)
    assert doc.tolerance == 1e-9
    assert doc.grid == GridSpec(price_step=0.5, price_min=0.0, price_max=15.0)


def test_round_trip_identity():
    doc = parse_instance(RUNNING)
    again = parse_instance(dump_instance(doc))
    assert again.instance == doc.instance

    full = InstanceDocument(
        doc.instance,
        tolerance=1e-9,
        grid=GridSpec(price_step=0.05, price_min=0.0, price_max=17.3),
    )
    again = parse_instance(dump_instance(full))
    assert again == full

    narrow = InstanceDocument(
        doc.instance,
        grid=GridSpec(price_step=0.5, price_min=1.0, price_max=9.0, max_menu_size=2,
                      include_analytic_prices=False),
    )
    assert parse_instance(dump_instance(narrow)) == narrow


@pytest.mark.parametrize(
    "find, replace, path",
    (
        ("c: 5}", "c: 5, w: 3}", r"alternatives\[0\]\.w"),
        ("  w: 1.0\n", "  w: 1.0\n  gamma: 2.0\n", r"cost_function\.gamma"),
        ("  kind: piecewise_linear\n  l: 0.5\n  k: 2.0\n  w: 1.0\n",
         "  {kind: power, alpha: 1.0, gamma: 2.0, w: 1.0}\n", r"cost_function\.w"),
        ("  w: 1.0\n", "  w: 1.0\nsolver: {tolerence: 1.0e-3}\n", r"solver\.tolerence"),
        ("  w: 1.0\n", "  w: 1.0\nsolver:\n  grid: {price_step: 1, price_min: 0, "
         "price_max: 5, include_analytic: false}\n", r"solver\.grid\.include_analytic"),
        ("  w: 1.0\n", "  w: 1.0\nsolvr: {tolerance: 1.0e-3}\n", r"document\.solvr"),
    ),
    ids=("alternative", "piecewise", "power", "solver", "grid", "document"),
)
def test_unknown_key_names_its_path(find, replace, path):
    assert find in RUNNING
    with pytest.raises(InstanceFileError, match=rf"^{path}: unknown key; expected one of "):
        parse_instance(RUNNING.replace(find, replace, 1))


@pytest.mark.parametrize(
    "find, replace, message",
    (
        ("{id: B, u: 8, v: 14, c: 5}", "{id: B, u: 8, v: 14, c: 5, u: 80}",
         r"alternatives\[1\]\.u: duplicate key at line 4, column 32"),
        ("  w: 1.0\n", "  w: 1.0\ncost_function: {kind: power, alpha: 1.0, gamma: 2.0}\n",
         r"document\.cost_function: duplicate key at line 11, column 1"),
        ("  w: 1.0\n", "  w: 1.0\nsolver:\n  grid: {price_step: 1, price_min: 0, "
         "price_max: 5, price_step: 2}\n",
         r"solver\.grid\.price_step: duplicate key at line 12, column 53"),
    ),
    ids=("alternative", "document", "grid"),
)
def test_duplicate_key_names_its_path_and_position(find, replace, message):
    # YAML would keep the last value: B sold at 80, the power cost replacing
    # the piecewise one, a grid step of 2
    assert find in RUNNING
    with pytest.raises(InstanceFileError, match=rf"^{message}$"):
        parse_instance(RUNNING.replace(find, replace, 1))


def test_yaml_error_carries_position():
    with pytest.raises(InstanceFileError, match=r"line \d+"):
        parse_instance("alternatives:\n  - {id: A, u: 10\n")


def test_missing_key_names_path():
    bad = RUNNING.replace("u: 10, ", "", 1)
    with pytest.raises(InstanceFileError, match=r"alternatives\[0\]"):
        parse_instance(bad)


def test_unknown_cost_kind():
    with pytest.raises(InstanceFileError, match="kind"):
        parse_instance(RUNNING.replace("piecewise_linear", "quadratic"))


def test_non_numeric_field():
    with pytest.raises(InstanceFileError, match="expected a number"):
        parse_instance(RUNNING.replace("u: 10", "u: ten"))


@pytest.mark.parametrize(
    "value", (".nan", ".inf", "-.inf", "1" + "0" * 400), ids=("nan", "inf", "-inf", "huge-int")
)
def test_non_finite_number_names_its_key(value):
    with pytest.raises(InstanceFileError, match=r"^alternatives\[0\]\.u: expected a finite"):
        parse_instance(RUNNING.replace("u: 10", f"u: {value}", 1))


@pytest.mark.parametrize("value", (".nan", "0", "-1"))
def test_bad_tolerance_names_its_key(value):
    with pytest.raises(InstanceFileError, match=r"^solver\.tolerance: "):
        parse_instance(RUNNING + f"solver:\n  tolerance: {value}\n")


def test_menu_size_must_be_an_integer():
    grid = "solver:\n  grid: {price_step: 0.5, price_min: 0, price_max: 15, max_menu_size: %s}\n"
    with pytest.raises(InstanceFileError, match=r"^solver\.grid\.max_menu_size: "):
        parse_instance(RUNNING + grid % "2.5")
    assert parse_instance(RUNNING + grid % "2").grid.max_menu_size == 2


def test_bad_cost_parameters_are_flagged():
    with pytest.raises(InstanceFileError, match="k > 1 > l > 0"):
        parse_instance(RUNNING.replace("k: 2.0", "k: 0.9"))


def test_assumption_violation_propagates():
    tied = RUNNING.replace("{id: C, u: 2, v: 16, c: 5}", "{id: C, u: 10, v: 14, c: 5}")
    with pytest.raises(AssumptionViolated):
        parse_instance(tied)


def test_load_instance_from_disk(tmp_path):
    path = tmp_path / "inst.yaml"
    path.write_text(RUNNING, encoding="utf-8")
    doc = load_instance(str(path))
    assert doc.instance == running_instance()


def test_dump_writes_kind_then_fields_in_order():
    inst = parse_instance(RUNNING).instance
    assert "cost_function:\n  kind: piecewise_linear\n  l: 0.5\n  k: 2.0\n  w: 1.0\n" in (
        dump_instance(inst)
    )
    power = ProblemInstance(inst.alternatives, PowerCost(alpha=1.5, gamma=3.0))
    assert "cost_function:\n  kind: power\n  alpha: 1.5\n  gamma: 3.0\n" in dump_instance(power)
