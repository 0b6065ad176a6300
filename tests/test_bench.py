"""The layer harness ``benchmarks/bench.py``: its work counter and one pass."""

import importlib.util
from pathlib import Path

import pytest

import temptmenu
from temptmenu import Alternative, PowerCost, ProblemInstance, optimal_contract, solver
from helpers import running_instance, with_power_cost

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

# a0 is the bait (least e = v - u) and a7 the decoy; u - c peaks at a0, v - c at a7
LADDER = ProblemInstance(
    tuple(Alternative(f"a{i}", 10.0 - i, 10.0 + 2.0 * i, 5.0) for i in range(8)),
    PowerCost(1.0, 2.0),
)


@pytest.mark.parametrize("inst", [with_power_cost(running_instance()), LADDER], ids=["n3", "n8"])
def test_power_solve_searches_one_root_per_priced_product(inst):
    # the bait needs no price, the decoy one, and every other product's
    # compromise price one more, reusing the decoy's: n - 1 searches
    search = solver.psi_root
    assert bench.psi_root_calls(solver, optimal_contract, inst) == len(inst) - 1
    assert solver.psi_root is search  # the counter is taken off again


def test_one_pass_gives_a_row_per_layer_family_and_size():
    rows = bench.measure(temptmenu, repeats=1, sizes=(3, 8), instances={3: 2, 8: 1})
    keys = [(r["layer"], r["family"], r["n"]) for r in rows]
    assert keys == [
        ("optimal_contract", "piecewise", 3), ("optimal_contract", "piecewise", 8),
        ("optimal_contract", "power", 3), ("optimal_contract", "power", 8),
        ("classify_willpower_regime", "piecewise", 3),
        ("classify_willpower_regime", "piecewise", 8),
    ]
    calls = {key: r["psi_root_calls_per_call"] for key, r in zip(keys, rows)}
    assert calls[("optimal_contract", "power", 8)] == 7
    assert calls[("optimal_contract", "piecewise", 8)] == 0  # closed forms
    assert all(r["ms"] > 0.0 for r in rows)


def test_grid_rows_count_the_hand_counted_rows():
    # prices 0, 5 and 10 for every alternative, as in
    # test_oracle.py::test_search_stats_count_rows_by_hand: on the
    # piecewise worked instance 6 of 18 two-offer rows and 7 of 27
    # three-offer rows are left after pruning, one window check each; i_F
    # is the top of the grid, so the search for the best price probes none
    rows = bench.measure_grid(temptmenu, repeats=1, steps=(5.0,), price_max=10.0)
    assert [(r["layer"], r["family"], r["step"]) for r in rows] == [
        ("grid_best_contract", "piecewise", 5.0), ("grid_best_contract", "power", 5.0),
    ]
    work = {
        r["family"]: [(s["size"], s["tuples"], s["pruned"], s["window_checks"]) for s in r["sizes"]]
        for r in rows
    }
    assert work["piecewise"] == [(1, 3, 0, 0), (2, 18, 12, 6), (3, 27, 20, 7)]
    # the rows walked depend on the grid alone, not on the cost
    assert [w[:2] for w in work["power"]] == [(1, 3), (2, 18), (3, 27)]
    assert all(r["ms"] > 0.0 for r in rows)
