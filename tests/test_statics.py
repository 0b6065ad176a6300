"""Willpower sweeps and the contract curve."""

from dataclasses import replace

import pytest

from temptmenu import (
    ContractKind,
    classify_willpower_regime,
    contract_curve,
    optimal_contract,
    sweep_willpower,
)
from temptmenu import model, solver, statics
from helpers import (
    four_product_instance,
    perturbed_instance,
    running_instance,
    with_power_cost,
)

T_STEEP = 8.0 / 1.5  # flat-region boundary of the worked instance


def test_flat_region_records_identical(running):
    records = sweep_willpower(running, [float(x) for x in range(13)])
    flat = [r for r in records if r.w <= T_STEEP]
    assert len(flat) >= 6
    assert {r.case_index for r in flat} == {1}
    assert len({r.price for r in flat}) == 1  # bitwise constant
    assert len({r.profit for r in flat}) == 1
    assert {(r.sold_id, r.price, r.profit) for r in flat} == {("B", 12.0, 7.0)}


def test_thresholds_are_injected(running):
    records = sweep_willpower(running, [0.0, 12.0])
    ws = [r.w for r in records]
    assert T_STEEP in ws
    assert 14.0 / 1.5 in ws
    assert ws == sorted(ws)


def test_sweep_solves_each_point_once_and_classifies_once(monkeypatch):
    inst = four_product_instance(w=1.0)  # own willpower in range 1
    calls = {"solve": 0, "classify": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    solve = counting("solve", solver.optimal_contract)
    monkeypatch.setattr(solver, "optimal_contract", solve)
    monkeypatch.setattr(statics, "optimal_contract", solve)
    monkeypatch.setattr(
        statics, "_regime_thresholds",
        counting("classify", solver._regime_thresholds),
    )
    records = sweep_willpower(inst, [0.5 * i for i in range(25)])
    assert {r.case_index for r in records} == {1, 2, 3, 4}
    assert calls == {"solve": len(records), "classify": 1}
    for r in records:
        inst_w = replace(inst, cost_fn=replace(inst.cost_fn, w=r.w))
        assert r.case_index == classify_willpower_regime(inst_w).case_index


def test_sweep_monotonicity(running):
    records = sweep_willpower(running, [0.5 * i for i in range(25)])
    profits = [r.profit for r in records]
    welfares = [r.welfare for r in records]
    assert all(b <= a + 1e-9 for a, b in zip(profits, profits[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(welfares, welfares[1:]))
    assert all(r.welfare <= 1e-12 for r in records)


def test_case4_on_tied_instance_sells_bait(running):
    records = sweep_willpower(running, [10.0, 11.0])
    assert all(r.case_index == 4 for r in records)
    assert all(r.sold_id == "A" for r in records)
    assert all(r.kind is ContractKind.COMMITMENT for r in records)


def test_all_four_cases_appear_in_order():
    inst = four_product_instance()
    reg = classify_willpower_regime(inst)
    assert (reg.steep_product.id, reg.shallow_product.id) == ("M2", "M1")
    records = sweep_willpower(inst, [0.25 * i for i in range(49)])
    cases = [r.case_index for r in records]
    assert cases == sorted(cases)
    assert set(cases) == {1, 2, 3, 4}
    case2 = [r for r in records if r.case_index == 2]
    # interior range: the sold product's excess temptation stays between
    # the shallow and steep products'
    assert all(2.0 <= r.e_sold <= 6.0 for r in case2)
    assert {r.sold_id for r in case2} == {"M1", "M2"}  # hand-off happens inside
    case3 = [r for r in records if r.case_index == 3]
    assert {r.sold_id for r in case3} == {"M1"}
    prices = [r.price for r in case3]
    assert all(b < a for a, b in zip(prices, prices[1:]))


def test_case3_shape_on_perturbed_instance():
    inst = perturbed_instance()
    records = sweep_willpower(inst, [0.25 * i for i in range(49)])
    case3 = [r for r in records if r.case_index == 3]
    assert len(case3) >= 3
    assert len({r.e_sold for r in case3}) == 1  # fixed product
    prices = [r.price for r in case3]
    assert all(b < a for a, b in zip(prices, prices[1:]))  # strictly falling
    case4 = [r for r in records if r.case_index == 4]
    assert all(r.kind is ContractKind.INDULGING for r in case4)
    assert all(r.sold_id == "B" for r in case4)


def test_contract_curve_projection():
    inst = perturbed_instance()
    records = sweep_willpower(inst, [0.25 * i for i in range(49)])
    curve = contract_curve(records)
    assert len(curve) == len(records)
    u_by_id = {a.id: a.u for a in inst.alternatives}
    for r, (e_sold, markup) in zip(records, curve):
        assert e_sold == r.e_sold
        assert markup == pytest.approx(r.price - u_by_id[r.sold_id], abs=1e-12)
    flat = [pt for r, pt in zip(records, curve) if r.case_index == 1]
    assert len(set(flat)) == 1  # one repeated point
    case3 = [pt for r, pt in zip(records, curve) if r.case_index == 3]
    assert len({e for e, _ in case3}) == 1
    ordinates = [m for _, m in case3]
    assert all(b < a for a, b in zip(ordinates, ordinates[1:]))


def test_empty_grid(running):
    assert sweep_willpower(running, []) == []


def test_grid_validation(running):
    with pytest.raises(ValueError, match="increasing"):
        sweep_willpower(running, [1.0, 1.0])
    with pytest.raises(ValueError, match=">= 0"):
        sweep_willpower(running, [-1.0, 1.0])


def test_power_cost_rejected(running):
    with pytest.raises(ValueError, match="piecewise"):
        sweep_willpower(with_power_cost(running), [0.0, 1.0])


def test_sweep_solves_each_point_once_in_willpower_range_2(monkeypatch):
    inst = four_product_instance(w=6.0)  # own willpower in range 2
    calls = []

    def solve(*args, **kwargs):
        calls.append(args[0].cost_fn.w)
        return optimal_contract(*args, **kwargs)

    monkeypatch.setattr(solver, "optimal_contract", solve)
    monkeypatch.setattr(statics, "optimal_contract", solve)
    records = sweep_willpower(inst, [0.5 * i for i in range(25)])
    assert calls == [r.w for r in records]


def test_sweep_scans_the_roles_once(monkeypatch):
    calls = []
    scan = model._unique_extremum

    def spy(*args):
        calls.append(args[-1])
        return scan(*args)

    monkeypatch.setattr(model, "_unique_extremum", spy)
    records = sweep_willpower(four_product_instance(w=6.0), [0.5 * i for i in range(25)])
    assert len(records) > 25
    assert len(calls) == 4  # the validation of the instance itself


def test_sweep_records_equal_solving_each_point_on_its_own():
    for inst in (four_product_instance(w=6.0), perturbed_instance(), running_instance()):
        records = sweep_willpower(inst, [0.25 * i for i in range(49)])
        for r in records:
            sol = optimal_contract(replace(inst, cost_fn=replace(inst.cost_fn, w=r.w)))
            price = sol.contract.intended_offer.price
            assert (r.sold_id, r.price, r.profit, r.welfare, r.kind) == (
                sol.sold.id, price, sol.profit, sol.welfare, sol.kind,
            )
