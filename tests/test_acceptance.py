"""Acceptance gate: every contract-level criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -v -s
tests/test_acceptance.py`` to see them.  The randomized populations are
seeded, so the whole gate is reproducible.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from temptmenu import (
    ContractKind,
    GridSpec,
    commitment_contract,
    compromising_contract,
    classify_willpower_regime,
    decoy_price,
    grid_best_contract,
    indulging_contract,
    optimal_contract,
    overall_utilities,
    sweep_willpower,
)
from helpers import bisecting, random_pw_instance, running_instance, with_power_cost

P_DECOY = 32.5 / 3


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def population():
    rng = np.random.default_rng(20240800)
    return [random_pw_instance(rng) for _ in range(200)]


def test_criterion_1_worked_instance_end_to_end():
    start = time.perf_counter()
    inst = running_instance()
    sol = optimal_contract(inst)
    scores = overall_utilities(sol.contract, inst.cost_fn)
    elapsed = time.perf_counter() - start
    prices = [o.price for o in sol.contract.offers]
    ok = (
        sol.kind is ContractKind.COMPROMISING
        and sol.sold.id == "B"
        and abs(prices[0] - 12.0) <= 1e-9
        and abs(prices[1] - 10.0) <= 1e-9
        and abs(prices[2] - P_DECOY) <= 1e-9
        and abs(sol.profit - 7.0) <= 1e-9
        and abs(sol.welfare - (2.0 - P_DECOY)) <= 1e-9
        and max(scores) - min(scores) <= 1e-8
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"compromising menu (12, 10, 32.5/3) sells B, profit {sol.profit:.12g}, "
        f"welfare {sol.welfare:.12g}, offers indifferent within 1e-8, "
        f"{elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_oracle_equivalence():
    inst = running_instance()
    start = time.perf_counter()
    with_prices = grid_best_contract(
        inst, GridSpec(price_step=0.01, price_min=0.0, price_max=20.0)
    )
    grid_only = grid_best_contract(
        inst,
        GridSpec(
            price_step=0.01, price_min=0.0, price_max=20.0,
            include_analytic_prices=False,
        ),
    )
    elapsed = time.perf_counter() - start
    ok = (
        abs(with_prices.profit - 7.0) <= 1e-9
        and 7.0 - 0.03 <= grid_only.profit <= 7.0 + 1e-9
        and elapsed < 60.0
    )
    _report(
        2,
        ok,
        f"grid best {with_prices.profit:.12g} with analytic prices, "
        f"{grid_only.profit:.12g} on the bare grid, {elapsed:.1f} s",
    )


def test_criterion_3_closed_forms_match_bisection(population):
    start = time.perf_counter()
    worst = 0.0
    for inst in population:
        ref = bisecting(inst)
        bait, decoy = inst.least_tempting, inst.most_tempting
        worst = max(worst, abs(decoy_price(inst) - decoy_price(ref)))
        for x in inst.alternatives:
            if x.id == bait.id:
                continue
            ind = indulging_contract(x, inst)
            ind_ref = indulging_contract(x, ref)
            worst = max(
                worst,
                abs(ind.contract.offers[0].price - ind_ref.contract.offers[0].price),
            )
            if x.id == decoy.id:
                continue
            comp = compromising_contract(x, inst)
            comp_ref = compromising_contract(x, ref)
            worst = max(
                worst,
                abs(comp.contract.offers[0].price - comp_ref.contract.offers[0].price),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(
        3,
        ok,
        f"max |closed form - bisection root| = {worst:.3g} over 200 instances, "
        f"{elapsed:.1f} s",
    )


def test_criterion_4_dominance_ordering(population):
    weak_violation = 0.0
    strict_margin = float("inf")
    for inst in population:
        bait, decoy = inst.least_tempting, inst.most_tempting
        power = with_power_cost(inst)
        for x in inst.alternatives:
            commit = commitment_contract(x)
            if x.id == bait.id:
                continue
            ind = indulging_contract(x, inst)
            weak_violation = max(weak_violation, commit.profit - 1e-8 - ind.profit)
            ind_p = indulging_contract(x, power)
            if x.id != decoy.id:
                comp = compromising_contract(x, inst)
                weak_violation = max(weak_violation, ind.profit - 1e-8 - comp.profit)
                comp_p = compromising_contract(x, power)
                strict_margin = min(strict_margin, comp_p.profit - ind_p.profit)
            strict_margin = min(strict_margin, ind_p.profit - commit.profit)
    ok = weak_violation <= 0.0 and strict_margin > 1e-8
    _report(
        4,
        ok,
        "profit(compromising) >= profit(indulging) - 1e-8 >= profit(commitment)"
        f" - 2e-8 on all 200 instances; strictly convex margins > {strict_margin:.3g}",
    )


def test_criterion_5_regime_classification_consistency(population):
    worst_price_gap = 0.0
    sold_mismatches = 0
    checked = 0
    for inst in population:
        for w in np.linspace(0.0, 15.0, 50):
            inst_w = replace(inst, cost_fn=replace(inst.cost_fn, w=float(w)))
            reg = classify_willpower_regime(inst_w)
            sol = optimal_contract(inst_w)
            checked += 1
            if reg.sold.id != sol.sold.id:
                sold_mismatches += 1
                continue
            worst_price_gap = max(
                worst_price_gap,
                abs(reg.price - sol.contract.intended_offer.price),
            )
    ok = sold_mismatches == 0 and worst_price_gap <= 1e-8
    _report(
        5,
        ok,
        f"{checked} classification checks: {sold_mismatches} sold mismatches, "
        f"max price gap {worst_price_gap:.3g}",
    )


def test_criterion_6_monotone_statics(population):
    grid = [float(x) for x in np.linspace(0.0, 15.0, 21)]
    profit_bad = welfare_bad = flat_bad = 0
    for inst in population:
        records = sweep_willpower(inst, grid)
        profits = [r.profit for r in records]
        welfares = [r.welfare for r in records]
        if any(b > a + 1e-9 for a, b in zip(profits, profits[1:])):
            profit_bad += 1
        if any(b < a - 1e-9 for a, b in zip(welfares, welfares[1:])):
            welfare_bad += 1
        t_steep = classify_willpower_regime(inst).thresholds[0]
        flat = {r.profit for r in records if r.w <= t_steep}
        if len(flat) > 1:
            flat_bad += 1
    ok = profit_bad == welfare_bad == flat_bad == 0
    _report(
        6,
        ok,
        f"200 sweeps: {profit_bad} profit-monotonicity, {welfare_bad} "
        f"welfare-monotonicity, {flat_bad} flat-region-constancy violations",
    )


def test_criterion_7_exploitation(population):
    worst_welfare = -float("inf")
    strict_failures = 0
    compromising_seen = 0
    for inst in population:
        for variant in (inst, with_power_cost(inst)):
            sol = optimal_contract(variant)
            worst_welfare = max(worst_welfare, sol.welfare)
            if sol.kind is ContractKind.COMPROMISING:
                decoy_offer = sol.contract.offers[2]
                markup = decoy_offer.price - decoy_offer.alternative.u
                if markup > 1e-8:
                    compromising_seen += 1
                    if not sol.welfare < 0.0:
                        strict_failures += 1
    ok = worst_welfare <= 1e-12 and strict_failures == 0
    _report(
        7,
        ok,
        f"max optimal-contract welfare {worst_welfare:.3g} <= 1e-12; welfare "
        f"strictly negative at all {compromising_seen} exploitative "
        f"compromising optima",
    )


def test_criterion_8_efficiency_loss_report():
    # the optimum sells argmax S(x) = u - c - h(e_decoy - e_x), with
    # h' = phi' / (1 + phi') in [0, 1).  A product with e below the
    # u-efficient one's loses to it: its u - c is lower and its h term no
    # smaller.  One with e above the v-efficient one's loses to that one:
    # its h term is smaller by less than the gap in e, and its v - c is
    # lower.  So e(sold) lies between the two, under any convex cost
    rng = np.random.default_rng(20240801)
    total = 100
    outside = []
    for i in range(total):
        pw = random_pw_instance(rng, n=int(rng.integers(7, 9)))
        for inst in (pw, with_power_cost(pw)):
            sold = optimal_contract(inst).sold
            if not inst.u_efficient.e <= sold.e <= inst.v_efficient.e:
                outside.append((i, inst.cost_fn.kind, sold.id))
    _report(
        8,
        not outside,
        f"convex cost: e(sold) within [e(u-efficient), e(v-efficient)] on "
        f"{2 * total - len(outside)} of {2 * total} solves (piecewise and PowerCost(1, 2)); "
        f"outside: {outside}",
    )
