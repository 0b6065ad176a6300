"""Analytic constructions: closed forms, root-finding, optimality, regimes."""

import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from temptmenu import (
    Alternative,
    AssumptionViolated,
    BracketFailure,
    ContractKind,
    NotCompromisable,
    PiecewiseLinearCost,
    PowerCost,
    ProblemInstance,
    accepts,
    best_contract_for,
    classify_willpower_regime,
    commitment_contract,
    compromising_contract,
    decoy_price,
    indulging_contract,
    optimal_contract,
    overall_utilities,
    perceived_choice,
    solve_monotone_price,
    verify_solution,
)
from temptmenu.solver import REVENUE_TIE_TOL, _self_tempting_price, psi_root
from helpers import (
    BisectedPiecewiseCost,
    bisecting,
    perturbed_instance,
    random_pw_instance,
    running_instance,
    with_power_cost,
)

P_DECOY = 32.5 / 3


def by_id(inst, alt_id):
    return next(a for a in inst.alternatives if a.id == alt_id)


# -- commitment ---------------------------------------------------------------


def test_commitment_prices_at_utility_value():
    sol = commitment_contract(Alternative("B", 8.0, 14.0, 5.0))
    assert sol.contract.offers[0].price == 8.0
    assert sol.profit == 3.0
    assert sol.welfare == 0.0
    sol = commitment_contract(Alternative("A", 10.0, 10.0, 5.0))
    assert (sol.contract.offers[0].price, sol.profit) == (10.0, 5.0)


def test_commitment_keeps_negative_profit():
    sol = commitment_contract(Alternative("dud", 3.0, 4.0, 9.0))
    assert sol.profit == -6.0


# -- indulging ----------------------------------------------------------------


def test_indulging_shallow_region():
    inst = running_instance(w=12.0)
    sol = indulging_contract(by_id(inst, "B"), inst)
    assert sol.contract.offers[0].price == pytest.approx(10.0, abs=1e-12)
    assert sol.residuals[0] < 1e-10
    assert sol.kind is ContractKind.INDULGING
    assert sol.contract.offers[1].price == 10.0  # bait at its utility value


def test_indulging_steep_region():
    inst = running_instance(w=1.0)
    sol = indulging_contract(by_id(inst, "B"), inst)
    assert sol.contract.offers[0].price == pytest.approx(11.5, abs=1e-12)
    bisected = BisectedPiecewiseCost(0.5, 2.0, 1.0)
    price, residual = _self_tempting_price(8.0, 14.0, 0.0, bisected, 1e-10)
    assert price == pytest.approx(11.5, abs=1e-9)
    assert residual <= 1e-10


def test_indulging_degenerates_to_commitment_for_bait():
    inst = running_instance()
    sol = indulging_contract(by_id(inst, "A"), inst)
    assert sol.kind is ContractKind.COMMITMENT
    assert sol.contract.offers[0].price == 10.0


def test_indulging_price_reduces_to_utility_when_gap_zero():
    # equal excess temptations collapse the self-control term at the root
    price, residual = _self_tempting_price(7.0, 9.0, 2.0, PiecewiseLinearCost(0.5, 2.0, 1.0), 1e-10)
    assert price == pytest.approx(7.0, abs=1e-12)
    assert residual <= 1e-12


# -- decoy price ---------------------------------------------------------------


def test_decoy_price_steep_and_shallow():
    assert decoy_price(running_instance(w=1.0)) == pytest.approx(P_DECOY, abs=1e-12)
    assert decoy_price(running_instance(w=20.0)) == pytest.approx(10.0 / 1.5, abs=1e-12)


def test_decoy_price_continuity_toward_bait():
    # as the temptation spread collapses, the decoy price falls to its utility value
    inst = ProblemInstance(
        (
            Alternative("A", 10.0, 10.0, 5.0),
            Alternative("B", 8.9999995, 9.0000005, 4.0),
        ),
        PiecewiseLinearCost(l=0.5, k=2.0, w=1.0),
    )
    assert decoy_price(inst) - 8.9999995 == pytest.approx(1e-6 / 3.0, rel=1e-6)


# -- compromising ---------------------------------------------------------------


def test_compromising_steep_region_price():
    inst = running_instance(w=1.0)
    sol = compromising_contract(by_id(inst, "B"), inst)
    p = sol.contract.offers[0].price
    assert p == pytest.approx(12.0, abs=1e-12)
    # direct substitution into the pricing identity
    rhs = 8.0 + P_DECOY - 2.0 - inst.cost_fn.phi(16.0 - P_DECOY - 14.0 + p)
    assert rhs == pytest.approx(p, abs=1e-12)
    assert max(sol.residuals) <= 1e-10
    assert sol.contract.offers[2].price == pytest.approx(P_DECOY, abs=1e-12)


def test_compromising_price_independent_of_w_in_steep_region():
    inst = running_instance(w=3.0)
    sol = compromising_contract(by_id(inst, "B"), inst)
    assert sol.contract.offers[0].price == 12.0


def test_compromising_mid_region_price():
    inst = running_instance(w=6.0)
    sol = compromising_contract(by_id(inst, "B"), inst)
    assert sol.contract.offers[0].price == pytest.approx(10.0 + 14.0 / 3.0 - 3.0, abs=1e-12)


def test_compromising_rejects_bait_and_decoy():
    inst = running_instance()
    with pytest.raises(NotCompromisable):
        compromising_contract(by_id(inst, "A"), inst)
    with pytest.raises(NotCompromisable):
        compromising_contract(by_id(inst, "C"), inst)


def test_compromising_constraints_bind(running):
    sol = compromising_contract(by_id(running, "B"), running)
    scores = overall_utilities(sol.contract, running.cost_fn)
    assert max(scores) - min(scores) < 1e-8
    assert scores[0] == pytest.approx(2.0 - P_DECOY, abs=1e-9)
    bait_offer = perceived_choice(sol.contract)
    assert bait_offer.alternative.u - bait_offer.price == pytest.approx(0.0, abs=1e-10)


# -- root finder ----------------------------------------------------------------


def test_solve_monotone_price_identity():
    assert solve_monotone_price(lambda p: p - 8.0, 0.0, 16.0) == 8.0


def test_solve_monotone_price_matches_closed_forms():
    cost = PiecewiseLinearCost(l=0.5, k=2.0, w=1.0)

    def eq1(p):
        return p - 8.0 - cost.phi(14.0 - p)

    assert solve_monotone_price(eq1, 8.0, 8.0 + cost.phi(6.0)) == pytest.approx(11.5, abs=1e-9)

    def eq_decoy(p):
        return p - 2.0 - cost.phi(16.0 - p)

    assert solve_monotone_price(eq_decoy, 2.0, 2.0 + cost.phi(14.0)) == pytest.approx(P_DECOY, abs=1e-9)


def test_solve_monotone_price_bracket_failure():
    with pytest.raises(BracketFailure):
        solve_monotone_price(lambda p: 1.0, 0.0, 1.0)
    # a bracket that misses the root is not widened
    with pytest.raises(BracketFailure, match="no sign change"):
        solve_monotone_price(lambda p: p - 8.0, 0.0, 1.0)


# -- closed forms vs root finder -------------------------------------------------


def test_piecewise_closed_forms_running_instance():
    inst = running_instance(w=1.0)
    b = by_id(inst, "B")
    assert indulging_contract(b, inst).contract.offers[0].price == pytest.approx(11.5, abs=1e-12)
    assert decoy_price(inst) == pytest.approx(P_DECOY, abs=1e-12)
    assert compromising_contract(b, inst).contract.offers[0].price == pytest.approx(
        12.0, abs=1e-12
    )
    wide = running_instance(w=12.0)
    assert indulging_contract(by_id(wide, "B"), wide).contract.offers[0].price == pytest.approx(
        10.0, abs=1e-12
    )


def test_equal_revenue_when_willpower_exhausts_temptation():
    # decoy idle: compromising collapses onto the indulging price exactly
    inst = running_instance(w=1e6)
    b = by_id(inst, "B")
    comp_price = compromising_contract(b, inst).contract.offers[0].price
    assert comp_price == indulging_contract(b, inst).contract.offers[0].price
    assert abs(comp_price - 10.0) < 1e-10


def test_closed_forms_match_bisection_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(20):
        inst = random_pw_instance(rng)
        ref = bisecting(inst)
        bait, decoy = inst.least_tempting, inst.most_tempting
        for x in inst.alternatives:
            if x.id != bait.id:
                closed = indulging_contract(x, inst).contract.offers[0].price
                bisected = indulging_contract(x, ref).contract.offers[0].price
                assert closed == pytest.approx(bisected, abs=1e-8)
                if x.id != decoy.id:
                    closed = compromising_contract(x, inst).contract.offers[0].price
                    bisected = compromising_contract(x, ref).contract.offers[0].price
                    assert closed == pytest.approx(bisected, abs=1e-8)
        assert decoy_price(inst) == pytest.approx(decoy_price(ref), abs=1e-8)


@pytest.mark.parametrize("tol", (math.nan, math.inf, 0.0, -1.0))
def test_bad_tolerance_is_rejected_before_pricing(running, tol):
    # closed forms never read tol, so a bad one used to pass unnoticed on
    # the piecewise family; on the power family -1 rejected every price
    for inst in (running, with_power_cost(running)):
        with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
            optimal_contract(inst, tol=tol)
    with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
        classify_willpower_regime(running, tol=tol)


# -- best contract per product ----------------------------------------------------


def test_best_contract_ranking(running):
    b = by_id(running, "B")
    commit = commitment_contract(b)
    ind = indulging_contract(b, running)
    comp = compromising_contract(b, running)
    assert (commit.profit, ind.profit, comp.profit) == pytest.approx((3.0, 6.5, 7.0))
    best = best_contract_for(b, running)
    assert best.kind is ContractKind.COMPROMISING
    assert best.profit == pytest.approx(7.0)


def test_best_contract_for_bait_is_commitment(running):
    best = best_contract_for(by_id(running, "A"), running)
    assert best.kind is ContractKind.COMMITMENT
    assert best.profit == 5.0


def test_best_contract_reports_indulging_when_decoy_idle():
    inst = running_instance(w=20.0)
    best = best_contract_for(by_id(inst, "B"), inst)
    assert best.kind is ContractKind.INDULGING
    assert best.profit == pytest.approx(5.0)


def test_dominance_chain_on_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(15):
        inst = random_pw_instance(rng)
        bait, decoy = inst.least_tempting, inst.most_tempting
        for x in inst.alternatives:
            commit = commitment_contract(x)
            if x.id == bait.id:
                continue
            ind = indulging_contract(x, inst)
            assert ind.profit > commit.profit  # strictly better off the bait
            if x.id == decoy.id:
                continue
            comp = compromising_contract(x, inst)
            assert comp.profit >= ind.profit - 1e-8


def test_strict_dominance_under_strictly_convex_cost():
    rng = np.random.default_rng(22)
    inst = with_power_cost(random_pw_instance(rng, n=5))
    bait, decoy = inst.least_tempting, inst.most_tempting
    for x in inst.alternatives:
        if x.id in (bait.id, decoy.id):
            continue
        commit = commitment_contract(x)
        ind = indulging_contract(x, inst)
        comp = compromising_contract(x, inst)
        assert ind.profit > commit.profit + 1e-8
        assert comp.profit > ind.profit + 1e-8


# -- optimal contract ---------------------------------------------------------------


def test_optimal_contract_running_instance(running):
    sol = optimal_contract(running)
    assert sol.sold.id == "B"
    assert sol.kind is ContractKind.COMPROMISING
    assert sol.profit == pytest.approx(7.0, abs=1e-12)
    prices = [o.price for o in sol.contract.offers]
    assert prices == pytest.approx([12.0, 10.0, P_DECOY], abs=1e-12)
    assert accepts(sol.contract)


def test_optimal_contract_tie_goes_to_lowest_index():
    # at w=20 products A and B tie at profit 5; A wins by position and,
    # being the bait itself, sells through a commitment contract
    inst = running_instance(w=20.0)
    sol = optimal_contract(inst)
    assert sol.sold.id == "A"
    assert sol.kind is ContractKind.COMMITMENT
    assert sol.profit == pytest.approx(5.0)


def test_optimal_contract_perturbed_tie_sells_indulging():
    inst = perturbed_instance(w=20.0)
    sol = optimal_contract(inst)
    assert sol.sold.id == "B"
    assert sol.kind is ContractKind.INDULGING
    assert sol.contract.offers[0].price == pytest.approx((8.01 + 7.0) / 1.5, abs=1e-12)


def test_two_alternative_instance_solves():
    inst = ProblemInstance(
        (Alternative("A", 10.0, 10.0, 5.0), Alternative("B", 8.0, 14.0, 5.0)),
        PiecewiseLinearCost(l=0.5, k=2.0, w=1.0),
    )
    sol = optimal_contract(inst)
    # no third product: best is the indulging sale of B
    assert sol.sold.id == "B"
    assert sol.kind is ContractKind.INDULGING
    assert sol.profit == pytest.approx(6.5)


def test_solution_invariants_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(15):
        inst = random_pw_instance(rng)
        sol = optimal_contract(inst)
        assert accepts(sol.contract)
        assert max(sol.residuals, default=0.0) <= 1e-10
        scores = overall_utilities(sol.contract, inst.cost_fn)
        assert scores[sol.contract.intended] >= max(scores) - 1e-8
        assert sol.welfare <= 1e-12  # exploitation never helps the consumer
        bait_offer = perceived_choice(sol.contract)
        assert bait_offer.alternative.u - bait_offer.price >= -1e-10


# -- willpower regimes -----------------------------------------------------------


def test_classify_case1(running):
    reg = classify_willpower_regime(running)
    assert reg.case_index == 1
    assert reg.sold.id == "B"
    assert reg.price == pytest.approx(12.0, abs=1e-12)
    assert reg.kind is ContractKind.COMPROMISING
    assert reg.thresholds == pytest.approx((8.0 / 1.5, 14.0 / 1.5, 14.0 / 1.5))
    assert reg.steep_product.id == "B"
    assert reg.shallow_product.id == "A"  # tied with B; lowest index wins


def test_classify_case2_matches_direct_maximization():
    inst = running_instance(w=6.0)
    reg = classify_willpower_regime(inst)
    sol = optimal_contract(inst)
    assert reg.case_index == 2
    assert reg.sold.id == sol.sold.id
    assert reg.price == pytest.approx(sol.contract.intended_offer.price, abs=1e-8)


def test_classify_case3_perturbed():
    inst = perturbed_instance(w=7.0)  # thresholds ~ (5.33, 5.34, 9.33)
    reg = classify_willpower_regime(inst)
    assert reg.case_index == 3
    assert reg.sold.id == "B"
    assert reg.kind is ContractKind.COMPROMISING
    sol = optimal_contract(inst)
    assert sol.sold.id == "B"
    assert reg.price == pytest.approx(sol.contract.intended_offer.price, abs=1e-10)


def test_classify_case4(running):
    inst = running_instance(w=10.0)
    reg = classify_willpower_regime(inst)
    assert reg.case_index == 4
    # tied shallow products resolve to A, the bait, whose indulging sale
    # degenerates to commitment at its utility value, as the solver sells it
    sol = optimal_contract(inst)
    assert reg.kind is sol.kind is ContractKind.COMMITMENT
    assert (reg.sold.id, reg.price) == (sol.sold.id, 10.0)


def test_classify_requires_piecewise_cost(running):
    with pytest.raises(ValueError, match="piecewise"):
        classify_willpower_regime(with_power_cost(running))


def test_classify_agrees_with_direct_maximization_on_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(25):
        inst = random_pw_instance(rng)
        reg = classify_willpower_regime(inst)
        sol = optimal_contract(inst)
        assert reg.sold.id == sol.sold.id
        assert reg.price == pytest.approx(sol.contract.intended_offer.price, abs=1e-8)


def test_classify_equals_optimal_contract_at_every_threshold():
    # the classifier reads the solver's price table by the solver's rule, so
    # sold product, kind and price are equal, not merely close, also where
    # the predicted product is the bait or the decoy
    rng = np.random.default_rng(43)
    sold = {"bait": 0, "decoy": 0}
    for _ in range(300):
        inst = random_pw_instance(rng)
        thresholds = classify_willpower_regime(inst).thresholds
        for w in (inst.cost_fn.w, *thresholds, 0.0):
            inst_w = inst._with_cost(replace(inst.cost_fn, w=w))
            reg = classify_willpower_regime(inst_w)
            sol = optimal_contract(inst_w)
            assert (reg.sold, reg.kind, reg.price) == (
                sol.sold, sol.kind, sol.contract.intended_offer.price,
            )
            sold["bait"] += sol.sold is inst.least_tempting
            sold["decoy"] += sol.sold is inst.most_tempting
    assert min(sold.values()) > 0


def test_classify_raises_nothing_on_exact_shallow_tie(running):
    # the worked instance ties its shallow-regime product (A vs B); the
    # lowest-index resolution must kick in instead of an error
    reg = classify_willpower_regime(running)
    assert reg.shallow_product.id == "A"


# -- one price table per instance --------------------------------------------------


def _decoy_idle(inst):
    cost = inst.cost_fn
    if isinstance(cost, PiecewiseLinearCost):
        return inst.most_tempting.e - inst.least_tempting.e <= (1.0 + cost.l) * cost.w
    return cost.gamma == 1.0


def _reference_optimum(inst):
    """The optimum built design by design from the public constructors."""
    bait, decoy = inst.least_tempting, inst.most_tempting
    best = None
    for x in inst.alternatives:
        sol = commitment_contract(x)
        if x.id != bait.id:
            ind = indulging_contract(x, inst)
            if ind.profit > sol.profit:
                sol = ind
            if x.id != decoy.id:
                comp = compromising_contract(x, inst)
                if comp.profit > sol.profit + REVENUE_TIE_TOL or (
                    comp.profit > sol.profit - REVENUE_TIE_TOL and not _decoy_idle(inst)
                ):
                    sol = comp
        if best is None or sol.profit > best.profit:
            best = sol
    return best


def _pinned_instances():
    rng = np.random.default_rng(53)
    insts = [
        running_instance(w=1.0),  # worked instance: compromising sale of B
        running_instance(w=20.0),  # idle decoy, and A ties B at profit 5
        running_instance(w=0.0),  # zero willpower: tie kept on the three-offer menu
        perturbed_instance(w=20.0),
    ]
    for n in range(2, 9):
        for _ in range(3):
            inst = random_pw_instance(rng, n)
            insts.append(inst)
            gamma = float(rng.choice([1.0, rng.uniform(1.0, 4.0)]))
            insts.append(with_power_cost(inst, float(rng.uniform(0.1, 3.0)), gamma))
    return insts


@pytest.mark.parametrize("priced", [lambda inst: inst, bisecting], ids=["auto", "bisect"])
def test_optimal_contract_equals_design_by_design_reference(priced):
    for inst in map(priced, _pinned_instances()):
        assert optimal_contract(inst) == _reference_optimum(inst)


def test_first_failure_is_the_design_by_design_one():
    # At prices in the hundreds, gamma = 300 makes phi's slope so steep
    # that no double meets the absolute residual tolerance, for B and C
    # alike.  Walking the products in order meets B first.
    alts = tuple(
        Alternative(a.id, 100.0 * a.u, 100.0 * a.v, 100.0 * a.c)
        for a in running_instance().alternatives
    )
    inst = ProblemInstance(alts, PowerCost(alpha=0.5, gamma=300.0))
    with pytest.raises(BracketFailure) as err:
        optimal_contract(inst)
    assert str(err.value).startswith("indulging price of B: residual ")
    assert str(err.value).endswith(" exceeds tol 1e-10")
    # with the decoy first, its solve is the first one reached
    reordered = ProblemInstance((alts[2], alts[0], alts[1]), inst.cost_fn)
    with pytest.raises(BracketFailure, match=r"^decoy price of C: residual "):
        optimal_contract(reordered)


def test_bracket_failure_names_the_decoy_design():
    # B's own indulging price meets the tolerance; the decoy C's does not
    alts = tuple(
        Alternative(i, 20.0 * u, 20.0 * v, 20.0 * c)
        for i, u, v, c in (("A", 10.0, 10.0, 5.0), ("B", 8.0, 8.5, 5.0), ("C", 2.0, 16.0, 5.0))
    )
    inst = ProblemInstance(alts, PowerCost(alpha=0.5, gamma=300.0))
    assert indulging_contract(alts[1], inst).residuals[0] <= 1e-10
    with pytest.raises(BracketFailure, match=r"^decoy price of C: residual .* exceeds tol 1e-10$"):
        optimal_contract(inst)


# -- psi-space pricing ----------------------------------------------------------------


def _decimal_psi_root(cost, y, start):
    """Root of ``t + alpha * t**gamma = y`` to 50 digits, by Newton from ``start``.

    ``psi`` is increasing and convex, so Newton converges to its only root
    from any positive start; the loop stops once a step is negligible.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a, g, y = Decimal(cost.alpha), Decimal(cost.gamma), Decimal(y)
        t = Decimal(start) if start > 0.0 else y
        for _ in range(200):
            step = (t + a * t**g - y) / (1 + a * g * t ** (g - 1))
            t -= step
            if abs(step) <= t * Decimal("1e-45"):
                return t
    raise AssertionError("Newton did not converge")


def _psi_power_instances():
    rng = np.random.default_rng(61)
    insts = [
        with_power_cost(random_pw_instance(rng), float(rng.uniform(0.1, 3.0)), gamma)
        for gamma in [1.0, 1.5, 2.0, 6.0] + [float(g) for g in rng.uniform(1.0, 6.0, 26)]
    ]
    alts = running_instance().alternatives
    return insts + [ProblemInstance(alts, PowerCost(0.5, g)) for g in (60.0, 100.0)]


def test_psi_root_within_two_ulps_of_a_decimal_root():
    checked = 0
    for inst in _psi_power_instances():
        bait, decoy = inst.least_tempting, inst.most_tempting
        gaps = {x.e - bait.e for x in inst.alternatives} | {
            decoy.e - x.e for x in inst.alternatives
        }
        for y in gaps:
            t = psi_root(inst.cost_fn, y)
            if y <= 0.0:
                assert t == 0.0
                continue
            exact = _decimal_psi_root(inst.cost_fn, y, t)
            assert abs(Decimal(t) - exact) <= 2 * Decimal(math.ulp(float(exact))), (inst.cost_fn, y)
            checked += 1
    assert checked > 200


def test_bisected_prices_meet_the_tolerance():
    for inst in _psi_power_instances():
        for x in inst.alternatives:
            assert max(best_contract_for(x, inst).residuals, default=0.0) <= 1e-10


@pytest.mark.parametrize("gamma", [60.0, 100.0, 300.0, 1000.0])
def test_large_gamma_worked_instance_solves(gamma):
    inst = ProblemInstance(running_instance().alternatives, PowerCost(0.5, gamma))
    sol = optimal_contract(inst)
    assert (sol.sold.id, sol.kind) == ("C", ContractKind.INDULGING)
    assert verify_solution(sol, inst).passed


# -- metamorphic properties -----------------------------------------------------------


def _record(sol):
    return (
        sol.sold.id,
        sol.kind,
        tuple((o.alternative.id, o.price) for o in sol.contract.offers),
        sol.profit,
        sol.welfare,
    )


def _generic_pw_instances():
    rng = np.random.default_rng(67)
    insts = [running_instance(w) for w in (0.0, 1.0, 6.0, 20.0)] + [perturbed_instance(7.0)]
    return insts + [random_pw_instance(rng) for _ in range(40)]


@pytest.mark.parametrize("k", [-3, 1, 7])
def test_power_of_two_scaling_is_exact(k):
    s = 2.0**k
    for inst in _generic_pw_instances():
        cost = inst.cost_fn
        scaled = ProblemInstance(
            tuple(Alternative(a.id, s * a.u, s * a.v, s * a.c) for a in inst.alternatives),
            PiecewiseLinearCost(cost.l, cost.k, s * cost.w),
        )
        sold, kind, offers, profit, welfare = _record(optimal_contract(inst))
        assert _record(optimal_contract(scaled)) == (
            sold, kind, tuple((i, s * p) for i, p in offers), s * profit, s * welfare,
        )


def test_permuting_alternatives_keeps_the_optimum():
    rng = np.random.default_rng(71)
    for inst in _generic_pw_instances()[5:]:
        sol = optimal_contract(inst)
        for _ in range(3):
            order = rng.permutation(len(inst))
            permuted = ProblemInstance(
                tuple(inst.alternatives[i] for i in order), inst.cost_fn
            )
            other = optimal_contract(permuted)
            assert (other.sold.id, other.kind) == (sol.sold.id, sol.kind)
            assert other.contract.intended_offer.price == sol.contract.intended_offer.price
            assert other.profit == sol.profit


def test_shifting_one_alternative_shifts_its_prices():
    rng = np.random.default_rng(73)
    for inst in _generic_pw_instances()[5:25]:
        sol = optimal_contract(inst)
        for i, a in enumerate(inst.alternatives):
            d = float(rng.uniform(-3.0, 3.0))
            alts = list(inst.alternatives)
            alts[i] = Alternative(a.id, a.u + d, a.v + d, a.c + d)
            shifted = optimal_contract(ProblemInstance(tuple(alts), inst.cost_fn))
            assert (shifted.sold.id, shifted.kind) == (sol.sold.id, sol.kind)
            assert shifted.profit == pytest.approx(sol.profit, abs=1e-9)
            for o, p in zip(shifted.contract.offers, sol.contract.offers):
                assert o.alternative.id == p.alternative.id
                moved = d if o.alternative.id == a.id else 0.0
                assert o.price == pytest.approx(p.price + moved, abs=1e-9)
