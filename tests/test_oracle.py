"""Brute-force grid search: equivalence of the search modes and solution replay."""

import dataclasses
import inspect
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from temptmenu import (
    PRICE_TOL,
    Alternative,
    Contract,
    GridSpec,
    GridTooLarge,
    Offer,
    PiecewiseLinearCost,
    ProblemInstance,
    Solution,
    compromising_contract,
    decoy_price,
    grid_best_contract,
    indulging_contract,
    optimal_contract,
    oversize_menu_search,
    accepts,
    realized_outcome,
    verify_solution,
)
from temptmenu import _kernels, oracle
from helpers import near_tie_instance, random_pw_instance, running_instance, with_power_cost

MODES = ("exhaustive", "bracketed")


def menu_prices(sol):
    return tuple(o.price for o in sol.contract.offers)


def menu_ids(sol):
    return tuple(o.alternative.id for o in sol.contract.offers)


# -- grid specification ---------------------------------------------------------


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(price_step=0.0, price_min=0.0, price_max=1.0)
    with pytest.raises(ValueError):
        GridSpec(price_step=0.1, price_min=2.0, price_max=1.0)
    with pytest.raises(ValueError):
        GridSpec(price_step=0.1, price_min=0.0, price_max=1.0, max_menu_size=4)
    with pytest.raises(GridTooLarge):
        GridSpec(price_step=1e-4, price_min=0.0, price_max=20.0)


def test_grid_spec_menu_size_must_be_an_integer():
    with pytest.raises(ValueError, match="max_menu_size must be an integer in 1..3"):
        GridSpec(price_step=0.5, price_min=0.0, price_max=1.0, max_menu_size=2.0)
    grid = GridSpec(price_step=0.5, price_min=0.0, price_max=1.0, max_menu_size=np.int64(2))
    assert grid.max_menu_size == 2


def test_grid_points_are_decimal_exact():
    grid = GridSpec(price_step=0.01, price_min=0.0, price_max=20.0)
    pts = grid.base_points()
    assert len(pts) == 2001
    assert pts[0] == 0.0
    assert pts[-1] == 20.0
    assert 10.0 in pts and 12.0 in pts


def test_mode_validation_and_auto_runs_bracketed(running, monkeypatch):
    grid = GridSpec(price_step=1.0, price_min=0.0, price_max=20.0)
    with pytest.raises(ValueError, match="unknown mode"):
        grid_best_contract(running, grid, mode="fastest")
    search = _kernels.search_subset
    signature = inspect.signature(search)
    seen = []

    def spy(*args, **kwargs):
        seen.append(signature.bind(*args, **kwargs).arguments["mode"])
        return search(*args, **kwargs)

    monkeypatch.setattr(_kernels, "search_subset", spy)
    sol = grid_best_contract(running, grid, mode="auto")
    assert sol.profit == 7.0
    assert seen and set(seen) == {"bracketed"}


# -- equivalence of modes --------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("analytic", (True, False))
def test_all_paths_agree_on_running_instance(running, mode, analytic):
    grid = GridSpec(
        price_step=0.25, price_min=0.0, price_max=20.0,
        include_analytic_prices=analytic,
    )
    sol = grid_best_contract(running, grid, mode=mode)
    reference = grid_best_contract(running, grid, mode="exhaustive")
    assert sol.profit == reference.profit == 7.0
    assert menu_prices(sol) == menu_prices(reference)
    assert menu_ids(sol) == menu_ids(reference)


@given(
    seed=st.integers(0, 10_000),
    step=st.sampled_from([0.4, 0.65, 1.0]),
    w=st.floats(0.0, 12.0),
)
@settings(max_examples=25, deadline=None)
# two injected prices 2 ulps apart round to one margin: the lower index wins
@example(seed=930, step=0.4, w=0.0)
def test_modes_and_backends_agree_on_random_instances(seed, step, w):
    rng = np.random.default_rng(seed)
    inst = random_pw_instance(rng, n=3, w=w)
    grid = GridSpec(price_step=step, price_min=0.0, price_max=22.0)
    results = [grid_best_contract(inst, grid, mode=mode) for mode in MODES]
    reference = results[0]
    for sol in results[1:]:
        if reference is None:
            assert sol is None
            continue
        assert sol.profit == reference.profit
        assert menu_prices(sol) == menu_prices(reference)
        assert menu_ids(sol) == menu_ids(reference)


def test_power_cost_paths_agree(running):
    inst = with_power_cost(running)
    grid = GridSpec(price_step=0.5, price_min=0.0, price_max=20.0)
    sols = [grid_best_contract(inst, grid, mode=m) for m in MODES]
    for sol in sols[1:]:
        assert sol.profit == pytest.approx(sols[0].profit, abs=1e-12)
        assert menu_ids(sol) == menu_ids(sols[0])


# -- oracle vs analytic optimum ----------------------------------------------------


def test_analytic_menu_is_enumerated_and_credited(running):
    grid = GridSpec(price_step=0.25, price_min=0.0, price_max=20.0)
    sol = grid_best_contract(running, grid)
    analytic = optimal_contract(running)
    assert sol.profit >= analytic.profit - 1e-9
    assert sol.profit <= analytic.profit + 1e-9
    assert sol.sold.id == "B"


def test_analytic_candidates_equal_the_public_constructors():
    rng = np.random.default_rng(61)
    insts = [running_instance(w=w) for w in (0.0, 1.0, 6.0, 20.0)]
    for n in range(2, 9):
        inst = random_pw_instance(rng, n)
        insts += [inst, with_power_cost(inst, float(rng.uniform(0.1, 3.0)), 2.5)]
    for inst in insts:
        bait, decoy = inst.least_tempting, inst.most_tempting
        expected = []
        for x in inst.alternatives:
            cand = [x.u]
            if x.id != bait.id:
                cand.append(indulging_contract(x, inst).contract.offers[0].price)
                if x.id != decoy.id:
                    cand.append(compromising_contract(x, inst).contract.offers[0].price)
                else:  # the decoy's indulging price is the decoy price, listed once
                    assert cand[-1] == decoy_price(inst)
            expected.append(cand)
        assert oracle._analytic_candidates(inst, PRICE_TOL) == expected


def test_grid_only_profit_within_discretization_loss(running):
    step = 0.125
    grid = GridSpec(
        price_step=step, price_min=0.0, price_max=20.0, include_analytic_prices=False
    )
    sol = grid_best_contract(running, grid)
    analytic = optimal_contract(running)
    assert analytic.profit - 3.0 * step <= sol.profit <= analytic.profit + 1e-9


def test_oracle_never_beats_analytic_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(8):
        inst = random_pw_instance(rng, n=3)
        analytic = optimal_contract(inst)
        grid = GridSpec(price_step=0.5, price_min=0.0, price_max=22.0)
        sol = grid_best_contract(inst, grid)
        assert sol is not None
        assert analytic.profit - 1e-9 <= sol.profit <= analytic.profit + 1e-9
        replay = verify_solution(
            dataclasses.replace(sol, residuals=()), inst, choice_slack=1e-7
        )
        assert replay.passed, replay.summary()


def test_refinement_on_nested_grids(running):
    profits = []
    for step in (1.0, 0.5, 0.25):
        grid = GridSpec(
            price_step=step, price_min=0.0, price_max=20.0,
            include_analytic_prices=False,
        )
        profits.append(grid_best_contract(running, grid).profit)
    assert profits == sorted(profits)


def test_deterministic_across_repeat_runs(running):
    grid = GridSpec(price_step=0.3, price_min=0.0, price_max=18.0)
    a = grid_best_contract(running, grid)
    b = grid_best_contract(running, grid)
    assert menu_prices(a) == menu_prices(b)
    assert a.profit == b.profit


def test_all_rejected_returns_none(running):
    # every grid price sits above every utility value, so no menu is signed
    grid = GridSpec(
        price_step=0.5, price_min=15.0, price_max=20.0,
        include_analytic_prices=False,
    )
    assert grid_best_contract(running, grid, mode="exhaustive") is None
    assert grid_best_contract(running, grid, mode="bracketed") is None


def test_unprofitable_market_returns_none():
    inst = ProblemInstance(
        (
            Alternative("A", 2.0, 3.0, 9.0),
            Alternative("B", 3.0, 2.0, 8.9),
        ),
        PiecewiseLinearCost(l=0.5, k=2.0, w=1.0),
    )
    grid = GridSpec(price_step=0.25, price_min=0.0, price_max=12.0)
    assert grid_best_contract(inst, grid) is None


def test_menu_size_caps_respected(running):
    grid = GridSpec(price_step=0.25, price_min=0.0, price_max=20.0, max_menu_size=1)
    sol = grid_best_contract(running, grid)
    assert len(sol.contract.offers) == 1
    assert sol.profit == pytest.approx(5.0)  # best commitment: A at 10
    grid2 = GridSpec(price_step=0.25, price_min=0.0, price_max=20.0, max_menu_size=2)
    sol2 = grid_best_contract(running, grid2)
    assert len(sol2.contract.offers) == 2
    assert sol2.profit == pytest.approx(6.5)  # indulging B at 11.5


def test_fourth_offer_adds_nothing():
    rng = np.random.default_rng(5)
    inst = random_pw_instance(rng, n=4)
    grid = GridSpec(price_step=1.0, price_min=0.0, price_max=22.0)
    best3 = grid_best_contract(inst, grid)
    best4 = oversize_menu_search(inst, grid, menu_size=4)
    assert best4 <= best3.profit + 1e-9


def _python_reference_best(inst, prices_by_alt):
    """Literal menu enumeration through the public model API."""
    from itertools import combinations, product

    from temptmenu import Contract, ContractKind, realized_outcome

    kind_by_size = {
        1: ContractKind.COMMITMENT,
        2: ContractKind.INDULGING,
        3: ContractKind.COMPROMISING,
    }
    best = None
    for size in (1, 2, 3):
        for subset in combinations(range(len(inst.alternatives)), size):
            for prices in product(*(prices_by_alt[i] for i in subset)):
                offers = tuple(
                    Offer(inst.alternatives[i], float(p))
                    for i, p in zip(subset, prices)
                )
                menu = Contract(offers, 0, kind_by_size[size])
                out = realized_outcome(menu, inst.cost_fn)
                if out.chosen is None:
                    continue
                if best is None or out.profit > best:
                    best = out.profit
    return best


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_kernels_match_python_reference_oracle(seed):
    rng = np.random.default_rng(seed)
    inst = random_pw_instance(rng, n=3)
    grid = GridSpec(
        price_step=2.5, price_min=0.0, price_max=17.5,
        include_analytic_prices=False,
    )
    pts = list(grid.base_points())
    reference = _python_reference_best(inst, [pts] * 3)
    for mode in MODES:
        sol = grid_best_contract(inst, grid, mode=mode)
        if reference is None or reference < 0.0:
            assert sol is None
        else:
            assert sol.profit == reference


# -- search counters and the window check ----------------------------------------


def test_search_stats_count_rows_by_hand(running):
    # prices 0, 5 and 10 for every alternative
    grid = GridSpec(
        price_step=5.0, price_min=0.0, price_max=10.0, include_analytic_prices=False
    )
    plain = grid_best_contract(running, grid)
    sol, stats = grid_best_contract(running, grid, mode="auto", stats=True)
    assert isinstance(plain, Solution)
    assert menu_prices(sol) == menu_prices(plain) and sol.profit == plain.profit
    assert stats.mode == "bracketed"
    # size 1: one cap lookup per alternative; size 2: three pairs, each
    # offer designated over the other's 3 prices; size 3: three designated
    # offers over 3 * 3 tuples of the other two
    assert [(s.size, s.tuples) for s in stats.sizes] == [(1, 3), (2, 18), (3, 27)]
    assert stats.sizes[0].window_checks == stats.sizes[0].fallback_rows == 0
    for s in stats.sizes[1:]:
        assert s.fallback_rows <= s.tuples
        assert s.window_checks >= 2 * s.tuples
    _, ex = grid_best_contract(running, grid, mode="exhaustive", stats=True)
    assert ex.mode == "exhaustive"
    assert [
        (s.size, s.tuples, s.window_checks, s.fallback_rows) for s in ex.sizes
    ] == [(1, 3, 0, 0), (2, 27, 27, 0), (3, 27, 27, 0)]


@pytest.mark.parametrize("power", (False, True))
def test_fallback_rows_are_a_small_share(running, power):
    inst = with_power_cost(running) if power else running
    grid = GridSpec(price_step=0.25, price_min=0.0, price_max=20.0)
    _, stats = grid_best_contract(inst, grid, stats=True)
    for s in stats.sizes:
        assert s.fallback_rows <= s.tuples
    assert sum(s.fallback_rows for s in stats.sizes) < 0.2 * sum(
        s.tuples for s in stats.sizes
    )


def _wrong_estimate(kind, step):
    exact = _kernels.psi_inverse
    return {
        "shift_up": lambda y, xs, psis: exact(y, xs, psis) + 3.0 * step,
        "shift_down": lambda y, xs, psis: exact(y, xs, psis) - 3.0 * step,
        "zeros": lambda y, xs, psis: np.zeros_like(y),
        "inf": lambda y, xs, psis: np.full_like(y, np.inf),
    }[kind]


def _subset_results(inst, prices, mode):
    alts = inst.alternatives
    return [
        _kernels.search_subset(
            tuple(alts[i].u for i in subset),
            tuple(alts[i].v for i in subset),
            tuple(alts[i].c for i in subset),
            [prices[i] for i in subset],
            inst.cost_fn,
            mode,
        )
        for size in (2, 3)
        for subset in combinations(range(len(alts)), size)
    ]


@pytest.mark.parametrize("estimate", ("shift_up", "shift_down", "zeros", "inf"))
@pytest.mark.parametrize("power", (False, True))
def test_window_check_keeps_bracketed_exact_under_wrong_estimates(
    running, monkeypatch, estimate, power
):
    inst = with_power_cost(running) if power else running
    fine = GridSpec(price_step=0.5, price_min=0.0, price_max=20.0)
    prices = oracle._price_arrays(inst, fine, PRICE_TOL)
    coarse = GridSpec(
        price_step=2.5, price_min=0.0, price_max=17.5, include_analytic_prices=False
    )
    reference = _python_reference_best(inst, [list(coarse.base_points())] * 3)
    expected = _subset_results(inst, prices, "exhaustive")
    expected_coarse = grid_best_contract(inst, coarse, mode="exhaustive")

    monkeypatch.setattr(_kernels, "psi_inverse", _wrong_estimate(estimate, 0.5))
    assert _subset_results(inst, prices, "bracketed") == expected
    sol, stats = grid_best_contract(inst, coarse, mode="bracketed", stats=True)
    assert sol.profit == expected_coarse.profit == reference
    assert menu_prices(sol) == menu_prices(expected_coarse)
    assert menu_ids(sol) == menu_ids(expected_coarse)
    if estimate == "inf":
        # every row is alive here (all u >= 0 = lowest price), and none is confirmed
        assert all(s.fallback_rows == s.tuples for s in stats.sizes[1:])


# -- one choice rule ----------------------------------------------------------------


@given(
    shifts=st.lists(st.integers(-8, 8), min_size=3, max_size=3),
    size=st.sampled_from((2, 3)),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=200, deadline=None)
def test_kernels_sign_and_pick_by_the_model_rule(shifts, size, mode):
    # each price within a few tie windows of the optimal menu (B, bait A,
    # decoy C), so that both the signing test and the choice window see near-ties
    inst = near_tie_instance()
    optimum = optimal_contract(inst).contract.offers[:size]
    alts = tuple(o.alternative for o in optimum)
    prices = [o.price + 2.5e-10 * k for o, k in zip(optimum, shifts)]
    menu = Contract(tuple(Offer(x, p) for x, p in zip(alts, prices)), 0,
                    oracle._SIZE_KIND[size])
    found = _kernels.search_subset(
        tuple(x.u for x in alts), tuple(x.v for x in alts), tuple(x.c for x in alts),
        [np.array([p]) for p in prices], inst.cost_fn, mode,
    )
    outcome = realized_outcome(menu, inst.cost_fn)
    assert (found is not None) == accepts(menu) == (outcome.chosen is not None)
    if found is not None:
        assert found[0] == outcome.profit


def test_near_tie_optimum_replays_as_sold():
    inst = near_tie_instance()
    sol = optimal_contract(inst)
    assert sol.sold.id == "B" and sol.profit == 8.000000000033333
    outcome = realized_outcome(sol.contract, inst.cost_fn)
    assert outcome.chosen is sol.contract.intended_offer
    assert outcome.profit == sol.profit
    report = verify_solution(sol, inst)
    assert report.passed, report.summary()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("analytic", (True, False))
def test_grid_search_replays_the_near_tie_menu(mode, analytic):
    inst = near_tie_instance()
    step = 0.5
    grid = GridSpec(price_step=step, price_min=0.0, price_max=20.0,
                    include_analytic_prices=analytic)
    sol = grid_best_contract(inst, grid, mode=mode)
    analytic_profit = optimal_contract(inst).profit
    assert sol is not None
    assert analytic_profit - 3.0 * step <= sol.profit <= analytic_profit + 1e-9
    assert menu_ids(sol) == ("A", "B") and sol.sold.id == "B"
    if analytic:
        assert sol.profit == analytic_profit


def test_verify_solution_takes_only_its_three_tolerances():
    params = inspect.signature(verify_solution).parameters
    assert list(params) == ["sol", "inst", "choice_slack", "epsilon_discount", "tie_tol"]


# -- solution replay ----------------------------------------------------------------


def test_verify_passes_on_analytic_optimum(running):
    report = verify_solution(optimal_contract(running), running)
    assert report.passed
    assert not report.failures
    assert "pass" in report.summary()


def test_verify_names_the_violated_condition(running):
    sol = optimal_contract(running)
    offers = list(sol.contract.offers)
    bumped = Offer(offers[0].alternative, offers[0].price + 0.01)
    broken = dataclasses.replace(
        sol,
        contract=dataclasses.replace(sol.contract, offers=(bumped, *offers[1:])),
    )
    report = verify_solution(broken, running)
    assert not report.passed
    names = {c.name for c in report.failures}
    assert "intended_not_dominated" in names or "participation_binds" in names


def test_verify_commitment_trivially(running):
    from temptmenu import commitment_contract

    report = verify_solution(commitment_contract(running.alternatives[0]), running)
    assert report.passed


def test_verify_epsilon_discount_breaks_knife_edge(running):
    sol = optimal_contract(running)
    report = verify_solution(sol, running, epsilon_discount=1e-9)
    assert report.passed
    # with the discount the intended offer wins outright
    report_strict = verify_solution(sol, running, epsilon_discount=1e-9, tie_tol=0.0)
    assert any(c.name == "intended_chosen" and c.passed for c in report_strict.checks)


def test_verify_rejects_wrong_profit_claim(running):
    sol = optimal_contract(running)
    broken = dataclasses.replace(sol, profit=sol.profit + 0.5)
    report = verify_solution(broken, running)
    assert {c.name for c in report.failures} == {"profit_consistent"}
