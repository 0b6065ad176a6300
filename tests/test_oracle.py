"""Brute-force grid search: equivalence of the search modes and solution replay."""

import dataclasses
import inspect
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from temptmenu import (
    CHOICE_TIE_TOL,
    Alternative,
    Contract,
    ContractKind,
    GridSpec,
    GridTooLarge,
    Offer,
    PiecewiseLinearCost,
    PowerCost,
    ProblemInstance,
    Solution,
    compromising_contract,
    decoy_price,
    grid_best_contract,
    indulging_contract,
    optimal_contract,
    accepts,
    best_contract_for,
    realized_outcome,
    verify_solution,
)
from temptmenu import _kernels, model, oracle
from helpers import (
    QuadraticCost,
    near_tie_instance,
    oversize_menu_search,
    random_pw_instance,
    running_instance,
    with_power_cost,
)

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
        assert oracle._analytic_candidates(inst) == expected


@pytest.mark.parametrize("mode", MODES)
def test_third_convex_family_matches_the_grid(mode):
    # QuadraticCost lives in the tests only; the solver knows it through
    # the cost protocol alone, yet sells what the enumeration finds best
    rng = np.random.default_rng(97)
    grid = GridSpec(price_step=0.5, price_min=0.0, price_max=40.0)
    kinds = set()
    for _ in range(8):
        base = random_pw_instance(rng, int(rng.integers(3, 5)))
        cost = QuadraticCost(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.02, 0.5)))
        inst = ProblemInstance(base.alternatives, cost)
        analytic = optimal_contract(inst)
        sol = grid_best_contract(inst, grid, mode=mode)
        if analytic.profit < 0.0:  # walking away is the grid's best
            assert sol is None
            continue
        assert abs(sol.profit - analytic.profit) <= 1e-9
        assert (sol.sold.id, sol.kind) == (analytic.sold.id, analytic.kind)
        kinds.add(sol.kind)
    assert len(kinds) == 3
    # its linear member is the linear power cost, whose decoy is idle
    alts = running_instance().alternatives
    quad, power = (ProblemInstance(alts, c) for c in (QuadraticCost(0.5, 0.0), PowerCost(0.5, 1.0)))
    assert optimal_contract(quad) == optimal_contract(power)
    assert best_contract_for(alts[1], quad).kind is ContractKind.INDULGING


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
        replay = verify_solution(dataclasses.replace(sol, residuals=()), inst)
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


def _random_menu(rng, family):
    """A menu of 4-8 offers, priced at a scale from 1 to 1e9, and a cost of
    ``family`` (0 piecewise, 1 power, 2 quadratic) scaled alike.  In 30% of
    the menus one offer copies another's ``u, v`` and price at another
    cost, so the two tie on every utility and the seller's tie-break picks."""
    n = int(rng.integers(4, 9))
    scale = 10.0 ** int(rng.integers(0, 10))
    u, v, c, p = rng.uniform(0.0, 20.0, (4, n)) * scale
    if rng.random() < 0.3:
        i, j = rng.choice(n, 2, replace=False)
        u[j], v[j], p[j] = u[i], v[i], p[i]
    if family == 0:
        cost = PiecewiseLinearCost(
            float(rng.uniform(0.05, 0.95)), float(rng.uniform(1.05, 4.95)),
            float(rng.uniform(0.0, 15.0)) * scale,
        )
    elif family == 1:
        gamma = float(rng.uniform(1.0, 6.0))
        cost = PowerCost(scale ** (1.0 - gamma), gamma)
    else:
        cost = QuadraticCost(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.02, 0.5)) / scale)
    return u, v, c, p, cost


def test_three_offers_earn_what_any_menu_earns():
    # the reduction in the ``oracle`` docstring: the offer chosen, the one
    # with the largest v - p and the one with the largest u - p earn what the
    # whole menu earns.  A Contract holds at most three offers, so the whole
    # menu is replayed by ``exhaustive`` on one-price grids, and its choice
    # by the model's rule on a bare list of offers
    rng = np.random.default_rng(31)
    for k in range(2400):
        u, v, c, p, cost = _random_menu(rng, k % 3)
        offers = [Offer(Alternative(f"a{i}", u[i], v[i], c[i]), p[i]) for i in range(len(p))]
        found = _kernels.exhaustive(u, v, c, [np.array([x]) for x in p], cost)
        if found is None:  # rejected: no offer is worth signing for
            assert max(u - p) < 0.0
            continue
        menu = SimpleNamespace(offers=offers)
        chosen = model._pick(menu, model.overall_utilities(menu, cost))
        assert found[0] == offers[chosen].margin
        keep = sorted({chosen, int(np.argmax(v - p)), int(np.argmax(u - p))})
        sub = Contract(tuple(offers[i] for i in keep), 0, oracle._SIZE_KIND[len(keep)])
        assert realized_outcome(sub, cost).profit == found[0], k


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
    # A alone at 10 earns 5, the largest margin on this grid (c = 5 for
    # all), so every later row is pruned unless its window can hold at the
    # designated price 10: d's own utility there, u_d - 10, must reach the
    # others' best overall utility less the tie window, or d must be the
    # most tempting, v_d - 10 > max(v_o).  By hand, with phi(x) = x/2 up
    # to 1 and 2x - 1.5 beyond, rows kept per designated offer:
    # size 2 - (A,B): A 1, B 1; (A,C): A 2, C 2; (B,C): B 0, C 0;
    # size 3 - A 2 (B, C at (10,5), (10,10)), B 3 ((5,5), (10,5), (10,10)),
    # C 2 ((5,10), (10,10), the two rows where C is the most tempting)
    assert [s.pruned for s in stats.sizes] == [0, 18 - 6, 27 - 7]
    # each kept row is then tested once at the designated price 10, and its
    # window holds there on three: B with A at 10 (B's overall utility -2
    # against A's -6.5), C with A at 10 (-8 against -10.5) and B with A and
    # C at 10 (-4.5 against -10.5 and -8).  10 is the top of the grid, so
    # the search for the best price has no index left to probe, and no
    # lower price has the same margin: 6 and 7 window checks
    assert [s.window_checks for s in stats.sizes] == [0, 6, 7]
    _, ex = grid_best_contract(running, grid, mode="exhaustive", stats=True)
    assert ex.mode == "exhaustive"
    assert [(s.size, s.tuples, s.window_checks) for s in ex.sizes] == [
        (1, 3, 0), (2, 27, 27), (3, 27, 27)
    ]


@pytest.mark.parametrize(
    "power, sizes",
    [
        (False, [(1, 3, 0, 0), (2, 2408, 592, 1997), (3, 483205, 37241, 448541)]),
        (True, [(1, 3, 0, 0), (2, 2410, 718, 2008), (3, 484008, 23926, 460378)]),
    ],
    ids=["piecewise", "power"],
)
def test_search_stats_are_pinned_on_the_worked_instance(running, power, sizes):
    # tuples and pruned as the search that first pruned rows by a full profit
    # bound recorded them: a cheaper test of the same bound prunes the same
    # rows.  The window checks are those of one search per block for the
    # best price
    inst = with_power_cost(running) if power else running
    grid = GridSpec(price_step=0.05, price_min=0.0, price_max=20.0)
    _, stats = grid_best_contract(inst, grid, stats=True)
    assert [(s.size, s.tuples, s.window_checks, s.pruned) for s in stats.sizes] == sizes


PINNED_GAMMAS = (1.5, 2.0, 20.0, 60.0, 300.0)


def _pinned_search(i):
    """Random search ``i``: instance, grid and floor, drawn from its own seed.

    A third are piecewise, the rest power costs with ``gamma`` up to 300;
    n is 3 or 4, the step 0.25 or 0.1, analytic prices on for half, and a
    random floor for the ``search_subset`` call over the first three offers.
    """
    rng = np.random.default_rng([19, i])
    inst = random_pw_instance(rng, n=3 + i % 2)
    if i % 3:
        inst = with_power_cost(inst, float(rng.uniform(0.2, 3.0)), PINNED_GAMMAS[i % 5])
    grid = GridSpec(
        price_step=(0.25, 0.1)[(i // 2) % 2], price_min=0.0, price_max=22.0,
        include_analytic_prices=(i // 4) % 2 == 0,
    )
    return inst, grid, float(rng.uniform(0.0, 15.0))


# per search: the menu as ((id, price), ...) and its profit, or None; the
# SizeStats as (size, tuples, window_checks, pruned); and the floored
# three-offer search as (result, (tuples, window_checks, pruned)).  The
# results, tuples and pruned are as the search that built and tested each
# row recorded them: building only the kept rows must change none.  The
# window checks are those of one search per block for the best price
PINNED_SEARCHES = {
    0: (
        ((('a1', 18.517386896334074), ('a2', 18.549509924269056)), 12.316201567792646),
        [(1, 3, 0, 0), (2, 546, 236, 406), (3, 24842, 2601, 22280)],
        ((12.316201567792646, (53, 75, 76)), (24842, 20834, 14019)),
    ),
    1: (
        ((('a1', 28.544873534341676), ('a3', 12.890180174994308)), 21.671951810783902),
        [(1, 4, 0, 0), (2, 1095, 246, 955), (3, 99916, 180, 99736)],
        ((14.627078276442226, (72, 87, 66)), (25208, 19899, 17260)),
    ),
    2: (
        ((('a0', 18.482610535973166), ('a1', 18.036785813379748), ('a2', 19.48706466071273)),
         13.518659694407129),
        [(1, 3, 0, 0), (2, 1338, 911, 945), (3, 149186, 798, 148592)],
        ((13.518659694407129, (185, 182, 197)), (149186, 24323, 143002)),
    ),
    3: (
        ((('a0', 21.418715840749876), ('a1', 27.089414817197333), ('a3', 15.532442890948177)),
         21.36329224064983),
        [(1, 4, 0, 0), (2, 2679, 820, 2278), (3, 598084, 10888, 588356)],
        ((17.309045401770977, (175, 222, 108)), (150080, 31150, 142280)),
    ),
    4: (
        ((('a0', 16.0), ('a1', 14.75)), 12.856182152724546),
        [(1, 3, 0, 0), (2, 534, 72, 501), (3, 23763, 1455, 22308)],
        ((9.869890295636274, (24, 23, 88)), (23763, 32050, 13353)),
    ),
    5: (
        ((('a2', 17.25), ('a3', 22.0)), 17.73431007121055),
        [(1, 4, 0, 0), (2, 1068, 356, 924), (3, 95052, 1793, 93259)],
        ((13.399411784015996, (50, 88, 57)), (23763, 53682, 15493)),
    ),
    6: (
        ((('a0', 18.0),), 12.381386018051527),
        [(1, 3, 0, 0), (2, 1326, 439, 887), (3, 146523, 37140, 109383)],
        ((12.381386018051527, (180, 134, 162)), (146523, 99391, 98450)),
    ),
    7: (
        ((('a0', 17.7), ('a1', 19.5), ('a2', 16.8)), 15.868877914529122),
        [(1, 4, 0, 0), (2, 2652, 78, 2629), (3, 586092, 838, 585448)],
        ((15.868877914529122, (177, 195, 168)), (146523, 85334, 131953)),
    ),
    8: (
        ((('a0', 8.786495177826389), ('a1', 19.28273371733146)), 18.11484751674744),
        [(1, 3, 0, 0), (2, 546, 208, 509), (3, 24842, 139, 24722)],
        ((18.11484751674744, (36, 79, 73)), (24842, 42612, 18447)),
    ),
    9: (
        ((('a1', 16.786818440797422), ('a2', 16.6656113243111), ('a3', 17.469216714455413)),
         15.674435108588213),
        [(1, 4, 0, 0), (2, 1095, 280, 928), (3, 99916, 2230, 97698)],
        ((15.387616667790791, (58, 68, 67)), (25024, 17180, 19432)),
    ),
    10: (
        ((('a0', 17.4029169115322), ('a2', 29.044049022439378)), 11.726550121639661),
        [(1, 3, 0, 0), (2, 1338, 440, 898), (3, 149186, 9363, 139823)],
        ((11.726550121639661, (175, 186, 222)), (149186, 54265, 95516)),
    ),
    11: (
        ((('a0', 10.361902017758325), ('a3', 16.795690561948653)), 9.509729756415481),
        [(1, 4, 0, 0), (2, 2679, 463, 2460), (3, 598084, 36752, 561509)],
        ((8.030921419479297, (104, 148, 111)), (149632, 71441, 127463)),
    ),
    12: (
        ((('a0', 14.25), ('a2', 22.0)), 12.072344721041501),
        [(1, 3, 0, 0), (2, 534, 137, 409), (3, 23763, 1312, 22451)],
        ((12.072344721041501, (48, 29, 88)), (23763, 9920, 19359)),
    ),
    13: (
        ((('a0', 15.5), ('a1', 22.0)), 14.570677778493263),
        [(1, 4, 0, 0), (2, 1068, 352, 1016), (3, 95052, 80, 94972)],
        ((14.570677778493263, (62, 88, 88)), (23763, 22286, 16235)),
    ),
    14: (
        ((('a0', 22.0), ('a1', 16.4)), 18.470953563390587),
        [(1, 3, 0, 0), (2, 1326, 409, 1263), (3, 146523, 0, 146523)],
        ((16.22796249375969, (194, 138, 220)), (146523, 111198, 127686)),
    ),
    15: (
        ((('a0', 16.4), ('a1', 13.7), ('a2', 18.2)), 15.78206791359759),
        [(1, 4, 0, 0), (2, 2652, 329, 2558), (3, 586092, 7223, 581233)],
        ((15.78206791359759, (164, 137, 182)), (146523, 96899, 126869)),
    ),
    16: (
        ((('a0', 17.121490641427368), ('a1', 21.376459734123756)), 13.567396304460464),
        [(1, 3, 0, 0), (2, 546, 123, 430), (3, 24842, 1689, 23186)],
        ((13.567396304460464, (69, 87, 59)), (24842, 34362, 14904)),
    ),
    17: (
        ((('a0', 32.28465406935454), ('a2', 19.404132630157257)), 24.358728265790447),
        [(1, 4, 0, 0), (2, 1095, 275, 1043), (3, 99916, 60, 99856)],
        ((24.358728265790447, (90, 90, 78)), (24842, 36016, 19440)),
    ),
    18: (
        ((('a0', 19.01942751941317), ('a2', 22.134730735535836)), 15.3207278888584),
        [(1, 3, 0, 0), (2, 1336, 298, 1105), (3, 148741, 5135, 143606)],
        ((15.3207278888584, (191, 135, 222)), (148741, 37258, 133120)),
    ),
    19: (
        ((('a0', 19.50065935547536), ('a2', 32.732065608393086)), 31.83130828247589),
        [(1, 4, 0, 0), (2, 2679, 2599, 2352), (3, 598084, 312, 597772)],
        ((31.83130828247589, (196, 212, 222)), (149186, 279347, 37083)),
    ),
    20: (
        ((('a0', 22.0), ('a2', 13.0)), 6.134338590974227),
        [(1, 3, 0, 0), (2, 534, 342, 474), (3, 23763, 975, 22788)],
        ((6.134338590974227, (88, 70, 52)), (23763, 4514, 22212)),
    ),
    21: (
        ((('a0', 16.5), ('a3', 13.75)), 4.438921486983141),
        [(1, 4, 0, 0), (2, 1068, 57, 1027), (3, 95052, 3062, 92074)],
        (None, (23763, 300, 23463)),
    ),
    22: (
        None,
        [(1, 3, 0, 0), (2, 1326, 199, 1286), (3, 146523, 7961, 138697)],
        (None, (146523, 0, 146523)),
    ),
    23: (
        ((('a0', 19.4), ('a1', 8.3), ('a2', 15.6)), 15.081703451319692),
        [(1, 4, 0, 0), (2, 2652, 480, 2172), (3, 586092, 5074, 581030)],
        ((15.081703451319692, (194, 83, 156)), (146523, 2049, 144478)),
    ),
}


@pytest.mark.parametrize("i", range(24))
def test_search_stats_are_pinned_on_random_searches(i):
    inst, grid, floor = _pinned_search(i)
    menu, sizes, floored = PINNED_SEARCHES[i]
    sol, stats = grid_best_contract(inst, grid, stats=True)
    got = None if sol is None else (
        tuple((o.alternative.id, o.price) for o in sol.contract.offers), sol.profit
    )
    assert got == menu
    assert [(s.size, s.tuples, s.window_checks, s.pruned) for s in stats.sizes] == sizes
    prices = oracle._price_arrays(inst, grid)[:3]
    alts = inst.alternatives[:3]
    tally = _kernels.Tally()
    found = _kernels.search_subset(
        tuple(x.u for x in alts), tuple(x.v for x in alts), tuple(x.c for x in alts),
        prices, inst.cost_fn, "bracketed", tally, floor,
    )
    assert (found, dataclasses.astuple(tally)) == floored


def test_pruning_drops_most_power_cost_rows(running):
    grid = GridSpec(
        price_step=0.05, price_min=0.0, price_max=20.0, include_analytic_prices=False
    )
    _, stats = grid_best_contract(with_power_cost(running), grid, stats=True)
    rows = sum(s.tuples for s in stats.sizes)
    assert sum(s.pruned for s in stats.sizes) > 0.9 * rows


def _assert_floor_is_exact(u, v, c, prices, cost, step):
    """``bracketed`` under a floor: exact when the optimum reaches it, else
    below it.  Returns the ``exhaustive`` result."""
    reference = _kernels.search_subset(u, v, c, prices, cost, "exhaustive")
    optimum = -np.inf if reference is None else reference[0]
    floors = (-np.inf, optimum - step, optimum, np.nextafter(optimum, np.inf))
    walked = set()  # every row is walked, whatever the floor
    for floor in floors:
        tally = _kernels.Tally()
        found = _kernels.search_subset(
            u, v, c, prices, cost, "bracketed", tally=tally, floor=floor
        )
        walked.add(tally.tuples)
        if reference is not None and optimum >= floor:
            assert found == reference, floor
        else:
            assert found is None or found[0] < floor, floor
    assert len(walked) == 1
    return reference


@given(
    seed=st.integers(0, 10_000),
    power=st.booleans(),
    analytic=st.booleans(),
    subset=st.sampled_from([s for size in (2, 3) for s in combinations(range(4), size)]),
)
@settings(max_examples=40, deadline=None)
def test_floor_prunes_only_rows_below_it(seed, power, analytic, subset):
    rng = np.random.default_rng(seed)
    inst = random_pw_instance(rng, n=4)
    if power:
        inst = with_power_cost(inst, float(rng.uniform(0.1, 3.0)), float(rng.uniform(1.2, 3.0)))
    step = 0.5
    grid = GridSpec(price_step=step, price_min=0.0, price_max=22.0,
                    include_analytic_prices=analytic)
    prices = oracle._price_arrays(inst, grid)
    alts = [inst.alternatives[i] for i in subset]
    _assert_floor_is_exact(
        tuple(x.u for x in alts), tuple(x.v for x in alts), tuple(x.c for x in alts),
        [prices[i] for i in subset], inst.cost_fn, step,
    )


@given(bits=st.integers(30, 33), price=st.sampled_from((1.0, 2.0, 8.0, 12.5)))
@settings(max_examples=16, deadline=None)
def test_floor_keeps_rows_exactly_on_the_bound(bits, price):
    cost = PiecewiseLinearCost(l=0.5, k=2.0, w=1.0)
    # the optimum sells the first offer at ``price``, with the second as a
    # bait at 0.0 that is exactly as tempting; the first one's utility
    # there is -2**-bits, inside the tie window and exactly the bait's
    # utility less the window
    own = -(2.0**-bits)
    bait_u = own + CHOICE_TIE_TOL
    assert bait_u - CHOICE_TIE_TOL == own
    grid = price + np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    assert _assert_floor_is_exact(
        (price + own, bait_u), (price + 1.0, 1.0), (0.0, 0.0),
        [grid, np.array([0.0, 0.5, 1.0])], cost, 0.5,
    ) == (price, (2, 0))
    # the optimum sells the first offer at its own value ``price``; the
    # second is priced out, so that is also the highest index the row may reach
    assert _assert_floor_is_exact(
        (price, 0.2), (price, 0.3), (0.0, 0.0),
        [grid, np.array([0.5, 1.0])], cost, 0.5,
    ) == (price, (2, 0))


# -- the pruning bounds on their edges ----------------------------------------------

EDGE_COST = PiecewiseLinearCost(l=0.5, k=2.0, w=1.0)
"""``phi(x) = x/2`` up to 1."""


def _window_from(x):
    """The utility whose tie window starts exactly at ``x``."""
    y = x + CHOICE_TIE_TOL
    assert y - CHOICE_TIE_TOL == x
    return y


def _count_open_rows(monkeypatch):
    """Wrap ``_kernels._top``; returns the list it fills with the rows
    ``phi`` decides, per block that has any."""
    seen = []
    top = _kernels._top

    def counted(uo, vo, cost):
        seen.append(len(uo[0]))
        return top(uo, vo, cost)

    monkeypatch.setattr(_kernels, "_top", counted)
    return seen


# Each case puts one row of a tiny search exactly on one edge of a pruning
# step.  Offers are (u, v, c, prices) and every c is 0, so margins are
# prices.  The designated offers run in order, so a later one only keeps
# rows that can reach the profit an earlier one found; one whose margins
# all fall short has every row pruned untouched.  ``phi_rows`` lists, per
# block that has any, the rows the phi-free bounds leave open, on which phi
# decides step 3 with two other offers.
EDGE_CASES = {
    # D at 1 is as tempting as A (v - p = 2), so only its utility 0.25 can
    # keep the row: exactly A's 0.25 + tol less the window, kept, and sold.
    # A and B, whose margins are 0, are then pruned.
    "own_on_ustar": (
        [(1.25, 3.0, 0.0, [1.0]), (_window_from(0.25), 2.0, 0.0, [0.0]), (0.0, 1.0, 0.0, [0.0])],
        (1.0, (0, 0, 0)), 3, 2, [],
    ),
    # as above, with D's 0.25 exactly the less tempting B's utility less the
    # window: B's bound alone keeps the row, with no phi before it is kept
    "own_on_usub": (
        [(1.25, 3.0, 0.0, [1.0]), (0.0, 2.0, 0.0, [0.0]), (_window_from(0.25), 1.0, 0.0, [0.0])],
        (1.0, (0, 0, 0)), 3, 2, [],
    ),
    # B, 0.25 less tempting than A, resists phi(0.25) = 0.125: D's 0.25 is
    # below B's bound and exactly B's overall utility less the window
    "own_on_top": (
        [(1.25, 3.0, 0.0, [1.0]), (0.0, 2.0, 0.0, [0.0]),
         (_window_from(0.25) + 0.125, 1.75, 0.0, [0.0])],
        (1.0, (0, 0, 0)), 3, 2, [1],
    ),
    # D at 1 is exactly as tempting as A, not more, and its 0.5 is below
    # A's 1: pruned.  A at 0 is kept and sells for 0; B at 0 is below D's
    # 0.5 (D and A tie at v - p = 2, so D's utility is the bound): pruned
    "temptation_on_vmax": (
        [(1.5, 3.0, 0.0, [1.0]), (1.0, 2.0, 0.0, [0.0]), (0.0, 1.0, 0.0, [0.0])],
        (0.0, (0, 0, 0)), 3, 2, [],
    ),
    # D at 1 is as tempting as A and reaches A's 0, not B's 1: phi decides,
    # and B's 1 - phi(1) = 0.5 is above D's 0.25: pruned.  A at 0 falls
    # below D's 0.25: pruned.  B at 0 is kept and sells for 0
    "temptation_on_vmax_open": (
        [(1.25, 3.0, 0.0, [1.0]), (0.0, 2.0, 0.0, [0.0]), (1.0, 1.0, 0.0, [0.0])],
        (0.0, (0, 0, 0)), 3, 2, [1],
    ),
    # A and B at 0 are equally tempting (v - p = 2), so each resists nothing
    # and B's 1 is the bound: D's row there is open, phi(0) = 0 prunes it.
    # With B at 1, D sells at 1.  A's margin falls short: both rows pruned.
    # B's top margin ties the best, so its row is tested, and its 0 is
    # below D's 0.25, D and A again equally tempting: pruned
    "equally_tempting": (
        [(1.25, 3.0, 0.0, [1.0]), (0.0, 2.0, 0.0, [0.0]), (1.0, 2.0, 0.0, [0.0, 1.0])],
        (1.0, (0, 0, 1)), 5, 4, [1],
    ),
    # X sells at 1 with Y at 1 (a tie, v - p = 0 each); Y at 0 beats X at 1:
    # pruned.  Then Y's top margin equals that best (i_F = nd - 1): both of
    # its rows are tested, and Y at 1 with X at 1 keeps its window
    "top_margin_ties_best": (
        [(1.0, 1.0, 0.0, [0.0, 1.0]), (1.0, 1.0, 0.0, [0.0, 1.0])],
        (1.0, (1, 1)), 4, 1, [],
    ),
    # X's cap is its i_F (0), so Y at 2, unaffordable, is kept: X at 1 then
    # signs the menu.  Y at 0 beats X at 1: pruned.  Y's cap is its i_F (1):
    # both rows kept, and Y at 1 is affordable exactly (u = p = 1)
    "cap_on_i_f": (
        [(1.0, 1.0, 0.0, [1.0, 2.0]), (1.0, 1.0, 0.0, [0.0, 1.0, 2.0])],
        (1.0, (0, 1)), 5, 1, [],
    ),
    # D at 2 is unaffordable but the most tempting by far, so it sells on
    # every row some other offer signs, with A or B at 0 or at 1 = its u:
    # only (A, B) = (2, 2) is pruned.  A and B then need their top price 2,
    # which only D or the other at index 0 or 1 lets them reach: one row
    # each is pruned, and phi decides the two left, kept, in each
    "others_on_their_caps": (
        [(1.0, 10.0, 0.0, [2.0]), (1.0, 1.0, 0.0, [0.0, 1.0, 2.0]),
         (1.0, 1.0, 0.0, [0.0, 1.0, 2.0])],
        (2.0, (0, 0, 0)), 15, 3, [2, 2],
    ),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_pruning_bounds_hold_on_their_edges(monkeypatch, case):
    offers, expected, tuples, pruned, phi_rows = EDGE_CASES[case]
    u, v, c, grids = zip(*offers)
    prices = [np.array(p) for p in grids]
    assert _kernels.search_subset(u, v, c, prices, EDGE_COST, "exhaustive") == expected
    seen = _count_open_rows(monkeypatch)
    tally = _kernels.Tally()
    assert _kernels.search_subset(u, v, c, prices, EDGE_COST, "bracketed", tally) == expected
    assert (tally.tuples, tally.pruned, seen) == (tuples, pruned, phi_rows)


# Each case puts one row exactly on one end of the intervals ``bracketed``
# builds per leading index (the first other offer's index; the second one's
# is the last index), as EDGE_CASES above.  D is the designated offer the
# comments follow; the other designated offers are pruned untouched unless
# a comment says otherwise.  The last entry is the block size, when not
# ROW_BLOCK.
INTERVAL_EDGE_CASES = {
    # D at 1 (own 0.25, temptation 2) is as tempting as A and reaches A's
    # window, not B's.  B at 0.5 is exactly as tempting as A, and the tie
    # makes A the most tempting: the row is open, and phi(0) = 0 drops it.
    # B at 0 is more tempting than A, so D must reach B's window: dropped
    # without phi.  B at 0.75 is open, dropped by phi.  B at 1.5 is kept,
    # and D sells there.  B needs its top price 1.5, where its one row is
    # dropped without phi
    "v_lead_equals_v_last": (
        [(1.25, 3.0, 0.0, [1.0]), (0.0, 2.0, 0.0, [0.0]), (1.5, 2.5, 0.0, [0.0, 0.5, 0.75, 1.5])],
        (1.0, (0, 0, 3)), 9, 8, [2], None,
    ),
    # D at 1 (own 0.25) reaches A's window, and B's window starts exactly at
    # 0.25 with B at 0: both rows reach both windows and are kept without
    # phi.  D sells with B at 0.5
    "own_on_last_window": (
        [(1.25, 3.0, 0.0, [1.0]), (0.0, 2.5, 0.0, [0.0]),
         (_window_from(0.25), 2.25, 0.0, [0.0, 0.5])],
        (1.0, (0, 0, 1)), 5, 3, [], None,
    ),
    # as above with the two other offers swapped: A's window starts exactly
    # at 0.25 with A at 0
    "own_on_lead_window": (
        [(1.25, 3.0, 0.0, [1.0]), (_window_from(0.25), 2.25, 0.0, [0.0, 0.5]),
         (0.0, 2.5, 0.0, [0.0])],
        (1.0, (0, 1, 0)), 5, 3, [], None,
    ),
    # D at 1 (temptation 2, own 0.5) is more tempting than A (v - p = 1) and
    # exactly as tempting as B at 0, not more; B is then the most tempting
    # and D is below its 1.2 less the window: dropped without phi.  With B
    # at 0.5, D is the most tempting: kept, and D sells
    "temptation_on_v_last": (
        [(1.5, 3.0, 0.0, [1.0]), (0.25, 1.0, 0.0, [0.0]), (1.2, 2.0, 0.0, [0.0, 0.5])],
        (1.0, (0, 0, 1)), 5, 4, [], None,
    ),
    # as above with the two other offers swapped: A at 0 is exactly as tempting
    "temptation_on_v_lead": (
        [(1.5, 3.0, 0.0, [1.0]), (1.2, 2.0, 0.0, [0.0, 0.5]), (0.25, 1.0, 0.0, [0.0])],
        (1.0, (0, 1, 0)), 5, 4, [], None,
    ),
    # D at 2 is unaffordable (cap -1, below i_F = 0) and the most tempting
    # everywhere, so a row is kept exactly where another offer signs: A's
    # cap is its index 0 (u = p = 1), so its lead index keeps every B, and
    # at A's index 1 B's cap (index 1, u = p = 1) ends the interval: only
    # (A, B) = (2, 2) is pruned.  D sells at 2
    "caps_end_the_rows": (
        [(1.0, 10.0, 0.0, [2.0]), (1.0, 1.0, 1.0, [1.0, 2.0]),
         (1.0, 1.0, 0.5, [0.0, 1.0, 2.0])],
        (2.0, (0, 0, 0)), 11, 6, [], None,
    ),
    # blocks of 4 rows split A's index 1 after B's index 0.  The first block
    # (i_F = 0, D at 1) keeps all four rows, D the most tempting in each,
    # and D sells at 2 with A at 0 and B at 1.  The second block then needs
    # D's index 1 (temptation 1.6, own 0): with A at 1, B at 0.5 is more
    # tempting and out of reach, pruned; B at 1 is less tempting, kept
    "block_splits_a_lead_index": (
        [(2.0, 3.6, 0.0, [1.0, 2.0]), (0.2, 1.0, 0.5, [0.0, 1.0]),
         (0.6, 2.5, 0.5, [0.0, 0.5, 1.0])],
        (2.0, (1, 0, 2)), 16, 11, [], 4,
    ),
}


@pytest.mark.parametrize("case", INTERVAL_EDGE_CASES)
def test_interval_ends_hold_on_their_edges(monkeypatch, case):
    offers, expected, tuples, pruned, phi_rows, block = INTERVAL_EDGE_CASES[case]
    u, v, c, grids = zip(*offers)
    prices = [np.array(p) for p in grids]
    assert _kernels.search_subset(u, v, c, prices, EDGE_COST, "exhaustive") == expected
    seen = _count_open_rows(monkeypatch)
    if block is not None:
        monkeypatch.setattr(_kernels, "ROW_BLOCK", block)
    tally = _kernels.Tally()
    assert _kernels.search_subset(u, v, c, prices, EDGE_COST, "bracketed", tally) == expected
    assert (tally.tuples, tally.pruned, seen) == (tuples, pruned, phi_rows)


# Each case puts the one row of the second designated offer Y exactly on an
# edge of the window test at i_F, as EDGE_CASES above.  X (u 2.5, v 2.5, one
# price 1.5) sells first at 1.5, so Y's i_F is its index 2, price 2.0.  With
# X at 1.5, Y (v 5) is the most tempting at every price and kept without
# phi; X's overall utility 1 - phi(gap) bounds Y's, the gap 3, 2 and 1 at
# Y's 1.0, 2.0 and 3.0.
REACH_EDGE_CASES = {
    # Y's u 1: -1 >= 1 - phi(2) = -1.5 at 2.0, -2 < 0.5 at 3.0.  The highest
    # index whose window holds is i_F, and Y sells at 2.  X's window holds
    # at 1.5 only with Y at 3.0: one of its four rows
    "window_ends_on_i_f": (
        [(2.5, 2.5, 0.0, [1.5]), (1.0, 5.0, 0.0, [0.5, 1.0, 2.0, 3.0])],
        (2.0, (0, 2)),
    ),
    # Y's u 0: -1 >= 1 - phi(3) = -3.5 at 1.0, -2 < -1.5 at 2.0.  The
    # highest index whose window holds is i_F - 1: the row is dropped at
    # i_F, and X sells at 1.5 with Y at 2.0 (or 3.0)
    "window_ends_below_i_f": (
        [(2.5, 2.5, 0.0, [1.5]), (0.0, 5.0, 0.0, [0.5, 1.0, 2.0, 3.0])],
        (1.5, (0, 2)),
    ),
}


@pytest.mark.parametrize("case", REACH_EDGE_CASES)
def test_window_check_at_i_f_holds_on_its_edges(case):
    offers, expected = REACH_EDGE_CASES[case]
    u, v, c, grids = zip(*offers)
    prices = [np.array(p) for p in grids]
    assert _kernels.search_subset(u, v, c, prices, EDGE_COST, "exhaustive") == expected
    assert _kernels.search_subset(u, v, c, prices, EDGE_COST, "bracketed") == expected


# Each case puts the search for a block's best index I* (module docstring of
# ``_kernels``, step 5) on one of its edges.  D, the first offer, is
# designated first, with i_F = 0; the second offer O earns less than any
# price of D, so its rows are pruned untouched.  The last entry is the
# window checks: one per row at i_F, then one per row still in the search at
# each probe, and one per row that reached i_F at ``low`` where ``low < I*``.
SEARCH_EDGE_CASES = {
    # D's prices 1.0 and the next double both earn 1.0 - 1e3 = -999.0.  O at
    # 0.0 is exactly as tempting as D at either price (v - p = 10), and its
    # utility's window starts exactly at D's 0.25 at 1.0, so that row holds at
    # index 0 only; with O at 1.0 the row holds at both.  I* = 1, and the
    # tie order wants index 0, where both rows hold: D sells at 1.0 with O
    # at 0.0, the smaller row.  Checks: 2 at i_F, 2 at 1, 2 at low = 0
    "margins_round_equal": (
        [(1.25, 11.0, 1e3, [1.0, np.nextafter(1.0, 2.0)]),
         (_window_from(0.25), 10.0, 1e4, [0.0, 1.0])],
        (-999.0, (0, 0)), 6,
    ),
    # D (u 2.5, v 8) is the most tempting in every row and affordable up to
    # its index 1 (price 2).  O at 0.0 signs the menu at any price of D, but
    # its 2 - phi(1) = 1.5 at D's 2.0 passes D's 0.5: that row sells at
    # index 0.  O at 3.0 or 4.0 is unaffordable and far less tempting, so
    # D's window holds at every price there, and its cap ends both rows at
    # index 1, where D sells.  Checks: 3 at i_F, 3 at 1, 2 at 2, where only
    # the caps stop the two rows
    "window_holds_past_the_cap": (
        [(2.5, 8.0, 0.0, [1.0, 2.0, 3.0, 4.0]), (2.0, 5.0, 10.0, [0.0, 3.0, 4.0])],
        (2.0, (1, 1)), 8,
    ),
    # O (u 0, v 10) is at least as tempting as D (u 12, v 10) at every price
    # k = 0, ..., 8, so D's overall utility is 12 - k - phi(k), which reaches
    # O's 0 up to k = 4: the gallop's probes 1, 2 and 4 hold, 4 = I*, and 8,
    # then the bisection's 6 and 5 fail.  Checks: 1 at i_F, 6 probes
    "probe_lands_on_the_best_index": (
        [(12.0, 10.0, 0.0, [float(k) for k in range(9)]), (0.0, 10.0, 10.0, [0.0])],
        (4.0, (4, 0)), 7,
    ),
    # as above with D's u 9: D reaches O's 0 up to k = 3.  The probes at 1
    # and 2 hold, the one at 4 fails one index past I*, and the bisection's
    # 3 holds.  Checks: 1 at i_F, 4 probes
    "probe_lands_one_past_the_best_index": (
        [(9.0, 10.0, 0.0, [float(k) for k in range(9)]), (0.0, 10.0, 10.0, [0.0])],
        (3.0, (3, 0)), 5,
    ),
}


@pytest.mark.parametrize("case", SEARCH_EDGE_CASES)
def test_best_price_search_holds_on_its_edges(case):
    offers, expected, window_checks = SEARCH_EDGE_CASES[case]
    u, v, c, grids = zip(*offers)
    prices = [np.array(p) for p in grids]
    assert _kernels.search_subset(u, v, c, prices, EDGE_COST, "exhaustive") == expected
    tally = _kernels.Tally()
    assert _kernels.search_subset(u, v, c, prices, EDGE_COST, "bracketed", tally) == expected
    assert tally.window_checks == window_checks


def test_bracketed_takes_at_most_three_offers():
    grids = [np.array([0.0, 1.0])] * 4
    with pytest.raises(ValueError, match="at most three offers, got 4"):
        _kernels.search_subset((1.0,) * 4, (1.0,) * 4, (0.0,) * 4, grids, EDGE_COST, "bracketed")


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


@pytest.mark.parametrize("power", (False, True), ids=["piecewise", "power"])
def test_bracketed_equals_exhaustive_on_every_subset(running, power):
    inst = with_power_cost(running) if power else running
    prices = oracle._price_arrays(inst, GridSpec(price_step=0.5, price_min=0.0, price_max=20.0))
    assert _subset_results(inst, prices, "bracketed") == _subset_results(
        inst, prices, "exhaustive"
    )


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


def test_verify_solution_takes_no_tolerance():
    assert list(inspect.signature(verify_solution).parameters) == ["sol", "inst"]
    assert list(inspect.signature(model._pick).parameters) == ["contract", "scores"]


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


def test_verify_rejects_wrong_profit_claim(running):
    sol = optimal_contract(running)
    broken = dataclasses.replace(sol, profit=sol.profit + 0.5)
    report = verify_solution(broken, running)
    assert {c.name for c in report.failures} == {"profit_consistent"}
