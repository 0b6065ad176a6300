"""Domain types and the consumer choice rule."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from temptmenu import (
    Alternative,
    AssumptionViolated,
    Contract,
    ContractKind,
    GridSpec,
    Offer,
    PiecewiseLinearCost,
    PowerCost,
    ProblemInstance,
    accepts,
    actual_choice,
    classify_willpower_regime,
    grid_best_contract,
    optimal_contract,
    overall_utilities,
    perceived_choice,
    perceived_utilities,
    realized_outcome,
)
from temptmenu import model
from helpers import four_product_instance, near_tie_instance, running_instance

PW = PiecewiseLinearCost(l=0.5, k=2.0, w=1.0)

A = Alternative("A", 10.0, 10.0, 5.0)
B = Alternative("B", 8.0, 14.0, 5.0)
C = Alternative("C", 2.0, 16.0, 5.0)

P_DECOY = 32.5 / 3


def optimal_menu(intended: int = 0) -> Contract:
    return Contract(
        (Offer(B, 12.0), Offer(A, 10.0), Offer(C, P_DECOY)), intended,
        ContractKind.COMPROMISING,
    )


# -- self-control cost --------------------------------------------------------


def test_phi_piecewise_values():
    assert PW.phi(0.0) == 0.0
    assert PW.phi(3.1667) == pytest.approx(4.8334, abs=1e-12)
    assert PW.phi(0.5) == 0.25


def test_phi_clamps_negative_arguments():
    assert PowerCost(alpha=1.0, gamma=2.0).phi(-1.0) == 0.0
    assert PW.phi(-3.0) == 0.0


def test_phi_continuous_at_kink():
    cost = PiecewiseLinearCost(l=0.3, k=4.0, w=2.5)
    below = cost.phi(cost.w)
    above = cost.k * (cost.w - cost.w) + cost.l * cost.w
    assert below == above == cost.l * cost.w
    step = cost.phi(math.nextafter(cost.w, math.inf)) - below
    assert 0.0 <= step < 1e-12


@given(
    l=st.floats(0.01, 0.99),
    k=st.floats(1.01, 8.0),
    w=st.floats(0.0, 10.0),
)
@settings(max_examples=100)
def test_phi_piecewise_monotone_and_midpoint_convex(l, k, w):
    cost = PiecewiseLinearCost(l=l, k=k, w=w)
    span = max(10.0 * w, 1.0)
    grid = [span * i / 200.0 for i in range(201)]
    values = [cost.phi(t) for t in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    for i in range(0, 199, 2):
        mid = cost.phi(0.5 * (grid[i] + grid[i + 2]))
        assert mid <= 0.5 * (values[i] + values[i + 2]) + 1e-12


@given(alpha=st.floats(0.1, 5.0), gamma=st.floats(1.0, 4.0))
@settings(max_examples=100)
def test_phi_power_monotone_and_midpoint_convex(alpha, gamma):
    cost = PowerCost(alpha=alpha, gamma=gamma)
    grid = [10.0 * i / 200.0 for i in range(201)]
    values = [cost.phi(t) for t in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    for i in range(0, 199, 2):
        mid = cost.phi(0.5 * (grid[i] + grid[i + 2]))
        assert mid <= 0.5 * (values[i] + values[i + 2]) + 1e-12


def _carried_error(cost, t):
    """Bound on ``|phi(t) - phi(t*)|`` for ``t`` a few roundings off ``t*``.

    The power form raises to the rounded exponent ``1/gamma``, which moves
    ``t`` by up to ``ulp(t) * |ln t|`` more; ``phi`` carries the error
    through its slope.
    """
    if isinstance(cost, PowerCost):
        slope = cost.alpha * cost.gamma * t ** (cost.gamma - 1.0)
        return slope * math.ulp(t) * (1.0 + abs(math.log(t)))
    return (cost.l if t < cost.w else cost.k) * math.ulp(t)


@given(
    cost=st.one_of(
        st.builds(
            PiecewiseLinearCost,
            l=st.floats(0.01, 0.99),
            k=st.floats(1.01, 8.0),
            w=st.floats(0.0, 1e6),
        ),
        st.builds(PowerCost, alpha=st.floats(1e-3, 1e3), gamma=st.floats(1.0, 100.0)),
    ),
    y=st.floats(1e-12, 1e15),
)
@settings(max_examples=300)
def test_phi_inverse_inverts_phi(cost, y):
    t = cost.phi_inverse(y)
    assume(math.isfinite(cost.phi(t)))
    assert abs(cost.phi(t) - y) <= 4.0 * (math.ulp(y) + _carried_error(cost, t))


@pytest.mark.parametrize(
    "cost", [PW, PiecewiseLinearCost(l=0.3, k=4.0, w=0.0), PowerCost(2.0, 3.0)]
)
def test_phi_inverse_is_zero_at_and_below_zero(cost):
    assert cost.phi_inverse(0.0) == 0.0
    assert cost.phi_inverse(-1.0) == 0.0


def test_phi_inverse_monotone_across_the_kink():
    cost = PiecewiseLinearCost(l=0.3, k=4.0, w=2.5)
    kink = cost.l * cost.w
    ys = [kink * (1.0 + d) for d in (-1e-3, -1e-9, 0.0, 1e-9, 1e-3)]
    y = kink
    for _ in range(20):
        y = math.nextafter(y, 0.0)
    for _ in range(40):
        ys.append(y)
        y = math.nextafter(y, math.inf)
    ts = [cost.phi_inverse(y) for y in sorted(ys)]
    assert all(b >= a for a, b in zip(ts, ts[1:]))
    assert cost.phi_inverse(kink) == pytest.approx(cost.w, rel=1e-15)


def test_phi_inverse_is_inf_where_the_power_form_overflows():
    assert PowerCost(1e-300, 1.0).phi_inverse(1e300) == math.inf
    assert PowerCost(1e-10, 2.0).phi_inverse(1.7e308) == math.inf
    assert PowerCost(1.0, 2.0).phi_inverse(math.inf) == math.inf
    assert PW.phi_inverse(math.inf) == math.inf


def test_cost_parameter_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearCost(l=0.5, k=1.0, w=1.0)
    with pytest.raises(ValueError):
        PiecewiseLinearCost(l=1.0, k=2.0, w=1.0)
    with pytest.raises(ValueError):
        PiecewiseLinearCost(l=0.0, k=2.0, w=1.0)
    with pytest.raises(ValueError):
        PiecewiseLinearCost(l=0.5, k=2.0, w=-0.1)
    with pytest.raises(ValueError):
        PowerCost(alpha=0.0, gamma=2.0)
    with pytest.raises(ValueError):
        PowerCost(alpha=1.0, gamma=0.9)
    with pytest.raises(ValueError):
        PiecewiseLinearCost(l=0.5, k=float("inf"), w=1.0)


FINITE_FIELDS = (
    (Alternative, {"id": "A", "u": 10.0, "v": 10.0, "c": 5.0}),
    (PiecewiseLinearCost, {"l": 0.5, "k": 2.0, "w": 1.0}),
    (PowerCost, {"alpha": 1.0, "gamma": 2.0}),
    (Offer, {"alternative": A, "price": 10.0}),
)


@pytest.mark.parametrize(
    "cls, kwargs, name",
    [
        pytest.param(cls, kwargs, name, id=f"{cls.__name__}.{name}")
        for cls, kwargs in FINITE_FIELDS
        for name, value in kwargs.items()
        if isinstance(value, float)
    ],
)
@pytest.mark.parametrize(
    "bad", (10**400, -(10**400), math.inf, math.nan),
    ids=("huge-int", "huge-negative-int", "inf", "nan"),
)
def test_non_finite_field_is_a_value_error_naming_it(cls, kwargs, name, bad):
    # an int past the largest double must not escape as a raw OverflowError
    with pytest.raises(ValueError, match=f"^{name} must be a finite real"):
        cls(**{**kwargs, name: bad})


# -- excess temptation --------------------------------------------------------


def test_excess_temptation():
    assert A.e == 0.0
    assert B.e == 6.0
    assert C.e == 14.0


# -- choice rule ---------------------------------------------------------------


def test_actual_choice_singleton():
    menu = Contract((Offer(A, 10.0),), 0, ContractKind.COMMITMENT)
    assert actual_choice(menu, PW).alternative.id == "A"
    assert perceived_choice(menu).alternative.id == "A"


def test_actual_choice_optimal_menu_all_indifferent():
    menu = optimal_menu()
    scores = overall_utilities(menu, PW)
    assert all(s == pytest.approx(-53.0 / 6.0, abs=1e-9) for s in scores)
    # tie resolved toward the highest margin: B at 12 earns 7
    assert actual_choice(menu, PW).alternative.id == "B"


def test_shaving_the_intended_price_breaks_the_knife_edge():
    # the worked optimum sells B only on the seller-favorable tie-break;
    # 1e-9 off B's price makes B the strict best, no tie-break needed
    inst = running_instance()
    menu = optimal_contract(inst).contract
    i = menu.intended
    scores = overall_utilities(menu, inst.cost_fn)
    rivals = [s for j, s in enumerate(scores) if j != i]
    assert scores[i] == max(scores) and max(rivals) >= scores[i] - model.CHOICE_TIE_TOL
    offers = list(menu.offers)
    offers[i] = Offer(offers[i].alternative, offers[i].price - 1e-9)
    shaved = Contract(tuple(offers), i, menu.kind)
    scores = overall_utilities(shaved, inst.cost_fn)
    assert scores[i] > max(s for j, s in enumerate(scores) if j != i)
    assert actual_choice(shaved, inst.cost_fn) is shaved.offers[i]


def test_actual_choice_tempted_away():
    menu = Contract((Offer(A, 10.0), Offer(C, 2.0)), 0, ContractKind.INDULGING)
    scores = overall_utilities(menu, PW)
    assert scores[0] == pytest.approx(-26.5)
    assert scores[1] == pytest.approx(0.0)
    assert actual_choice(menu, PW).alternative.id == "C"


def test_perceived_choice_ignores_temptation():
    menu = optimal_menu()
    assert perceived_utilities(menu) == pytest.approx((-4.0, 0.0, 2.0 - P_DECOY))
    assert perceived_choice(menu).alternative.id == "A"


def test_choice_tie_breaks_toward_higher_margin_then_position():
    # equal perceived utilities, distinct margins: the pricier sale wins
    menu = Contract((Offer(B, 8.0), Offer(A, 10.0)), 0, ContractKind.INDULGING)
    assert perceived_choice(menu).alternative.id == "A"
    # equal utilities and equal margins: earliest menu position wins
    a2 = Alternative("A2", 10.0, 10.0, 5.0)
    menu = Contract((Offer(A, 10.0), Offer(a2, 10.0)), 0, ContractKind.INDULGING)
    assert perceived_choice(menu).alternative.id == "A"
    assert actual_choice(menu, PW).alternative.id == "A"


def test_accepts_at_exact_indifference():
    assert accepts(Contract((Offer(A, 10.0),), 0, ContractKind.COMMITMENT))
    assert not accepts(Contract((Offer(A, 10.01),), 0, ContractKind.COMMITMENT))
    assert accepts(optimal_menu())


def test_accepts_on_the_best_perceived_value_not_the_tie_broken_pick():
    # B's perceived value is -1.3e-10, inside the tie window of the bait's 0,
    # and B earns more: the tie-break picks B, the consumer signs on A's value
    inst = near_tie_instance()
    a, b, _ = inst.alternatives
    menu = Contract((Offer(b, 8.000000000033333), Offer(a, 10.0)), 0, ContractKind.INDULGING)
    assert perceived_choice(menu) is menu.offers[0]
    assert perceived_utilities(menu)[0] < 0.0 == perceived_utilities(menu)[1]
    assert accepts(menu)
    out = realized_outcome(menu, inst.cost_fn)
    assert out.chosen is menu.offers[0]
    assert out.profit == 8.000000000033333


def test_realized_outcome_singleton():
    menu = Contract((Offer(A, 10.0),), 0, ContractKind.COMMITMENT)
    out = realized_outcome(menu, PW)
    assert out.profit == 5.0
    assert out.welfare == 0.0
    assert out.chosen.alternative.id == "A"


def test_realized_outcome_optimal_menu():
    out = realized_outcome(optimal_menu(), PW)
    assert out.profit == pytest.approx(7.0, abs=1e-12)
    assert out.welfare == pytest.approx(2.0 - P_DECOY, abs=1e-9)
    assert out.chosen.alternative.id == "B"


def test_realized_outcome_rejected_menu():
    menu = Contract((Offer(A, 11.0),), 0, ContractKind.COMMITMENT)
    out = realized_outcome(menu, PW)
    assert out == realized_outcome(menu, PW)
    assert (out.profit, out.welfare, out.chosen) == (0.0, 0.0, None)


alt_strategy = st.builds(
    Alternative,
    id=st.just("x"),
    u=st.floats(-20, 20),
    v=st.floats(-20, 20),
    c=st.floats(0, 20),
)


@given(alt=alt_strategy, price=st.floats(-20, 30))
@settings(max_examples=100)
def test_singleton_choices_coincide(alt, price):
    menu = Contract((Offer(alt, price),), 0, ContractKind.COMMITMENT)
    assert actual_choice(menu, PW) is perceived_choice(menu)


@given(
    prices=st.tuples(st.floats(0, 20), st.floats(0, 20)),
    cost=st.one_of(
        st.builds(PiecewiseLinearCost, l=st.floats(0.1, 0.9), k=st.floats(1.1, 5), w=st.floats(0, 10)),
        st.builds(PowerCost, alpha=st.floats(0.1, 3), gamma=st.floats(1, 3)),
    ),
)
@settings(max_examples=100)
def test_duplicating_most_tempting_offer_is_neutral(prices, cost):
    """A second copy of the most tempting offer leaves realized utility alone."""
    p_a, p_b = prices
    base = Contract((Offer(A, p_a), Offer(B, p_b)), 0, ContractKind.INDULGING)
    most = max(base.offers, key=lambda o: o.alternative.v - o.price)
    clone = Alternative("clone", most.alternative.u, most.alternative.v, most.alternative.c)
    bigger = Contract(
        base.offers + (Offer(clone, most.price),), 0, ContractKind.COMPROMISING
    )
    before = max(overall_utilities(base, cost))
    after = max(overall_utilities(bigger, cost))
    assert after == pytest.approx(before, abs=1e-12)


@given(
    p1=st.floats(0, 25), p2=st.floats(0, 25), p3=st.floats(0, 25),
)
@settings(max_examples=100)
def test_cost_argument_never_negative(p1, p2, p3):
    menu = Contract(
        (Offer(A, p1), Offer(B, p2), Offer(C, p3)), 0, ContractKind.COMPROMISING
    )
    temptations = [o.alternative.v - o.price for o in menu.offers]
    m = max(temptations)
    assert all(m - t >= 0.0 for t in temptations)
    # and the choice rule never errors on such a menu
    actual_choice(menu, PW)


# -- contract validation -------------------------------------------------------


def test_contract_validation():
    with pytest.raises(ValueError, match="distinct"):
        Contract((Offer(A, 1.0), Offer(A, 2.0)), 0, ContractKind.INDULGING)
    with pytest.raises(ValueError, match="commitment"):
        Contract((Offer(A, 1.0), Offer(B, 2.0)), 0, ContractKind.COMMITMENT)
    with pytest.raises(ValueError, match="intended"):
        Contract((Offer(A, 1.0),), 1, ContractKind.COMMITMENT)
    with pytest.raises(ValueError):
        Offer(A, float("nan"))


# -- instance validation -------------------------------------------------------


def test_running_instance_roles():
    inst = running_instance()
    assert inst.u_efficient.id == "A"
    assert inst.v_efficient.id == "C"
    assert inst.least_tempting.id == "A"
    assert inst.most_tempting.id == "C"


def test_roles_are_found_once_at_validation(monkeypatch):
    calls = []
    scan = model._unique_extremum

    def spy(*args):
        calls.append(args[-1])
        return scan(*args)

    monkeypatch.setattr(model, "_unique_extremum", spy)
    inst = four_product_instance(w=6.0)  # willpower range 2: classify also solves
    assert len(calls) == 4
    calls.clear()
    optimal_contract(inst)
    classify_willpower_regime(inst)
    grid_best_contract(inst, GridSpec(price_step=1.0, price_min=0.0, price_max=20.0))
    assert (inst.u_efficient.id, inst.least_tempting.id, inst.most_tempting.id) == (
        "M1", "Y", "Z",
    )
    assert calls == []


def test_single_alternative_rejected():
    with pytest.raises(AssumptionViolated, match="degenerate"):
        ProblemInstance((A,), PW)


def test_tied_extremes_rejected_with_names():
    tied_e = (
        Alternative("p", 4.0, 6.0, 1.0),
        Alternative("q", 8.0, 10.0, 4.0),
        Alternative("r", 1.0, 9.0, 2.0),
    )  # p and q share e = 2; u - c and v - c maximizers stay unique
    with pytest.raises(AssumptionViolated) as err:
        ProblemInstance(tied_e, PW)
    assert set(err.value.tied) == {"p", "q"}


def test_tied_u_efficient_rejected():
    tied_u = (
        Alternative("p", 6.0, 6.0, 1.0),
        Alternative("q", 7.0, 8.0, 2.0),
        Alternative("r", 1.0, 12.0, 3.0),
    )  # p and q share u - c = 5
    with pytest.raises(AssumptionViolated):
        ProblemInstance(tied_u, PW)


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ProblemInstance((A, Alternative("A", 1.0, 2.0, 3.0)), PW)
