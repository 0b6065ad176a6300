"""Analytic contract construction and willpower-regime classification.

Three menu designs can sell a product ``x``:

* commitment: sell ``x`` alone at its utility value;
* indulging: pair ``x`` with the least-tempting alternative as bait, price
  ``x`` at the root of ``p = u(x) + phi(v(x) - p - e_bait)``;
* compromising: add the most-tempting alternative as a never-consumed
  decoy whose price solves the same fixed point, then price ``x`` so the
  consumer is exactly indifferent to the decoy.

Under a convex cost the product's role fixes the best design: commitment
for the bait, indulging for the decoy (and for every product when the
decoy is idle), compromise for the rest.  A solve prices only that design
of each product and compares profits only across products.

All three pricing equations are one equation in the resisted gap ``t``,
``psi(t) = t + phi(t) = y``.  ``psi_root`` solves it to adjacent doubles
by secant steps from a bracket that the cost's ``phi_inverse`` gives, and
returns the double that bisecting ``[0, y]`` would; such a price must meet
``PRICE_TOL`` in its own equation.  Where the cost family has closed forms
(the piecewise-linear one), they replace the search; the test suite
checks them against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .model import (
    Alternative,
    Contract,
    ContractKind,
    CostFunction,
    Offer,
    PiecewiseLinearCost,
    ProblemInstance,
    overall_utilities,
)

_STALL_STEPS = 3
"""Secant steps ``solve_monotone_price`` takes without halving its bracket
before it takes a midpoint step."""

PRICE_TOL = 1e-10
"""Absolute residual a searched price must meet in its own equation."""


class BracketFailure(RuntimeError):
    """A price equation has no root in its bracket, or no double meets ``PRICE_TOL``."""


class NotCompromisable(ValueError):
    """Raised when asked to build a three-offer menu around the bait or the decoy."""


@dataclass(frozen=True)
class Solution:
    """A priced contract and its bookkeeping.

    ``welfare`` is the intended offer's consumption-time utility (at a
    returned optimum all offers are tied, so this equals the replayed
    welfare).  ``residuals`` holds the absolute residuals of the implicit
    price equations used in the construction, in construction order.
    """

    contract: Contract
    profit: float
    welfare: float
    sold: Alternative
    kind: ContractKind
    residuals: tuple[float, ...]


def solve_monotone_price(residual: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a continuous, nondecreasing residual on ``[lo, hi]``.

    Raises ``BracketFailure`` unless ``residual(lo) <= 0 <= residual(hi)``.
    Narrows the bracket until its ends are adjacent doubles and returns
    the end with the smaller ``|residual|``.  Each step is a secant step
    through the last two iterates, kept strictly inside the bracket: one
    that would land on or past an end is pulled to that end's neighbouring
    double, which closes the bracket as soon as the iterate has converged.
    A midpoint step follows whenever the bracket failed to halve over the
    last ``_STALL_STEPS`` steps, so no root costs more than about
    ``_STALL_STEPS + 1`` times the evaluations of bisection.  ``lo`` moves
    on ``residual < 0`` and ``hi`` otherwise, as in bisection, so on a
    residual that is monotone in its computed doubles the ends converge to
    the one adjacent pair with ``residual(lo) < 0 <= residual(hi)``, and
    the returned double is the one bisection would return.
    """
    r_lo, r_hi = residual(lo), residual(hi)
    if not r_lo <= 0.0 <= r_hi:
        raise BracketFailure(f"no sign change in [{lo}, {hi}]")
    a, r_a, b, r_b = lo, r_lo, hi, r_hi  # the last two iterates, b the newest
    halved_at, stalled = hi - lo, 0
    while math.nextafter(lo, hi) != hi:
        x = mid = 0.5 * lo + 0.5 * hi  # cannot overflow, unlike 0.5 * (lo + hi)
        if stalled < _STALL_STEPS and r_b != r_a:
            x = b - r_b * (b - a) / (r_b - r_a)
            if x != x:  # nan, from an infinite residual
                x = mid
        if x <= lo:
            x = math.nextafter(lo, hi)
        elif x >= hi:
            x = math.nextafter(hi, lo)
        r_x = residual(x)
        a, r_a, b, r_b = b, r_b, x, r_x
        if r_x < 0.0:
            lo, r_lo = x, r_x
        else:
            hi, r_hi = x, r_x
        if hi - lo <= 0.5 * halved_at:
            halved_at, stalled = hi - lo, 0
        else:
            stalled += 1
    return lo if -r_lo <= r_hi else hi


def psi_root(cost: CostFunction, y: float) -> float:
    """Resisted gap ``t`` with ``psi(t) = t + phi(t) = y``; 0 for ``y <= 0``.

    Every implicit price is ``psi^-1`` of a temptation gap.  As
    ``max(t, phi(t)) <= psi(t) <= 2 max(t, phi(t))``, the root lies in
    ``[min(y/2, phi^-1(y/2)), min(y, phi^-1(y))]``, which the search
    starts from.  Where rounding breaks that bracket's sign check, or the
    root sits on its lower end (where a flat run of zero residuals could
    hold a lower double), the search runs again from 0: up to
    ``min(y, 2 phi^-1(y))`` when the residual there is ``>= 0``, which
    leaves rounding a wide margin, and else up to ``y``, which ``phi >= 0``
    brackets by construction.  Either way the result is the double that
    bisecting ``[0, y]`` returns.
    """
    if y <= 0.0:
        return 0.0

    def residual(t: float) -> float:
        return t + cost.phi(t) - y

    lo = min(0.5 * y, cost.phi_inverse(0.5 * y))
    try:
        t = solve_monotone_price(residual, lo, min(y, cost.phi_inverse(y)))
    except BracketFailure:  # rounding broke the bracket's sign check
        t = lo
    if t == lo:  # a flat run of zero residuals may reach below lo
        hi = min(y, 2.0 * cost.phi_inverse(y))
        return solve_monotone_price(residual, 0.0, hi if residual(hi) >= 0.0 else y)
    return t


def _finite(price: float, what: str) -> None:
    """Raise an ``OverflowError`` naming ``what`` unless ``price`` is finite."""
    if not math.isfinite(price):
        raise OverflowError(f"{what} is {price!r}")


def _accepted(price: float, g: Callable[[float], float], what: str) -> tuple[float, float]:
    """A searched ``price`` and its residual ``|g(price)|``, which must be ``<= PRICE_TOL``."""
    residual = abs(g(price))
    if residual > PRICE_TOL:
        raise BracketFailure(f"{what}: residual {residual:.3g} exceeds tol {PRICE_TOL:g}")
    return price, residual


# -- closed forms for the piecewise-linear family ---------------------------


def _shallow_price(u: float, v: float, e_bait: float, l: float) -> float:
    # resisted temptation at the root stays below the kink
    return (u + l * (v - e_bait)) / (1.0 + l)


def _pw_self_tempting_price(
    u: float, v: float, e_bait: float, cost: PiecewiseLinearCost
) -> float:
    """Closed-form root of ``p = u + phi(v - p - e_bait)``.

    Prices an offer that is itself the most tempting item on the menu
    (the sold offer in an indulging contract, or the decoy).  The root's
    resisted gap is ``(e - e_bait) / (1 + l)``, so the kink is crossed
    exactly when ``e - e_bait > (1 + l) w``.
    """
    if (v - u) - e_bait <= (1.0 + cost.l) * cost.w:
        return _shallow_price(u, v, e_bait, cost.l)
    return (u + cost.k * (v - e_bait - cost.w) + cost.l * cost.w) / (1.0 + cost.k)


def _pw_compromise_price(
    x: Alternative, e_bait: float, decoy: Alternative, cost: PiecewiseLinearCost
) -> float:
    """Closed-form compromise price of ``x``.

    Three regions:

    * shallow: the decoy's gap to the bait fits under the kink, the decoy
      adds nothing, and the price collapses to the indulging one;
    * mixed: the decoy sits above the kink but resisting the decoy from
      ``x`` stays below it; the price falls linearly in willpower;
    * steep: both gaps are above the kink and willpower drops out.

    The mixed expression is arranged so that at the region boundary it is
    bit-for-bit equal to the steep one.
    """
    l, k, w = cost.l, cost.k, cost.w
    if decoy.e - e_bait <= (1.0 + l) * w:
        return _shallow_price(x.u, x.v, e_bait, l)
    steep = (x.u + k * x.v - k * e_bait) / (1.0 + k)
    if decoy.e - x.e <= (1.0 + l) * w:
        boundary = (decoy.e - x.e) / (1.0 + l)
        return steep + (k - l) / (1.0 + k) * (boundary - w)
    return steep


# -- contract constructors ---------------------------------------------------


def _self_tempting_price(
    u: float, v: float, e_bait: float, cost: CostFunction, what: str = "price"
) -> tuple[float, float]:
    """Root of ``p = u + phi(v - p - e_bait)`` and its absolute residual.

    The closed form where the cost family has one; otherwise the resisted
    gap ``t = v - e_bait - p`` at the root solves ``psi(t) = e - e_bait``.
    The price is read back as ``v - e_bait - t`` rather than the equal
    ``u + phi(t)``: ``phi`` would scale the error of ``t`` by its slope,
    which is in the thousands at large ``gamma``.
    """

    def g(p: float) -> float:
        return p - u - cost.phi((v - e_bait) - p)

    if cost.has_closed_forms:
        price = _pw_self_tempting_price(u, v, e_bait, cost)
        return price, abs(g(price))
    return _accepted((v - e_bait) - psi_root(cost, (v - u) - e_bait), g, what)


class _PriceTable:
    """Every price the three designs need, for one instance and one solve.

    ``indulging(x)`` and ``compromise(x)`` give ``x``'s ``(price,
    residual)`` under each design (its commitment price is ``x.u``).  The
    bait, the decoy, the decoy's ``(price, residual)`` and whether the
    decoy is idle are the same for every product and are worked out once;
    the decoy's price is also its own indulging price.  Prices are solved
    when first asked for, so a solve computes only the prices its designs
    need and raises at the first of them that fails, naming the design
    (indulging, decoy or compromise) and the product; a non-finite price
    raises ``OverflowError``, named the same way, as soon as the design
    holding it is priced.  Prices come from the closed forms where
    the cost family has them (``has_closed_forms``), else from
    ``psi_root``, and then must meet ``PRICE_TOL``.
    """

    def __init__(self, inst: ProblemInstance):
        self.cost = inst.cost_fn
        self.bait = inst.least_tempting
        self.decoy = inst.most_tempting
        self.decoy_is_idle = self.cost.decoy_is_idle(self.decoy.e - self.bait.e)

    def _self_tempting(self, x: Alternative, design: str) -> tuple[float, float]:
        what = f"{design} price of {x.id}"
        entry = _self_tempting_price(x.u, x.v, self.bait.e, self.cost, what)
        _finite(entry[0], what)
        return entry

    @cached_property
    def decoy_entry(self) -> tuple[float, float]:
        return self._self_tempting(self.decoy, "decoy")

    def indulging(self, x: Alternative) -> tuple[float, float]:
        return self.decoy_entry if x is self.decoy else self._self_tempting(x, "indulging")

    def compromise(self, x: Alternative) -> tuple[float, float]:
        """Price making the consumer indifferent between ``x`` and the decoy.

        Root of ``p = u(x) + p_decoy - u(decoy) - phi(v(decoy) - p_decoy - v(x) + p)``;
        its resisted gap ``t = shift + p`` solves ``psi(t) = e(decoy) - e(x)``.
        """
        cost, decoy = self.cost, self.decoy
        p_decoy = self.decoy_entry[0]
        anchor = x.u + p_decoy - decoy.u
        shift = decoy.v - p_decoy - x.v

        def g(p: float) -> float:
            return p - anchor + cost.phi(shift + p)

        what = f"compromise price of {x.id}"
        if cost.has_closed_forms:
            price = _pw_compromise_price(x, self.bait.e, decoy, cost)
            entry = price, abs(g(price))
        else:
            entry = _accepted(psi_root(cost, decoy.e - x.e) - shift, g, what)
        _finite(entry[0], what)
        return entry


_Design = tuple[float, ContractKind, tuple[float, float] | None]
"""``(profit, kind, (price, residual))`` of one design for one product;
the entry is None for a commitment."""


def _best_design(x: Alternative, table: _PriceTable) -> _Design:
    """The design that sells ``x``, fixed by ``x``'s role; no profit is compared.

    The bait sells by commitment; the decoy, or any product when the decoy
    is idle, by indulging; every other product by compromise.  Under a
    convex cost ``h(y) = y - psi^-1(y)`` is convex with ``h(0) = 0``, so
    superadditive: a compromise earns at least the indulging design, which
    earns at least commitment, and the first two tie exactly when the
    decoy is idle (README "Solver" gives each design's profit in ``h``).
    """
    if x.id == table.bait.id:
        return x.u - x.c, ContractKind.COMMITMENT, None
    if x.id == table.decoy.id or table.decoy_is_idle:
        kind, entry = ContractKind.INDULGING, table.indulging(x)
    else:
        kind, entry = ContractKind.COMPROMISING, table.compromise(x)
    return entry[0] - x.c, kind, entry


def _solution(
    x: Alternative,
    kind: ContractKind,
    entry: tuple[float, float] | None,
    table: _PriceTable,
) -> Solution:
    """The contract and bookkeeping of one priced design."""
    if kind is ContractKind.COMMITMENT:
        return commitment_contract(x)
    price, residual = entry
    bait = table.bait
    if kind is ContractKind.INDULGING:
        offers = (Offer(x, price), Offer(bait, bait.u))
        residuals = (residual,)
    else:
        p_decoy, res_decoy = table.decoy_entry
        offers = (Offer(x, price), Offer(bait, bait.u), Offer(table.decoy, p_decoy))
        residuals = (res_decoy, residual)
    contract = Contract(offers, 0, kind)
    welfare = overall_utilities(contract, table.cost)[0]
    return Solution(contract, price - x.c, welfare, x, kind, residuals)


def commitment_contract(x: Alternative) -> Solution:
    """Sell ``x`` alone at its utility value; the consumer keeps zero surplus."""
    contract = Contract((Offer(x, x.u),), 0, ContractKind.COMMITMENT)
    return Solution(contract, x.u - x.c, 0.0, x, ContractKind.COMMITMENT, ())


def indulging_contract(x: Alternative, inst: ProblemInstance) -> Solution:
    """Sell ``x`` above its utility value next to a bait priced at cost-of-entry.

    The bait is the least-tempting alternative, priced at its own utility
    value so the naive signer expects to pick it for free.  Degenerate
    case: if ``x`` is the bait itself the construction collapses and the
    commitment solution is returned instead (flagged by its kind).
    """
    table = _PriceTable(inst)
    if x.id == table.bait.id:
        return commitment_contract(x)
    return _solution(x, ContractKind.INDULGING, table.indulging(x), table)


def decoy_price(inst: ProblemInstance) -> float:
    """Price of the most tempting alternative pinned by the bait's free entry.

    Unique root of ``p = u + phi(v - p - e_bait)`` for the most tempting
    alternative; in a compromising menu it is never consumed, it only
    raises everyone else's self-control bill.
    """
    return _PriceTable(inst).decoy_entry[0]


def compromising_contract(x: Alternative, inst: ProblemInstance) -> Solution:
    """Sell ``x`` flanked by the bait and a maximally tempting decoy.

    The decoy price solves its own fixed point; the compromise price then
    makes the consumer exactly indifferent between ``x`` and the decoy:
    ``p = u(x) + p_decoy - u(decoy) - phi(v(decoy) - p_decoy - v(x) + p)``.
    All participation and choice constraints bind at the returned prices.
    """
    table = _PriceTable(inst)
    if x.id in (table.bait.id, table.decoy.id):
        raise NotCompromisable(
            f"cannot build a three-offer menu selling {x.id}: it already plays "
            "the bait or decoy role"
        )
    return _solution(x, ContractKind.COMPROMISING, table.compromise(x), table)


def best_contract_for(x: Alternative, inst: ProblemInstance) -> Solution:
    """Max-profit design for selling ``x``, chosen by ``x``'s role.

    Commitment for the bait, indulging for the decoy, compromise for any
    other product; when the decoy is idle the compromise earns no more
    than indulging, and the indulging design is reported.
    """
    table = _PriceTable(inst)
    _, kind, entry = _best_design(x, table)
    return _solution(x, kind, entry, table)


def _optimal(inst: ProblemInstance, table: _PriceTable) -> tuple[Alternative, _Design]:
    """The product to sell and its best design; ties go to the lowest index."""
    best_x, best = None, None
    for x in inst.alternatives:
        design = _best_design(x, table)
        if best is None or design[0] > best[0]:
            best_x, best = x, design
    assert best_x is not None
    return best_x, best


def optimal_contract(inst: ProblemInstance) -> Solution:
    """Profit-maximizing contract over all products; ties go to the lowest index.

    Each product's design is priced from one price table, and only the
    winner is built into a contract.
    """
    table = _PriceTable(inst)
    x, (_, kind, entry) = _optimal(inst, table)
    return _solution(x, kind, entry, table)


# -- willpower-regime classification ----------------------------------------


@dataclass(frozen=True)
class WillpowerRegime:
    """Predicted optimal sale for a piecewise-linear instance, by willpower range.

    ``thresholds`` are the willpower levels splitting the four ranges, in
    increasing order: up to the first the steep-regime product sells at a
    willpower-free price; past the last the decoy is useless and the best
    indulging contract takes over.  ``case_index`` is 1..4.
    """

    case_index: int
    sold: Alternative
    price: float
    kind: ContractKind
    thresholds: tuple[float, float, float]
    steep_product: Alternative
    shallow_product: Alternative


def _regime_argmax(inst: ProblemInstance, slope: float) -> Alternative:
    """Maximizer of ``(u + slope*v)/(1+slope) - c``; ties to the lowest index.

    The tie-break matches ``optimal_contract``'s, so predictions stay
    consistent with direct maximization on tied instances.
    """
    best = None
    best_val = -float("inf")
    for a in inst.alternatives:
        val = (a.u + slope * a.v) / (1.0 + slope) - a.c
        if val > best_val:
            best, best_val = a, val
    assert best is not None
    return best


def _case_index(w: float, thresholds: tuple[float, float, float]) -> int:
    """Willpower range 1..4 that ``w`` falls in; the thresholds do not depend on ``w``."""
    if w <= thresholds[0]:
        return 1
    if w < thresholds[1]:
        return 2
    if w < thresholds[2]:
        return 3
    return 4


def _regime_thresholds(
    inst: ProblemInstance,
) -> tuple[Alternative, Alternative, tuple[float, float, float]]:
    """The steep- and shallow-regime products and the willpower thresholds.

    None of them depends on the willpower ``w``.
    """
    cost = inst.cost_fn
    if not cost.has_closed_forms:
        raise ValueError("willpower ranges are defined for the piecewise-linear family")
    bait = inst.least_tempting
    decoy = inst.most_tempting
    steep = _regime_argmax(inst, cost.k)
    shallow = _regime_argmax(inst, cost.l)
    scale = 1.0 + cost.l
    thresholds = (
        (decoy.e - steep.e) / scale,
        (decoy.e - shallow.e) / scale,
        (decoy.e - bait.e) / scale,
    )
    return steep, shallow, thresholds


def classify_willpower_regime(inst: ProblemInstance) -> WillpowerRegime:
    """Which product the optimal contract sells, read off the willpower ranges.

    The range names the product sold: the steep-regime product in case 1,
    the shallow-regime one in cases 3 and 4.  Its price and contract kind
    are then read from the solver's own price table by the solver's own
    rule, so they equal ``optimal_contract``'s exactly, also when that
    product is the bait (sold by commitment) or the decoy (which cannot
    be compromised).  Case 2 (willpower strictly between the steep and
    shallow product thresholds) has no closed form; the prediction there
    is the direct maximization over the same table.

    Outside case 2 only the named product's design is priced, so the
    classifier can answer where ``optimal_contract`` cannot: a price that
    design does not need may overflow.  On ``A(1e308, 1e308, 0)`` and
    ``B(0, 1.7e308, 0)`` case 1 sells the bait A by commitment, while the
    solve raises ``OverflowError`` on the decoy B's price.  That is
    deliberate: pricing every product here would make the prediction an
    echo of the solver.
    """
    steep, shallow, thresholds = _regime_thresholds(inst)
    case = _case_index(inst.cost_fn.w, thresholds)
    table = _PriceTable(inst)
    if case == 2:
        sold, (_, kind, entry) = _optimal(inst, table)
    else:
        sold = steep if case == 1 else shallow
        _, kind, entry = _best_design(sold, table)
    price = sold.u if entry is None else entry[0]
    return WillpowerRegime(case, sold, price, kind, thresholds, steep, shallow)
