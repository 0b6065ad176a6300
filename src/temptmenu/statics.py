"""Comparative statics over the willpower parameter of the piecewise cost.

Sweeping willpower traces the contract curve: which product the optimal
menu sells, at what markup, and how profit and consumer welfare move.
The three regime thresholds are always injected into the sweep grid so
the regime boundaries are sampled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .model import ContractKind, ProblemInstance
from .solver import PRICE_TOL, _case_index, _regime_thresholds, optimal_contract


@dataclass(frozen=True)
class SweepRecord:
    """Optimal-contract summary at one willpower level.

    ``markup`` is the sold offer's price in excess of its utility value,
    the ordinate of the contract curve.
    """

    w: float
    case_index: int
    sold_id: str
    e_sold: float
    price: float
    profit: float
    welfare: float
    kind: ContractKind
    markup: float


def sweep_willpower(
    inst: ProblemInstance, w_grid: Sequence[float], *, tol: float = PRICE_TOL
) -> list[SweepRecord]:
    """Optimal contract at each willpower level of a strictly increasing grid.

    The instance's own cost function supplies the slopes; its willpower
    value is replaced point by point.  Regime thresholds falling inside
    the grid's span are added as extra points.  The thresholds do not
    depend on willpower, so they are worked out once, like the roles, and
    each point is solved once.  An empty grid yields an empty sweep.
    """
    cost = inst.cost_fn
    if not cost.has_closed_forms:
        raise ValueError("willpower sweeps require the piecewise-linear cost family")
    w_grid = list(w_grid)
    if any(b <= a for a, b in zip(w_grid, w_grid[1:])):
        raise ValueError("w_grid must be strictly increasing")
    if w_grid and w_grid[0] < 0.0:
        raise ValueError("willpower levels must be >= 0")
    if not w_grid:
        return []
    thresholds = _regime_thresholds(inst)[2]
    points = sorted(
        set(w_grid) | {t for t in thresholds if w_grid[0] <= t <= w_grid[-1]}
    )
    records = []
    for w in points:
        sol = optimal_contract(inst._with_cost(replace(cost, w=w)), tol=tol)
        case = _case_index(w, thresholds)
        price = sol.contract.intended_offer.price
        records.append(
            SweepRecord(
                w=w,
                case_index=case,
                sold_id=sol.sold.id,
                e_sold=sol.sold.e,
                price=price,
                profit=sol.profit,
                welfare=sol.welfare,
                kind=sol.kind,
                markup=price - sol.sold.u,
            )
        )
    return records


def contract_curve(records: Iterable[SweepRecord]) -> list[tuple[float, float]]:
    """Project sweep records to contract-curve coordinates, in sweep order.

    Each point is (excess temptation of the sold product, markup over its
    utility value); welfare rises and profit falls as the curve descends.
    """
    return [(r.e_sold, r.markup) for r in records]
