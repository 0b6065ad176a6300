"""Brute-force verification of analytic menus against a price grid.

``grid_best_contract`` enumerates every subset of alternatives up to the
menu-size cap and every combination of grid prices, replays the consumer
choice rule, and reports the most profitable accepted menu.  It knows
nothing about the analytic constructions except, optionally, their
candidate prices, which can be injected into the grid so the analytic
optimum is itself enumerated.

Two search modes return the identical exact grid optimum (see
``_kernels``): ``exhaustive`` is the literal enumeration, kept as the
reference, and ``bracketed`` the production search that ``auto`` runs.

numpy and ``_kernels`` are imported inside the functions that search, so
``GridSpec``, ``verify_solution`` and the rest of this module load
without them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING

from .model import (
    CHOICE_TIE_TOL,
    Contract,
    ContractKind,
    Offer,
    ProblemInstance,
    _pick,
    accepts,
    overall_utilities,
    perceived_utilities,
    realized_outcome,
)
from .solver import PRICE_TOL, Solution, _PriceTable

if TYPE_CHECKING:
    import numpy as np

    from . import _kernels

MAX_GRID_POINTS = 10_000
"""Desk-scale guard: base grid points per alternative."""

OVERSIZE_WORK_LIMIT = 20_000_000
"""Guard of ``oversize_menu_search``: price tuples in any one subset."""

_SIZE_KIND = {
    1: ContractKind.COMMITMENT,
    2: ContractKind.INDULGING,
    3: ContractKind.COMPROMISING,
}

class GridTooLarge(ValueError):
    """The requested price grid exceeds the desk-scale guard."""


@dataclass(frozen=True)
class GridSpec:
    """Price grid for the brute-force search.

    Grid points are ``price_min + i*price_step`` rounded to 12 decimals,
    so decimal steps produce the decimal prices one would write by hand.
    ``include_analytic_prices`` injects every analytic candidate price
    (utility values, indulging, decoy and compromise prices) into the
    matching alternative's grid, which makes the analytic optimum itself
    part of the enumeration.
    """

    price_step: float
    price_min: float
    price_max: float
    max_menu_size: int = 3
    include_analytic_prices: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.price_step) and self.price_step > 0):
            raise ValueError(f"price_step must be > 0, got {self.price_step}")
        if not self.price_min < self.price_max:
            raise ValueError(
                f"need price_min < price_max, got [{self.price_min}, {self.price_max}]"
            )
        size = self.max_menu_size
        if not (isinstance(size, numbers.Integral) and 1 <= size <= 3):
            raise ValueError(f"max_menu_size must be an integer in 1..3, got {size!r}")
        steps = (self.price_max - self.price_min) / self.price_step
        if steps > MAX_GRID_POINTS + 1e-9:
            raise GridTooLarge(
                f"{steps:.0f} grid steps per alternative exceeds the guard of "
                f"{MAX_GRID_POINTS}; widen price_step or narrow the range"
            )

    def base_points(self) -> np.ndarray:
        import numpy as np
        n = int(math.floor((self.price_max - self.price_min) / self.price_step + 1e-9))
        pts = self.price_min + self.price_step * np.arange(n + 1)
        return np.round(pts, 12)


def _analytic_candidates(inst: ProblemInstance, tol: float) -> list[list[float]]:
    """Per-alternative analytic candidate prices, in instance order."""
    table = _PriceTable(inst, tol)
    out: list[list[float]] = []
    for x in inst.alternatives:
        cand = [x.u]
        if x.id != table.bait.id:
            cand.append(table.indulging(x)[0])  # the decoy's own price, for the decoy
            if x.id != table.decoy.id:
                cand.append(table.compromise(x)[0])
        out.append(cand)
    return out


def _price_arrays(inst: ProblemInstance, grid: GridSpec, tol: float) -> list[np.ndarray]:
    import numpy as np
    base = grid.base_points()
    extras = (
        _analytic_candidates(inst, tol)
        if grid.include_analytic_prices
        else [[] for _ in inst.alternatives]
    )
    return [
        np.unique(np.concatenate([base, np.asarray(extra, dtype=np.float64)]))
        for extra in extras
    ]


@dataclass(frozen=True)
class SizeStats:
    """Work a grid search did over every subset of one size.

    ``tuples`` counts the rows walked: in ``bracketed`` mode the other
    offers' price tuples, once per designated offer; in ``exhaustive``
    mode every price tuple; a one-offer subset is one row (a direct cap
    lookup).  ``window_checks`` counts per-row tie-window evaluations: two
    per row to confirm the threshold estimate, plus one per bisection pass
    over the ``fallback_rows``, the rows whose estimate was not confirmed.
    """

    size: int
    tuples: int
    window_checks: int
    fallback_rows: int


@dataclass(frozen=True)
class SearchStats:
    """What a grid search did: the mode it ran and its work per subset size."""

    mode: str
    sizes: tuple[SizeStats, ...]


def _best_over_subsets(
    inst: ProblemInstance,
    prices: list[np.ndarray],
    sizes: range,
    mode: str,
    tallies: dict[int, _kernels.Tally],
):
    """Scan subsets in deterministic order; returns (profit, subset, idx_tuple)."""
    from . import _kernels
    alts = inst.alternatives
    best = None
    for size in sizes:
        for subset in combinations(range(len(alts)), size):
            u = tuple(alts[i].u for i in subset)
            v = tuple(alts[i].v for i in subset)
            c = tuple(alts[i].c for i in subset)
            res = _kernels.search_subset(
                u, v, c, [prices[i] for i in subset], inst.cost_fn, mode,
                tally=tallies[size],
            )
            if res is None:
                continue
            profit, idx = res
            if best is None or profit > best[0]:
                best = (profit, subset, idx)
    return best


def grid_best_contract(
    inst: ProblemInstance,
    grid: GridSpec,
    *,
    mode: str = "auto",
    tol: float = PRICE_TOL,
    stats: bool = False,
) -> Solution | None | tuple[Solution | None, SearchStats]:
    """Max-profit menu over the grid, or None if walking away beats every menu.

    The result is deterministic given the grid: ties are resolved by the
    total order (profit, subset of alternatives, price-index tuple), and
    the two search modes agree exactly; ``auto`` is ``bracketed``.  The
    winning menu is replayed through the choice rule; the returned
    solution's intended offer is the replayed choice and its welfare the
    replayed welfare (residuals do not apply and are empty).  With
    ``stats=True`` the result is ``(solution, SearchStats)``.
    """
    from . import _kernels
    if mode not in ("auto", "exhaustive", "bracketed"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "bracketed"
    prices = _price_arrays(inst, grid, tol)
    sizes = range(1, grid.max_menu_size + 1)
    tallies = {size: _kernels.Tally() for size in sizes}
    best = _best_over_subsets(inst, prices, sizes, mode, tallies)
    sol = _replay_best(inst, prices, best)
    if not stats:
        return sol
    return sol, SearchStats(
        mode,
        tuple(SizeStats(size, **asdict(t)) for size, t in tallies.items()),
    )


def _replay_best(inst, prices, best) -> Solution | None:
    """The search's best menu as a replayed solution, or None if it loses money.

    The menu is replayed once; the replay's choice becomes the intended offer.
    """
    if best is None or best[0] < 0.0:
        return None
    profit, subset, idx = best
    offers = tuple(
        Offer(inst.alternatives[i], float(prices[i][j])) for i, j in zip(subset, idx)
    )
    kind = _SIZE_KIND[len(offers)]
    outcome = realized_outcome(Contract(offers, 0, kind), inst.cost_fn)
    if outcome.chosen is None or abs(outcome.profit - profit) > 1e-9:
        raise AssertionError(
            f"kernel/model disagreement on menu {offers}: kernel profit {profit}, "
            f"replay {outcome.profit}"
        )
    intended = next(i for i, o in enumerate(offers) if o is outcome.chosen)
    return Solution(
        Contract(offers, intended, kind), outcome.profit, outcome.welfare,
        outcome.chosen.alternative, kind, (),
    )


def oversize_menu_search(
    inst: ProblemInstance,
    grid: GridSpec,
    menu_size: int = 4,
) -> float:
    """Diagnostic: best profit over menus of exactly ``menu_size`` offers.

    Supports sizes beyond the three-offer cap on tiny grids, to check
    empirically that a fourth offer adds nothing.  Returns the best
    profit (0.0 when every such menu is rejected); menus themselves are
    not reported.  Raises ``GridTooLarge`` when a subset holds more than
    ``OVERSIZE_WORK_LIMIT`` price tuples.
    """
    from . import _kernels
    if menu_size < 2 or menu_size > len(inst.alternatives):
        raise ValueError(f"menu_size {menu_size} not supported for this instance")
    prices = _price_arrays(inst, grid, PRICE_TOL)
    for subset in combinations(range(len(inst.alternatives)), menu_size):
        work = math.prod(len(prices[i]) for i in subset)
        if work > OVERSIZE_WORK_LIMIT:
            raise GridTooLarge(
                f"{work} price tuples for subset {subset}; shrink the grid"
            )
    sizes = range(menu_size, menu_size + 1)
    tallies = {menu_size: _kernels.Tally()}
    best = _best_over_subsets(inst, prices, sizes, "exhaustive", tallies)
    return 0.0 if best is None else max(best[0], 0.0)


# -- solution replay ---------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float | None = None
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of replaying a solution through the consumer model."""

    passed: bool
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            value = "" if c.value is None else f" ({c.value:.3g})"
            note = f" - {c.note}" if c.note else ""
            lines.append(f"  [{status}] {c.name}{value}{note}")
        verdict = "pass" if self.passed else "FAIL"
        return f"verification: {verdict}\n" + "\n".join(lines)


def verify_solution(
    sol: Solution,
    inst: ProblemInstance,
    *,
    choice_slack: float = 1e-8,
    epsilon_discount: float = 0.0,
    tie_tol: float = CHOICE_TIE_TOL,
) -> VerificationReport:
    """Replay a solution's menu and check every claim it makes.

    The menu is replayed once: its perceived and overall utilities are
    computed one time and every check reads them.  ``choice_slack`` is how
    far the intended offer may trail the consumption-time best, and
    ``tie_tol`` the tie window of the ``intended_chosen`` pick (the model's
    ``CHOICE_TIE_TOL`` by default).  ``epsilon_discount`` shaves the
    intended offer's price before the replay; with a strictly positive
    discount the intended offer must be chosen outright, without leaning on
    the seller-favorable tie-break.  The other bounds (participation,
    profit, welfare, residuals) are fixed in the body, not per call.
    """
    eps = epsilon_discount
    offers = list(sol.contract.offers)
    intended = sol.contract.intended
    if eps:
        o = offers[intended]
        offers[intended] = Offer(o.alternative, o.price - eps)
    contract = Contract(tuple(offers), intended, sol.contract.kind)

    perceived = perceived_utilities(contract)
    overall = overall_utilities(contract, inst.cost_fn)
    chosen = contract.offers[_pick(contract, overall, tie_tol)]
    checks = []

    checks.append(
        CheckResult("accepted", accepts(contract), max(perceived))
    )
    checks.append(
        CheckResult(
            "participation_binds",
            max(perceived) >= -1e-8,
            max(perceived),
            "perceived value of the best offer at signing",
        )
    )
    gap = overall[intended] - max(overall)
    checks.append(
        CheckResult(
            "intended_not_dominated",
            gap >= -choice_slack,
            gap,
            "intended offer's utility gap to the consumption-time best",
        )
    )
    checks.append(
        CheckResult(
            "intended_chosen",
            chosen.alternative.id == sol.sold.id,
            None,
            f"consumer picks {chosen.alternative.id}",
        )
    )
    margin = contract.offers[intended].margin
    checks.append(
        CheckResult(
            "profit_consistent",
            abs(margin - (sol.profit - eps)) <= 1e-9,
            margin,
        )
    )
    welfare_tol = 1e-9 + 10.0 * eps
    checks.append(
        CheckResult(
            "welfare_consistent",
            abs(overall[intended] - sol.welfare) <= welfare_tol,
            overall[intended],
        )
    )
    worst = max(sol.residuals) if sol.residuals else 0.0
    checks.append(
        CheckResult("residuals_small", worst <= PRICE_TOL, worst)
    )
    return VerificationReport(all(c.passed for c in checks), tuple(checks))
