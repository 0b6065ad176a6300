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

Menus of at most three offers lose nothing, on any grid, so
``GridSpec.max_menu_size`` stops at 3.  Take a menu of any size and keep
only the offer chosen, the one with the largest ``v - p`` and the one
with the largest ``u - p``.  The signing test reads the largest
``u - p``, which is kept, and each kept offer's overall utility reads the
largest ``v - p``, which is kept, so it is the same double.  The best
overall utility can only fall, and with it the cutoff
``best - CHOICE_TIE_TOL``, as rounding is monotone: the chosen offer stays
in the tie window, and the seller's pick earns at least its margin.

numpy and ``_kernels`` are imported inside the functions that search, so
``GridSpec``, ``verify_solution`` and the rest of this module load
without them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import TYPE_CHECKING

from .model import (
    Contract,
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


def _analytic_candidates(inst: ProblemInstance) -> list[list[float]]:
    """Per-alternative analytic candidate prices, in instance order."""
    table = _PriceTable(inst)
    out: list[list[float]] = []
    for x in inst.alternatives:
        cand = [x.u]
        if x.id != table.bait.id:
            cand.append(table.indulging(x)[0])  # the decoy's own price, for the decoy
            if x.id != table.decoy.id:
                cand.append(table.compromise(x)[0])
        out.append(cand)
    return out


def _price_arrays(inst: ProblemInstance, grid: GridSpec) -> list[np.ndarray]:
    import numpy as np
    base = grid.base_points()
    extras = (
        _analytic_candidates(inst)
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
    lookup).  ``pruned`` counts the bracketed rows dropped before any window
    check because their profit bound is below the best profit found so far,
    in this subset or an earlier one.  ``window_checks`` counts per-row
    tie-window evaluations: one per row that is not pruned, at the lowest
    index whose profit reaches that best.  Then, per block of rows, the
    search for the block's best price tests each row still in it at each
    index it probes, and, where adjacent prices round to the best price's
    margin, each row that reached that best once more at the lowest such
    index.
    """

    size: int
    tuples: int
    window_checks: int
    pruned: int


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
    """Scan subsets in deterministic order; returns (profit, subset, idx_tuple).

    A subset only wins on a strictly higher profit, so each search is given
    the best profit so far as the floor below which it may prune.
    """
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
                tally=tallies[size], floor=-math.inf if best is None else best[0],
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
    prices = _price_arrays(inst, grid)
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

    The menu is replayed once; the replay's choice becomes the intended offer,
    which the solution reports as ``sold``.
    """
    if best is None or best[0] < 0.0:
        return None
    profit, subset, idx = best
    offers = tuple(
        Offer(inst.alternatives[i], float(prices[i][j])) for i, j in zip(subset, idx)
    )
    outcome = realized_outcome(Contract(offers, 0), inst.cost_fn)
    if outcome.chosen is None or abs(outcome.profit - profit) > 1e-9:
        raise AssertionError(
            f"kernel/model disagreement on menu {offers}: kernel profit {profit}, "
            f"replay {outcome.profit}"
        )
    intended = next(i for i, o in enumerate(offers) if o is outcome.chosen)
    return Solution(Contract(offers, intended), outcome.profit, outcome.welfare, ())


# -- solution replay ---------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float | None = None
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of replaying a solution; it ``passed`` when every check passed."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

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


def verify_solution(sol: Solution, inst: ProblemInstance) -> VerificationReport:
    """Replay a solution's menu and check every claim it makes.

    The menu is replayed as given, once: its perceived and overall
    utilities are computed one time and every check reads them.  The
    ``intended_chosen`` pick reads the model's one tie window,
    ``CHOICE_TIE_TOL``.  The bounds are fixed: participation and how far
    the intended offer may trail the consumption-time best, 1e-8; profit
    and welfare, 1e-9; residuals, ``PRICE_TOL``.
    """
    contract = sol.contract
    intended = contract.intended
    perceived = perceived_utilities(contract)
    overall = overall_utilities(contract, inst.cost_fn)
    chosen = contract.offers[_pick(contract, overall)]
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
            gap >= -1e-8,
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
            abs(margin - sol.profit) <= 1e-9,
            margin,
        )
    )
    checks.append(
        CheckResult(
            "welfare_consistent",
            abs(overall[intended] - sol.welfare) <= 1e-9,
            overall[intended],
        )
    )
    worst = max(sol.residuals) if sol.residuals else 0.0
    checks.append(
        CheckResult("residuals_small", worst <= PRICE_TOL, worst)
    )
    return VerificationReport(tuple(checks))
