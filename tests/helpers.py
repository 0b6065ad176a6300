"""Shared instance builders for the test suite."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import ClassVar

import numpy as np

from temptmenu import (
    Alternative,
    AssumptionViolated,
    GridSpec,
    GridTooLarge,
    PiecewiseLinearCost,
    PowerCost,
    ProblemInstance,
    _kernels,
    oracle,
)


def running_instance(w: float = 1.0) -> ProblemInstance:
    """The worked three-product example used throughout the suite."""
    return ProblemInstance(
        (
            Alternative("A", 10.0, 10.0, 5.0),
            Alternative("B", 8.0, 14.0, 5.0),
            Alternative("C", 2.0, 16.0, 5.0),
        ),
        PiecewiseLinearCost(l=0.5, k=2.0, w=w),
    )


def perturbed_instance(w: float = 1.0) -> ProblemInstance:
    """Running instance with u(B) nudged so the shallow-regime product is unique."""
    return ProblemInstance(
        (
            Alternative("A", 10.0, 10.0, 5.0),
            Alternative("B", 8.01, 14.0, 5.0),
            Alternative("C", 2.0, 16.0, 5.0),
        ),
        PiecewiseLinearCost(l=0.5, k=2.0, w=w),
    )


def four_product_instance(w: float = 1.0) -> ProblemInstance:
    """Instance whose steep- and shallow-regime products differ (M2 vs M1).

    Thresholds at l=0.5, k=2 sit at 16/3, 8 and 28/3, so all four
    willpower ranges are non-empty.
    """
    return ProblemInstance(
        (
            Alternative("Y", 10.0, 10.0, 5.0),
            Alternative("M1", 9.0, 11.0, 3.8),
            Alternative("M2", 8.0, 14.0, 5.0),
            Alternative("Z", 2.0, 16.0, 5.0),
        ),
        PiecewiseLinearCost(l=0.5, k=2.0, w=w),
    )


def near_tie_instance() -> ProblemInstance:
    """Instance whose optimal bait and sold offer tie within the choice window.

    B sells at 8.000000000033333, a hair above its u, so its perceived value
    is -1.3e-10 while the bait A's is 0: the consumer signs on A's value and
    the seller-favorable tie-break still picks B at signing.
    """
    return ProblemInstance(
        (
            Alternative("A", 10.0, 10.0, 5.0),
            Alternative("B", 7.9999999999, 8.0000000001, 0.0),
            Alternative("C", 2.0, 16.0, 5.0),
        ),
        PiecewiseLinearCost(l=0.5, k=2.0, w=1.0),
    )


def _runner_up_gap(values: np.ndarray) -> float:
    top = np.sort(values)
    return float(top[-1] - top[-2])


def random_pw_instance(
    rng: np.random.Generator,
    n: int | None = None,
    *,
    w: float | None = None,
    min_e_gap: float = 0.1,
    argmax_margin: float = 1e-6,
) -> ProblemInstance:
    """Random valid piecewise-linear instance.

    Draws u, v, c from [0, 20], l from (0, 1), k from (1, 5) and w from
    [0, 15].  Rejects draws whose excess temptations come closer than
    ``min_e_gap`` (strict-dominance gaps vanish as excess temptations
    collide) or whose relevant argmaxes are decided by less than
    ``argmax_margin`` (so classification predictions are well-posed).
    """
    while True:
        size = int(n) if n is not None else int(rng.integers(3, 9))
        u = rng.uniform(0.0, 20.0, size)
        v = rng.uniform(0.0, 20.0, size)
        c = rng.uniform(0.0, 20.0, size)
        e = v - u
        if np.min(np.diff(np.sort(e))) < min_e_gap:
            continue
        l = float(rng.uniform(0.05, 0.95))
        k = float(rng.uniform(1.05, 4.95))
        wi = float(w) if w is not None else float(rng.uniform(0.0, 15.0))
        fk = (u + k * v) / (1.0 + k) - c
        fl = (u + l * v) / (1.0 + l) - c
        margins = [_runner_up_gap(x) for x in (u - c, v - c, fk, fl)]
        if min(margins) < argmax_margin:
            continue
        try:
            return ProblemInstance(
                tuple(
                    Alternative(f"a{i}", float(u[i]), float(v[i]), float(c[i]))
                    for i in range(size)
                ),
                PiecewiseLinearCost(l=l, k=k, w=wi),
            )
        except (AssumptionViolated, ValueError):
            continue


OVERSIZE_WORK_LIMIT = 20_000_000
"""Guard of ``oversize_menu_search``: price tuples in any one subset."""


def oversize_menu_search(inst: ProblemInstance, grid: GridSpec, menu_size: int = 4) -> float:
    """Best profit over menus of exactly ``menu_size`` offers, past the
    library's three-offer cap, on tiny grids: a fourth offer must add nothing.

    Runs the ``exhaustive`` search, the only one that takes more than three
    offers.  Returns the best profit (0.0 when every such menu is rejected);
    menus themselves are not reported.  Raises ``GridTooLarge`` when a
    subset holds more than ``OVERSIZE_WORK_LIMIT`` price tuples.
    """
    if menu_size < 2 or menu_size > len(inst.alternatives):
        raise ValueError(f"menu_size {menu_size} not supported for this instance")
    prices = oracle._price_arrays(inst, grid)
    for subset in combinations(range(len(inst.alternatives)), menu_size):
        work = math.prod(len(prices[i]) for i in subset)
        if work > OVERSIZE_WORK_LIMIT:
            raise GridTooLarge(f"{work} price tuples for subset {subset}; shrink the grid")
    best = oracle._best_over_subsets(
        inst, prices, range(menu_size, menu_size + 1), "exhaustive", {menu_size: _kernels.Tally()}
    )
    return 0.0 if best is None else max(best[0], 0.0)


def with_power_cost(inst: ProblemInstance, alpha: float = 1.0, gamma: float = 2.0):
    return ProblemInstance(inst.alternatives, PowerCost(alpha=alpha, gamma=gamma))


@dataclass(frozen=True)
class QuadraticCost:
    """Self-control cost ``a t + b t**2``, convex for ``a, b >= 0``.

    A third family, outside the library: it meets the ``CostFunction``
    protocol (``model.py``) and nothing more, so a solve on it shows that
    the solver rests on convexity, not on the two shipped families.
    """

    kind: ClassVar[str] = "quadratic"
    has_closed_forms: ClassVar[bool] = False

    a: float
    b: float

    def __post_init__(self):
        if not (self.a >= 0.0 and self.b >= 0.0 and self.a + self.b > 0.0):
            raise ValueError(f"need a, b >= 0 and a + b > 0, got a={self.a}, b={self.b}")

    def phi(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return self.a * t + self.b * t * t  # a float product overflows to inf

    def phi_inverse(self, y: float) -> float:
        """The positive root of ``b t**2 + a t = y``, in the form that does
        not cancel."""
        if y <= 0.0:
            return 0.0
        disc = self.a * self.a + 4.0 * self.b * y
        if disc == math.inf:  # 4 b y overflows; the linear term is lost there
            return math.sqrt(y / self.b)
        return y / (0.5 * (self.a + math.sqrt(disc)))

    def phi_array(self, t):
        t = np.maximum(t, 0.0)
        return self.a * t + self.b * t * t

    def decoy_is_idle(self, gap: float) -> bool:
        """Only the linear member (``b == 0``) leaves the decoy idle."""
        return self.b == 0.0


class BisectedPiecewiseCost(PiecewiseLinearCost):
    """The piecewise-linear cost with its closed forms hidden from the solver.

    Every price of an instance holding it comes from the production
    ``psi_root`` search on the piecewise ``phi``: the reference the closed
    forms are checked against.
    """

    has_closed_forms = False


def bisecting(inst: ProblemInstance) -> ProblemInstance:
    """``inst`` priced by the ``psi_root`` search alone.

    A piecewise cost becomes a ``BisectedPiecewiseCost``; a family without
    closed forms is searched already, so its instance is returned as it is.
    """
    if not inst.cost_fn.has_closed_forms:
        return inst
    return ProblemInstance(inst.alternatives, BisectedPiecewiseCost(**asdict(inst.cost_fn)))


def bisect_monotone(residual, lo: float, hi: float) -> tuple[float, int]:
    """Reference root finder: halve ``[lo, hi]`` until the ends are adjacent
    doubles, return the end with the smaller ``|residual|`` and the number
    of residual evaluations.

    The library's root finder before its secant search, kept literally:
    on a residual monotone in its computed doubles, ``solve_monotone_price``
    must return the same double.  Returns ``(None, evaluations)`` when the
    bracket has no sign change.
    """
    evals = 2
    r_lo, r_hi = residual(lo), residual(hi)
    if not r_lo <= 0.0 <= r_hi:
        return None, evals
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return (lo if -r_lo <= r_hi else hi), evals
        r_mid = residual(mid)
        evals += 1
        if r_mid < 0.0:
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid


def bisected_psi_root(cost, y: float) -> tuple[float, int]:
    """``psi^-1(y)`` by ``bisect_monotone`` on ``[0, y]`` and its evaluations:
    the reference ``psi_root`` is checked against."""
    if y <= 0.0:
        return 0.0, 0
    return bisect_monotone(lambda t: t + cost.phi(t) - y, 0.0, y)
