"""Shared instance builders for the test suite."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from temptmenu import (
    Alternative,
    AssumptionViolated,
    PiecewiseLinearCost,
    PowerCost,
    ProblemInstance,
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


def with_power_cost(inst: ProblemInstance, alpha: float = 1.0, gamma: float = 2.0):
    return ProblemInstance(inst.alternatives, PowerCost(alpha=alpha, gamma=gamma))


class BisectedPiecewiseCost(PiecewiseLinearCost):
    """The piecewise-linear cost with its closed forms hidden from the solver.

    Every price of an instance holding it comes from the production
    psi-bisection on the piecewise ``phi``: the reference the closed forms
    are checked against.
    """

    has_closed_forms = False


def bisecting(inst: ProblemInstance) -> ProblemInstance:
    """``inst`` priced by the psi-bisection alone.

    A piecewise cost becomes a ``BisectedPiecewiseCost``; a family without
    closed forms bisects already, so its instance is returned as it is.
    """
    if not inst.cost_fn.has_closed_forms:
        return inst
    return ProblemInstance(inst.alternatives, BisectedPiecewiseCost(**asdict(inst.cost_fn)))
