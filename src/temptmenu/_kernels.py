"""Grid-search kernels, vectorized with numpy.

Two search strategies, both returning the exact optimum over the price
grid with the same deterministic tie order (max profit, then
lexicographically smallest price-index tuple):

* ``exhaustive`` walks every price tuple and replays the choice rule; it
  is the literal reference oracle the other search is checked against;
* ``bracketed`` designates each offer in turn as the consumed one, walks
  the other offers' price tuples (rows), and finds per row the largest
  designated price that keeps the offer inside the consumer's tie
  window.  Raising an offer's own price only ever hurts it, so the
  window test is monotone and feasibility is a prefix of the sorted
  price array.  The search solves each row's continuous threshold price
  from ``psi(x) = x + phi(x)``, inverted on one table for both cost
  families, snaps it to the grid, and confirms it with two window
  checks: the window holds at the snapped index and fails one index
  higher.  Rows that fail the confirmation, including non-finite
  estimates, are bisected on the window test instead.  The estimate only
  guides; the window test decides every index, so the result is exact
  and identical to bisecting every row.

The cost is the instance's cost object; the kernels only call its
elementwise ``phi_array``.  Both searches apply the model's choice rule:
a menu is signed when ``max(u - p) >= 0`` (``model.accepts``), and an
offer is chosen within ``model.CHOICE_TIE_TOL`` of the best overall
utility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .model import CHOICE_TIE_TOL


def exhaustive(u, v, c, prices, cost):
    """Literal enumeration, vectorized over all but the first price axis."""
    m = len(prices)
    inner = [p.reshape((1,) * i + (-1,) + (1,) * (m - 2 - i)) for i, p in enumerate(prices[1:])]
    best = -np.inf
    best_tuple = None
    inner_shape = tuple(p.shape[0] for p in prices[1:])
    for i0, p0 in enumerate(prices[0]):
        ps = [p0] + inner
        us = [u[t] - ps[t] for t in range(m)]
        vs = [v[t] - ps[t] for t in range(m)]
        big = reduce(np.maximum, vs)
        os_ = [us[t] - cost.phi_array(big - vs[t]) for t in range(m)]
        top = reduce(np.maximum, os_)
        cutoff = top - CHOICE_TIE_TOL
        credit = np.broadcast_to(np.float64(-np.inf), inner_shape)
        for t in range(m):
            margin = ps[t] - c[t]
            credit = np.where(os_[t] >= cutoff, np.maximum(credit, margin), credit)
        accept = reduce(np.maximum, us) >= 0.0
        profit = np.where(accept, credit, -np.inf)
        local = float(profit.max()) if profit.size else -np.inf
        if local > best:
            best = local
            flat = int(np.argmax(profit))
            best_tuple = (i0, *np.unravel_index(flat, inner_shape)) if m > 1 else (i0,)
    if best_tuple is None or not math.isfinite(best):
        return None
    return best, tuple(int(q) for q in best_tuple)


PSI_NODES = 4097
"""Nodes of the ``psi(x) = x + phi(x)`` table the threshold estimate inverts."""

ROW_BLOCK = 1 << 14
"""Rows ``bracketed`` processes at once; bounds its per-row temporaries."""


@dataclass
class Tally:
    """Work counters a search adds to: rows walked, window checks, bisected rows."""

    tuples: int = 0
    window_checks: int = 0
    fallback_rows: int = 0


def psi_table(prices, v, cost):
    """``(x, psi(x))`` on ``[0, T]``, T the largest temptation gap the grids allow."""
    span = (max(v) - min(v)) + (max(p[-1] for p in prices) - min(p[0] for p in prices))
    xs = np.linspace(0.0, span if span > 0.0 else 1.0, PSI_NODES)
    with np.errstate(over="ignore"):
        return xs, xs + cost.phi_array(xs)


def psi_inverse(y, xs, psis):
    """Estimate of ``psi^-1(y)``, clamped to the table's range."""
    return np.interp(y, psis, xs)


def _window(ud, vd, Pd, uo, vo, cost):
    """Tie-window test of the designated offer at price index ``idx``, per row."""
    nd = len(Pd)

    def window(idx):
        pd = Pd[np.clip(idx, 0, nd - 1)]
        vs = vd - pd
        big = reduce(np.maximum, vo, vs)
        own = (ud - pd) - cost.phi_array(big - vs)
        top = reduce(np.maximum, [a - cost.phi_array(big - b) for a, b in zip(uo, vo)])
        return own >= np.maximum(own, top) - CHOICE_TIE_TOL

    return window


def _threshold(ud, vd, uo, vo, cost, table):
    """Continuous price at which the designated offer leaves the tie window.

    Past ``s = vd - max(vo)`` another offer is the most tempting and the
    others' best overall utility is a per-row constant; below ``s`` the
    designated offer is the most tempting and each other offer bounds its
    price on its own.  Both bounds invert the same ``psi``.
    """
    vmax = reduce(np.maximum, vo)
    s = vd - vmax
    top = reduce(np.maximum, [a - cost.phi_array(vmax - b) for a, b in zip(uo, vo)])
    above = s + psi_inverse(ud - s - top + CHOICE_TIE_TOL, *table)
    below = reduce(
        np.minimum,
        [vd - b - psi_inverse(a - ud + vd - b - CHOICE_TIE_TOL, *table) for a, b in zip(uo, vo)],
    )
    return np.where(below < s, below, above)


def _bisect(window, hi, tally):
    """Largest index in ``[-1, hi]`` whose window holds, by bisection per row."""
    lo = np.full(hi.shape, -1, dtype=np.int64)
    hi2 = (hi + 1).astype(np.int64)
    while True:
        open_ = (hi2 - lo) > 1
        if not open_.any():
            return lo
        mid = (lo + hi2) >> 1
        good = window(mid) & open_
        tally.window_checks += hi.size
        lo = np.where(good, mid, lo)
        hi2 = np.where(open_ & ~good, mid, hi2)


def bracketed(u, v, c, prices, caps, cost, tally):
    """Designated-offer search, vectorized over the other offers' price grids,
    in blocks of ``ROW_BLOCK`` rows."""
    m = len(prices)
    table = psi_table(prices, v, cost)
    best = -np.inf
    best_tuple = None
    for d in range(m):
        others = [t for t in range(m) if t != d]
        Pd = prices[d]
        nd = len(Pd)
        sizes = tuple(len(prices[t]) for t in others)
        total = int(np.prod(sizes))
        for start in range(0, total, ROW_BLOCK):
            flat = np.arange(start, min(start + ROW_BLOCK, total))
            oidx = np.unravel_index(flat, sizes)
            po = [prices[t][i] for t, i in zip(others, oidx)]
            uo = [u[t] - p for t, p in zip(others, po)]
            vo = [v[t] - p for t, p in zip(others, po)]
            bait_ok = reduce(np.logical_or, [x >= 0.0 for x in uo])
            hi = np.where(bait_ok, nd - 1, caps[d])
            alive = hi >= 0

            window = _window(u[d], v[d], Pd, uo, vo, cost)
            est = _threshold(u[d], v[d], uo, vo, cost, table)
            lo = np.minimum(np.searchsorted(Pd, est, side="right") - 1, hi)
            hit = (
                alive
                & np.isfinite(est)
                & ((lo < 0) | window(lo))
                & ((lo >= hi) | ~window(lo + 1))
            )
            tally.tuples += flat.size
            tally.window_checks += 2 * flat.size
            miss = np.flatnonzero(alive & ~hit)
            if miss.size:
                tally.fallback_rows += miss.size
                sub = _window(
                    u[d], v[d], Pd, [x[miss] for x in uo], [x[miss] for x in vo], cost
                )
                lo[miss] = _bisect(sub, hi[miss], tally)
            valid = alive & (lo >= 0)
            if not valid.any():
                continue
            profit = np.where(valid, Pd[np.clip(lo, 0, nd - 1)] - c[d], -np.inf)
            local = float(profit.max())
            if local < best:
                continue
            cand = np.flatnonzero(profit == local)
            tup = np.empty((m, cand.size), dtype=np.int64)
            # adjacent prices can round to the same margin: the tie order
            # wants the lowest such index, which the window also holds at
            tup[d] = np.searchsorted(Pd - c[d], local, side="left")
            for t, i in zip(others, oidx):
                tup[t] = i[cand]
            order = np.lexsort(tup[::-1])
            pick = tuple(int(tup[t, order[0]]) for t in range(m))
            if local > best or (best_tuple is not None and pick < best_tuple):
                best = local
                best_tuple = pick
    if best_tuple is None or not math.isfinite(best):
        return None
    return best, best_tuple


# -- dispatch ----------------------------------------------------------------


def _cap(P: np.ndarray, value: float) -> int:
    """Largest index with ``P[i] <= value``, or -1."""
    return int(np.searchsorted(P, value, side="right")) - 1


def search_subset(u, v, c, prices, cost, mode, tally=None):
    """Best accepted menu over one subset's price grids.

    ``u, v, c`` are per-offer parameter tuples, ``prices`` sorted unique
    float64 arrays per offer, ``mode`` is ``"exhaustive"`` or
    ``"bracketed"``.  Returns ``(profit, index_tuple)`` or None when every
    menu is rejected.  Both modes return the identical result: max profit,
    lexicographically smallest index tuple.  ``tally``, when given, counts
    the work: a single offer is one row looked up without a window check,
    ``exhaustive`` checks every price tuple once.
    """
    if tally is None:
        tally = Tally()
    if len(prices) == 1:
        tally.tuples += 1
        cap = _cap(prices[0], u[0])
        if cap < 0:
            return None
        return float(prices[0][cap] - c[0]), (cap,)
    u_arr = np.asarray(u, dtype=np.float64)
    v_arr = np.asarray(v, dtype=np.float64)
    c_arr = np.asarray(c, dtype=np.float64)
    if mode == "exhaustive":
        work = math.prod(len(p) for p in prices)
        tally.tuples += work
        tally.window_checks += work
        return exhaustive(u_arr, v_arr, c_arr, prices, cost)
    caps = [_cap(p, u[i]) for i, p in enumerate(prices)]
    return bracketed(u_arr, v_arr, c_arr, prices, caps, cost, tally)
