"""Grid-search kernels, vectorized with numpy.

Two search strategies, both returning the exact optimum over the price
grid with the same deterministic tie order (max profit, then
lexicographically smallest price-index tuple):

* ``exhaustive`` walks every price tuple and replays the choice rule; it
  is the literal reference oracle the other search is checked against;
* ``bracketed`` designates each offer in turn as the consumed one, walks
  the other offers' prices, and binary-searches the largest designated
  price that keeps the offer inside the consumer's tie window.  Raising
  an offer's own price only ever hurts it, so feasibility is a prefix of
  the sorted price array and the search is exact.

Cost functions are passed as ``(code, ca, cb, cw)``: code 0 is the
piecewise-linear family (slope ``ca`` below the kink ``cw``, ``cb``
above), code 1 the power family ``ca * t**cb``.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np


def phi(t, code, ca, cb, cw):
    t = np.maximum(t, 0.0)
    if code == 0:
        return np.where(t <= cw, ca * t, cb * (t - cw) + ca * cw)
    return ca * np.power(t, cb)


def exhaustive(u, v, c, prices, cost, tie):
    """Literal enumeration, vectorized over all but the first price axis."""
    code, ca, cb, cw = cost
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
        os_ = [us[t] - phi(big - vs[t], code, ca, cb, cw) for t in range(m)]
        top = reduce(np.maximum, os_)
        cutoff = top - tie
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


def bracketed(u, v, c, prices, caps, cost, tie, block=1 << 20):
    """Designated-offer search, vectorized over the other offers' price grids."""
    code, ca, cb, cw = cost
    m = len(prices)
    best = -np.inf
    best_tuple = None
    for d in range(m):
        others = [t for t in range(m) if t != d]
        Pd = prices[d]
        nd = len(Pd)
        sizes = tuple(len(prices[t]) for t in others)
        total = int(np.prod(sizes))
        for start in range(0, total, block):
            flat = np.arange(start, min(start + block, total))
            oidx = np.unravel_index(flat, sizes)
            po = [prices[others[t]][oidx[t]] for t in range(m - 1)]
            uo = [u[others[t]] - po[t] for t in range(m - 1)]
            bait_ok = reduce(np.logical_or, [x >= 0.0 for x in uo])
            hi = np.where(bait_ok, nd - 1, caps[d])
            alive = hi >= 0

            def window(idx):
                pd = Pd[np.clip(idx, 0, nd - 1)]
                vs = [v[d] - pd] + [v[others[t]] - po[t] for t in range(m - 1)]
                big = reduce(np.maximum, vs)
                os_ = [
                    (u[d] - pd) - phi(big - vs[0], code, ca, cb, cw)
                ] + [
                    uo[t] - phi(big - vs[1 + t], code, ca, cb, cw)
                    for t in range(m - 1)
                ]
                return os_[0] >= reduce(np.maximum, os_) - tie

            lo = np.full(flat.shape, -1, dtype=np.int64)
            hi2 = np.where(alive, hi + 1, 0).astype(np.int64)
            while True:
                open_ = (hi2 - lo) > 1
                if not open_.any():
                    break
                mid = (lo + hi2) >> 1
                good = window(mid) & open_
                lo = np.where(good, mid, lo)
                hi2 = np.where(open_ & ~good, mid, hi2)
            valid = alive & (lo >= 0)
            if not valid.any():
                continue
            profit = np.where(valid, Pd[np.clip(lo, 0, nd - 1)] - c[d], -np.inf)
            local = float(profit.max())
            if local < best:
                continue
            cand = np.flatnonzero(profit == local)
            tup = np.empty((m, cand.size), dtype=np.int64)
            tup[d] = lo[cand]
            for t in range(m - 1):
                tup[others[t]] = oidx[t][cand]
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


def search_subset(u, v, c, prices, cost, tie, mode):
    """Best accepted menu over one subset's price grids.

    ``u, v, c`` are per-offer parameter tuples, ``prices`` sorted unique
    float64 arrays per offer, ``mode`` is ``"exhaustive"`` or
    ``"bracketed"``.  Returns ``(profit, index_tuple)`` or None when every
    menu is rejected.  Both modes return the identical result: max profit,
    lexicographically smallest index tuple.
    """
    if len(prices) == 1:
        cap = _cap(prices[0], u[0])
        if cap < 0:
            return None
        return float(prices[0][cap] - c[0]), (cap,)
    u_arr = np.asarray(u, dtype=np.float64)
    v_arr = np.asarray(v, dtype=np.float64)
    c_arr = np.asarray(c, dtype=np.float64)
    if mode == "exhaustive":
        return exhaustive(u_arr, v_arr, c_arr, prices, cost, tie)
    caps = [_cap(p, u[i]) for i, p in enumerate(prices)]
    return bracketed(u_arr, v_arr, c_arr, prices, caps, cost, tie)
