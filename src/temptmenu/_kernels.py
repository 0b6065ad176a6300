"""Grid-search kernels, vectorized with numpy.

Two search strategies, both returning the exact optimum over the price
grid with the same deterministic tie order (max profit, then
lexicographically smallest price-index tuple):

* ``exhaustive`` walks every price tuple and replays the choice rule; it
  is the literal reference oracle the other search is checked against;
* ``bracketed`` designates each offer in turn as the consumed one, walks
  the other offers' price tuples (rows), and finds the largest designated
  price at which some row keeps the offer inside the consumer's tie
  window.  Raising an offer's own price only ever hurts it, so the window
  test is monotone and each row's feasible indices are a prefix of the
  sorted price array.

  A row is dropped when it cannot reach ``F = max(best so far, floor)``,
  ``floor`` being the best profit of the subsets searched before.  Let
  ``i_F`` be the lowest index whose profit reaches ``F`` and
  ``p = Pd[i_F]``.  Each block of rows is tested in five steps, the
  cheapest first, the first three without a window check:

  1. If ``i_F == nd``, no designated price reaches ``F``.  As ``F`` only
     rises, the block and every later block of the designated offer are
     counted as walked and pruned without being built.
  2. A row's highest allowed index ``hi`` must reach ``i_F``.  ``hi`` is
     ``nd - 1`` where some other offer is affordable, so the menu is
     signed at any designated price, and ``caps[d]`` elsewhere.  So all
     rows pass if ``caps[d] >= i_F``, and otherwise only those with an
     affordable other offer.  ``u_t - P_t[i] >= 0`` holds exactly when
     ``i <= caps[t]``, because a rounded difference keeps the sign of the
     exact one.
  3. At ``p``, the designated offer must be the most tempting,
     ``vd - p > vmax``, or reach ``ud - p >= top - CHOICE_TIE_TOL``.  Here
     ``vmax`` is the others' largest temptation value and ``top`` their
     best overall utility when one of them is the most tempting.  As
     ``phi >= 0``, the window at any index implies one of the two there,
     and both sides are monotone in the index under IEEE subtraction, so
     the test is exact.  ``top = max(ustar, usub - phi(gap))``: ``ustar``
     is the most tempting other offer's utility (``phi(0) = 0``); with two
     others, ``usub`` is the other one's and ``gap`` the temptation it
     resists.  Rounding is monotone, so the test splits into
     ``ud - p >= ustar - CHOICE_TIE_TOL`` and
     ``ud - p >= (usub - phi(gap)) - CHOICE_TIE_TOL``.  A row passes
     without ``phi`` where the designated offer is the most tempting or
     reaches both others' ``u_t - CHOICE_TIE_TOL``; it is open where it
     reaches the most tempting one's but not the other's, and ``phi``
     decides it; it is dropped elsewhere.
  4. The rows steps 2 and 3 keep get one window check, at ``i_F``.  The
     window holds on a prefix of the indices, so it fails at ``i_F``
     exactly when the highest index whose window holds is below ``i_F``
     (step 2 puts ``hi`` at or above ``i_F``).  The row's profit is then
     below ``F``: it can neither win nor tie, and it is dropped.  Most
     rows steps 2 and 3 keep fail here: on the worked instance, bare grid
     over ``[0, 20]`` at step 0.01, 11.5k of the 858k three-offer rows
     they keep reach ``F``.
  5. Every row left sells at the highest index at most its ``hi`` whose
     window holds, at or above ``i_F``.  The indices where a row's window
     holds and that are at most its ``hi`` are a prefix, as both
     conditions are, and a union of prefixes is a prefix.  So the block's
     best index ``I*``, the largest at which some row's window holds
     within its ``hi``, is found by one search over a scalar index: it
     gallops up from ``i_F`` (offsets 1, 2, 4, ...) until a probe fails,
     then bisects.  A probe tests each row still in the search once;
     where some row holds, the rows that fail are dropped, as they fail
     at every higher index too.  Margins do not fall with the index, so
     the block's best profit is ``margins[I*]``.  Adjacent prices can
     round to the same margin, and the tie order wants the lowest index
     with it, ``low``: the rows sold at that profit are those whose
     window holds at ``low`` within their ``hi``, one more check where
     ``low < I*``, and the lexicographically smallest of them is the
     block's pick.

  Steps 2 and 3 never look at a row one by one.  ``U_t = u_t - P_t`` and
  ``V_t = v_t - P_t`` fall with the index, also in IEEE arithmetic, and so
  does ``U_t - CHOICE_TIE_TOL``; their negations are exact, so ``-V_t``
  and ``-(U_t - CHOICE_TIE_TOL)``, computed once per search, are sorted.
  With the rows ordered by the index of the leading other offer ``a``,
  then by that of the last one ``b``, each test above flips at one last
  index per leading index, found by ``searchsorted`` exactly where the
  per-row comparison flips:

  * ``vd - p > v_b`` from the first ``-V_b > -(vd - p)``
    (``side="right"``: a row with ``v_b == vd - p`` is not past it);
  * ``ud - p >= u_b - CHOICE_TIE_TOL`` from the first
    ``-(U_b - CHOICE_TIE_TOL) >= -(ud - p)`` (``side="left"``: a row on the
    edge passes);
  * ``v_a >= v_b``, so the leading offer is the most tempting of the two
    (the tie rule of ``_top``), from the first ``-V_b >= -V_a``
    (``side="left"``);
  * the leading offer's own tests, ``vd - p > v_a`` and
    ``ud - p >= u_a - CHOICE_TIE_TOL``, hold or fail for the whole leading
    index;
  * step 2's caps: a leading index at most its cap keeps every last
    index, any other ends at the last offer's cap plus one;
  * the block: each leading index keeps only the last indices inside the
    block, so a block may end inside a leading index.

  So per leading index the rows kept without ``phi`` are one interval,
  ending at the block or cap end, and the open rows one interval before
  it.  Both are built for all of a block's leading indices at once with
  ``repeat`` and ``cumsum``, and ``tuples`` and ``pruned`` count from the
  interval lengths.  ``phi`` gives ``top`` on the open rows only, and
  keeps them where it decides so.  A two-offer subset has one interval
  per block and no open rows.  A pruned row is never built.  ``pruned``
  counts the rows steps 1-3 drop; a row step 4 drops counts one window
  check.

  The blocks and their order are fixed, and ``i_F`` is set per block, so
  ``best`` and every counter change as if each row were tested in full.
  Rows whose profit can equal ``F`` are kept, so the tie order is
  unchanged.

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


ROW_BLOCK = 1 << 14
"""Rows ``bracketed`` processes at once; bounds its per-row temporaries."""


@dataclass
class Tally:
    """Work counters a search adds to: rows walked, window checks, and rows
    pruned without a window check."""

    tuples: int = 0
    window_checks: int = 0
    pruned: int = 0


class _Rows:
    """A block's kept rows: per other offer its price index, utility and
    temptation value, and per row ``hi``, the highest index the designated
    offer may sell at (step 2)."""

    def __init__(self, idx, uo, vo, hi):
        self.idx, self.uo, self.vo, self.hi = idx, uo, vo, hi

    def __getitem__(self, mask):
        if mask.all():
            return self
        return _Rows(*([x[mask] for x in xs] for xs in (self.idx, self.uo, self.vo)), self.hi[mask])

    def holds(self, ud, vd, Pd, i, cost, tally):
        """Per row, whether the designated offer can sell at index ``i``:
        ``i`` is at most ``hi`` and the offer is inside the tie window at
        ``Pd[i]``.  One window check per row."""
        tally.window_checks += self.hi.size
        vs = vd - Pd[i]
        big = reduce(np.maximum, self.vo, vs)
        own = (ud - Pd[i]) - cost.phi_array(big - vs)
        top = reduce(np.maximum, [a - cost.phi_array(big - b) for a, b in zip(self.uo, self.vo)])
        return (i <= self.hi) & (own >= np.maximum(own, top) - CHOICE_TIE_TOL)


def _top(uo, vo, cost):
    """Per row, the two other offers' best overall utility when one of them
    is the most tempting (ties go to the first): that offer's utility, as it
    resists nothing and ``phi(0) = 0``, or the other's less ``phi`` of the
    temptation it resists."""
    (ua, ub), (va, vb) = uo, vo
    first = va >= vb
    resists = np.where(first, ub, ua) - cost.phi_array(np.abs(va - vb))
    return np.maximum(np.where(first, ua, ub), resists)


def _spans(lead, lo, hi):
    """Rows of the intervals ``[lo, hi)`` of the last index, one per
    leading index in ``lead``, as (leading, last) index arrays."""
    n = np.maximum(hi - lo, 0)
    ends = np.cumsum(n)
    last = np.arange(ends[-1]) + np.repeat(lo - ends + n, n)
    return np.repeat(lead, n), last


def _kept(start, stop, own, temptation, afford_only, others, caps, U, V, keys):
    """The rows in ``[start, stop)`` that the ``phi``-free bounds at
    ``own, temptation`` keep, and those they leave open (module docstring,
    steps 2 and 3), each as index arrays, one per other offer, built
    interval by interval.  With one other offer no row is open: None.

    ``keys[t]`` holds ``-V_t`` and ``-(U_t - CHOICE_TIE_TOL)``, both
    non-decreasing, so each end is one ``searchsorted``.  With
    ``afford_only``, only rows where some other offer is affordable count.
    """
    b = others[-1]
    nvb, nwb = keys[b]
    nb = len(nvb)
    # first last index where vd - p > v_b, and where ud - p >= u_b - tol
    tempt_b = int(np.searchsorted(nvb, -temptation, side="right"))
    reach_b = int(np.searchsorted(nwb, -own, side="left"))
    if len(others) == 1:
        lo = max(min(tempt_b, reach_b), start)
        hi = min(stop, caps[b] + 1) if afford_only else stop
        return (np.arange(lo, max(lo, hi)),), None
    a = others[0]
    i0, i1 = start // nb, (stop - 1) // nb + 1
    lead = np.arange(i0, i1)
    base = lead * nb
    blo = np.maximum(start - base, 0)
    bhi = np.minimum(stop - base, nb)
    if afford_only:
        bhi = np.where(lead <= caps[a], bhi, np.minimum(bhi, caps[b] + 1))
    nva, nwa = keys[a][0][i0:i1], keys[a][1][i0:i1]
    beats_a = -temptation < nva  # vd - p > v_a
    reaches_a = -own <= nwa  # ud - p >= u_a - tol
    # first last index where v_a >= v_b, a the most tempting (ties go to a),
    # and where d is the most tempting
    a_first = np.searchsorted(nvb, nva, side="left")
    tempt = np.where(beats_a, tempt_b, nb)
    # kept without phi: d the most tempting, or reaching both windows
    klo = np.maximum(np.minimum(tempt, np.where(reaches_a, reach_b, nb)), blo)
    # open: d reaches the most tempting one's window but not the other's
    olo = np.where(reaches_a, a_first, reach_b)
    ohi = np.minimum(np.minimum(a_first + reach_b - olo, tempt), bhi)
    return _spans(lead, klo, bhi), _spans(lead, np.maximum(olo, blo), ohi)


def bracketed(u, v, c, prices, caps, cost, tally, floor=-math.inf):
    """Designated-offer search over two or three offers, vectorized over the
    other offers' price grids, in blocks of ``ROW_BLOCK`` rows.

    A row is pruned, before any window check, when its profit bound falls
    short of ``max(best so far, floor)``; rows that can tie it are kept.
    Only the rows the ``phi``-free bounds keep or leave open are built, as
    intervals of the last index, and ``phi`` decides the open ones.  The
    kept rows are tested at ``i_F``, and one search over the designated
    offer's index on the rows that hold there finds the block's best price.
    """
    m = len(prices)
    # each offer's utility and temptation value at each of its prices, and
    # the non-decreasing keys ``_kept`` searches
    U = [u[t] - p for t, p in enumerate(prices)]
    V = [v[t] - p for t, p in enumerate(prices)]
    keys = [(-y, -(x - CHOICE_TIE_TOL)) for x, y in zip(U, V)]
    best = -np.inf
    best_tuple = None
    for d in range(m):
        others = [t for t in range(m) if t != d]
        Pd, ud, vd = prices[d], u[d], v[d]
        nd = len(Pd)
        margins = Pd - c[d]
        total = math.prod(len(prices[t]) for t in others)
        for start in range(0, total, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, total)
            # prune the rows that cannot reach the running best (module
            # docstring); i_f is the lowest index whose profit reaches it
            i_f = int(np.searchsorted(margins, max(best, floor), side="left"))
            if i_f == nd:  # no price of d reaches it, and it only rises
                tally.tuples += total - start
                tally.pruned += total - start
                break
            tally.tuples += stop - start
            own = ud - Pd[i_f]
            idx, open_ = _kept(
                start, stop, own, vd - Pd[i_f], caps[d] < i_f, others, caps, U, V, keys
            )
            if open_ and open_[0].size:
                # an open row is kept where d reaches the others' best (step 3)
                top = _top([U[t][i] for t, i in zip(others, open_)],
                           [V[t][i] for t, i in zip(others, open_)], cost)
                keep = own >= top - CHOICE_TIE_TOL
                idx = [np.concatenate((i, j[keep])) for i, j in zip(idx, open_)]
            kept = idx[0].size
            tally.pruned += stop - start - kept
            if not kept:
                continue
            afford = reduce(np.logical_or, [i <= caps[t] for t, i in zip(others, idx)])
            rows = _Rows(
                idx, [U[t][i] for t, i in zip(others, idx)], [V[t][i] for t, i in zip(others, idx)],
                np.where(afford, nd - 1, caps[d]),
            )
            # a row whose window fails at i_f sells below it and cannot
            # reach F (step 4)
            holds = rows.holds(ud, vd, Pd, i_f, cost, tally)
            if not holds.any():
                continue
            reach = rows = rows[holds]
            # I*, the last index where some row sells (step 5): some row
            # sells at lo, none at end or above
            lo, end, step = i_f, int(rows.hi.max()) + 1, 1
            while end - lo > 1:
                mid = i_f + step if i_f + step < end else (lo + end) >> 1
                holds = rows.holds(ud, vd, Pd, mid, cost, tally)
                if holds.any():
                    lo, step, rows = mid, 2 * step, rows[holds]
                else:
                    end = mid
            local = float(margins[lo])
            # adjacent prices can round to the same margin: the tie order
            # wants the lowest index with it, and the rows sold at this
            # profit are those that sell there
            low = int(np.searchsorted(margins, local, side="left"))
            if low < lo:
                rows = reach[reach.holds(ud, vd, Pd, low, cost, tally)]
            tup = np.empty((m, rows.hi.size), dtype=np.int64)
            tup[d] = low
            for t, i in zip(others, rows.idx):
                tup[t] = i
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


def search_subset(u, v, c, prices, cost, mode, tally=None, floor=-math.inf):
    """Best accepted menu over one subset's price grids.

    ``u, v, c`` are per-offer parameter tuples, ``prices`` sorted unique
    float64 arrays per offer, ``mode`` is ``"exhaustive"`` or
    ``"bracketed"``.  Returns ``(profit, index_tuple)`` or None when every
    menu is rejected.  Both modes return the identical result: max profit,
    lexicographically smallest index tuple.  ``tally``, when given, counts
    the work: a single offer is one row looked up without a window check,
    ``exhaustive`` checks every price tuple once.  ``floor`` lets
    ``bracketed`` prune rows whose profit is below it: the result is
    unchanged when the optimum reaches ``floor``, and otherwise None or a
    profit below ``floor``.  ``bracketed`` takes at most three offers, the
    largest menu ``grid_best_contract`` searches.
    """
    if tally is None:
        tally = Tally()
    if mode != "exhaustive" and len(prices) > 3:
        raise ValueError(f"bracketed searches at most three offers, got {len(prices)}")
    if len(prices) == 1:
        tally.tuples += 1
        cap = _cap(prices[0], u[0])
        if cap < 0:
            return None
        return float(prices[0][cap] - c[0]), (cap,)
    u_arr = np.asarray(u, dtype=np.float64)
    v_arr = np.asarray(v, dtype=np.float64)
    c_arr = np.asarray(c, dtype=np.float64)
    with np.errstate(over="ignore"):  # phi_array overflows to inf, as phi does
        if mode == "exhaustive":
            work = math.prod(len(p) for p in prices)
            tally.tuples += work
            tally.window_checks += work
            return exhaustive(u_arr, v_arr, c_arr, prices, cost)
        caps = [_cap(p, u[i]) for i, p in enumerate(prices)]
        return bracketed(u_arr, v_arr, c_arr, prices, caps, cost, tally, floor)
