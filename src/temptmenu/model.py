"""Domain types and the naive consumer's menu-choice behavior.

An alternative carries a long-run utility value ``u``, an in-the-moment
temptation value ``v`` and a production cost ``c`` (all in money units).
A contract is a small menu of priced alternatives.  The consumer signs a
contract believing he will later pick the offer with the best ``u - p``,
so he signs when that best perceived offer is worth at least the outside
option: ``max(u - p) >= 0`` (``accepts``).  When the time comes he instead
pays a convex self-control penalty for resisting the most tempting offer
in the menu, which can drag his choice toward tempting, overpriced items.

This module states the choice rule once.  The replays here, the solution
check in ``oracle`` and the grid-search kernels all sign by ``accepts``'s
test and pick within the one tie window ``CHOICE_TIE_TOL``.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass
from typing import ClassVar

CHOICE_TIE_TOL = 1e-9
"""Overall-utility gap below which menu offers count as tied.

Optimal menus make the consumer exactly indifferent, so floating-point
replay needs a tie window; ties are resolved in the seller's favor
(highest price - cost, then lowest menu position).  It is not a per-call
option: every choice reads it here, and only ``oracle.verify_solution``
takes another window for one check.
"""


class AssumptionViolated(ValueError):
    """An instance breaks a uniqueness assumption the solver relies on.

    Carries the ids of the offending alternatives in ``tied``.
    """

    def __init__(self, message: str, tied: tuple[str, ...] = ()):
        super().__init__(message)
        self.tied = tied


def _require_finite(name: str, value: float) -> float:
    try:
        value = float(value)
    except OverflowError:  # an int past the largest double
        raise ValueError(f"{name} must be a finite real, got an int too large "
                         "for a double") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real, got {value!r}")
    return value


@dataclass(frozen=True)
class Alternative:
    """One product: long-run value ``u``, temptation value ``v``, cost ``c``."""

    id: str
    u: float
    v: float
    c: float

    def __post_init__(self):
        for name in ("u", "v", "c"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))

    @property
    def e(self) -> float:
        """Excess temptation: how much more tempting than valuable."""
        return self.v - self.u


@dataclass(frozen=True)
class PiecewiseLinearCost:
    """Self-control cost with slope ``l`` below the willpower kink ``w`` and ``k`` above.

    Requires ``k > 1 > l > 0`` and ``w >= 0``: resisting small temptation
    gaps is cheap per unit, but beyond the willpower stock the marginal
    cost exceeds one money unit per unit of resisted temptation.
    """

    kind: ClassVar[str] = "piecewise_linear"
    has_closed_forms: ClassVar[bool] = True

    l: float
    k: float
    w: float

    def __post_init__(self):
        for name in ("l", "k", "w"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if not (self.k > 1.0 > self.l > 0.0):
            raise ValueError(f"need k > 1 > l > 0, got k={self.k}, l={self.l}")
        if self.w < 0.0:
            raise ValueError(f"willpower w must be >= 0, got {self.w}")

    def phi(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        if t <= self.w:
            return self.l * t
        return self.k * (t - self.w) + self.l * self.w

    def phi_array(self, t):
        import numpy as np
        t = np.maximum(t, 0.0)
        return np.where(t <= self.w, self.l * t, self.k * (t - self.w) + self.l * self.w)

    def decoy_is_idle(self, gap: float) -> bool:
        """Whether a decoy ``gap`` above the bait in excess temptation stays
        on the shallow slope.  The compromising and indulging designs then
        earn the same, and the two-offer menu is reported.  (They also tie at
        zero willpower, where the cost is linear at the steep slope; there
        the three-offer menu is kept, because the designs differ in realized
        welfare and the sweep invariants pin the selection.)"""
        return gap <= (1.0 + self.l) * self.w


@dataclass(frozen=True)
class PowerCost:
    """Self-control cost ``alpha * t**gamma``; strictly convex iff ``gamma > 1``."""

    kind: ClassVar[str] = "power"
    has_closed_forms: ClassVar[bool] = False

    alpha: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "gamma"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.gamma < 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")

    def phi(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        try:
            return self.alpha * t**self.gamma
        except OverflowError:
            return math.inf

    def phi_array(self, t):
        import numpy as np
        return self.alpha * np.power(np.maximum(t, 0.0), self.gamma)

    def decoy_is_idle(self, gap: float) -> bool:
        """Whether the decoy raises no price: only under a linear cost."""
        return self.gamma == 1.0


CostFunction = PiecewiseLinearCost | PowerCost
"""Self-control cost family.  Each class owns what depends on the family:
``phi(t)``, 0 for ``t <= 0`` (root-finders probe freely) and ``inf`` where
it overflows; ``phi_array`` on numpy arrays; ``has_closed_forms``;
``decoy_is_idle(gap)``; and ``kind``, its name in instance files."""


@dataclass(frozen=True)
class Offer:
    """A priced alternative inside a contract."""

    alternative: Alternative
    price: float

    def __post_init__(self):
        object.__setattr__(self, "price", _require_finite("price", self.price))

    @property
    def margin(self) -> float:
        """Seller's profit if this offer is the one consumed."""
        return self.price - self.alternative.c


class ContractKind(str, enum.Enum):
    COMMITMENT = "commitment"
    INDULGING = "indulging"
    COMPROMISING = "compromising"


_KIND_SIZE = {
    ContractKind.COMMITMENT: 1,
    ContractKind.INDULGING: 2,
    ContractKind.COMPROMISING: 3,
}


@dataclass(frozen=True)
class Contract:
    """A menu of one to three offers with a designated intended sale."""

    offers: tuple[Offer, ...]
    intended: int
    kind: ContractKind

    def __post_init__(self):
        object.__setattr__(self, "offers", tuple(self.offers))
        if not 1 <= len(self.offers) <= 3:
            raise ValueError(f"contract must hold 1..3 offers, got {len(self.offers)}")
        ids = [o.alternative.id for o in self.offers]
        if len(set(ids)) != len(ids):
            raise ValueError(f"offers must reference distinct alternatives, got {ids}")
        if not 0 <= self.intended < len(self.offers):
            raise ValueError(f"intended index {self.intended} out of range")
        if _KIND_SIZE[self.kind] != len(self.offers):
            raise ValueError(
                f"{self.kind.value} contract must hold {_KIND_SIZE[self.kind]} "
                f"offer(s), got {len(self.offers)}"
            )

    @property
    def intended_offer(self) -> Offer:
        return self.offers[self.intended]


def perceived_utilities(contract: Contract) -> tuple[float, ...]:
    """``u - p`` per offer: what the naive signer expects to get."""
    return tuple(o.alternative.u - o.price for o in contract.offers)


def overall_utilities(contract: Contract, cost_fn: CostFunction) -> tuple[float, ...]:
    """Consumption-time utility per offer, net of the self-control cost.

    The cost argument is the gap to the menu's most tempting offer,
    ``max(v - p) - (v_i - p_i)``, which is nonnegative for every offer.
    """
    temptations = [o.alternative.v - o.price for o in contract.offers]
    m = max(temptations)
    return tuple(
        (o.alternative.u - o.price) - cost_fn.phi(m - t)
        for o, t in zip(contract.offers, temptations)
    )


def _pick(contract: Contract, scores: tuple[float, ...], tie_tol: float) -> int:
    """Index of the winning offer: best score, ties to the seller's favor."""
    best = max(scores)
    pick = -1
    pick_margin = -math.inf
    for i, s in enumerate(scores):
        if s >= best - tie_tol and contract.offers[i].margin > pick_margin:
            pick = i
            pick_margin = contract.offers[i].margin
    return pick


def perceived_choice(contract: Contract) -> Offer:
    """The offer the naive consumer believes he will pick (max ``u - p``)."""
    return contract.offers[_pick(contract, perceived_utilities(contract), CHOICE_TIE_TOL)]


def actual_choice(contract: Contract, cost_fn: CostFunction) -> Offer:
    """The offer actually consumed under the self-control cost."""
    return contract.offers[
        _pick(contract, overall_utilities(contract, cost_fn), CHOICE_TIE_TOL)
    ]


def accepts(contract: Contract) -> bool:
    """Whether the consumer signs: his best perceived offer is worth >= 0.

    This is the one signing rule; the grid-search kernels apply the same
    ``max(u - p) >= 0`` test to whole price grids.
    """
    return max(perceived_utilities(contract)) >= 0.0


@dataclass(frozen=True)
class Outcome:
    """Realized result of offering a contract; ``chosen`` is None on rejection."""

    profit: float
    welfare: float
    chosen: Offer | None


def realized_outcome(contract: Contract, cost_fn: CostFunction) -> Outcome:
    """Replay a contract: seller profit and the consumer's realized utility.

    A rejected contract yields the outside option, normalized to (0, 0).
    """
    if not accepts(contract):
        return Outcome(0.0, 0.0, None)
    scores = overall_utilities(contract, cost_fn)
    i = _pick(contract, scores, CHOICE_TIE_TOL)
    return Outcome(contract.offers[i].margin, scores[i], contract.offers[i])


def _unique_extremum(
    alternatives: tuple[Alternative, ...], values: list[float], maximize: bool, what: str
) -> Alternative:
    best = max(values) if maximize else min(values)
    tied = [a for a, v in zip(alternatives, values) if v == best]
    if len(tied) > 1:
        ids = tuple(a.id for a in tied)
        raise AssumptionViolated(
            f"{what} is not unique: alternatives {', '.join(ids)} are tied", ids
        )
    return tied[0]


@dataclass(frozen=True)
class ProblemInstance:
    """A finite set of alternatives plus the consumer's self-control cost.

    Validation enforces the model's genericity assumptions and names the
    offending alternatives when they fail: the ``u - c`` and ``v - c``
    maximizers must be unique and distinct, and the excess-temptation
    maximizer and minimizer must be unique.  Ties are exact floating-point
    ties; a silent tie-break here would make every downstream result
    assumption-dependent.  The four roles are found once, by validation,
    and stored: later reads do not scan the alternatives again.
    """

    alternatives: tuple[Alternative, ...]
    cost_fn: CostFunction

    def __post_init__(self):
        alts = tuple(self.alternatives)
        object.__setattr__(self, "alternatives", alts)
        if not alts:
            raise ValueError("instance needs at least one alternative")
        ids = [a.id for a in alts]
        if len(set(ids)) != len(ids):
            dupes = tuple(sorted({i for i in ids if ids.count(i) > 1}))
            raise ValueError(f"duplicate alternative ids: {', '.join(dupes)}")
        u_eff = _unique_extremum(
            alts, [a.u - a.c for a in alts], True, "the u - c maximizer"
        )
        v_eff = _unique_extremum(
            alts, [a.v - a.c for a in alts], True, "the v - c maximizer"
        )
        if u_eff.id == v_eff.id:
            raise AssumptionViolated(
                f"the u - c and v - c maximizers coincide ({u_eff.id}); "
                "the pricing problem is degenerate",
                (u_eff.id,),
            )
        e = [a.e for a in alts]
        least = _unique_extremum(alts, e, False, "the excess-temptation minimizer")
        most = _unique_extremum(alts, e, True, "the excess-temptation maximizer")
        object.__setattr__(self, "_roles", (u_eff, v_eff, least, most))

    @property
    def u_efficient(self) -> Alternative:
        """Unique maximizer of u - c: the efficient product under long-run value."""
        return self._roles[0]

    @property
    def v_efficient(self) -> Alternative:
        """Unique maximizer of v - c: the efficient product under temptation value."""
        return self._roles[1]

    @property
    def least_tempting(self) -> Alternative:
        """Unique excess-temptation minimizer; the natural bait offer."""
        return self._roles[2]

    @property
    def most_tempting(self) -> Alternative:
        """Unique excess-temptation maximizer; the natural decoy offer."""
        return self._roles[3]

    def _with_cost(self, cost_fn: CostFunction) -> ProblemInstance:
        """The same alternatives under another cost.  The roles depend only
        on the alternatives, so they carry over without a new scan."""
        clone = copy.copy(self)
        object.__setattr__(clone, "cost_fn", cost_fn)
        return clone

    def __len__(self) -> int:
        return len(self.alternatives)
