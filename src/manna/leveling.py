"""The price threshold, the one-swap price relaxation, and leveled allocations.

tau is the min over the optimal face of the maximum bundle price. An
agent's relaxed bundle price allows one optimal add-or-remove of a tie
item adjacent to that agent; a leveled allocation attains max price tau
and, subject to that, maximizes how many agents reach tau after the
relaxation. At a genuine fixed-point weight every agent reaches tau.

Everything here reads the prices from the :class:`TieGraph` it is
given. :func:`compute_tau` and :func:`find_leveled` also take the
optimal face, enumerated once by the caller
(:func:`manna.pricing.enumerate_opt`), so one enumeration at a weight
serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError, SoundnessError
from .model import Allocation, Bundle
from .pricing import TieGraph, price_of


@dataclass(frozen=True)
class LevelState:
    tau: Fraction
    allocation: Allocation
    satisfied: frozenset[int]


def _check_sandwich(tg: TieGraph, agent: int, bundle: Iterable[int]) -> Bundle:
    b = frozenset(bundle)
    low, high = tg.forced[agent], tg.forced[agent] | tg.gamma[agent]
    if not (low <= b <= high):
        raise InputError(
            f"bundle for agent {agent} must contain its forced items and stay inside its tie neighborhood"
        )
    return b


def p_plus(tg: TieGraph, agent: int, bundle: Iterable[int]) -> Fraction:
    """Best bundle price reachable by flipping at most one adjacent tie item."""
    b = _check_sandwich(tg, agent, bundle)
    prices = tg.prices
    base = price_of(prices, b)
    best = base
    for t in tg.gamma[agent]:
        flipped = base - prices[t] if t in b else base + prices[t]
        if flipped > best:
            best = flipped
    return best


def max_price(prices: Sequence[Fraction], alloc: Allocation) -> Fraction:
    """Largest bundle price of an allocation."""
    return max(price_of(prices, bundle) for bundle in alloc)


def compute_tau(tg: TieGraph, face: Sequence[Allocation]) -> Fraction:
    """Exact min over the optimal face ``face`` of the maximum bundle price."""
    return min(max_price(tg.prices, alloc) for alloc in face)


def find_leveled(
    tg: TieGraph,
    tau: Fraction,
    *,
    face: Sequence[Allocation],
    expect_full: bool = False,
) -> LevelState:
    """Pick the leveled allocation from the optimal face, ties broken by tie-item assignment order.

    With ``expect_full`` set (inputs from a certified fixed-point
    weight) the returned state must satisfy every agent; anything less
    is escalated as a soundness error.
    """
    best: LevelState | None = None
    for alloc in face:
        if max_price(tg.prices, alloc) != tau:
            continue
        satisfied = frozenset(i for i in range(tg.n) if p_plus(tg, i, alloc[i]) >= tau)
        if best is None or len(satisfied) > len(best.satisfied):
            best = LevelState(tau=tau, allocation=alloc, satisfied=satisfied)
    if best is None:
        raise SoundnessError("no optimal-face member attains the threshold; tau is inconsistent")
    if expect_full and len(best.satisfied) != tg.n:
        raise SoundnessError(
            f"leveled allocation satisfies only {sorted(best.satisfied)} at a certified weight"
        )
    return best
