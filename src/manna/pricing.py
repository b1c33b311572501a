"""Closed-form pricing of the weighted assignment program and its tie graph.

For a weight vector w on the simplex and offset eta, the assignment
program that maximizes sum_i sum_j (w_i + eta) v[i][j] x[ij] has a dual
whose unique optimum is the itemwise maximum p_j = max_i (w_i + eta) v[i][j].
The equality (tie) graph connects agent i to item j exactly when i
attains p_j; on non-degenerate instances it is a forest, forced bundles
are the degree-1 items, and the optimal face of the program is the set
of allocations sandwiched between forced bundles and tie adjacency.

:func:`build_tie_graph` is the one place that computes the prices and
the forest at a weight. Its :class:`TieGraph` carries the prices with
it, so everything downstream (the search, leveling, augmenting, the
verifier) reads both from one value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import DegeneracyError, InputError, SizeGuardError, SoundnessError
from .model import Allocation, Bundle
from .preprocess import ItemClass, PerturbedInstance

DEFAULT_FACE_GUARD = 10**6


def validate_weight(w: Sequence[Fraction], n: int) -> tuple[Fraction, ...]:
    wt = tuple(Fraction(x) for x in w)
    if len(wt) != n:
        raise InputError(f"weight vector has {len(wt)} coordinates for {n} agents")
    if any(x < 0 for x in wt) or sum(wt) != 1:
        raise InputError("weight vector must be nonnegative and sum to exactly 1")
    return wt


def support(w: Sequence[Fraction]) -> frozenset[int]:
    return frozenset(i for i, x in enumerate(w) if x > 0)


@dataclass(frozen=True)
class TieGraph:
    """Prices at one weight and the forest of price-attaining (agent, item) pairs.

    ``prices`` covers every item (dead ones at zero); ``holders`` maps
    each live item to the agents attaining its price, ascending;
    ``ties`` lists the items with two or more holders, ascending;
    ``forced`` holds each agent's one-holder items and ``gamma`` its tie
    items; ``roots`` names the tree of the forest that holds each agent.
    Dead items carry no edges and appear in none of these but ``prices``.
    """

    prices: tuple[Fraction, ...]
    holders: dict[int, tuple[int, ...]]
    ties: tuple[int, ...]
    forced: tuple[Bundle, ...]
    gamma: tuple[Bundle, ...]
    roots: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.forced)

    def face(self, guard: int = DEFAULT_FACE_GUARD) -> Iterator[tuple[int, ...]]:
        """Every optimal-face member as the holder chosen for each tie item, lexicographic.

        Forced bundles are fixed; each tie item independently goes to
        one of its holders, so the count is the product of tie-item
        degrees.
        """
        if math.prod(len(self.holders[j]) for j in self.ties) > guard:
            raise SizeGuardError(f"optimal face larger than guard {guard}")
        return itertools.product(*(self.holders[j] for j in self.ties))

    def allocation(self, choice: Sequence[int]) -> Allocation:
        """The face member that gives tie item ``ties[k]`` to agent ``choice[k]``."""
        bundles = [set(b) for b in self.forced]
        for j, holder in zip(self.ties, choice):
            bundles[holder].add(j)
        return tuple(frozenset(b) for b in bundles)


def build_tie_graph(p: PerturbedInstance, w: Sequence[Fraction], eta: Fraction) -> TieGraph:
    """Prices and price holders at a weight, checked to form a forest.

    The only place that computes them. A one-holder item is a leaf and
    cannot close a cycle, so only tie edges enter the union-find; a
    cycle means the perturbation draw was degenerate after all, and the
    error carries it so the caller can re-draw.
    """
    n = p.n
    mult = [wi + eta for wi in validate_weight(w, n)]
    prices = [Fraction(0)] * (p.m + 1)
    holders: dict[int, tuple[int, ...]] = {}
    forced: list[list[int]] = [[] for _ in range(n)]
    gamma: list[list[int]] = [[] for _ in range(n)]
    ties: list[int] = []
    for j in p.live_items:
        vals = [mult[i] * p.pvalues[i][j] for i in range(n)]
        top = max(vals)
        hs = tuple(i for i in range(n) if vals[i] == top)
        if top == 0:  # a holder of zero value attains a zero price
            for i in hs:
                if p.pvalues[i][j] == 0:
                    raise SoundnessError(f"tie edge ({i},{j}) would carry a zero value")
        prices[j] = top
        holders[j] = hs
        if len(hs) == 1:
            forced[hs[0]].append(j)
        else:
            ties.append(j)
            for i in hs:
                gamma[i].append(j)

    # union-find over agents (0..n-1) and tie items (n + j)
    parent = list(range(n + p.m + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adjacency: dict[int, list[int]] = {}
    for i, j in sorted((i, j) for j in ties for i in holders[j]):
        a, b = find(i), find(n + j)
        if a == b:
            raise DegeneracyError(
                f"equality graph contains a cycle through agent {i} and item {j}",
                cycle=_recover_cycle(adjacency, i, n + j, n),
            )
        parent[a] = b
        adjacency.setdefault(i, []).append(n + j)
        adjacency.setdefault(n + j, []).append(i)
    if len(ties) > n - 1:
        raise SoundnessError(f"{len(ties)} tie items exceed the forest bound {n - 1}")
    return TieGraph(
        prices=tuple(prices),
        holders=holders,
        ties=tuple(ties),
        forced=tuple(frozenset(b) for b in forced),
        gamma=tuple(frozenset(b) for b in gamma),
        roots=tuple(find(i) for i in range(n)),
    )


def check_price_signs(p: PerturbedInstance, prices: Sequence[Fraction]) -> None:
    """Negative for chores, positive for goods and zero-positive items."""
    for j, cls in p.classes().items():
        if cls is ItemClass.CHORE:
            if prices[j] >= 0:
                raise SoundnessError(f"chore item {j} received nonnegative price {prices[j]}")
        elif prices[j] <= 0:
            raise SoundnessError(f"item {j} of class {cls.value} received nonpositive price {prices[j]}")


def dual_prices(p: PerturbedInstance, w: Sequence[Fraction], eta: Fraction) -> tuple[Fraction, ...]:
    """Unique dual optimum: componentwise maximum of (w_i + eta) * value.

    Positive for goods and zero-positive items, negative for chores;
    exactly zero only on dead (all-zero) items.
    """
    prices = build_tie_graph(p, w, eta).prices
    check_price_signs(p, prices)
    return prices


def _recover_cycle(adjacency: dict[int, list[int]], a: int, b: int, n: int) -> tuple:
    """Path a..b through already-linked edges, labelled as agents/items."""
    prev: dict[int, int | None] = {a: None}
    queue = [a]
    while queue:
        x = queue.pop(0)
        if x == b:
            break
        for y in adjacency.get(x, ()):
            if y not in prev:
                prev[y] = x
                queue.append(y)
    path = []
    cur: int | None = b
    while cur is not None:
        path.append(cur)
        cur = prev.get(cur)
    path.reverse()
    return tuple(("agent", x) if x < n else ("item", x - n) for x in path)


def price_of(prices: Sequence[Fraction], bundle: Iterable[int]) -> Fraction:
    return sum((prices[t] for t in bundle), Fraction(0))


def enumerate_opt(tg: TieGraph, guard: int = DEFAULT_FACE_GUARD) -> tuple[Allocation, ...]:
    """All optimal-face allocations over live items, lexicographic by tie assignment.

    Dead items are excluded here and pinned at output time.
    """
    return tuple(tg.allocation(choice) for choice in tg.face(guard))


def lp_objective(
    p: PerturbedInstance, w: Sequence[Fraction], eta: Fraction, alloc: Allocation
) -> Fraction:
    """Weighted welfare of an allocation; equals the price total iff on the optimal face."""
    wt = validate_weight(w, p.n)
    total = Fraction(0)
    for i in range(p.n):
        mult = wt[i] + eta
        for j in alloc[i]:
            total += mult * p.pvalues[i][j]
    return total


def on_optimal_face(
    p: PerturbedInstance,
    w: Sequence[Fraction],
    eta: Fraction,
    prices: Sequence[Fraction],
    alloc: Allocation,
) -> bool:
    return lp_objective(p, w, eta, alloc) == sum(prices)
