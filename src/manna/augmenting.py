"""Forest-rooted item transfers that level up deficient agents.

Starting from an optimal-face allocation whose maximum bundle price is
the threshold, one run processes the tie-forest component of a
deficient agent r: each handled agent swaps a set X of adjacent tie
items (constructed from its membership witness, an optimal-face
allocation in which its bundle price is maximal) and pushes affected
neighbors down the tree, strictly increasing the number of agents whose
relaxed price reaches the threshold while keeping the maximum price
fixed. Every contract from the underlying argument is asserted at run
time, and an event trace is kept for certificates and debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError, SoundnessError
from .leveling import max_price, p_plus
from .model import Allocation, Bundle
from .pricing import TieGraph, price_of


@dataclass(frozen=True)
class RootedForest:
    """Orientation of one tie-forest component toward a chosen root agent.

    ``parent`` maps each agent in the component to the item leading
    toward the root (None for the root itself); ``component`` holds the
    component's agent and item identities.
    """

    root: int
    parent: dict[int, int | None]
    component_agents: frozenset[int]
    component_items: frozenset[int]


@dataclass
class AugmentState:
    """Mutable run state: working bundles, finalized bundles, queue, trace."""

    tg: TieGraph
    tau: Fraction
    current: list[set[int]]
    finalized: dict[int, Bundle] = field(default_factory=dict)
    queue: list[int] = field(default_factory=list)
    ever_queued: set[int] = field(default_factory=set)
    trace: list[dict] = field(default_factory=list)

    @classmethod
    def from_allocation(cls, tg: TieGraph, tau: Fraction, alloc: Allocation) -> AugmentState:
        return cls(tg=tg, tau=tau, current=[set(b) for b in alloc])

    def log(self, event: str, **detail) -> None:
        self.trace.append({"event": event, **detail})

    def effective(self, agent: int) -> Bundle:
        return self.finalized.get(agent, frozenset(self.current[agent]))

    def assert_partition(self) -> None:
        seen: set[int] = set()
        for i in range(self.tg.n):
            b = self.effective(i)
            if seen & b:
                raise SoundnessError(f"items {sorted(seen & b)} duplicated across working bundles")
            seen |= b
        if seen != self.tg.holders.keys():
            raise SoundnessError("working and finalized bundles no longer partition the items")


def root_at(tg: TieGraph, r: int) -> RootedForest:
    """Orient the tie-forest component containing agent ``r`` toward ``r``."""
    if not 0 <= r < tg.n:
        raise InputError(f"agent id {r} out of range")
    item_nbrs = {j: set(tg.holders[j]) for j in tg.ties}
    agent_nbrs: dict[int, set[int]] = {i: set() for i in range(tg.n)}
    for j, hs in item_nbrs.items():
        for i in hs:
            agent_nbrs[i].add(j)
    parent: dict[int, int | None] = {r: None}
    agents = {r}
    items: set[int] = set()
    frontier: list[int] = [r]
    visited_items: set[int] = set()
    while frontier:
        agent = frontier.pop(0)
        for j in sorted(agent_nbrs[agent]):
            if j in visited_items:
                continue
            visited_items.add(j)
            items.add(j)
            for child in sorted(item_nbrs[j]):
                if child in agents:
                    continue
                agents.add(child)
                parent[child] = j
                frontier.append(child)
    return RootedForest(
        root=r,
        parent=parent,
        component_agents=frozenset(agents),
        component_items=frozenset(items),
    )


def construct_X(
    state: AugmentState,
    agent: int,
    witness: Allocation,
    tau: Fraction,
    rf: RootedForest,
) -> Bundle:
    """The transfer set for a deficient agent, from its membership witness.

    K collects the symmetric-difference items (vs. the witness bundle)
    whose single flip raises the bundle price; a minimal subset of K
    reaching the threshold loses one element (the parent item when
    present, else the smallest) to become X. The result flips to a
    price still below the threshold but within one flip of it, uses
    only price-raising items, and avoids the parent edge.
    """
    tg, prices = state.tg, state.tg.prices
    s_i = frozenset(state.current[agent])
    if p_plus(tg, agent, s_i) >= tau:
        raise SoundnessError(f"agent {agent} is not deficient; transfer-set construction refused")
    witness_bundle = witness[agent]
    if price_of(prices, witness_bundle) < tau:
        raise SoundnessError(f"witness bundle for agent {agent} does not reach the threshold")
    base = price_of(prices, s_i)
    gains: dict[int, Fraction] = {}
    for t in witness_bundle ^ s_i:
        delta = -prices[t] if t in s_i else prices[t]
        if delta > 0:
            gains[t] = delta
    if not gains:
        raise SoundnessError(f"empty gain set for deficient agent {agent}")
    if price_of(prices, s_i ^ frozenset(gains)) < tau:
        raise SoundnessError(f"full gain set for agent {agent} cannot reach the threshold")

    # greedy build, then a removal pass: afterwards dropping any single
    # element lands strictly below the threshold
    k_tilde: list[int] = []
    total = base
    for t in sorted(gains, key=lambda t: (-gains[t], t)):
        if total >= tau:
            break
        k_tilde.append(t)
        total += gains[t]
    for t in sorted(k_tilde):
        if total - gains[t] >= tau:
            k_tilde.remove(t)
            total -= gains[t]
    if len(k_tilde) == 1:
        # a singleton reaching the threshold contradicts deficiency of p_plus
        raise SoundnessError(f"one-flip fix for agent {agent} should have been caught upstream")

    pi = rf.parent.get(agent)
    if pi is not None and pi in k_tilde:
        dropped = pi
    else:
        dropped = min(k_tilde)
    x = frozenset(t for t in k_tilde if t != dropped)

    flipped = s_i ^ x
    if not (price_of(prices, flipped) < tau <= p_plus(tg, agent, flipped)):
        raise SoundnessError(f"transfer set for agent {agent} violates its price contract")
    if pi is not None and pi in x:
        raise SoundnessError(f"transfer set for agent {agent} contains its parent item")
    if not x <= (tg.gamma[agent] - ({pi} if pi is not None else set())):
        raise SoundnessError(f"transfer set for agent {agent} leaves its tie neighborhood")
    return x


def augment(
    state: AugmentState,
    witnesses: Mapping[int, Allocation],
    rf: RootedForest,
) -> Allocation:
    """One full queue run; returns the reassembled allocation.

    Postconditions, all asserted: every agent enters the queue at most
    once; bundles always partition the items; every changed bundle ends
    strictly below the threshold with its relaxed price at or above it;
    the maximum bundle price stays at the threshold; the count of
    satisfied agents strictly increases.
    """
    tg, prices, tau = state.tg, state.tg.prices, state.tau
    n = tg.n
    before = frozenset(i for i in range(n) if p_plus(tg, i, state.effective(i)) >= tau)
    if max(price_of(prices, state.effective(i)) for i in range(n)) != tau:
        raise InputError("augmenting requires a start allocation with maximum price at the threshold")
    r = rf.root
    if p_plus(tg, r, state.effective(r)) >= tau:
        raise InputError(f"root agent {r} is not deficient")
    initial = {i: state.effective(i) for i in range(n)}

    state.queue = [r]
    state.ever_queued = {r}
    state.log("start", root=r, tau=str(tau))
    while state.queue:
        i = state.queue.pop(0)
        state.log("pop", agent=i)
        s_i = frozenset(state.current[i])
        if p_plus(tg, i, s_i) >= tau:
            raise SoundnessError(f"queued agent {i} is no longer deficient (loop invariant broke)")
        x = construct_X(state, i, witnesses[i], tau, rf)
        state.log("transfer-set", agent=i, items=sorted(x))
        for t in sorted(x):
            if t in s_i:
                choices = [a for a in tg.holders[t] if a != i]
                a_it = min(choices)
            else:
                a_it = next(a for a in range(n) if t in state.current[a])
            if rf.parent.get(a_it) != t:
                raise SoundnessError(f"neighbor {a_it} of item {t} is not its child in the rooted tree")
            if t not in state.current[a_it] and t not in s_i:
                raise SoundnessError(f"item {t} is held by neither side of its transfer")
            flipped = frozenset(state.current[a_it]) ^ {t}
            if p_plus(tg, a_it, flipped) < tau:
                state.current[a_it] ^= {t}
                if a_it in state.ever_queued:
                    raise SoundnessError(f"agent {a_it} would enter the queue twice")
                state.ever_queued.add(a_it)
                state.queue.append(a_it)
                state.log("push-down", agent=a_it, item=t)
            else:
                if a_it in state.finalized:
                    raise SoundnessError(f"agent {a_it} finalized twice")
                state.finalized[a_it] = flipped
                state.log("finalize", agent=a_it, item=t, bundle=sorted(flipped))
        state.current[i] = set(s_i ^ x)
        state.finalized[i] = s_i ^ x
        state.log("finalize", agent=i, bundle=sorted(s_i ^ x))
        state.assert_partition()

    result = tuple(state.effective(i) for i in range(n))
    for i in range(n):
        if result[i] != initial[i]:
            price = price_of(prices, result[i])
            if not (price < tau <= p_plus(tg, i, result[i])):
                raise SoundnessError(f"updated bundle of agent {i} violates the price guarantees")
        low, high = tg.forced[i], tg.forced[i] | tg.gamma[i]
        if not (low <= result[i] <= high):
            raise SoundnessError(f"bundle of agent {i} left the optimal face")
    if max_price(prices, result) != tau:
        raise SoundnessError("maximum bundle price moved away from the threshold")
    after = frozenset(i for i in range(n) if p_plus(tg, i, result[i]) >= tau)
    if not (before < after):
        raise SoundnessError("satisfied-agent count did not strictly increase")
    state.log("done", satisfied=sorted(after))
    return result


def solve_by_augmenting(
    tg: TieGraph,
    tau: Fraction,
    witnesses: Mapping[int, Allocation],
    trace: list[dict] | None = None,
    *,
    face: Sequence[Allocation],
) -> Allocation:
    """Iterate augmenting runs from a threshold allocation to a fixed point.

    Starts from the first member of the optimal face ``face`` attaining
    the threshold; ``witnesses[i]`` is agent i's membership witness. Each run
    strictly increases the satisfied count, so at most n runs happen.
    The result satisfies every agent, like the enumeration route, but
    is reached constructively.
    """
    start = next((alloc for alloc in face if max_price(tg.prices, alloc) == tau), None)
    if start is None:
        raise SoundnessError("no optimal-face member attains the threshold")

    current = start
    for _ in range(tg.n + 1):
        deficient = [i for i in range(tg.n) if p_plus(tg, i, current[i]) < tau]
        if not deficient:
            return current
        r = deficient[0]
        state = AugmentState.from_allocation(tg, tau, current)
        rf = root_at(tg, r)
        current = augment(state, witnesses, rf)
        if trace is not None:
            trace.extend(state.trace)
    raise SoundnessError("augmenting failed to converge within the agent-count bound")
