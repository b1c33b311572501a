"""Exact data model: instances, bundles, allocations, fairness predicates.

Every numeric quantity in the pipeline is an exact rational
(:class:`fractions.Fraction`); there is no floating point anywhere.
Agents and items are 0-based indices internally; file formats use
1-based ids and convert at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError

Bundle = frozenset[int]
Allocation = tuple[Bundle, ...]


def parse_rat(x: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a 'p/q' string."""
    if isinstance(x, bool):
        raise InputError(f"not a rational value: {x!r}")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {x!r}: {exc}") from None
    raise InputError(f"not a rational value: {x!r}")


def format_rat(x: Fraction) -> str:
    """Canonical 'p/q' (or plain integer) string for an exact rational."""
    return str(x)


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: ``n`` agents, ``m`` items, additive values."""

    n: int
    m: int
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.n < 2 or self.m < 2:
            raise InputError(f"need at least 2 agents and 2 items, got n={self.n}, m={self.m}")
        if len(self.values) != self.n or any(len(row) != self.m for row in self.values):
            raise InputError("value matrix shape does not match (n, m)")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | str | Fraction]]) -> Instance:
        if not isinstance(rows, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in rows):
            raise InputError("value matrix must be a list of rows")
        values = tuple(tuple(parse_rat(x) for x in row) for row in rows)
        if not values:
            raise InputError("empty value matrix")
        return cls(n=len(values), m=len(values[0]), values=values)

    def check_agent(self, agent: int) -> None:
        if not 0 <= agent < self.n:
            raise InputError(f"agent id {agent} out of range [0, {self.n})")

    def check_bundle(self, bundle: Iterable[int]) -> Bundle:
        b = frozenset(bundle)
        for t in b:
            if not 0 <= t < self.m:
                raise InputError(f"item id {t} out of range [0, {self.m})")
        return b


@dataclass(frozen=True)
class SwapWitness:
    """A one-item adjustment certifying an agent's bundle is envy-dominant.

    ``swap`` has at most one item; applied to the agent's bundle by
    symmetric difference it reaches value >= every bundle's value to
    that agent.
    """

    agent: int
    swap: Bundle
    applied_bundle_value: Fraction

    def __post_init__(self):
        if len(self.swap) > 1:
            raise InputError("swap witness may contain at most one item")


def validate_allocation(inst: Instance, alloc: Allocation, *, complete: bool = True) -> None:
    """Check disjointness, item range, and (optionally) completeness."""
    if len(alloc) != inst.n:
        raise InputError(f"allocation has {len(alloc)} bundles for {inst.n} agents")
    seen: set[int] = set()
    for bundle in alloc:
        b = inst.check_bundle(bundle)
        if seen & b:
            raise InputError(f"items {sorted(seen & b)} appear in more than one bundle")
        seen |= b
    if complete and len(seen) != inst.m:
        raise InputError("allocation is not complete")


def bundle_value(inst: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    """Additive value of a bundle: sum of the agent's item values (0 if empty)."""
    inst.check_agent(agent)
    b = inst.check_bundle(bundle)
    row = inst.values[agent]
    return sum((row[t] for t in b), Fraction(0))


def sym_diff(a: Iterable[int], b: Iterable[int]) -> Bundle:
    """Symmetric difference of two bundles."""
    return frozenset(a) ^ frozenset(b)


def ief1_witnesses(inst: Instance, alloc: Allocation) -> tuple[SwapWitness | None, ...]:
    """Per-agent one-item adjustment witnesses, or None where none exists.

    For each agent the search runs over the empty set and every
    singleton of the item range, returning the lexicographically
    smallest witness (empty first, then singletons by item id). The
    allocation is fair in this sense iff every agent has a witness.
    """
    validate_allocation(inst, alloc, complete=True)
    out: list[SwapWitness | None] = []
    for i in range(inst.n):
        row = inst.values[i]
        others_max = max(sum((row[t] for t in bundle), Fraction(0)) for bundle in alloc)
        own = sum((row[t] for t in alloc[i]), Fraction(0))
        witness: SwapWitness | None = None
        if own >= others_max:
            witness = SwapWitness(agent=i, swap=frozenset(), applied_bundle_value=own)
        else:
            for t in range(inst.m):
                adjusted = own - row[t] if t in alloc[i] else own + row[t]
                if adjusted >= others_max:
                    witness = SwapWitness(agent=i, swap=frozenset({t}), applied_bundle_value=adjusted)
                    break
        out.append(witness)
    return tuple(out)


def is_ief1(inst: Instance, alloc: Allocation) -> bool:
    return all(w is not None for w in ief1_witnesses(inst, alloc))


def pareto_dominates(inst: Instance, b: Allocation, a: Allocation) -> bool:
    """True iff ``b`` weakly improves every agent over ``a`` and strictly one."""
    validate_allocation(inst, a, complete=True)
    validate_allocation(inst, b, complete=True)
    strict = False
    for i in range(inst.n):
        vb = bundle_value(inst, i, b[i])
        va = bundle_value(inst, i, a[i])
        if vb < va:
            return False
        if vb > va:
            strict = True
    return strict


def social_welfare(inst: Instance, alloc: Allocation) -> Fraction:
    """Sum over agents of own-bundle values."""
    validate_allocation(inst, alloc, complete=True)
    return sum((bundle_value(inst, i, alloc[i]) for i in range(inst.n)), Fraction(0))
