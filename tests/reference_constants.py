"""Definitional lambda and omega, the cross-check for the sumset versions.

``manna.preprocess`` computes both constants from integer sumsets built
item by item. These versions share none of that code: omega walks every
one of the ``n^m`` allocations and lambda builds each agent's subset sums,
both in ``Fraction`` arithmetic, so agreement between the two is evidence
for both.
"""

from __future__ import annotations

from fractions import Fraction

from manna.errors import SizeGuardError
from manna.model import Instance
from manna.preprocess import DEFAULT_ENUM_GUARD, assignments

# each agent's 2^m subset sums are built in full; past this m that is too slow
REFERENCE_LAMBDA_MAX_M = 24


def reference_lambda(inst: Instance) -> Fraction | None:
    """Minimum positive per-agent gap between any two bundle values.

    Returns None when all values are zero (no positive gap exists).
    Brute force over each agent's 2^m subset sums.
    """
    if inst.m > REFERENCE_LAMBDA_MAX_M:
        raise SizeGuardError(f"subset-sum enumeration infeasible for m={inst.m}")
    best: Fraction | None = None
    for i in range(inst.n):
        sums = {Fraction(0)}
        for v in inst.values[i]:
            sums |= {s + v for s in sums}
        ordered = sorted(sums)
        for a, b in zip(ordered, ordered[1:]):
            gap = b - a
            if best is None or gap < best:
                best = gap
    return best


def reference_omega(inst: Instance, guard: int = DEFAULT_ENUM_GUARD) -> Fraction | None:
    """Minimum positive gap between social-welfare values of allocations.

    Returns None when every complete allocation has the same welfare.
    Enumerates all n^m allocations.
    """
    welfares: set[Fraction] = set()
    for assignment in assignments(inst.n, inst.m, guard):
        w = Fraction(0)
        for j, holder in enumerate(assignment):
            w += inst.values[holder][j]
        welfares.add(w)
    ordered = sorted(welfares)
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    return min(gaps) if gaps else None
