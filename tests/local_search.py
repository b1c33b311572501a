"""Randomized local search for one-swap-fair allocations, a test-only generator.

Criterion 6 and the oracle tests use it to draw many fair allocations
of one instance without enumerating the whole allocation space.
"""

from __future__ import annotations

import random

from manna.model import Allocation, Instance
from manna.preprocess import denominators_lcm


def local_search_ief1(
    inst: Instance,
    rng: random.Random,
    *,
    restarts: int = 40,
    max_steps: int = 400,
) -> Allocation | None:
    """Greedy descent on envy shortfall until a one-swap-fair allocation appears."""
    n, m = inst.n, inst.m
    lcm = denominators_lcm(inst.values)
    ints = [[int(v * lcm) for v in row] for row in inst.values]

    def score(vec: list[int]) -> tuple[int, int]:
        bundle_vals = [[0] * n for _ in range(n)]
        for j, holder in enumerate(vec):
            for i in range(n):
                bundle_vals[i][holder] += ints[i][j]
        bad = 0
        shortfall = 0
        for i in range(n):
            target = max(bundle_vals[i])
            own = bundle_vals[i][i]
            best = own
            if own < target:
                for j in range(m):
                    adj = own - ints[i][j] if vec[j] == i else own + ints[i][j]
                    if adj > best:
                        best = adj
            if best < target:
                bad += 1
                shortfall += target - best
        return bad, shortfall

    for _ in range(restarts):
        vec = [rng.randrange(n) for _ in range(m)]
        current = score(vec)
        for _ in range(max_steps):
            if current[0] == 0:
                bundles: list[set[int]] = [set() for _ in range(n)]
                for j, holder in enumerate(vec):
                    bundles[holder].add(j)
                return tuple(frozenset(b) for b in bundles)
            improved = False
            for j in range(m):
                original = vec[j]
                for a in range(n):
                    if a == original:
                        continue
                    vec[j] = a
                    trial = score(vec)
                    if trial < current:
                        current = trial
                        improved = True
                        break
                    vec[j] = original
                if improved:
                    break
            if not improved:
                break
    return None
