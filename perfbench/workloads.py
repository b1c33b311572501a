"""The benchmark's workloads: which instances a run solves or verifies.

Every workload is a cycle of cells (n, m, sign profile), each cell's
copies spread evenly over it; a run repeats the cycle until its time is
up. The inputs are drawn from the run's ``--seed`` only: each op gets
its own instance seed from a generator keyed by the workload name and
the run seed, so the same seed always gives the same inputs.

The cell counts are set so that the median and the tail op each fall
inside a group of ops of one size rather than on the boundary between
two groups, where a one-op shift in the mix would move them by the
ratio of the two sizes' costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PROFILES = ("goods", "chores", "mixed", "zero-mixed")
MODES = ("enumerate", "augment")


@dataclass(frozen=True)
class Item:
    """One op's input: an instance to generate and the options to solve it with."""

    n: int
    m: int
    profile: str
    mode: str
    instance_seed: int

    def label(self) -> str:
        return (
            f"instance seed {self.instance_seed} (n={self.n} m={self.m} profile={self.profile} "
            f"mode={self.mode}; manna gen --seed {self.instance_seed} -n {self.n} -m {self.m} "
            f"--profile {self.profile})"
        )


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve": an op is one solve(); "verify": Certificate.from_json + verify_certificate
    # ((n, m, profile), count). Profile None: a solve cell's copies take the
    # four profiles in turn from one drawn from the seed; a verify cell's
    # profile is drawn from the seed.
    cells: tuple
    # A run has at least this many ops; the tail is the percentile that has
    # ten ops beyond it in a run of exactly this many.
    sample_ops: int
    alternate_modes: bool = False  # solve each cell's copies alternately by enumerate and augment


WORKLOADS = {
    w.name: w
    for w in (
        # Goods and chores solves are the slow ones at every m, and their cost
        # roughly doubles per item; mixed and zero-mixed ones are fast. In
        # this mix the m=3 goods and chores solves, whose times are close
        # together, are the middle 60% of the ops and hold both the median
        # and the tail (p66.7); the one m=6 solve takes about a quarter of
        # the time.
        Workload(
            "n3-search",
            "solve",
            (
                ((3, 3, "goods"), 8), ((3, 3, "chores"), 8), ((3, 3, "mixed"), 1), ((3, 3, "zero-mixed"), 1),
                ((3, 4, "goods"), 1), ((3, 4, "chores"), 1), ((3, 4, "mixed"), 1), ((3, 4, "zero-mixed"), 1),
                ((3, 5, "goods"), 1), ((3, 5, "chores"), 1), ((3, 5, "mixed"), 1), ((3, 5, "zero-mixed"), 1),
                ((3, 6, "goods"), 1),
            ),
            sample_ops=30,
            alternate_modes=True,
        ),
        # Cost doubles with each item, so the ops of one m form a group;
        # 1:5:4 puts the median among the m=13 solves and the tail (p75) among
        # the m=14 ones, which take each profile once, so that the tail does
        # not move with the seed's draw of profiles.
        Workload("n2-wide", "solve", (((2, 12, None), 1), ((2, 13, None), 5), ((2, 14, None), 4)), sample_ops=40),
        # Certificates from both solve distributions: the n=2 sizes whose
        # verification dominates the read path, and one n=3 solve per m. Four
        # cheap n=3 verifications in ten put the median among the m=12 ones
        # and the tail (p90) among the m=14 ones.
        Workload(
            "verify-cert",
            "verify",
            tuple(((n, m, None), 1) for n, m in (
                (3, 3), (2, 12), (2, 13), (3, 4), (2, 14), (2, 12), (3, 5), (2, 13), (2, 14), (3, 6)
            )),
            sample_ops=100,
        ),
    )
}


def weave(counts: dict[tuple, int]) -> list[tuple]:
    """A cycle holding each cell ``count`` times, each cell's copies evenly spaced."""
    slots = []
    for order, (cell, count) in enumerate(counts.items()):
        slots.extend(((k + 0.5) / count, order, cell) for k in range(count))
    return [cell for _, _, cell in sorted(slots)]


def items(workload: Workload, seed: int) -> list[Item]:
    """One cycle of the workload's inputs, in op order.

    Each cell's copies are spread evenly over the cycle. A verify
    workload's inputs are its cells in the order given; they are solved
    once to make the certificates.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    if workload.kind == "verify":
        return [
            Item(n, m, profile or rng.choice(PROFILES), rng.choice(MODES), rng.randrange(2**31))
            for (n, m, profile), _ in workload.cells
        ]
    out: list[Item] = []
    seen: dict[tuple, int] = {}
    first_profile = {cell: rng.randrange(len(PROFILES)) for cell, _ in workload.cells}
    for cell in weave(dict(workload.cells)):
        k = seen[cell] = seen.get(cell, -1) + 1
        n, m, profile = cell
        mode = MODES[k % 2] if workload.alternate_modes else MODES[0]
        profile = profile or PROFILES[(first_profile[cell] + k) % len(PROFILES)]
        out.append(Item(n, m, profile, mode, rng.randrange(2**31)))
    return out
