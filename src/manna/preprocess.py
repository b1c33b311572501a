"""Item typing, pipeline constants, and the perturbed auxiliary instance.

The solver never works on raw inputs directly: sign normalization fixes
items with conflicting signs, then a seeded rational perturbation plus
one extra universally-liked item produces an instance whose equality
graphs are guaranteed forests (no value-ratio cycle multiplies to one).
The continuous "with probability one" draw is replaced by explicit
degeneracy checking with rejection resampling, so every run is exact
and reproducible from its seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import DegeneracyError, InputError, SizeGuardError
from .model import Allocation, Instance

DEFAULT_ENUM_GUARD = 10**7
DEFAULT_GRID_BASE = 2**32
DEFAULT_RETRIES = 5
# full value-ratio cycle enumeration is affordable only at small sizes;
# beyond this the equality-graph acyclicity assert takes over (lazy mode)
EAGER_CYCLE_GUARD = (4, 7)


class ItemClass(Enum):
    GOOD = "good"
    CHORE = "chore"
    ZERO_POSITIVE = "zero-positive"


def normalize_mixed(inst: Instance) -> Instance:
    """Zero out negative values of items that are not chores for everyone.

    An item that some agent values nonnegatively never goes to a
    negative-valuing agent in any Pareto-optimal allocation, so those
    agents can equivalently value it at zero. Chore columns (negative
    for all) are untouched. The output satisfies the three-way item
    taxonomy except possibly for all-zero columns, which are tracked
    separately downstream.
    """
    rows = [list(row) for row in inst.values]
    changed = False
    for j in range(inst.m):
        col = [rows[i][j] for i in range(inst.n)]
        if any(v < 0 for v in col) and not all(v < 0 for v in col):
            for i in range(inst.n):
                if rows[i][j] < 0:
                    rows[i][j] = Fraction(0)
                    changed = True
    if not changed:
        return inst
    return Instance(inst.n, inst.m, tuple(tuple(r) for r in rows))


def classify_items(inst: Instance) -> tuple[dict[int, ItemClass], frozenset[int]]:
    """Classify each item as good / chore / zero-positive.

    Requires a normalized instance. Items valued zero by everyone do
    not fit the taxonomy and are returned separately as the second
    element (they never carry equality-graph edges and are pinned at
    output time).
    """
    classes: dict[int, ItemClass] = {}
    degenerate: set[int] = set()
    for j in range(inst.m):
        col = [inst.values[i][j] for i in range(inst.n)]
        if any(v > 0 for v in col) and any(v < 0 for v in col):
            raise InputError(f"item {j} has conflicting signs; normalize first")
        if all(v > 0 for v in col):
            classes[j] = ItemClass.GOOD
        elif all(v < 0 for v in col):
            classes[j] = ItemClass.CHORE
        elif any(v > 0 for v in col):
            classes[j] = ItemClass.ZERO_POSITIVE
        else:
            degenerate.add(j)
    return classes, frozenset(degenerate)


def _scaled(matrix: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """``matrix`` times the common denominator of its entries, as ints, and that scale."""
    scale = denominators_lcm(matrix)
    return [[v.numerator * (scale // v.denominator) for v in row] for row in matrix], scale


def _sumset_min_gap(columns: Sequence[Sequence[int]], guard: int | None = None) -> int | None:
    """Smallest positive gap in the sumset C_0 + C_1 + ... of the integer columns.

    Builds the set of reachable sums column by column. ``guard`` bounds
    the work: the sum over columns of (sums so far) x (distinct values
    in the column), checked before each column is added. Returns None
    when the sumset has a single element.
    """
    sums = {0}
    work = 0
    for col in columns:
        distinct = set(col)
        work += len(sums) * len(distinct)
        if guard is not None and work > guard:
            raise SizeGuardError(f"sumset work {work} exceeds guard {guard}")
        sums = {s + c for c in distinct for s in sums}
    ordered = sorted(sums)
    return min((b - a for a, b in zip(ordered, ordered[1:])), default=None)


def compute_lambda(inst: Instance, guard: int = DEFAULT_ENUM_GUARD) -> Fraction | None:
    """Minimum positive per-agent gap between any two bundle values.

    Returns None when all values are zero (no positive gap exists).
    For each agent, the bundle values are the sumset of ``{0, v}`` over
    that agent's values, built item by item on integers; ``guard``
    bounds each agent's sumset work (see :func:`_sumset_min_gap`).
    """
    rows, scale = _scaled(inst.values)
    gaps = [gap for row in rows if (gap := _sumset_min_gap([(0, v) for v in row], guard)) is not None]
    return Fraction(min(gaps), scale) if gaps else None


def compute_omega(inst: Instance, guard: int = DEFAULT_ENUM_GUARD) -> Fraction | None:
    """Minimum positive gap between social-welfare values of allocations.

    Returns None when every complete allocation has the same welfare.
    The achievable welfares are the sumset of the item columns
    ``{v[i][j] : i}``, built item by item on integers; ``guard`` bounds
    that work (see :func:`_sumset_min_gap`), not ``n^m``. Callers
    beyond the guard should use :func:`omega_lower_bound` instead.
    """
    rows, scale = _scaled(inst.values)
    gap = _sumset_min_gap(list(zip(*rows)), guard)
    return None if gap is None else Fraction(gap, scale)


def assignments(n: int, m: int, guard: int = DEFAULT_ENUM_GUARD) -> Iterator[tuple[int, ...]]:
    """All item-to-agent assignment vectors in mixed-radix order (item 0 fastest)."""
    if n ** m > guard:
        raise SizeGuardError(f"{n}^{m} allocations exceed guard {guard}")
    vec = [0] * m
    while True:
        yield tuple(vec)
        j = 0
        while j < m:
            vec[j] += 1
            if vec[j] < n:
                break
            vec[j] = 0
            j += 1
        if j == m:
            return


def denominators_lcm(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Least common multiple of every entry's denominator."""
    return math.lcm(*(v.denominator for row in matrix for v in row))


def omega_lower_bound(inst: Instance) -> Fraction:
    """A positive lower bound on any welfare gap: 1/(common denominator * n)."""
    return Fraction(1, denominators_lcm(inst.values) * inst.n)


def value_cap(inst: Instance) -> Fraction:
    return max(abs(v) for row in inst.values for v in row)


def eta_floor(lam: Fraction, n: int, m: int, cap: Fraction) -> Fraction:
    """Draw-independent lower bound on the dual weight offset.

    Perturbed magnitudes never exceed cap + lam, so the offset computed
    after the draw is always at least this value.
    """
    return lam / (2 * m * n * (cap + lam))


def choose_epsilon(lam: Fraction, omega: Fraction | None, n: int, m: int, cap: Fraction) -> Fraction:
    """Perturbation radius: half of min{lam, n*omega, eta_floor*omega}/(2m).

    The third term is stricter than the first two alone; it guarantees
    the radius also stays below (offset * omega)/(2m) for any realized
    offset, which the efficiency-transfer argument needs. Omega terms
    drop out when every allocation has equal welfare (omega is None).
    """
    if lam is None or lam <= 0:
        raise InputError("epsilon undefined for all-zero instances")
    terms = [lam]
    if omega is not None:
        terms.append(n * omega)
        terms.append(eta_floor(lam, n, m, cap) * omega)
    bound = min(terms) / (2 * m)
    return bound / 2


@dataclass(frozen=True)
class Constants:
    """Pipeline constants; ``lam`` None means all-zero instance, ``omega`` None means no welfare gap."""

    lam: Fraction | None
    omega: Fraction | None
    omega_exact: bool
    epsilon: Fraction | None
    eta: Fraction | None
    value_cap: Fraction


def compute_constants(inst: Instance, guard: int = DEFAULT_ENUM_GUARD) -> Constants:
    """Gather lambda/omega/epsilon for a normalized instance (eta comes after the draw).

    Lambda past ``guard`` raises :class:`SizeGuardError`; omega past it
    falls back to :func:`omega_lower_bound`.
    """
    lam = compute_lambda(inst, guard)
    cap = value_cap(inst)
    if lam is None:
        return Constants(lam=None, omega=None, omega_exact=True, epsilon=None, eta=None, value_cap=cap)
    try:
        omega = compute_omega(inst, guard)
        omega_exact = True
    except SizeGuardError:
        omega = omega_lower_bound(inst)
        omega_exact = False
    eps = choose_epsilon(lam, omega, inst.n, inst.m, cap)
    return Constants(lam=lam, omega=omega, omega_exact=omega_exact, epsilon=eps, eta=None, value_cap=cap)


@dataclass(frozen=True)
class PerturbedInstance:
    """The working instance: one extra item everyone values at lam/2, values nudged down.

    ``pvalues`` is n x (m+1), zero exactly where the base value is zero.
    ``m`` always refers to the base item count; the auxiliary item has
    index ``m``.
    """

    base: Instance
    pvalues: tuple[tuple[Fraction, ...], ...]
    constants: Constants
    seed: int

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def aux_item(self) -> int:
        return self.base.m

    # cached_property writes the instance __dict__ directly, which the
    # frozen dataclass's __setattr__ does not intercept
    @cached_property
    def zero_items(self) -> frozenset[int]:
        return frozenset(
            j for j in range(self.m + 1) if all(self.pvalues[i][j] == 0 for i in range(self.n))
        )

    @cached_property
    def live_items(self) -> tuple[int, ...]:
        zero = self.zero_items
        return tuple(j for j in range(self.m + 1) if j not in zero)

    def zero_item_pins(self, reference: Instance) -> dict[int, int]:
        """Holder for each dead (all-zero) item: smallest agent with maximal ``reference`` value.

        Dead items are welfare-neutral here, but an item that lost its
        negative entries to normalization must go to an agent whose
        pre-normalization value was zero, or efficiency on the original
        instance breaks; ``reference`` is that original instance.
        """
        pins: dict[int, int] = {}
        for j in self.zero_items:
            col = [reference.values[i][j] for i in range(self.n)]
            pins[j] = col.index(max(col))
        return pins

    def classes(self) -> dict[int, ItemClass]:
        """Sign classes over the perturbed matrix, aux item included, dead items omitted."""
        return classify_items(self.as_instance())[0]

    def as_instance(self) -> Instance:
        return Instance(self.n, self.m + 1, self.pvalues)


def compute_eta(p: PerturbedInstance) -> Fraction:
    """Dual weight offset: lam / (2 m n max|perturbed value|), aux item included."""
    lam = p.constants.lam
    if lam is None:
        raise InputError("eta undefined for all-zero instances")
    cap = max(abs(v) for row in p.pvalues for v in row)
    return lam / (2 * p.m * p.n * cap)


def _mix_seed(seed: int, attempt: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + attempt * 0xBF58476D1CE4E5B9 + 0x632BE59BD9B4E019) % 2**63


def perturb(
    inst: Instance,
    seed: int,
    constants: Constants,
    *,
    attempt: int = 0,
    grid_base: int = DEFAULT_GRID_BASE,
) -> PerturbedInstance:
    """Draw number ``attempt`` of the perturbed instance for ``seed``.

    Each nonzero entry is reduced by a uniform random rational from a
    fixed denominator grid in (0, epsilon]; zero entries stay zero, and
    the auxiliary item is appended at value lam/2 for everyone. Every
    (seed, attempt) pair gives its own reproducible draw. When the
    instance is small enough for full cycle enumeration, a draw with a
    value-ratio cycle that multiplies to one raises
    :class:`DegeneracyError` carrying that cycle, and the caller draws
    the next attempt; otherwise acyclicity is asserted lazily at every
    equality graph build.
    """
    lam, eps = constants.lam, constants.epsilon
    if lam is None or eps is None:
        raise InputError("cannot perturb an all-zero instance")
    if grid_base < 1:
        raise InputError(f"perturbation grid base must be at least 1, not {grid_base}")
    denom = grid_base * denominators_lcm(inst.values)
    while (eps * denom) < 2**20:
        denom *= 2
    ticks = int(eps * denom)  # floor; grid points k/denom for k in [1, ticks]

    rng = random.Random(_mix_seed(seed, attempt))
    # one grid draw per nonzero entry, row by row: this order fixes every certificate byte
    pvalues = tuple(
        tuple(v - Fraction(rng.randrange(1, ticks + 1), denom) if v != 0 else v for v in row) + (lam / 2,)
        for row in inst.values
    )
    p = PerturbedInstance(base=inst, pvalues=pvalues, constants=constants, seed=seed)
    _assert_sign_preservation(p)
    eager = inst.n <= EAGER_CYCLE_GUARD[0] and inst.m <= EAGER_CYCLE_GUARD[1]
    if eager and (cycle := find_unit_ratio_cycle(p.pvalues)) is not None:
        raise DegeneracyError(
            f"draw {attempt} of seed {seed} has a value-ratio cycle of product one", cycle=cycle
        )
    return replace(p, constants=replace(constants, eta=compute_eta(p)))


def _assert_sign_preservation(p: PerturbedInstance) -> None:
    for i in range(p.n):
        for j in range(p.m):
            v, vbar = p.base.values[i][j], p.pvalues[i][j]
            ok = (v > 0 and vbar > 0) or (v < 0 and vbar < 0) or (v == 0 and vbar == 0)
            if not ok:
                raise InputError(f"perturbation flipped the sign of entry ({i},{j})")


def find_unit_ratio_cycle(
    matrix: tuple[tuple[Fraction, ...], ...], work_guard: int = 2_000_000
) -> tuple | None:
    """First simple cycle over nonzero entries whose value-ratio product is 1.

    Cycles alternate items and agents: (j1, i1, j2, i2, ..., jk, ik)
    closing back to j1, with every traversed entry nonzero; the product
    multiplies v[i][j_in] / v[i][j_out] along the way. Returns the node
    sequence of the first violation in canonical order, else None.
    Canonical order: cycles start at their smallest item and take the
    direction with the smaller first agent.
    """
    n = len(matrix)
    mbar = len(matrix[0])
    items_of_agent = [
        [j for j in range(mbar) if matrix[i][j] != 0] for i in range(n)
    ]
    agents_of_item = [
        [i for i in range(n) if matrix[i][j] != 0] for j in range(mbar)
    ]
    work = 0

    def dfs(start: int, item: int, used_agents: list[int], used_items: list[int], product: Fraction):
        nonlocal work
        for agent in agents_of_item[item]:
            if agent in used_agents:
                continue
            work += 1
            if work > work_guard:
                raise SizeGuardError("cycle enumeration exceeded its work guard")
            for nxt in items_of_agent[agent]:
                if nxt == start:
                    if len(used_agents) >= 1:  # closing makes a >= 2-agent cycle
                        # direction canonicalization: count each undirected cycle once
                        if used_agents and agent < used_agents[0]:
                            continue
                        ratio = matrix[agent][item] / matrix[agent][start]
                        if product * ratio == 1:
                            nodes: list[tuple[str, int]] = []
                            seq_items = used_items + [item]
                            seq_agents = used_agents + [agent]
                            for jj, ii in zip(seq_items, seq_agents):
                                nodes.append(("item", jj))
                                nodes.append(("agent", ii))
                            return tuple(nodes)
                    continue
                if nxt < start or nxt == item or nxt in used_items:
                    continue
                ratio = matrix[agent][item] / matrix[agent][nxt]
                found = dfs(start, nxt, used_agents + [agent], used_items + [item], product * ratio)
                if found is not None:
                    return found
        return None

    for j1 in range(mbar):
        found = dfs(j1, j1, [], [], Fraction(1))
        if found is not None:
            return found
    return None


def restrict(alloc: Allocation, aux_item: int) -> Allocation:
    """Drop the auxiliary item from whichever bundle holds it."""
    return tuple(frozenset(t for t in bundle if t != aux_item) for bundle in alloc)
