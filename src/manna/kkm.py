"""Search for a simplex weight where every agent can top the bundle prices.

For each agent i, the membership region C_i collects the weights w for
which some optimal-face allocation gives agent i a maximum-price
bundle. These regions are closed and cover the simplex in the
supported-coordinate sense, so they intersect; the solver must actually
locate a rational point of the intersection and certify it by direct
membership tests.

The search supports n <= 3. It works in the coordinates
t = (w_0, ..., w_{n-2}), in which every price (w_i + eta) v[i][j] is an
affine form. The item-tie arrangement is cut by the n simplex facets and
by one hyperplane per live item and agent pair on which the two agents
price the item equally; each of its vertices is one exact Gaussian
solve. The search certifies the lexicographically smallest common point
w*, and w* is always one of these candidates:

- a vertex of the arrangement;
- for n = 3, on an edge, the crossing of the edge's line with a
  bundle-tie line B_a = B_b of an allocation optimal on the edge;
- inside a cell, where all bundle prices of the cell's one optimal
  allocation are equal.

The reason: the common set is closed and lies in the bounded simplex, so
its lexicographic minimum exists and lies in the relative interior of
some face F of the arrangement. The optimal face is constant on that
relative interior, and membership there is decided by the signs of
bundle-price differences of its allocations. If F is not a vertex, one
of those differences must change sign at w* (a lexicographic minimum is
never interior to a segment of the common set): that is a bundle-tie
crossing on an edge, or the all-equal point in a cell, where every agent
tops the same single allocation. Every face has a vertex v in its
closure, and the optimal face at v contains every allocation optimal on
F, so the candidates are generated from each vertex v, each member x of
its optimal face, and each hyperplane through v; a point is kept only
where x is still optimal. Membership is tested in lexicographic order,
so midpoints and cell representatives, which are never the first
certified point, are not generated.

Every structure at a weight is one :class:`manna.pricing.TieGraph`,
built once per weight: a vertex's graph serves both candidate
generation and the vertex's membership test. The certified point is
the winning candidate's :class:`MembershipSummary`: its weight, its
graph and one witness allocation per agent, so neither the graph nor
the optimal face at w* is built again here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError, SoundnessError
from .model import Allocation
from .preprocess import PerturbedInstance
from .pricing import (
    DEFAULT_FACE_GUARD,
    TieGraph,
    build_tie_graph,
    check_price_signs,
    price_of,
    validate_weight,
)

Weight = tuple[Fraction, ...]
Form = tuple[Fraction, ...]  # a . t + c as (a_0, ..., a_{n-2}, c)


@dataclass(frozen=True)
class MembershipSummary:
    """The agents that can top some optimal-face member at ``w``, with their witnesses.

    ``witnesses[i]`` is an optimal-face allocation in which agent i's
    bundle price is maximal, for every winner i.
    """

    w: Weight
    tie_graph: TieGraph
    winners: frozenset[int]
    witnesses: Mapping[int, Allocation]


def membership_summary(
    p: PerturbedInstance,
    w: Sequence[Fraction],
    eta: Fraction,
    face_guard: int = DEFAULT_FACE_GUARD,
    *,
    tie_graph: TieGraph | None = None,
) -> MembershipSummary:
    """Enumerate the optimal face at ``w`` and record which agents can top it.

    Each winner's witness is the first face member, in tie-assignment
    order, in which its bundle price is maximal. ``tie_graph``, when
    given, is the graph already built at ``w``.
    """
    wt = validate_weight(w, p.n)
    tg = build_tie_graph(p, wt, eta) if tie_graph is None else tie_graph
    prices, ties = tg.prices, tg.ties
    base = [price_of(prices, bundle) for bundle in tg.forced]
    winners: set[int] = set()
    witnesses: dict[int, Allocation] = {}
    for choice in tg.face(face_guard):
        bundle_price = list(base)
        for j, holder in zip(ties, choice):
            bundle_price[holder] += prices[j]
        top = max(bundle_price)
        fresh = [i for i in range(p.n) if bundle_price[i] == top and i not in winners]
        if fresh:
            winners.update(fresh)
            alloc = tg.allocation(choice)
            for i in fresh:
                witnesses[i] = alloc
    return MembershipSummary(w=wt, tie_graph=tg, winners=frozenset(winners), witnesses=witnesses)


def build_star_point(p: PerturbedInstance, summary: MembershipSummary) -> MembershipSummary:
    """Certify a summary as the common point: every agent won and the prices have their signs."""
    missing = sorted(set(range(p.n)) - summary.winners)
    if missing:
        raise SoundnessError(f"agents {missing} have no membership witness at the star point")
    check_price_signs(p, summary.tie_graph.prices)
    return summary


# ---------------------------------------------------------------------------
# exact search over the item-tie arrangement in t = (w_0, ..., w_{n-2})


def _weight_form(n: int, agent: int) -> Form:
    if agent < n - 1:
        return tuple(Fraction(k == agent) for k in range(n - 1)) + (Fraction(0),)
    return (Fraction(-1),) * (n - 1) + (Fraction(1),)


def _price_form(p: PerturbedInstance, eta: Fraction, agent: int, item: int) -> Form:
    v = p.pvalues[agent][item]
    *a, c = _weight_form(p.n, agent)
    return tuple(v * x for x in a) + (v * (c + eta),)


def _sub(f: Form, g: Form) -> Form:
    return tuple(x - y for x, y in zip(f, g))


def _hyperplane(f: Form) -> Form | None:
    """The form scaled so its first nonzero coefficient is 1; None if constant."""
    lead = next((x for x in f[:-1] if x != 0), None)
    return None if lead is None else tuple(x / lead for x in f)


def _solve(forms: Sequence[Form]) -> tuple[Fraction, ...] | None:
    """The unique t at which all ``len(t)`` forms vanish, or None."""
    d = len(forms)
    rows = [list(f[:d]) + [-f[d]] for f in forms]
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(d):
            if r != col and rows[r][col] != 0:
                k = rows[r][col] / rows[col][col]
                rows[r] = [x - k * y for x, y in zip(rows[r], rows[col])]
    return tuple(rows[k][d] / rows[k][k] for k in range(d))


def _inside(t: tuple[Fraction, ...]) -> bool:
    return all(x >= 0 for x in t) and sum(t) <= 1


def _weight(t: tuple[Fraction, ...]) -> Weight:
    return t + (1 - sum(t),)


def _holds(p: PerturbedInstance, eta: Fraction, t: tuple[Fraction, ...], sigma: tuple[int, ...]) -> bool:
    """Whether every live item's holder in ``sigma`` still attains its price at ``t``."""
    mult = [x + eta for x in _weight(t)]
    return all(
        mult[h] * p.pvalues[h][j] == max(mult[i] * p.pvalues[i][j] for i in range(p.n))
        for j, h in zip(p.live_items, sigma)
    )


def _candidates(
    p: PerturbedInstance, eta: Fraction, face_guard: int
) -> list[tuple[Weight, TieGraph | None]]:
    """Arrangement vertices, bundle-tie crossings and all-equal points, lexicographic.

    Each vertex comes with the tie graph built there; the other points with None.
    """
    n, live = p.n, p.live_items
    forms = {(i, j): _price_form(p, eta, i, j) for i in range(n) for j in live}
    raw = [_weight_form(n, i) for i in range(n)] + [
        _sub(forms[a, j], forms[b, j]) for j in live for a, b in itertools.combinations(range(n), 2)
    ]
    planes = sorted({h for h in map(_hyperplane, raw) if h is not None})
    through: dict[tuple[Fraction, ...], set[int]] = {}
    for subset in itertools.combinations(range(len(planes)), n - 1):
        t = _solve([planes[k] for k in subset])
        if t is not None and _inside(t):
            through.setdefault(t, set()).update(subset)

    points = set(through)
    graphs: dict[tuple[Fraction, ...], TieGraph] = {}
    bundle_forms: dict[tuple[int, ...], list[Form]] = {}
    crossed: set[tuple[tuple[int, ...], int]] = set()
    for v, lines in through.items():
        tg = graphs[v] = build_tie_graph(p, _weight(v), eta)
        for choice in tg.face(face_guard):
            holder = {j: hs[0] for j, hs in tg.holders.items()}
            holder.update(zip(tg.ties, choice))
            sigma = tuple(holder[j] for j in live)
            systems = []
            if sigma not in bundle_forms:
                bundles = bundle_forms[sigma] = [(Fraction(0),) * n for _ in range(n)]
                for j, h in zip(live, sigma):
                    bundles[h] = tuple(x + y for x, y in zip(bundles[h], forms[h, j]))
                systems.append([_sub(bundles[0], bundles[i]) for i in range(1, n)])
            bundles = bundle_forms[sigma]
            for k in lines if n == 3 else ():
                if (sigma, k) not in crossed:
                    crossed.add((sigma, k))
                    systems += [
                        [planes[k], _sub(bundles[a], bundles[b])]
                        for a, b in itertools.combinations(range(n), 2)
                    ]
            for system in systems:
                t = _solve(system)
                if t is not None and t not in points and _inside(t) and _holds(p, eta, t, sigma):
                    points.add(t)
    return [(_weight(t), graphs.get(t)) for t in sorted(points)]


def find_wstar(
    p: PerturbedInstance, eta: Fraction, *, face_guard: int = DEFAULT_FACE_GUARD
) -> MembershipSummary:
    """Locate and certify the lexicographically first common point of all membership regions.

    Returns the summary at that point, in which every agent won.

    The candidate set is complete for n <= 3 (see the module docstring),
    so running out of candidates is a soundness violation worth
    reporting with the instance attached.
    """
    if p.n > 3:
        raise InputError(f"the fixed-point search supports at most 3 agents, not {p.n}")
    candidates = _candidates(p, eta, face_guard)
    for w, tg in candidates:
        summary = membership_summary(p, w, eta, face_guard, tie_graph=tg)
        if len(summary.winners) == p.n:
            return build_star_point(p, summary)
    raise SoundnessError(
        f"exact search exhausted {len(candidates)} candidates without a common point "
        f"(n={p.n}, m={p.m}, seed={p.seed}); this indicates degeneracy or a bug"
    )
