"""Search for a simplex weight where every agent can top the bundle prices.

For each agent i, the membership region C_i collects the weights w for
which some optimal-face allocation gives agent i a maximum-price
bundle. These regions are closed and cover the simplex in the
supported-coordinate sense, so they intersect; the solver must actually
locate a rational point of the intersection and certify it by direct
membership tests.

Two strategies are provided. The exact strategy (n <= 3) enumerates a
finite candidate set built from the arrangement of critical lines:
item-tie loci where two agents price an item equally, and bundle-tie
loci where two bundle prices of a locally-constant optimal allocation
coincide. Membership is constant on the relative interior of every
face of this arrangement and the regions are closed, so any nonempty
intersection contains an arrangement vertex; the candidate set
therefore consists of vertices (plus cheap interior representatives for
robustness). The subdivision strategy (any n) refines barycentric
subdivisions around fully-labeled simplices and tests all vertices and
centroids exactly; it reports failure rather than approximating.

Every structure at a weight comes from one builder,
:func:`manna.pricing.price_forest`: the membership summary of a
candidate, the argmax map of a cell representative (built once per
representative), and the bundle-tie forms at a 1-face midpoint. The
certified point is assembled from the winning candidate's summary, so
the optimal face at w* is not enumerated again here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError, SearchUnresolvedError, SoundnessError
from .model import Allocation
from .preprocess import PerturbedInstance
from .pricing import (
    DEFAULT_FACE_GUARD,
    TieGraph,
    build_tie_graph,
    check_price_signs,
    price_forest,
    price_of,
    support,
    validate_weight,
)

Weight = tuple[Fraction, ...]

DEFAULT_MAX_DEPTH = 24
DEFAULT_SIMPLEX_BUDGET = 20_000


@dataclass(frozen=True)
class CellWitness:
    """Evidence that a weight lies in an agent's membership region."""

    agent: int
    w: Weight
    allocation: Allocation
    max_price: Fraction


@dataclass(frozen=True)
class StarPoint:
    """A certified common point: one membership witness per agent."""

    w_star: Weight
    witnesses: tuple[CellWitness, ...]
    prices: tuple[Fraction, ...]
    tie_graph: TieGraph


@dataclass(frozen=True)
class MembershipSummary:
    w: Weight
    prices: tuple[Fraction, ...]
    winners: frozenset[int]
    witnesses: Mapping[int, Allocation]
    tie_items: tuple[int, ...]
    face_size: int


def membership_summary(
    p: PerturbedInstance, w: Sequence[Fraction], eta: Fraction, face_guard: int = DEFAULT_FACE_GUARD
) -> MembershipSummary:
    """Enumerate the optimal face at ``w`` and record which agents can top it.

    Each winner's witness is the first face member, in tie-assignment
    order, in which its bundle price is maximal.
    """
    wt = validate_weight(w, p.n)
    forest = price_forest(p, wt, eta)
    prices, ties = forest.prices, forest.ties
    base = [price_of(prices, bundle) for bundle in forest.forced]
    face_size = 0
    winners: set[int] = set()
    witnesses: dict[int, Allocation] = {}
    for choice in forest.face(face_guard):
        face_size += 1
        bundle_price = list(base)
        for j, holder in zip(ties, choice):
            bundle_price[holder] += prices[j]
        top = max(bundle_price)
        fresh = [i for i in range(p.n) if bundle_price[i] == top and i not in winners]
        if fresh:
            winners.update(fresh)
            alloc = forest.allocation(choice)
            for i in fresh:
                witnesses[i] = alloc
    return MembershipSummary(
        w=wt,
        prices=prices,
        winners=frozenset(winners),
        witnesses=witnesses,
        tie_items=ties,
        face_size=face_size,
    )


def cell_membership(
    p: PerturbedInstance, w: Sequence[Fraction], eta: Fraction, agent: int
) -> CellWitness | None:
    """Witness allocation making ``agent`` a global price maximum, or None."""
    summary = membership_summary(p, w, eta)
    if agent not in summary.winners:
        return None
    alloc = summary.witnesses[agent]
    return CellWitness(
        agent=agent,
        w=summary.w,
        allocation=alloc,
        max_price=price_of(summary.prices, alloc[agent]),
    )


def covering_label(p: PerturbedInstance, w: Sequence[Fraction], eta: Fraction) -> int:
    """Smallest supported agent whose membership holds at ``w``; always exists."""
    summary = membership_summary(p, w, eta)
    candidates = sorted(summary.winners & support(summary.w))
    if not candidates:
        raise SoundnessError(
            f"no supported agent covers weight {tuple(map(str, w))}; degenerate or buggy instance"
        )
    return candidates[0]


def build_star_point(p: PerturbedInstance, summary: MembershipSummary, eta: Fraction) -> StarPoint:
    """Assemble the certified object from a summary in which every agent won."""
    missing = sorted(set(range(p.n)) - summary.winners)
    if missing:
        raise SoundnessError(f"agents {missing} have no membership witness at the star point")
    prices = summary.prices
    check_price_signs(p, prices)
    witnesses = tuple(
        CellWitness(
            agent=i,
            w=summary.w,
            allocation=summary.witnesses[i],
            max_price=price_of(prices, summary.witnesses[i][i]),
        )
        for i in range(p.n)
    )
    tg = build_tie_graph(p, summary.w, eta, prices)
    return StarPoint(w_star=summary.w, witnesses=witnesses, prices=prices, tie_graph=tg)


def _sigma_at(p: PerturbedInstance, w: Weight, eta: Fraction) -> tuple[int, ...]:
    """Unique price-attaining agent of each live item; raises if any item ties."""
    forest = price_forest(p, w, eta)
    if forest.ties:
        raise SoundnessError(
            f"cell representative unexpectedly lies on a tie locus (item {forest.ties[0]})"
        )
    return tuple(hs[0] for hs in forest.holders.values())


# ---------------------------------------------------------------------------
# exact strategy, n = 2: breakpoints on the segment w = (t, 1 - t)


def _segment_candidates(p: PerturbedInstance, eta: Fraction) -> list[Weight]:
    live = p.live_items
    pts: set[Fraction] = {Fraction(0), Fraction(1)}
    for j in live:
        a, b = p.pvalues[0][j], p.pvalues[1][j]
        if a + b == 0:
            continue
        t = (b + eta * (b - a)) / (a + b)
        if 0 <= t <= 1:
            pts.add(t)
    breakpoints = sorted(pts)
    roots: set[Fraction] = set()
    for lo, hi in zip(breakpoints, breakpoints[1:]):
        mid = (lo + hi) / 2
        sigma = _sigma_at(p, (mid, 1 - mid), eta)
        # bundle price gap f(t) = sum_{holder 0} (t+eta) v - sum_{holder 1} (1-t+eta) v
        alpha = Fraction(0)
        beta = Fraction(0)
        for j, holder in zip(live, sigma):
            v = p.pvalues[holder][j]
            if holder == 0:
                alpha += v
                beta += eta * v
            else:
                alpha += v
                beta -= (1 + eta) * v
        if alpha != 0:
            t = -beta / alpha
            if lo < t < hi:
                roots.add(t)
    pts |= roots
    ordered = sorted(pts)
    mids = [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    final = sorted(set(ordered) | set(mids))
    return [(t, 1 - t) for t in final]


# ---------------------------------------------------------------------------
# exact strategy, n = 3: line arrangement in the plane w = (x, y, 1 - x - y)

Form = tuple[Fraction, Fraction, Fraction]  # cx * x + cy * y + c0
Line = tuple[Fraction, Fraction, Fraction]  # A * x + B * y = C, canonical


def _price_form(p: PerturbedInstance, agent: int, item: int, eta: Fraction) -> Form:
    v = p.pvalues[agent][item]
    if agent == 0:
        return (v, Fraction(0), eta * v)
    if agent == 1:
        return (Fraction(0), v, eta * v)
    return (-v, -v, (1 + eta) * v)


def _form_sub(a: Form, b: Form) -> Form:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _form_add(a: Form, b: Form) -> Form:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _form_eval(f: Form, pt: tuple[Fraction, Fraction]) -> Fraction:
    return f[0] * pt[0] + f[1] * pt[1] + f[2]


def _line_of(form: Form) -> Line | None:
    cx, cy, c0 = form
    if cx == 0 and cy == 0:
        return None
    if cx != 0:
        return (Fraction(1), cy / cx, -c0 / cx)
    return (Fraction(0), Fraction(1), -c0 / cy)


def _intersect(l1: Line, l2: Line) -> tuple[Fraction, Fraction] | None:
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    x = (c1 * b2 - c2 * b1) / det
    y = (a1 * c2 - a2 * c1) / det
    return (x, y)


def _in_triangle(pt: tuple[Fraction, Fraction]) -> bool:
    x, y = pt
    return x >= 0 and y >= 0 and x + y <= 1


def _plane_candidates(p: PerturbedInstance, eta: Fraction) -> list[Weight]:
    live = p.live_items
    lines: set[Line] = {
        (Fraction(1), Fraction(0), Fraction(0)),  # x = 0
        (Fraction(0), Fraction(1), Fraction(0)),  # y = 0
        (Fraction(1), Fraction(1), Fraction(1)),  # x + y = 1
    }
    for j in live:
        for a, b in itertools.combinations(range(3), 2):
            line = _line_of(_form_sub(_price_form(p, a, j, eta), _price_form(p, b, j, eta)))
            if line is not None:
                lines.add(line)
    line_list = sorted(lines)

    corners = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    vertices: set[tuple[Fraction, Fraction]] = set(corners)
    for l1, l2 in itertools.combinations(line_list, 2):
        pt = _intersect(l1, l2)
        if pt is not None and _in_triangle(pt):
            vertices.add(pt)

    candidates: set[tuple[Fraction, Fraction]] = set(vertices)

    # 1-dimensional faces: walk each line's in-triangle segments
    for line in line_list:
        a, b, c = line
        on_line = sorted(
            (pt for pt in vertices if a * pt[0] + b * pt[1] == c),
            key=lambda q: (-b * q[0] + a * q[1]),
        )
        for p1, p2 in zip(on_line, on_line[1:]):
            if p1 == p2:
                continue
            mid = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2)
            candidates.add(mid)
            for f in _bundle_tie_forms_at(p, mid, eta):
                v1, v2 = _form_eval(f, p1), _form_eval(f, p2)
                if v1 == v2:
                    continue
                u = v1 / (v1 - v2)
                if 0 < u < 1:
                    candidates.add((p1[0] + u * (p2[0] - p1[0]), p1[1] + u * (p2[1] - p1[1])))

    # 2-dimensional cells: slab interior representatives, then their
    # all-bundles-equal points
    xs = sorted({pt[0] for pt in vertices})
    sigmas: dict[tuple[int, ...], tuple[Fraction, Fraction]] = {}
    for x1, x2 in zip(xs, xs[1:]):
        xm = (x1 + x2) / 2
        ylim = 1 - xm
        crossings: set[Fraction] = set()
        for a, b, c in line_list:
            if b == 0:
                continue
            y = (c - a * xm) / b
            if 0 <= y <= ylim:
                crossings.add(y)
        ys = sorted(crossings)
        for y1, y2 in zip(ys, ys[1:]):
            rep = (xm, (y1 + y2) / 2)
            sigma = _sigma_at(p, (rep[0], rep[1], 1 - rep[0] - rep[1]), eta)
            sigmas.setdefault(sigma, rep)
    for sigma, rep in sorted(sigmas.items()):
        candidates.add(rep)
        bundle_forms = [
            (Fraction(0), Fraction(0), Fraction(0)) for _ in range(3)
        ]
        for j, holder in zip(live, sigma):
            bundle_forms[holder] = _form_add(bundle_forms[holder], _price_form(p, holder, j, eta))
        f01 = _form_sub(bundle_forms[0], bundle_forms[1])
        f02 = _form_sub(bundle_forms[0], bundle_forms[2])
        l01, l02 = _line_of(f01), _line_of(f02)
        if l01 is None and f01[2] != 0:
            continue
        if l02 is None and f02[2] != 0:
            continue
        if l01 is not None and l02 is not None:
            pt = _intersect(l01, l02)
            if pt is None or not _in_triangle(pt):
                continue
            holders = price_forest(p, (pt[0], pt[1], 1 - pt[0] - pt[1]), eta).holders
            if all(holder in holders[j] for j, holder in zip(live, sigma)):
                candidates.add(pt)
        # one degenerate pair: the all-equal locus is a whole line whose
        # triangle crossings are already covered by the 1-face pass

    ordered = sorted(candidates)
    out: list[Weight] = []
    for x, y in ordered:
        out.append((x, y, 1 - x - y))
    return out


def _bundle_tie_forms_at(
    p: PerturbedInstance, pt: tuple[Fraction, Fraction], eta: Fraction
) -> list[Form]:
    """Bundle price difference forms of every optimal-face allocation at a point.

    A tie item enters every bundle with the price form of its smallest
    holder; all its holders' forms agree on the tie line through ``pt``.
    """
    forest = price_forest(p, (pt[0], pt[1], 1 - pt[0] - pt[1]), eta)
    zero: Form = (Fraction(0), Fraction(0), Fraction(0))
    base = [zero] * 3
    for j, hs in forest.holders.items():
        if len(hs) == 1:
            base[hs[0]] = _form_add(base[hs[0]], _price_form(p, hs[0], j, eta))
    tie_forms = [_price_form(p, forest.holders[j][0], j, eta) for j in forest.ties]
    forms: list[Form] = []
    for choice in forest.face():
        bundle_forms = list(base)
        for form, holder in zip(tie_forms, choice):
            bundle_forms[holder] = _form_add(bundle_forms[holder], form)
        for a, b in itertools.combinations(range(3), 2):
            forms.append(_form_sub(bundle_forms[a], bundle_forms[b]))
    return forms


# ---------------------------------------------------------------------------
# candidate driver and subdivision strategy


def find_wstar(
    p: PerturbedInstance,
    eta: Fraction,
    strategy: str = "auto",
    *,
    face_guard: int = DEFAULT_FACE_GUARD,
    max_depth: int = DEFAULT_MAX_DEPTH,
    simplex_budget: int = DEFAULT_SIMPLEX_BUDGET,
) -> StarPoint:
    """Locate and certify a weight in the intersection of all membership regions.

    ``strategy`` is "exact", "subdivision", or "auto" (exact when
    n <= 3). The exact strategy is complete for its supported sizes; an
    exhausted candidate set is a soundness violation worth reporting
    with the instance attached. The subdivision strategy reports an
    unresolved search rather than returning an uncertified point.
    """
    if strategy == "auto":
        strategy = "exact" if p.n <= 3 else "subdivision"
    if strategy == "exact":
        if p.n > 3:
            raise InputError("exact strategy supports at most 3 agents; use subdivision")
        candidates = (
            _segment_candidates(p, eta) if p.n == 2 else _plane_candidates(p, eta)
        )
        for w in candidates:
            summary = membership_summary(p, w, eta, face_guard)
            if len(summary.winners) == p.n:
                return build_star_point(p, summary, eta)
        raise SoundnessError(
            f"exact search exhausted {len(candidates)} candidates without a common point "
            f"(n={p.n}, m={p.m}, seed={p.seed}); this indicates degeneracy or a bug"
        )
    if strategy == "subdivision":
        return _subdivision_search(
            p, eta, face_guard=face_guard, max_depth=max_depth, simplex_budget=simplex_budget
        )
    raise InputError(f"unknown strategy {strategy!r}")


def _subdivision_search(
    p: PerturbedInstance,
    eta: Fraction,
    *,
    face_guard: int,
    max_depth: int,
    simplex_budget: int,
) -> StarPoint:
    n = p.n
    needed = frozenset(range(n))
    unit = [
        tuple(Fraction(1) if k == i else Fraction(0) for k in range(n)) for i in range(n)
    ]
    root = tuple(unit)

    summaries: dict[Weight, MembershipSummary] = {}
    labels_cache: dict[Weight, int] = {}

    def summary_at(w: Weight) -> MembershipSummary:
        if w not in summaries:
            summaries[w] = membership_summary(p, w, eta, face_guard)
        return summaries[w]

    def label(w: Weight) -> int:
        if w not in labels_cache:
            sup = support(w)
            cands = sorted(summary_at(w).winners & sup)
            if not cands:
                raise SoundnessError(f"covering failed at weight {tuple(map(str, w))}")
            labels_cache[w] = cands[0]
        return labels_cache[w]

    def centroid(simplex: tuple[Weight, ...]) -> Weight:
        return tuple(sum(v[k] for v in simplex) / n for k in range(n))

    def diameter(simplex: tuple[Weight, ...]) -> Fraction:
        return max(
            sum(abs(a[k] - b[k]) for k in range(n))
            for a, b in itertools.combinations(simplex, 2)
        )

    best: tuple[Fraction, tuple[Weight, ...]] | None = None
    stack: list[tuple[int, tuple[Weight, ...]]] = [(0, root)]
    processed = 0
    while stack:
        depth, simplex = stack.pop()
        processed += 1
        if processed > simplex_budget:
            break
        for w in list(simplex) + [centroid(simplex)]:
            if summary_at(w).winners == needed:
                return build_star_point(p, summary_at(w), eta)
        if len({label(v) for v in simplex}) != n:
            continue
        d = diameter(simplex)
        if best is None or d < best[0]:
            best = (d, simplex)
        if depth >= max_depth:
            continue
        children = []
        for perm in itertools.permutations(range(n)):
            chain = []
            acc = [Fraction(0)] * n
            for idx, vi in enumerate(perm, start=1):
                acc = [a + c for a, c in zip(acc, simplex[vi])]
                chain.append(tuple(a / idx for a in acc))
            children.append(tuple(chain))
        for child in reversed(children):
            stack.append((depth + 1, child))
    raise SearchUnresolvedError(
        "subdivision reached its depth limit without certifying a common point",
        best_simplex=None if best is None else best[1],
        diameter=None if best is None else best[0],
    )
