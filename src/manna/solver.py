"""End-to-end pipeline: normalize, perturb, search, level, restrict, certify.

Also hosts deterministic instance generation and the structural
explanation dump used by the command line front end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .augmenting import solve_by_augmenting
from .certificate import Certificate, instance_digest
from .errors import DegeneracyError, InputError, SoundnessError
from .kkm import MembershipSummary, find_wstar, membership_summary
from .leveling import compute_tau, find_leveled, p_plus
from .model import Allocation, Instance, format_rat
from .oracles import VerificationReport, verify_certificate
from .preprocess import (
    DEFAULT_ENUM_GUARD,
    DEFAULT_GRID_BASE,
    DEFAULT_RETRIES,
    Constants,
    PerturbedInstance,
    compute_constants,
    normalize_mixed,
    perturb,
    restrict,
)
from .pricing import check_price_signs, enumerate_opt, price_of, support

PROFILES = ("goods", "chores", "mixed", "zero-mixed")


@dataclass(frozen=True)
class SolveOptions:
    seed: int = 0
    mode: str = "enumerate"
    guard: int = DEFAULT_ENUM_GUARD
    grid_base: int = DEFAULT_GRID_BASE
    keep_trace: bool = False

    def __post_init__(self):
        if self.mode not in ("enumerate", "augment"):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.guard < 0:
            raise InputError(f"the enumeration guard must be nonnegative, not {self.guard}")


def generate_instance(
    seed: int, n: int, m: int, value_range: int = 10, profile: str = "mixed"
) -> Instance:
    """Deterministic random instance; the profile shapes the item-type mix."""
    if n < 2 or m < 2:
        raise InputError("need n >= 2 and m >= 2")
    if value_range < 1:
        raise InputError("value range must be at least 1")
    if profile not in PROFILES:
        raise InputError(f"unknown sign profile {profile!r}; choose one of {PROFILES}")
    rng = random.Random(seed)
    rows = [[Fraction(0)] * m for _ in range(n)]
    for j in range(m):
        if profile == "goods":
            for i in range(n):
                rows[i][j] = Fraction(rng.randint(1, value_range))
        elif profile == "chores":
            for i in range(n):
                rows[i][j] = Fraction(rng.randint(-value_range, -1))
        elif profile == "mixed":
            for i in range(n):
                rows[i][j] = Fraction(rng.randint(-value_range, value_range))
        else:  # zero-mixed: at least one zero and one positive per item
            zero_count = rng.randrange(1, n)
            zero_agents = set(rng.sample(range(n), zero_count))
            for i in range(n):
                rows[i][j] = Fraction(0) if i in zero_agents else Fraction(rng.randint(1, value_range))
    return Instance(n, m, tuple(tuple(r) for r in rows))


def trivial_allocation(inst: Instance) -> Allocation:
    """Each item to the smallest agent with maximal value; used when all values vanish."""
    bundles: list[set[int]] = [set() for _ in range(inst.n)]
    for j in range(inst.m):
        col = [inst.values[i][j] for i in range(inst.n)]
        bundles[col.index(max(col))].add(j)
    return tuple(frozenset(b) for b in bundles)


def solve(inst: Instance, opts: SolveOptions = SolveOptions()) -> tuple[Certificate, VerificationReport]:
    """Produce a certified fair-and-efficient allocation for the instance."""
    digest = instance_digest(inst)
    normalized = normalize_mixed(inst)
    constants = compute_constants(normalized, opts.guard)

    if constants.lam is None:
        alloc = trivial_allocation(inst)
        cert = Certificate(
            instance_digest=digest,
            seed=opts.seed,
            mode=opts.mode,
            strategy="trivial",
            trivial=True,
            lam=None,
            omega=None,
            omega_exact=True,
            epsilon=None,
            eta=None,
            perturbed_values=None,
            w_star=None,
            prices=None,
            tau=None,
            allocation_perturbed=None,
            allocation_original=alloc,
            swaps_perturbed=None,
            swaps_original=tuple(frozenset() for _ in range(inst.n)),
        )
        report = verify_certificate(inst, cert, opts.guard)
        return replace(cert, verification=report.to_dict()), report

    p, star = _draw_and_search(normalized, constants, opts)
    return _finish(inst, digest, p, star, opts)


def _draw_and_search(
    normalized: Instance, constants: Constants, opts: SolveOptions, *, search: bool = True
) -> tuple[PerturbedInstance, MembershipSummary | None]:
    """The first clean perturbation draw and, with ``search``, the summary at its certified w*.

    The one retry loop over perturbation draws: attempts 0 to
    ``DEFAULT_RETRIES``. One attempt counter covers both ways a draw can
    be degenerate: a value-ratio cycle found by the eager scan in
    :func:`perturb`, and an equality-graph cycle met during the search.
    Without ``search`` the first draw that passes the scan is returned,
    with None.
    """
    last: DegeneracyError | None = None
    for attempt in range(DEFAULT_RETRIES + 1):
        try:
            p = perturb(normalized, opts.seed, constants, attempt=attempt, grid_base=opts.grid_base)
            return p, find_wstar(p, p.constants.eta) if search else None
        except DegeneracyError as exc:
            last = exc
    raise DegeneracyError(
        f"degeneracy persisted through {DEFAULT_RETRIES + 1} perturbation draws",
        cycle=None if last is None else last.cycle,
    )


def _finish(
    inst: Instance,
    digest: str,
    p: PerturbedInstance,
    star: MembershipSummary,
    opts: SolveOptions,
) -> tuple[Certificate, VerificationReport]:
    tg = star.tie_graph
    prices = tg.prices
    eta = p.constants.eta
    face = enumerate_opt(tg)
    tau = compute_tau(tg, face)
    trace: list[dict] = []
    if opts.mode == "enumerate":
        alloc_live = find_leveled(tg, tau, face=face, expect_full=True).allocation
    else:
        alloc_live = solve_by_augmenting(tg, tau, star.witnesses, trace, face=face)

    swaps_bar: list[frozenset[int]] = []
    for i in range(p.n):
        chosen: frozenset[int] | None = None
        for swap in [frozenset()] + [frozenset({t}) for t in sorted(tg.gamma[i])]:
            if price_of(prices, alloc_live[i] ^ swap) >= tau:
                chosen = swap
                break
        if chosen is None:
            raise SoundnessError(f"agent {i} has no one-flip bundle reaching the threshold")
        swaps_bar.append(chosen)

    bundles = [set(b) for b in alloc_live]
    for j, holder in sorted(p.zero_item_pins(inst).items()):
        bundles[holder].add(j)
    alloc_bar = tuple(frozenset(b) for b in bundles)
    alloc_orig = restrict(alloc_bar, p.aux_item)
    swaps_orig = tuple(s - {p.aux_item} for s in swaps_bar)

    cert = Certificate(
        instance_digest=digest,
        seed=opts.seed,
        mode=opts.mode,
        strategy="exact",
        trivial=False,
        lam=p.constants.lam,
        omega=p.constants.omega,
        omega_exact=p.constants.omega_exact,
        epsilon=p.constants.epsilon,
        eta=eta,
        perturbed_values=p.pvalues,
        w_star=star.w,
        prices=prices,
        tau=tau,
        allocation_perturbed=alloc_bar,
        allocation_original=alloc_orig,
        swaps_perturbed=tuple(swaps_bar),
        swaps_original=swaps_orig,
        trace=tuple(trace) if opts.keep_trace else (),
    )
    report = verify_certificate(inst, cert, opts.guard)
    return replace(cert, verification=report.to_dict()), report


def explain(
    inst: Instance,
    seed: int = 0,
    w: Sequence[Fraction] | None = None,
    *,
    guard: int = DEFAULT_ENUM_GUARD,
    with_trace: bool = False,
) -> str:
    """Human-readable dump of the pricing structure at a weight (found or given).

    Without ``w`` the weight is the w* that :func:`solve` certifies for
    the same seed, found through the same perturbation draws. A
    supplied ``w`` is read on the seed's first clean draw.
    """
    opts = SolveOptions(seed=seed, guard=guard)
    normalized = normalize_mixed(inst)
    constants = compute_constants(normalized, guard)
    lines: list[str] = []
    if constants.lam is None:
        return "all-zero instance: every allocation is fair and efficient\n"
    if w is None:
        p, summary = _draw_and_search(normalized, constants, opts)
        lines.append("weight: certified common point")
    else:
        p, _ = _draw_and_search(normalized, constants, opts, search=False)
        summary = membership_summary(p, w, p.constants.eta)
        check_price_signs(p, summary.tie_graph.prices)
        lines.append("weight: supplied")
    weight, tg, winners, eta = summary.w, summary.tie_graph, summary.winners, p.constants.eta
    lines.append("w = (" + ", ".join(format_rat(x) for x in weight) + ")")
    lines.append(f"eta = {format_rat(eta)}")

    prices = tg.prices
    aux = p.aux_item

    def item_name(j: int) -> str:
        return "aux" if j == aux else str(j + 1)

    lines.append("prices: " + ", ".join(f"{item_name(j)}={format_rat(prices[j])}" for j in tg.holders))
    edges = sorted((i, j) for j, hs in tg.holders.items() for i in hs)
    lines.append("edges: " + ", ".join(f"(a{i + 1},{item_name(j)})" for i, j in edges))
    for i in range(p.n):
        lines.append(f"forced bundle a{i + 1}: {{{', '.join(item_name(j) for j in sorted(tg.forced[i]))}}}")
    lines.append("tie items: {" + ", ".join(item_name(j) for j in tg.ties) + "}")
    # components are numbered by their first agent; an item sits in its first holder's
    members: dict[int, list[str]] = {}
    for i, root in enumerate(tg.roots):
        members.setdefault(root, []).append(f"a{i + 1}")
    for j, hs in tg.holders.items():
        members[tg.roots[hs[0]]].append(item_name(j))
    for k, names in enumerate(members.values()):
        lines.append(f"component {k}: {' '.join(names)}")

    face = enumerate_opt(tg)
    lines.append(f"optimal face size: {len(face)}")
    tau = compute_tau(tg, face)
    lines.append(f"tau = {format_rat(tau)}")
    level = find_leveled(tg, tau, face=face)
    for i in range(p.n):
        lines.append(f"p_plus a{i + 1} = {format_rat(p_plus(tg, i, level.allocation[i]))}")
    table = ", ".join(f"a{i + 1}: {'yes' if i in winners else 'no'}" for i in range(p.n))
    lines.append("membership: " + table)
    if support(weight) != frozenset(range(p.n)):
        lines.append("boundary weight: support = {" + ", ".join(f"a{i + 1}" for i in sorted(support(weight))) + "}")
    if with_trace and w is None:
        trace: list[dict] = []
        solve_by_augmenting(tg, tau, summary.witnesses, trace, face=face)
        lines.append(f"augmenting trace ({len(trace)} events):")
        for event in trace:
            lines.append("  " + ", ".join(f"{k}={v}" for k, v in event.items()))
    return "\n".join(lines) + "\n"
