"""Independent brute-force ground truth and full certificate verification.

Everything here recomputes results definitionally: allocation
enumeration, dominance scans, threshold recomputation by filtering the
whole allocation space on objective equality, and the certificate
checker that re-derives prices and constants from first principles.
None of it shares code paths with the solver's structural shortcuts,
so agreement is meaningful evidence.

The exception is the constants: the verifier recomputes lambda and
omega with the same integer sumsets as the solver
(:func:`manna.preprocess.compute_lambda`, :func:`compute_omega`). Their
independent cross-check is the definitional enumeration in
``tests/reference_constants.py``, which the property tests compare them
against.

Pareto optimality is not an ``n^m`` walk either. :func:`po_verdict`
passes fractionally Pareto-optimal allocations with a weight cycle test
and decides the rest by an exact search over Pareto-maximal utility
vectors. It reads only the instance and the allocation, never the
solver's weights or prices. :func:`brute_po`, the exhaustive scan, is
the definitional reference the property tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterator, Sequence

from .certificate import Certificate, instance_digest
from .errors import MannaError, SizeGuardError, VerificationError
from .leveling import compute_tau, p_plus
from .model import (
    Allocation,
    Instance,
    SwapWitness,
    bundle_value,
    format_rat,
    ief1_witnesses,
    validate_allocation,
)
from .preprocess import (
    DEFAULT_ENUM_GUARD,
    Constants,
    ItemClass,
    PerturbedInstance,
    compute_eta,
    compute_lambda,
    assignments,
    compute_omega,
    choose_epsilon,
    denominators_lcm,
    normalize_mixed,
    omega_lower_bound,
    restrict,
    value_cap,
)
from .pricing import (
    TieGraph,
    build_tie_graph,
    check_price_signs,
    enumerate_opt,
    on_optimal_face,
    price_of,
    support,
)


def enumerate_allocations(n: int, m: int, guard: int = DEFAULT_ENUM_GUARD) -> Iterator[Allocation]:
    """Stream of all complete allocations, never materialized as a list."""
    if n < 2 or m < 2:
        from .errors import InputError

        raise InputError(f"need n >= 2 and m >= 2, got n={n}, m={m}")
    for vec in assignments(n, m, guard):
        bundles: list[set[int]] = [set() for _ in range(n)]
        for j, holder in enumerate(vec):
            bundles[holder].add(j)
        yield tuple(frozenset(b) for b in bundles)


def _int_matrix(values: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    lcm = denominators_lcm(values)
    return [[int(v * lcm) for v in row] for row in values], lcm


def brute_po(inst: Instance, alloc: Allocation, guard: int = DEFAULT_ENUM_GUARD) -> bool:
    """Pareto optimality by exhaustive dominance scan."""
    validate_allocation(inst, alloc, complete=True)
    if inst.n ** inst.m > guard:
        raise SizeGuardError(f"{inst.n}^{inst.m} allocations exceed guard {guard}")
    ints, _ = _int_matrix(inst.values)
    own = [sum(ints[i][t] for t in alloc[i]) for i in range(inst.n)]
    for vec in assignments(inst.n, inst.m, guard):
        vals = [0] * inst.n
        for j, holder in enumerate(vec):
            vals[holder] += ints[holder][j]
        if all(vals[i] >= own[i] for i in range(inst.n)) and any(
            vals[i] > own[i] for i in range(inst.n)
        ):
            return False
    return True


def _is_fpo(inst: Instance, alloc: Allocation) -> bool:
    """Whether weights beta > 0 give every item to an argmax of beta_i * v[i][j].

    Such an allocation maximizes a strictly positive weighted welfare
    even over fractional allocations, so it is Pareto-optimal. Each item
    held by i bounds a ratio beta_a / beta_b from below (see the case
    list in the loop); the bounds are feasible exactly when no cycle of
    them multiplies to more than 1, decided by a Floyd-Warshall pass over
    max-products in exact arithmetic.
    """
    n = inst.n
    # bound[a][b]: the largest known lower bound on beta_a / beta_b, or None
    bound: list[list[Fraction | None]] = [[None] * n for _ in range(n)]
    for i, bundle in enumerate(alloc):
        for j in bundle:
            mine = inst.values[i][j]
            for k in range(n):
                theirs = inst.values[k][j]
                if k == i or (mine >= 0 and theirs <= 0):
                    continue  # beta_i * mine >= 0 >= beta_k * theirs for any beta
                if mine > 0:  # beta_i * mine >= beta_k * theirs
                    a, b, ratio = i, k, theirs / mine
                elif theirs < 0:  # beta_k * |theirs| >= beta_i * |mine|
                    a, b, ratio = k, i, mine / theirs
                else:  # a holder at 0 facing > 0, or at < 0 facing >= 0: no beta works
                    return False
                if bound[a][b] is None or ratio > bound[a][b]:
                    bound[a][b] = ratio
    for via in range(n):
        for a in range(n):
            first = bound[a][via]
            if first is None:
                continue
            for b in range(n):
                second = bound[via][b]
                if second is None:
                    continue
                through = first * second
                if a == b:
                    if through > 1:
                        return False
                elif bound[a][b] is None or through > bound[a][b]:
                    bound[a][b] = through
    return True


def _pareto_maximal(vectors: set[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], int]:
    """The vectors no other vector weakly exceeds everywhere, and the comparisons made."""
    kept: list[tuple[int, ...]] = []
    compared = 0
    for vec in sorted(vectors, reverse=True):
        # in this order only a vector kept earlier can dominate vec; with
        # two agents the last one kept has the largest second entry
        rivals = kept[-1:] if len(vec) == 2 else kept
        for other in rivals:
            compared += 1
            if all(x >= y for x, y in zip(other, vec)):
                break
        else:
            kept.append(vec)
    return kept, compared


def _frontier_dominated(inst: Instance, alloc: Allocation, guard: int) -> bool:
    """Whether some allocation Pareto-dominates ``alloc``, by a search over utility vectors.

    A dynamic program over the items keeps the Pareto-maximal partial
    utility vectors (Nemhauser & Ullmann) on the integer matrix
    ``_int_matrix`` builds, and drops any vector that cannot reach the
    allocation's own vector even if each agent got all of its positive
    remaining values. What survives the last item is at least ``own``
    everywhere, so ``alloc`` is dominated exactly when something other
    than ``own`` survives. ``guard`` bounds the work, checked before each
    item: the frontier size times ``n`` per item so far, plus the
    comparisons the dominance filter has made.
    """
    n, m = inst.n, inst.m
    ints, _ = _int_matrix(inst.values)
    own = tuple(sum(ints[i][t] for t in alloc[i]) for i in range(n))
    # reach[j][i]: the most agent i can still gain from items j, j+1, ...
    reach = [[0] * n for _ in range(m + 1)]
    for j in range(m - 1, -1, -1):
        reach[j] = [reach[j + 1][i] + max(ints[i][j], 0) for i in range(n)]
    frontier, work = [(0,) * n], 0
    for j in range(m):
        work += len(frontier) * n
        if work > guard:
            raise SizeGuardError(f"Pareto frontier work {work} exceeds guard {guard}")
        floor = [own[i] - reach[j + 1][i] for i in range(n)]
        grown: set[tuple[int, ...]] = set()
        for vec in frontier:
            for i in range(n):
                new = vec[:i] + (vec[i] + ints[i][j],) + vec[i + 1 :]
                if all(x >= low for x, low in zip(new, floor)):
                    grown.add(new)
        frontier, compared = _pareto_maximal(grown)
        work += compared
    return any(vec != own for vec in frontier)


def po_verdict(inst: Instance, alloc: Allocation, guard: int = DEFAULT_ENUM_GUARD) -> dict[str, str]:
    """Pareto optimality of a complete allocation, decided exactly in two layers.

    Reads only the instance and the allocation. The ``"fractional"``
    layer passes allocations that are fractionally Pareto-optimal
    (:func:`_is_fpo`), which implies PO, in polynomial time. Every other
    allocation goes to the ``"frontier"`` layer
    (:func:`_frontier_dominated`), which decides PO exactly. Testing PO
    is coNP-complete, so that layer can take exponential work; past
    ``guard`` the verdict is ``"unverified"`` with method
    ``"guard-exceeded"``. :func:`brute_po` is the definitional reference
    for both layers.
    """
    validate_allocation(inst, alloc, complete=True)
    if _is_fpo(inst, alloc):
        return {"verdict": "pass", "method": "fractional"}
    try:
        dominated = _frontier_dominated(inst, alloc, guard)
    except SizeGuardError:
        return {"verdict": "unverified", "method": "guard-exceeded"}
    return {"verdict": "fail" if dominated else "pass", "method": "frontier"}


def _ief1_ok_int(ints: list[list[int]], n: int, m: int, vec: tuple[int, ...]) -> bool:
    bundle_vals = [[0] * n for _ in range(n)]  # [viewer][holder]
    for j, holder in enumerate(vec):
        for i in range(n):
            bundle_vals[i][holder] += ints[i][j]
    for i in range(n):
        target = max(bundle_vals[i])
        own = bundle_vals[i][i]
        if own >= target:
            continue
        best = own
        for j in range(m):
            adj = own - ints[i][j] if vec[j] == i else own + ints[i][j]
            if adj > best:
                best = adj
        if best < target:
            return False
    return True


def brute_find_ief1_po(
    inst: Instance, guard: int = DEFAULT_ENUM_GUARD, *, collect_all: bool = False
) -> Allocation | None | tuple[Allocation, ...]:
    """First (or, with ``collect_all``, every) allocation that is fair and efficient.

    Valid instances always admit one, so an empty result is itself a
    reportable finding rather than a normal outcome.
    """
    n, m = inst.n, inst.m
    if n ** m > guard:
        raise SizeGuardError(f"{n}^{m} allocations exceed guard {guard}")
    ints, _ = _int_matrix(inst.values)
    vectors = list(assignments(n, m, guard))
    value_table = []
    for vec in vectors:
        vals = [0] * n
        for j, holder in enumerate(vec):
            vals[holder] += ints[holder][j]
        value_table.append(vals)

    def is_po(idx: int) -> bool:
        own = value_table[idx]
        for other in value_table:
            if all(other[i] >= own[i] for i in range(n)) and any(
                other[i] > own[i] for i in range(n)
            ):
                return False
        return True

    def to_alloc(vec: tuple[int, ...]) -> Allocation:
        bundles: list[set[int]] = [set() for _ in range(n)]
        for j, holder in enumerate(vec):
            bundles[holder].add(j)
        return tuple(frozenset(b) for b in bundles)

    found: list[Allocation] = []
    for idx, vec in enumerate(vectors):
        if _ief1_ok_int(ints, n, m, vec) and is_po(idx):
            if not collect_all:
                return to_alloc(vec)
            found.append(to_alloc(vec))
    if collect_all:
        return tuple(found)
    return None


def brute_tau(
    p: PerturbedInstance, w: Sequence[Fraction], eta: Fraction, guard: int = DEFAULT_ENUM_GUARD
) -> Fraction:
    """Threshold recomputed definitionally over the whole allocation space.

    Optimal-face membership is decided by objective equality alone (not
    via the tie-graph structure), giving an independent route to the
    same min-max value.
    """
    mbar = p.m + 1
    if p.n ** mbar > guard:
        raise SizeGuardError(f"{p.n}^{mbar} allocations exceed guard {guard}")
    mult = [Fraction(wi) + eta for wi in w]
    weighted = [[mult[i] * p.pvalues[i][j] for j in range(mbar)] for i in range(p.n)]
    ints, lcm = _int_matrix(weighted)
    price_int = [max(ints[i][j] for i in range(p.n)) for j in range(mbar)]
    total = sum(price_int)
    best: int | None = None
    for vec in assignments(p.n, mbar, guard):
        objective = 0
        bundle_price = [0] * p.n
        for j, holder in enumerate(vec):
            objective += ints[holder][j]
            bundle_price[holder] += price_int[j]
        if objective != total:
            continue
        top = max(bundle_price)
        if best is None or top < best:
            best = top
    if best is None:
        raise VerificationError("no allocation attains the dual total; prices are inconsistent")
    return Fraction(best, lcm)


# ---------------------------------------------------------------------------
# certificate verification


@dataclass
class VerificationReport:
    """Structured verdicts; ``overall`` is the conjunction of every part."""

    consistency: dict[str, bool] = field(default_factory=dict)
    ief1_on_perturbed: dict[str, Any] | None = None
    ief1_on_original: dict[str, Any] | None = None
    po_on_original: dict[str, Any] | None = None
    opt_membership: bool | None = None
    tau_check: bool | None = None
    boundary_checks: list[dict[str, Any]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    overall: bool = False

    def fail(self, clause: str) -> None:
        self.failures.append(clause)

    def finish(self) -> VerificationReport:
        self.overall = not self.failures
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "consistency": self.consistency,
            "ief1_on_perturbed": self.ief1_on_perturbed,
            "ief1_on_original": self.ief1_on_original,
            "po_on_original": self.po_on_original,
            "opt_membership": self.opt_membership,
            "tau_check": self.tau_check,
            "boundary_checks": self.boundary_checks,
            "failures": self.failures,
            "overall": self.overall,
        }


def _witness_dicts(witnesses: Sequence[SwapWitness | None], aux: int | None) -> list[dict | None]:
    out: list[dict | None] = []
    for w in witnesses:
        if w is None:
            out.append(None)
        else:
            swap = ["aux" if aux is not None and t == aux else t + 1 for t in sorted(w.swap)]
            out.append({"agent": w.agent, "swap": swap, "value": format_rat(w.applied_bundle_value)})
    return out


def _check_swaps(
    inst: Instance, alloc: Allocation, swaps: Sequence[frozenset[int]]
) -> bool:
    """Stored per-agent swap sets must each certify dominance directly."""
    if len(swaps) != inst.n:
        return False
    for i, swap in enumerate(swaps):
        if len(swap) > 1 or any(not 0 <= t < inst.m for t in swap):
            return False
        adjusted = bundle_value(inst, i, alloc[i] ^ swap)
        target = max(bundle_value(inst, i, alloc[j]) for j in range(inst.n))
        if adjusted < target:
            return False
    return True


def verify_certificate(
    inst: Instance, cert: Certificate, guard: int = DEFAULT_ENUM_GUARD
) -> VerificationReport:
    """Re-derive and re-check everything a certificate claims.

    Prices, constants, the threshold, optimal-face membership, the
    price-level fairness chain, value-level fairness on both instances,
    Pareto optimality on the original (:func:`po_verdict`), and the
    boundary properties when the certified weight has a strict support.
    Failures never raise; they are named in the report. ``guard`` bounds
    the work of lambda (past it, :class:`SizeGuardError` is raised),
    omega and the PO search (past it, PO is reported unverified).
    """
    report = VerificationReport()

    def check(name: str, ok: bool) -> bool:
        report.consistency[name] = bool(ok)
        if not ok:
            report.fail(name)
        return bool(ok)

    check("digest", cert.instance_digest == instance_digest(inst))

    try:
        validate_allocation(inst, cert.allocation_original, complete=True)
    except MannaError:
        check("allocation-original-shape", False)
        return report.finish()
    check("allocation-original-shape", True)

    if cert.trivial:
        normalized = normalize_mixed(inst)
        check("trivial-instance", compute_lambda(normalized, guard) is None)
        _value_level_checks(report, inst, cert, guard)
        return report.finish()

    normalized = normalize_mixed(inst)
    lam = compute_lambda(normalized, guard)
    ok_shape = (
        cert.perturbed_values is not None
        and len(cert.perturbed_values) == inst.n
        and all(len(row) == inst.m + 1 for row in cert.perturbed_values)
        and cert.allocation_perturbed is not None
        and cert.w_star is not None
        and cert.prices is not None
        and len(cert.prices) == inst.m + 1
        and cert.tau is not None
        and cert.eta is not None
        and cert.epsilon is not None
        and cert.swaps_perturbed is not None
    )
    if not check("certificate-shape", ok_shape):
        return report.finish()

    check("lambda", lam is not None and cert.lam == lam)
    if lam is None:
        return report.finish()

    try:
        omega = compute_omega(normalized, guard)
        if cert.omega_exact:
            check("omega", cert.omega == omega)
        else:
            check(
                "omega",
                cert.omega is not None
                and cert.omega == omega_lower_bound(normalized)
                and (omega is None or cert.omega <= omega),
            )
    except SizeGuardError:
        # an exact omega claim cannot be refuted below the guard; the
        # bound-mode formula still can be checked
        check(
            "omega",
            cert.omega_exact or cert.omega == omega_lower_bound(normalized),
        )

    cap = value_cap(normalized)
    check("epsilon", cert.epsilon == choose_epsilon(lam, cert.omega, inst.n, inst.m, cap))

    ok_signs = True
    eps = cert.epsilon
    for i in range(inst.n):
        for j in range(inst.m):
            v, vbar = normalized.values[i][j], cert.perturbed_values[i][j]
            if v == 0:
                ok_signs &= vbar == 0
            else:
                ok_signs &= 0 < v - vbar <= eps and (v > 0) == (vbar > 0)
    ok_signs &= all(cert.perturbed_values[i][inst.m] == lam / 2 for i in range(inst.n))
    if not check("perturbation-bounds", ok_signs):
        # every later clause reads the perturbed matrix, and eta divides by its largest entry
        return report.finish()

    constants = Constants(
        lam=lam,
        omega=cert.omega,
        omega_exact=cert.omega_exact,
        epsilon=cert.epsilon,
        eta=cert.eta,
        value_cap=cap,
    )
    p = PerturbedInstance(
        base=normalized,
        pvalues=cert.perturbed_values,
        constants=constants,
        seed=cert.seed,
    )
    check("eta", cert.eta == compute_eta(p))

    try:
        w_star = tuple(cert.w_star)
        tg = build_tie_graph(p, w_star, cert.eta)
        check_price_signs(p, tg.prices)
    except MannaError:
        check("pricing-rebuild", False)
        return report.finish()
    check("pricing-rebuild", True)
    prices = tg.prices

    face = enumerate_opt(tg)
    tau_ok = prices == cert.prices and compute_tau(tg, face) == cert.tau
    report.tau_check = tau_ok
    if not tau_ok:
        report.fail("tau")

    alloc_bar = cert.allocation_perturbed
    try:
        validate_allocation(p.as_instance(), alloc_bar, complete=True)
        alloc_ok = True
    except MannaError:
        alloc_ok = False
    member = alloc_ok and on_optimal_face(p, w_star, cert.eta, prices, alloc_bar)
    report.opt_membership = member
    if not member:
        report.fail("opt-membership")

    live = frozenset(p.live_items)
    chain_ok = alloc_ok  # the chain indexes one bundle per agent
    if alloc_ok:
        try:
            for i in range(inst.n):
                bundle = alloc_bar[i] & live
                if price_of(prices, bundle) > cert.tau:
                    chain_ok = False
                if p_plus(tg, i, bundle) < cert.tau:
                    chain_ok = False
        except MannaError:
            chain_ok = False
    # the value-level checks read one bundle per agent from a valid allocation
    pbar_inst = p.as_instance()
    witnesses_bar = ief1_witnesses(pbar_inst, alloc_bar) if alloc_ok else ()
    value_bar = alloc_ok and all(w is not None for w in witnesses_bar)
    swaps_bar_ok = alloc_ok and _check_swaps(pbar_inst, alloc_bar, cert.swaps_perturbed)
    report.ief1_on_perturbed = {
        "verdict": chain_ok and value_bar and swaps_bar_ok,
        "price_chain": chain_ok,
        "value_check": value_bar,
        "stored_swaps": swaps_bar_ok,
        "witnesses": _witness_dicts(witnesses_bar, p.aux_item),
    }
    if not report.ief1_on_perturbed["verdict"]:
        report.fail("ief1-on-perturbed")

    check("restriction", restrict(alloc_bar, p.aux_item) == cert.allocation_original)
    check(
        "swap-restriction",
        tuple(s - {p.aux_item} for s in cert.swaps_perturbed) == cert.swaps_original,
    )

    _value_level_checks(report, inst, cert, guard)

    if support(w_star) != frozenset(range(inst.n)):
        report.boundary_checks = _boundary_checks(p, tg, w_star, face)
        for entry in report.boundary_checks:
            if not entry["ok"]:
                report.fail(f"boundary:{entry['name']}")

    return report.finish()


def _value_level_checks(
    report: VerificationReport, inst: Instance, cert: Certificate, guard: int
) -> None:
    alloc = cert.allocation_original
    witnesses = ief1_witnesses(inst, alloc)
    value_ok = all(w is not None for w in witnesses)
    swaps_ok = _check_swaps(inst, alloc, cert.swaps_original)
    report.ief1_on_original = {
        "verdict": value_ok and swaps_ok,
        "value_check": value_ok,
        "stored_swaps": swaps_ok,
        "witnesses": _witness_dicts(witnesses, None),
    }
    if not report.ief1_on_original["verdict"]:
        report.fail("ief1-on-original")
    report.po_on_original = po_verdict(inst, alloc, guard)
    if report.po_on_original["verdict"] == "fail":
        report.fail("po-on-original")


def _boundary_checks(
    p: PerturbedInstance,
    tg: TieGraph,
    w_star: Sequence[Fraction],
    face: Sequence[Allocation],
) -> list[dict[str, Any]]:
    sup = support(w_star)
    classes = p.classes()
    goods = {j for j, c in classes.items() if c is ItemClass.GOOD}
    chores = {j for j, c in classes.items() if c is ItemClass.CHORE}
    top_weight = max(w_star)
    argmax_w = {i for i, x in enumerate(w_star) if x == top_weight}
    goods_ok = True
    aux_ok = True
    price_ok = True
    for alloc in face:
        holders = {j: i for i in range(p.n) for j in alloc[i]}
        for j in goods:
            if holders[j] not in sup:
                goods_ok = False
        ell = holders[p.aux_item]
        if ell not in argmax_w or (alloc[ell] & chores):
            aux_ok = False
        bundle_prices = [price_of(tg.prices, b) for b in alloc]
        outside = [bundle_prices[i] for i in range(p.n) if i not in sup]
        inside = [bundle_prices[i] for i in range(p.n) if i in sup]
        if outside and not (max(outside) <= bundle_prices[ell] <= max(inside)):
            price_ok = False
    return [
        {"name": "goods-stay-supported", "ok": goods_ok},
        {"name": "aux-holder-top-weight-no-chores", "ok": aux_ok},
        {"name": "unsupported-prices-below-holder", "ok": price_ok},
    ]
