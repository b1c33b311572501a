from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import manna.oracles as oracles
from manna.errors import InputError, SizeGuardError
from manna.model import Instance, is_ief1
from manna.oracles import (
    brute_find_ief1_po,
    brute_po,
    brute_tau,
    enumerate_allocations,
    po_verdict,
    verify_certificate,
)
from manna.solver import SolveOptions, generate_instance, solve

from local_search import local_search_ief1
from test_preprocess import instances, positives, rationals

# Pareto-optimal, but not fractionally: item 0 held by 0 asks beta_0 >= beta_1,
# item 1 held by 1 asks beta_1 >= 2 beta_0; no allocation weakly improves (2, 3, 0)
PO_NOT_FPO = Instance.from_rows([[2, 6], [2, 3], [4, 4]])
PO_NOT_FPO_ALLOC = ((0,), (1,), ())
# its lambda work is 6 per agent and its frontier work 15, so guard 10 lies between
PO_NOT_FPO_GUARD = 10


def alloc(*bundles):
    return tuple(frozenset(b) for b in bundles)


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_allocations(2, 2))) == 4
        assert len(list(enumerate_allocations(3, 2))) == 9

    def test_small_m_rejected(self):
        with pytest.raises(InputError):
            list(enumerate_allocations(2, 0))

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            list(enumerate_allocations(3, 5, guard=10))

    def test_partition_property(self):
        for a in enumerate_allocations(2, 3):
            items = set()
            for b in a:
                assert not (items & b)
                items |= b
            assert items == {0, 1, 2}


class TestBrutePo:
    def test_concentrated_allocation(self, e1):
        assert brute_po(e1, alloc({0, 1}, ()))

    def test_everything_to_second_agent(self, e1):
        # dominance scan comes up empty, so this is efficient too
        assert brute_po(e1, alloc((), {0, 1}))

    def test_dominated_allocation(self):
        inst = Instance.from_rows([[5, 1], [1, 5]])
        assert not brute_po(inst, alloc({1}, {0}))

    def test_identical_valuations_always_efficient(self):
        inst = Instance.from_rows([[2, 3], [2, 3]])
        for a in enumerate_allocations(2, 2):
            assert brute_po(inst, a)


@st.composite
def instance_and_allocation(draw) -> tuple[Instance, tuple[frozenset[int], ...], bool]:
    """An instance with n <= 3, m <= 7, an allocation, and whether it was built as fPO.

    The allocation gives every item to the first argmax of a drawn
    positive weighting, which makes it fractionally PO by construction;
    or it does so and then hands one item to another agent, which often
    leaves it PO but not fPO; or it is arbitrary.
    """
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 7))
    generic = st.lists(st.lists(rationals, min_size=m, max_size=m), min_size=n, max_size=n)
    inst = draw(instances(max_n=3, max_m=7) | generic.map(Instance.from_rows))
    n, m = inst.n, inst.m
    if draw(st.booleans()):  # a duplicated agent
        src, dst = draw(st.permutations(range(n)))[:2]
        rows = list(inst.values)
        rows[dst] = rows[src]
        inst = Instance(n, m, tuple(rows))
    kind = draw(st.sampled_from(("weight", "weight-then-move", "arbitrary")))
    if kind == "arbitrary":
        holders = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    else:
        beta = draw(st.lists(positives, min_size=n, max_size=n))
        holders = [max(range(n), key=lambda i: beta[i] * inst.values[i][j]) for j in range(m)]
    if kind == "weight-then-move":
        holders[draw(st.integers(0, m - 1))] = draw(st.integers(0, n - 1))
    bundles = tuple(frozenset(j for j in range(m) if holders[j] == i) for i in range(n))
    return inst, bundles, kind == "weight"


class TestPoVerdict:
    @given(case=instance_and_allocation())
    @settings(max_examples=400)
    def test_agrees_with_brute_po(self, case):
        inst, a, built_fpo = case
        verdict = po_verdict(inst, a)
        po = brute_po(inst, a)
        assert (verdict["verdict"] == "pass") == po
        if verdict["method"] == "fractional":
            assert po
        if built_fpo:
            assert verdict == {"verdict": "pass", "method": "fractional"}

    def test_agrees_with_brute_po_on_seeded_allocations(self):
        # PO but not fPO is rare among drawn examples; a weighted argmax with
        # one item moved reaches it in about 3% of these cases
        rng = random.Random(11)
        methods = set()
        for _ in range(2000):
            n, m = rng.randint(2, 3), rng.randint(2, 7)
            draw = lambda low: F(rng.randint(low, 6), rng.choice((1, 2, 3, 5, 7)))  # noqa: E731
            rows = [[draw(-6) for _ in range(m)] for _ in range(n)]
            inst = Instance.from_rows(rows)
            beta = [draw(1) for _ in range(n)]
            holders = [max(range(n), key=lambda i: beta[i] * inst.values[i][j]) for j in range(m)]
            holders[rng.randrange(m)] = rng.randrange(n)
            a = tuple(frozenset(j for j in range(m) if holders[j] == i) for i in range(n))
            verdict = po_verdict(inst, a)
            assert (verdict["verdict"] == "pass") == brute_po(inst, a), (rows, holders)
            methods.add((verdict["verdict"], verdict["method"]))
        assert ("pass", "frontier") in methods and ("fail", "frontier") in methods

    def test_fractional_pass_with_tied_ratios(self):
        # identical agents: the weight cycle multiplies to exactly 1
        inst = Instance.from_rows([[1, 2], [1, 2]])
        assert po_verdict(inst, alloc({0}, {1})) == {"verdict": "pass", "method": "fractional"}

    def test_frontier_pass(self):
        a = alloc(*PO_NOT_FPO_ALLOC)
        assert po_verdict(PO_NOT_FPO, a) == {"verdict": "pass", "method": "frontier"}
        # two agents: utilities (1, 2); every other allocation is worse for someone
        two = Instance.from_rows([[1, 4], [1, 2]])
        assert po_verdict(two, alloc({0}, {1})) == {"verdict": "pass", "method": "frontier"}

    def test_frontier_fail(self):
        inst = Instance.from_rows([[5, 1], [1, 5]])
        assert po_verdict(inst, alloc({1}, {0})) == {"verdict": "fail", "method": "frontier"}

    def test_zero_holder_facing_a_positive_value_fails(self):
        # giving item 0 to agent 1 helps it and costs agent 0 nothing
        inst = Instance.from_rows([[0, 1], [1, 1]])
        assert po_verdict(inst, alloc({0}, {1})) == {"verdict": "fail", "method": "frontier"}

    def test_guard_exceeded(self):
        a = alloc(*PO_NOT_FPO_ALLOC)
        assert po_verdict(PO_NOT_FPO, a, guard=PO_NOT_FPO_GUARD) == {
            "verdict": "unverified",
            "method": "guard-exceeded",
        }
        # an fPO allocation needs no search, so it passes at any guard
        fpo = alloc((), (), (0, 1))
        assert po_verdict(PO_NOT_FPO, fpo, guard=0) == {"verdict": "pass", "method": "fractional"}


class TestBruteFindIef1Po:
    def test_exists_on_worked_instance(self, e1):
        found = brute_find_ief1_po(e1)
        assert found is not None
        assert is_ief1(e1, found) and brute_po(e1, found)

    def test_all_zero_instance_returns_first(self):
        inst = Instance.from_rows([[0, 0], [0, 0]])
        assert brute_find_ief1_po(inst) == alloc({0, 1}, ())

    def test_collect_all(self, e1):
        every = brute_find_ief1_po(e1, collect_all=True)
        assert isinstance(every, tuple) and len(every) >= 1
        for a in every:
            assert is_ief1(e1, a) and brute_po(e1, a)

    def test_never_empty_on_random_instances(self):
        rng = random.Random(2)
        for _ in range(500):
            rows = [[rng.randint(-10, 10) for _ in range(4)] for _ in range(2)]
            inst = Instance.from_rows(rows)
            assert brute_find_ief1_po(inst) is not None


class TestBruteTau:
    def test_worked_value(self, ebar):
        assert brute_tau(ebar, (F(1, 2), F(1, 2)), F(1, 31)) == F(33, 16)

    def test_guard(self, ebar):
        with pytest.raises(SizeGuardError):
            brute_tau(ebar, (F(1, 2), F(1, 2)), F(1, 31), guard=4)


class TestLocalSearch:
    def test_produces_fair_allocations(self):
        rng = random.Random(7)
        for seed in range(10):
            inst = generate_instance(900 + seed, 2, 4, 8, "mixed")
            found = local_search_ief1(inst, rng)
            assert found is not None
            assert is_ief1(inst, found)


class TestVerifyCertificate:
    def test_solver_output_passes(self, e1):
        cert, report = solve(e1, SolveOptions(seed=7))
        assert report.overall and not report.failures
        again = verify_certificate(e1, cert)
        assert again.overall

    def test_tampered_allocation_fails(self, e1):
        cert, _ = solve(e1, SolveOptions(seed=7))
        swapped = (cert.allocation_perturbed[1], cert.allocation_perturbed[0])
        bad = replace(cert, allocation_perturbed=swapped)
        report = verify_certificate(e1, bad)
        assert not report.overall
        assert any(
            clause in report.failures
            for clause in ("opt-membership", "ief1-on-perturbed", "restriction")
        )

    def test_wrong_tau_fails(self, e1):
        cert, _ = solve(e1, SolveOptions(seed=7))
        bad = replace(cert, tau=cert.tau + 1)
        report = verify_certificate(e1, bad)
        assert report.tau_check is False
        assert "tau" in report.failures

    def test_nudged_price_fails_tau(self, e1):
        # prices reach the program from outside only in a certificate
        cert, _ = solve(e1, SolveOptions(seed=7))
        for j in range(len(cert.prices)):
            for delta in (F(1, 1000), F(-1, 1000)):
                nudged = tuple(x + delta if k == j else x for k, x in enumerate(cert.prices))
                report = verify_certificate(e1, replace(cert, prices=nudged))
                assert "tau" in report.failures and not report.overall

    def test_digest_mismatch_named(self, e1):
        cert, _ = solve(e1, SolveOptions(seed=7))
        other = Instance.from_rows([[4, -2], [3, -2]])
        report = verify_certificate(other, cert)
        assert "digest" in report.failures

    def test_guard_downgrades_po_check(self):
        cert, _ = solve(PO_NOT_FPO, SolveOptions(seed=7))
        # the solver's allocation is fPO, so it passes without the search
        report = verify_certificate(PO_NOT_FPO, cert, guard=PO_NOT_FPO_GUARD)
        assert report.po_on_original == {"verdict": "pass", "method": "fractional"}
        assert report.overall
        # a PO allocation that is not fPO needs the search, which the guard stops
        swapped = replace(cert, allocation_original=alloc(*PO_NOT_FPO_ALLOC))
        assert verify_certificate(PO_NOT_FPO, swapped).po_on_original == {
            "verdict": "pass",
            "method": "frontier",
        }
        report = verify_certificate(PO_NOT_FPO, swapped, guard=PO_NOT_FPO_GUARD)
        assert report.po_on_original == {"verdict": "unverified", "method": "guard-exceeded"}
        assert "po-on-original" not in report.failures  # unverified is flagged, not failed

    def test_wrong_length_weight_fails_pricing_rebuild(self, e1):
        cert, _ = solve(e1, SolveOptions(seed=7))
        report = verify_certificate(e1, replace(cert, w_star=cert.w_star + (F(0),)))
        assert report.consistency["pricing-rebuild"] is False
        assert "pricing-rebuild" in report.failures

    def test_programming_errors_propagate(self, e1, monkeypatch):
        cert, _ = solve(e1, SolveOptions(seed=7))

        def broken(*args, **kwargs):
            raise RuntimeError("bug in the tie graph")

        monkeypatch.setattr(oracles, "build_tie_graph", broken)
        with pytest.raises(RuntimeError, match="bug in the tie graph"):
            verify_certificate(e1, cert)
