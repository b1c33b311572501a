from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import manna.oracles as oracles
from manna.errors import InputError, SizeGuardError
from manna.model import Instance, is_ief1
from manna.oracles import (
    brute_find_ief1_po,
    brute_po,
    brute_tau,
    enumerate_allocations,
    verify_certificate,
)
from manna.solver import SolveOptions, generate_instance, solve

from local_search import local_search_ief1


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

    def test_guard_downgrades_po_check(self, e1):
        cert, _ = solve(e1, SolveOptions(seed=7))
        report = verify_certificate(e1, cert, guard=2)
        assert report.po_on_original == {"verdict": "unverified", "method": "guard-exceeded"}
        assert report.overall  # unverified is flagged, not failed

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
