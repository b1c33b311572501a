from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manna.errors import InputError
from manna.model import (
    Instance,
    bundle_value,
    ief1_witnesses,
    pareto_dominates,
    parse_rat,
    social_welfare,
    sym_diff,
)


def alloc(*bundles):
    return tuple(frozenset(b) for b in bundles)


class TestParseRat:
    def test_int_and_string_forms(self):
        assert parse_rat(3) == F(3)
        assert parse_rat("3") == F(3)
        assert parse_rat("-2/5") == F(-2, 5)

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_rat("1/0")
        with pytest.raises(InputError):
            parse_rat("abc")


class TestInstance:
    def test_requires_two_agents_two_items(self):
        with pytest.raises(InputError):
            Instance.from_rows([[1, 2]])
        with pytest.raises(InputError):
            Instance.from_rows([[1], [2]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(InputError):
            Instance(2, 2, ((F(1), F(2)), (F(1),)))


class TestBundleValue:
    def test_full_bundle(self, e1):
        assert bundle_value(e1, 0, {0, 1}) == F(2)

    def test_empty_bundle_is_zero(self, e1):
        assert bundle_value(e1, 0, frozenset()) == F(0)
        assert bundle_value(e1, 1, frozenset()) == F(0)

    def test_single_entry(self, e1):
        assert bundle_value(e1, 1, {1}) == F(-1)

    def test_out_of_range_item(self, e1):
        with pytest.raises(InputError):
            bundle_value(e1, 0, {5})


class TestSymDiff:
    def test_examples(self):
        assert sym_diff({0, 1}, {1}) == frozenset({0})
        assert sym_diff({0}, {0}) == frozenset()
        assert sym_diff(frozenset(), {2}) == frozenset({2})

    @given(
        a=st.frozensets(st.integers(0, 8)),
        b=st.frozensets(st.integers(0, 8)),
        c=st.frozensets(st.integers(0, 8)),
    )
    @settings(max_examples=60)
    def test_algebra(self, a, b, c):
        assert sym_diff(a, b) == sym_diff(b, a)
        assert sym_diff(sym_diff(a, b), c) == sym_diff(a, sym_diff(b, c))
        assert sym_diff(sym_diff(a, b), b) == a


class TestIef1Witnesses:
    def test_all_items_to_one_agent(self, e1):
        w = ief1_witnesses(e1, alloc({0, 1}, ()))
        assert w[0] is not None and w[0].swap == frozenset()
        assert w[1] is not None and w[1].swap == frozenset({0})
        assert w[1].applied_bundle_value == F(3)

    def test_unfixable_envy(self, e1):
        w = ief1_witnesses(e1, alloc({0}, {1}))
        assert w[1] is None  # best reachable value 2 < 3

    def test_introspective_add_of_a_good(self):
        inst = Instance.from_rows([[5, 0], [3, 0]])
        w = ief1_witnesses(inst, alloc((), {0, 1}))
        assert w[0] is not None and w[0].swap == frozenset({0})

    def test_incomplete_allocation_rejected(self, e1):
        with pytest.raises(InputError):
            ief1_witnesses(e1, alloc({0}, ()))

    def test_dominant_agent_gets_empty_witness(self):
        rng = random.Random(11)
        for _ in range(30):
            rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(2)]
            inst = Instance.from_rows(rows)
            assignment = [rng.randrange(2) for _ in range(3)]
            bundles = [set(), set()]
            for j, h in enumerate(assignment):
                bundles[h].add(j)
            a = alloc(*bundles)
            w = ief1_witnesses(inst, a)
            for i in range(2):
                own = bundle_value(inst, i, a[i])
                if all(own >= bundle_value(inst, i, a[j]) for j in range(2)):
                    assert w[i] is not None and w[i].swap == frozenset()


class TestParetoDominates:
    def test_never_dominates_itself(self, e1):
        a = alloc({0}, {1})
        assert not pareto_dominates(e1, a, a)

    def test_examples(self, e1):
        assert not pareto_dominates(e1, alloc({0}, {1}), alloc({0, 1}, ()))
        assert not pareto_dominates(e1, alloc({0, 1}, ()), alloc((), {0, 1}))

    @given(data=st.data())
    @settings(max_examples=60)
    def test_dominance_implies_strictly_larger_welfare(self, data):
        n, m = 2, 3
        rows = data.draw(
            st.lists(
                st.lists(st.integers(-4, 4), min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
        inst = Instance.from_rows(rows)
        va = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        vb = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))

        def to_alloc(vec):
            bundles = [set() for _ in range(n)]
            for j, h in enumerate(vec):
                bundles[h].add(j)
            return alloc(*bundles)

        a, b = to_alloc(va), to_alloc(vb)
        if pareto_dominates(inst, b, a):
            assert social_welfare(inst, b) > social_welfare(inst, a)


class TestSocialWelfare:
    def test_examples(self, e1):
        assert social_welfare(e1, alloc({0}, {1})) == F(3)
        assert social_welfare(e1, alloc({1}, {0})) == F(1)

    def test_all_zero_matrix(self):
        inst = Instance.from_rows([[0, 0], [0, 0]])
        assert social_welfare(inst, alloc({0, 1}, ())) == F(0)
