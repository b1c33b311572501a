from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manna.errors import InputError
from manna.kkm import build_star_point, find_wstar, membership_summary
from manna.preprocess import ItemClass, compute_constants, normalize_mixed, perturb
from manna.pricing import dual_prices, enumerate_opt, price_of, support, build_tie_graph

from test_preprocess import instances
from test_pricing import HALF, ETA, random_perturbed, random_weight


def supported_winners(p, w, eta) -> frozenset[int]:
    return membership_summary(p, w, eta).winners & support(w)


class TestCellMembership:
    """Which agents' membership regions contain a weight, with their witnesses."""

    def test_worked_example(self, ebar):
        summary = membership_summary(ebar, HALF, ETA)
        assert summary.winners == frozenset({0})
        prices = dual_prices(ebar, HALF, ETA)
        bundle_prices = [price_of(prices, b) for b in summary.witnesses[0]]
        assert max(bundle_prices) == bundle_prices[0]

    def test_symmetric_instance_both_members(self, disjoint_support):
        assert membership_summary(disjoint_support, HALF, F(1, 12)).winners == frozenset({0, 1})


class TestCoveringLabel:
    """The regions cover the simplex: some supported agent wins at every weight."""

    def test_worked_example(self, ebar):
        assert supported_winners(ebar, HALF, ETA) == frozenset({0})

    def test_vertex_weight_labels_the_supported_agent(self, ebar):
        assert supported_winners(ebar, (F(1), F(0)), ETA) == frozenset({0})
        assert supported_winners(ebar, (F(0), F(1)), ETA) == frozenset({1})

    def test_never_fails_on_random_weights(self):
        rng = random.Random(23)
        for seed in range(20):
            n = 2 + seed % 2
            p = random_perturbed(500 + seed, n, 2 + seed % 4)
            for _ in range(10):
                w = random_weight(rng, n)
                assert supported_winners(p, w, p.constants.eta)


class TestBoundaryBehavior:
    def test_unsupported_agents_never_get_goods_and_aux_tops(self):
        rng = random.Random(31)
        checked = 0
        for seed in range(24):
            n = 2 + seed % 2
            p = random_perturbed(600 + seed, n, 2 + seed % 4)
            eta = p.constants.eta
            classes = p.classes()
            goods = {j for j, c in classes.items() if c is ItemClass.GOOD}
            chores = {j for j, c in classes.items() if c is ItemClass.CHORE}
            for _ in range(8):
                w = list(random_weight(rng, n))
                w[rng.randrange(n)] = F(0)
                total = sum(w)
                if total == 0:
                    continue
                w = tuple(x / total for x in w)
                sup = support(w)
                if sup == frozenset(range(n)):
                    continue
                prices = dual_prices(p, w, eta)
                tg = build_tie_graph(p, w, eta)
                top = max(w)
                argmax_w = {i for i in range(n) if w[i] == top}
                for alloc in enumerate_opt(tg):
                    holders = {j: i for i in range(n) for j in alloc[i]}
                    assert all(holders[j] in sup for j in goods)
                    ell = holders[p.aux_item]
                    assert ell in argmax_w
                    assert not (alloc[ell] & chores)
                    bundle_prices = [price_of(prices, b) for b in alloc]
                    outside = [bundle_prices[i] for i in range(n) if i not in sup]
                    if outside:
                        assert max(outside) <= bundle_prices[ell]
                        assert bundle_prices[ell] <= max(
                            bundle_prices[i] for i in sup
                        )
                    checked += 1
        assert checked > 50


class TestFindWstar:
    def test_symmetric_instance_half_half(self, disjoint_support):
        eta = F(1, 12)
        star = find_wstar(disjoint_support, eta)
        assert star.w == HALF
        assert star.winners == frozenset({0, 1})
        # the symmetric midpoint is itself certified
        assert membership_summary(disjoint_support, HALF, eta).winners == frozenset({0, 1})

    def test_e1_end_to_end_membership(self, e1):
        consts = compute_constants(e1)
        p = perturb(e1, 7, consts)
        eta = p.constants.eta
        star = find_wstar(p, eta)
        assert membership_summary(p, star.w, eta).winners == frozenset({0, 1})
        assert set(star.witnesses) == {0, 1}
        prices = star.tie_graph.prices
        for agent, witness in star.witnesses.items():
            bundle_prices = [price_of(prices, b) for b in witness]
            assert bundle_prices[agent] == max(bundle_prices)

    def test_deterministic_output(self, e1):
        consts = compute_constants(e1)
        p = perturb(e1, 3, consts)
        eta = p.constants.eta
        a = find_wstar(p, eta)
        b = find_wstar(p, eta)
        assert a.w == b.w

    def test_three_agents_exact(self):
        p = random_perturbed(777, 3, 4)
        star = find_wstar(p, p.constants.eta)
        assert membership_summary(p, star.w, p.constants.eta).winners == frozenset(range(3))

    def test_exact_rejects_large_n(self):
        p = random_perturbed(800, 4, 2)
        with pytest.raises(InputError, match="at most 3 agents"):
            find_wstar(p, p.constants.eta)

    def test_chain_fixture_is_star_point(self, chain_fixture):
        p, w, eta = chain_fixture
        star = build_star_point(p, membership_summary(p, w, eta))
        assert set(star.witnesses) == {0, 1, 2}


class TestSearchProperty:
    @given(inst=instances(max_n=3, max_m=5), seed=st.integers(0, 99))
    @settings(max_examples=80)
    def test_every_agent_wins_at_the_same_wstar(self, inst, seed):
        normalized = normalize_mixed(inst)
        consts = compute_constants(normalized)
        assume(consts.lam is not None)
        p = perturb(normalized, seed, consts)
        eta = p.constants.eta
        star = find_wstar(p, eta)
        assert membership_summary(p, star.w, eta).winners == frozenset(range(p.n))
        assert find_wstar(p, eta).w == star.w
