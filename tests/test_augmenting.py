from __future__ import annotations

from fractions import Fraction as F

import pytest

from manna.augmenting import AugmentState, augment, construct_X, root_at, solve_by_augmenting
from manna.errors import InputError, SoundnessError
from manna.kkm import build_star_point, membership_summary
from manna.leveling import compute_tau, p_plus
from manna.pricing import build_tie_graph, dual_prices, enumerate_opt, price_of

from conftest import make_chain_fixture
from test_pricing import HALF, ETA


@pytest.fixture
def chain(chain_fixture):
    p, w, eta = chain_fixture
    star = build_star_point(p, membership_summary(p, w, eta))
    tg, prices = star.tie_graph, star.tie_graph.prices
    tau = compute_tau(tg, enumerate_opt(tg))
    return p, star, tg, prices, tau


def deficient_members(tg, prices, tau):
    out = []
    for alloc in enumerate_opt(tg):
        if max(price_of(prices, b) for b in alloc) != tau:
            continue
        lacking = [i for i in range(tg.n) if p_plus(tg, i, alloc[i]) < tau]
        if lacking:
            out.append((alloc, lacking))
    return out


class TestRootAt:
    def test_isolated_agent(self, ebar):
        w = (F(2, 3), F(1, 3))
        prices = dual_prices(ebar, w, ETA)
        tg = build_tie_graph(ebar, w, ETA)
        rf = root_at(tg, 0)
        assert rf.component_agents == frozenset({0})
        assert rf.parent == {0: None}

    def test_two_agent_path(self, ebar):
        prices = dual_prices(ebar, HALF, ETA)
        tg = build_tie_graph(ebar, HALF, ETA)
        rf = root_at(tg, 1)
        assert rf.parent == {1: None, 0: 2}
        assert rf.component_items == frozenset({2})

    def test_chain_orientation(self, chain):
        _, _, tg, _, _ = chain
        rf = root_at(tg, 2)
        assert rf.parent[2] is None
        assert rf.parent[0] == 1 and rf.parent[1] == 2
        rf0 = root_at(tg, 0)
        assert rf0.parent == {0: None, 2: 1, 1: 2}

    def test_bad_agent_rejected(self, chain):
        _, _, tg, _, _ = chain
        with pytest.raises(InputError):
            root_at(tg, 9)


class TestConstructX:
    def test_postconditions_on_chain(self, chain):
        _, star, tg, prices, tau = chain
        members = deficient_members(tg, prices, tau)
        assert members, "fixture must provide a deficient threshold member"
        alloc, lacking = members[0]
        r = lacking[0]
        state = AugmentState.from_allocation(tg, tau, alloc)
        rf = root_at(tg, r)
        x = construct_X(state, r, star.witnesses[r], tau, rf)
        flipped = alloc[r] ^ x
        assert price_of(prices, flipped) < tau <= p_plus(tg, r, flipped)
        for t in x:
            assert price_of(prices, alloc[r] ^ {t}) > price_of(prices, alloc[r])
        assert x <= tg.gamma[r]
        assert rf.parent[r] is None or rf.parent[r] not in x

    def test_refuses_satisfied_agent(self, chain):
        _, star, tg, prices, tau = chain
        alloc = next(
            a
            for a in enumerate_opt(tg)
            if all(p_plus(tg, i, a[i]) >= tau for i in range(3))
        )
        state = AugmentState.from_allocation(tg, tau, alloc)
        with pytest.raises(SoundnessError):
            construct_X(state, 0, star.witnesses[0], tau, root_at(tg, 0))

    def test_parameter_variants(self):
        for params in [(6, 5, 2, 4, 5), (7, 4, 2, 3, 6), (8, 6, 3, 4, 6), (9, 8, 4, 5, 6)]:
            p, w, eta = make_chain_fixture(*params)
            star = build_star_point(p, membership_summary(p, w, eta))
            tg, prices = star.tie_graph, star.tie_graph.prices
            tau = compute_tau(tg, enumerate_opt(tg))
            for alloc, lacking in deficient_members(tg, prices, tau):
                for r in lacking:
                    state = AugmentState.from_allocation(tg, tau, alloc)
                    x = construct_X(state, r, star.witnesses[r], tau, root_at(tg, r))
                    flipped = alloc[r] ^ x
                    assert price_of(prices, flipped) < tau
                    assert p_plus(tg, r, flipped) >= tau


class TestAugment:
    def test_single_transfer_chain(self, chain):
        _, star, tg, prices, tau = chain
        alloc, lacking = deficient_members(tg, prices, tau)[0]
        r = lacking[0]
        state = AugmentState.from_allocation(tg, tau, alloc)
        result = augment(state, star.witnesses, root_at(tg, r))
        pops = [e for e in state.trace if e["event"] == "pop"]
        assert len(pops) == 1
        assert all(p_plus(tg, i, result[i]) >= tau for i in range(3))
        assert max(price_of(prices, b) for b in result) == tau
        moved = [i for i in range(3) if result[i] != alloc[i]]
        assert moved  # something actually transferred

    def test_requires_threshold_start(self, chain):
        _, star, tg, prices, tau = chain
        above = next(
            a
            for a in enumerate_opt(tg)
            if max(price_of(prices, b) for b in a) != tau
        )
        state = AugmentState.from_allocation(tg, tau, above)
        with pytest.raises(InputError):
            augment(state, star.witnesses, root_at(tg, 2))

    def test_requires_deficient_root(self, chain):
        _, star, tg, prices, tau = chain
        alloc, lacking = deficient_members(tg, prices, tau)[0]
        satisfied_agent = next(i for i in range(3) if i not in lacking)
        state = AugmentState.from_allocation(tg, tau, alloc)
        with pytest.raises(InputError):
            augment(state, star.witnesses, root_at(tg, satisfied_agent))

    def test_queue_entries_bounded(self, chain):
        _, star, tg, prices, tau = chain
        alloc, lacking = deficient_members(tg, prices, tau)[0]
        state = AugmentState.from_allocation(tg, tau, alloc)
        augment(state, star.witnesses, root_at(tg, lacking[0]))
        assert len(state.ever_queued) <= tg.n


class TestSolveByAugmenting:
    def test_already_leveled_start_returns_immediately(self, disjoint_support):
        eta = F(1, 12)
        star = build_star_point(disjoint_support, membership_summary(disjoint_support, HALF, eta))
        tg, prices = star.tie_graph, star.tie_graph.prices
        tau = compute_tau(tg, enumerate_opt(tg))
        trace: list[dict] = []
        result = solve_by_augmenting(tg, tau, star.witnesses, trace, face=enumerate_opt(tg))
        assert trace == []
        assert result in enumerate_opt(tg)

    def test_chain_converges_with_work(self, chain):
        _, star, tg, prices, tau = chain
        trace: list[dict] = []
        result = solve_by_augmenting(tg, tau, star.witnesses, trace, face=enumerate_opt(tg))
        assert any(e["event"] == "pop" for e in trace)
        assert all(p_plus(tg, i, result[i]) >= tau for i in range(3))
        assert max(price_of(prices, b) for b in result) == tau

    def test_variants_converge(self):
        for params in [(6, 5, 2, 4, 5), (7, 4, 2, 3, 6), (8, 6, 3, 4, 6), (9, 8, 4, 5, 6)]:
            p, w, eta = make_chain_fixture(*params)
            star = build_star_point(p, membership_summary(p, w, eta))
            tg, prices = star.tie_graph, star.tie_graph.prices
            tau = compute_tau(tg, enumerate_opt(tg))
            result = solve_by_augmenting(tg, tau, star.witnesses, face=enumerate_opt(tg))
            assert all(p_plus(tg, i, result[i]) >= tau for i in range(3))
