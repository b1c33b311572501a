from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from manna.errors import DegeneracyError, InputError, SizeGuardError
from manna.kkm import membership_summary
from manna.model import Instance
from manna.preprocess import Constants, PerturbedInstance, compute_constants, normalize_mixed, perturb
from manna.pricing import (
    build_tie_graph,
    dual_prices,
    enumerate_opt,
    lp_objective,
    on_optimal_face,
    support,
    validate_weight,
)

ETA = F(1, 31)
HALF = (F(1, 2), F(1, 2))


def random_perturbed(seed: int, n: int, m: int) -> PerturbedInstance:
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
    inst = normalize_mixed(Instance.from_rows(rows))
    consts = compute_constants(inst)
    if consts.lam is None:
        pytest.skip("degenerate draw")
    return perturb(inst, seed, consts)


def random_weight(rng: random.Random, n: int) -> tuple[F, ...]:
    cuts = sorted(rng.randint(0, 40) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(40 - prev)
    return tuple(F(x, 40) for x in parts)


class TestWeights:
    def test_validate(self):
        validate_weight(HALF, 2)
        with pytest.raises(InputError):
            validate_weight((F(1, 2), F(1, 3)), 2)
        with pytest.raises(InputError):
            validate_weight((F(3, 2), F(-1, 2)), 2)

    def test_support(self):
        assert support((F(1), F(0))) == frozenset({0})


class TestDualPrices:
    def test_worked_values(self, ebar):
        prices = dual_prices(ebar, HALF, ETA)
        assert prices == (F(33, 16), F(-297, 496), F(33, 124))

    def test_symmetric_item(self, disjoint_support):
        eta = F(1, 12)
        prices = dual_prices(disjoint_support, HALF, eta)
        assert prices[2] == (F(1, 2) + eta) * F(1, 2)

    def test_chore_priced_negative(self, ebar):
        prices = dual_prices(ebar, HALF, ETA)
        assert prices[1] < 0 and prices[0] > 0 and prices[2] > 0

    def test_zero_item_priced_zero(self):
        base = Instance.from_rows([[0, 3], [0, 2]])
        consts = Constants(F(1), F(1), True, F(1, 100), F(1, 20), F(3))
        p = PerturbedInstance(
            base=base,
            pvalues=((F(0), F(3), F(1, 2)), (F(0), F(2), F(1, 2))),
            constants=consts,
            seed=0,
        )
        prices = dual_prices(p, HALF, F(1, 20))
        assert prices[0] == 0


class TestTieGraph:
    def test_worked_structure(self, ebar):
        prices = dual_prices(ebar, HALF, ETA)
        tg = build_tie_graph(ebar, HALF, ETA)
        assert tg.forced == (frozenset({0}), frozenset({1}))
        assert tg.ties == (2,)
        assert tg.gamma == (frozenset({2}), frozenset({2}))
        assert tg.holders[2] == (0, 1)
        # one connected component holding both agents and all items
        assert len(set(tg.roots)) == 1

    def test_unique_prices_mean_no_ties(self, ebar):
        w = (F(2, 3), F(1, 3))
        prices = dual_prices(ebar, w, ETA)
        tg = build_tie_graph(ebar, w, ETA)
        assert tg.ties == ()
        assert len(enumerate_opt(tg)) == 1

    def test_equality_cycle_detected(self):
        # proportional rows tie on both items at the same weight
        base = Instance.from_rows([[1, 2], [2, 4]])
        consts = Constants(F(1), F(1), True, F(1, 100), ETA, F(4))
        p = PerturbedInstance(
            base=base,
            pvalues=((F(1), F(2), F(1, 2)), (F(2), F(4), F(1, 2))),
            constants=consts,
            seed=0,
        )
        w1 = (F(1) - ETA) / 3
        w = (F(1) - w1, w1)
        with pytest.raises(DegeneracyError) as err:
            build_tie_graph(p, w, ETA)
        assert err.value.cycle == (("agent", 1), ("item", 0), ("agent", 0), ("item", 1))
        with pytest.raises(DegeneracyError) as err:
            membership_summary(p, w, ETA)
        assert err.value.cycle == (("agent", 1), ("item", 0), ("agent", 0), ("item", 1))

    def test_tie_bound_and_acyclicity_random(self):
        rng = random.Random(0)
        for seed in range(25):
            n = 2 + seed % 2
            p = random_perturbed(200 + seed, n, 2 + seed % 4)
            w = random_weight(rng, n)
            prices = dual_prices(p, w, p.constants.eta)
            tg = build_tie_graph(p, w, p.constants.eta)
            assert len(tg.ties) <= n - 1
            for j, hs in tg.holders.items():
                assert all(p.pvalues[i][j] != 0 for i in hs)


class TestOptimalFace:
    def test_worked_enumeration(self, ebar):
        prices = dual_prices(ebar, HALF, ETA)
        tg = build_tie_graph(ebar, HALF, ETA)
        allocs = enumerate_opt(tg)
        assert allocs == (
            (frozenset({0, 2}), frozenset({1})),
            (frozenset({0}), frozenset({1, 2})),
        )

    def test_objective_equality_for_members(self, ebar):
        prices = dual_prices(ebar, HALF, ETA)
        tg = build_tie_graph(ebar, HALF, ETA)
        for alloc in enumerate_opt(tg):
            assert lp_objective(ebar, HALF, ETA, alloc) == sum(prices)
            assert on_optimal_face(ebar, HALF, ETA, prices, alloc)

    def test_off_face_strictly_below(self, ebar):
        prices = dual_prices(ebar, HALF, ETA)
        # item 0 moved off its unique maximizer
        alloc = (frozenset({2}), frozenset({0, 1}))
        assert lp_objective(ebar, HALF, ETA, alloc) < sum(prices)

    def test_membership_matches_structure_randomized(self):
        rng = random.Random(3)
        for seed in range(12):
            n = 2 + seed % 2
            p = random_perturbed(300 + seed, n, 2 + seed % 3)
            w = random_weight(rng, n)
            eta = p.constants.eta
            prices = dual_prices(p, w, eta)
            tg = build_tie_graph(p, w, eta)
            members = set(enumerate_opt(tg))
            live = set(p.live_items)
            total = sum(prices)
            for _ in range(100):
                vec = [rng.randrange(n) for _ in range(p.m + 1)]
                bundles = [set() for _ in range(n)]
                for j, h in enumerate(vec):
                    if j in live:
                        bundles[h].add(j)
                alloc = tuple(frozenset(b) for b in bundles)
                structural = all(vec[j] in tg.holders[j] for j in live)
                assert structural == (lp_objective(p, w, eta, alloc) == total)
                if not structural:
                    assert lp_objective(p, w, eta, alloc) < total

    def test_guard(self, ebar):
        prices = dual_prices(ebar, HALF, ETA)
        tg = build_tie_graph(ebar, HALF, ETA)
        with pytest.raises(SizeGuardError):
            enumerate_opt(tg, guard=1)

    def test_boundary_weight_objective_defined(self, ebar):
        w = (F(1), F(0))
        prices = dual_prices(ebar, w, ETA)
        alloc = (frozenset({0, 1, 2}), frozenset())
        value = lp_objective(ebar, w, ETA, alloc)
        assert value <= sum(prices)
