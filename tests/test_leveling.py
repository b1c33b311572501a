from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from manna.errors import InputError, SoundnessError
from manna.kkm import build_star_point, membership_summary
from manna.leveling import compute_tau, find_leveled, p_plus
from manna.oracles import brute_tau
from manna.pricing import build_tie_graph, dual_prices, enumerate_opt, price_of

from test_pricing import HALF, ETA, random_perturbed, random_weight


@pytest.fixture
def worked(ebar):
    prices = dual_prices(ebar, HALF, ETA)
    tg = build_tie_graph(ebar, HALF, ETA)
    return ebar, tg, prices


class TestPPlus:
    def test_two_candidate_comparisons(self, worked):
        _, tg, prices = worked
        assert p_plus(tg, 0, {0}) == F(33, 16) + F(33, 124)
        assert p_plus(tg, 1, {1, 2}) == F(-165, 496)

    def test_no_ties_returns_plain_price(self, ebar):
        w = (F(2, 3), F(1, 3))
        prices = dual_prices(ebar, w, ETA)
        tg = build_tie_graph(ebar, w, ETA)
        assert tg.gamma[0] == frozenset()
        assert p_plus(tg, 0, tg.forced[0]) == price_of(prices, tg.forced[0])

    def test_sandwich_violation_rejected(self, worked):
        _, tg, prices = worked
        with pytest.raises(InputError):
            p_plus(tg, 0, {1})  # item 1 is forced to the other agent

    def test_never_below_plain_price(self, worked):
        _, tg, prices = worked
        for bundle in ({0}, {0, 2}):
            assert p_plus(tg, 0, bundle) >= price_of(prices, bundle)


class TestTau:
    def test_worked_value(self, worked):
        _, tg, prices = worked
        assert compute_tau(tg, enumerate_opt(tg)) == F(33, 16)

    def test_no_ties_tau_is_forced_max(self, ebar):
        w = (F(2, 3), F(1, 3))
        prices = dual_prices(ebar, w, ETA)
        tg = build_tie_graph(ebar, w, ETA)
        assert compute_tau(tg, enumerate_opt(tg)) == max(
            price_of(prices, b) for b in enumerate_opt(tg)[0]
        )

    def test_order_independence(self, worked):
        _, tg, prices = worked
        expected = min(
            max(price_of(prices, b) for b in alloc) for alloc in reversed(enumerate_opt(tg))
        )
        assert compute_tau(tg, enumerate_opt(tg)) == expected

    def test_agrees_with_definitional_oracle(self, worked):
        ebar, tg, prices = worked
        assert brute_tau(ebar, HALF, ETA) == compute_tau(tg, enumerate_opt(tg))

    def test_oracle_agreement_randomized(self):
        rng = random.Random(17)
        for seed in range(15):
            n = 2 + seed % 2
            p = random_perturbed(400 + seed, n, 2 + seed % 3)
            w = random_weight(rng, n)
            eta = p.constants.eta
            prices = dual_prices(p, w, eta)
            tg = build_tie_graph(p, w, eta)
            assert compute_tau(tg, enumerate_opt(tg)) == brute_tau(p, w, eta)


class TestFindLeveled:
    def test_non_star_point_partial_satisfaction(self, worked):
        _, tg, prices = worked
        state = find_leveled(tg, F(33, 16), face=enumerate_opt(tg))
        assert state.allocation == (frozenset({0}), frozenset({1, 2}))
        assert state.satisfied == frozenset({0})

    def test_expect_full_raises_off_star(self, worked):
        _, tg, prices = worked
        with pytest.raises(SoundnessError):
            find_leveled(tg, F(33, 16), face=enumerate_opt(tg), expect_full=True)

    def test_symmetric_star_point_fully_satisfied(self, disjoint_support):
        eta = F(1, 12)
        star = build_star_point(disjoint_support, membership_summary(disjoint_support, HALF, eta))
        face = enumerate_opt(star.tie_graph)
        state = find_leveled(star.tie_graph, compute_tau(star.tie_graph, face), face=face, expect_full=True)
        assert state.satisfied == frozenset({0, 1})

    def test_wrong_tau_detected(self, worked):
        _, tg, prices = worked
        with pytest.raises(SoundnessError):
            find_leveled(tg, F(999), face=enumerate_opt(tg))


class TestExchangeIdentity:
    def test_price_transfer_identity(self, worked):
        _, tg, prices = worked
        items = list(range(3))
        rng = random.Random(5)
        for _ in range(40):
            si = frozenset(j for j in items if rng.random() < 0.5)
            sa = frozenset(j for j in items if j not in si and rng.random() < 0.7)
            t = rng.choice(items)
            left = price_of(prices, si) + price_of(prices, sa)
            right = price_of(prices, si ^ {t}) + price_of(prices, sa ^ {t})
            if (t in si) != (t in sa):
                assert left == right
