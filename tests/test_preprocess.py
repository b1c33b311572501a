from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import manna.preprocess as pp
from manna.errors import DegeneracyError, InputError, SizeGuardError
from manna.model import Instance
from manna.preprocess import (
    ItemClass,
    choose_epsilon,
    classify_items,
    compute_constants,
    compute_eta,
    compute_lambda,
    compute_omega,
    eta_floor,
    find_unit_ratio_cycle,
    normalize_mixed,
    omega_lower_bound,
    perturb,
    restrict,
)
from reference_constants import reference_lambda, reference_omega


class TestNormalizeMixed:
    def test_conflicting_signs_zeroed(self):
        inst = Instance.from_rows([[5, 1], [-3, 1]])
        out = normalize_mixed(inst)
        assert out.values[1][0] == 0 and out.values[0][0] == 5

    def test_pure_types_unchanged(self, e1):
        assert normalize_mixed(e1) is e1

    def test_all_zero_unchanged(self):
        inst = Instance.from_rows([[0, 0], [0, 0]])
        assert normalize_mixed(inst) is inst

    def test_negative_with_zero_partner_zeroed(self):
        # no positive entry, but a zero partner still forces the zeroing
        inst = Instance.from_rows([[0, 5], [-3, 2]])
        out = normalize_mixed(inst)
        assert out.values[1][0] == 0


class TestClassifyItems:
    def test_goods_and_chores(self, e1):
        classes, dead = classify_items(e1)
        assert classes == {0: ItemClass.GOOD, 1: ItemClass.CHORE}
        assert dead == frozenset()

    def test_zero_positive_after_normalization(self):
        inst = normalize_mixed(Instance.from_rows([[5, 1], [-3, 1]]))
        classes, _ = classify_items(inst)
        assert classes[0] is ItemClass.ZERO_POSITIVE

    def test_all_zero_item_flagged(self):
        inst = Instance.from_rows([[0, 1], [0, 1]])
        classes, dead = classify_items(inst)
        assert dead == frozenset({0}) and 0 not in classes

    def test_mixed_sign_rejected(self):
        with pytest.raises(InputError):
            classify_items(Instance.from_rows([[5, 1], [-3, 1]]))


class TestLambda:
    def test_worked_example(self, e1):
        assert compute_lambda(e1) == F(1)

    def test_zero_row_contributes_nothing(self):
        inst = Instance.from_rows([[0, 0], [1, 0]])
        assert compute_lambda(inst) == F(1)

    def test_padded_single_value(self):
        inst = Instance.from_rows([[1, 0], [1, 0]])
        assert compute_lambda(inst) == F(1)

    def test_all_zero_sentinel(self):
        assert compute_lambda(Instance.from_rows([[0, 0], [0, 0]])) is None

    def test_guard_counts_sumset_work(self):
        # pairwise-coprime unit fractions: all 2^6 subset sums of agent 0
        # differ, so its sumset work is 2 * (2^6 - 1) = 126
        inst = Instance.from_rows([[F(1, q) for q in (2, 3, 5, 7, 11, 13)], [0] * 6])
        assert compute_lambda(inst, guard=126) == reference_lambda(inst)
        with pytest.raises(SizeGuardError):
            compute_lambda(inst, guard=125)
        # 2^40 distinct subset sums: the guard stops the sumset long before that
        primes = [q for q in range(2, 200) if all(q % d for d in range(2, q))][:40]
        wide = Instance.from_rows([[F(1, q) for q in primes], [1] * 40])
        with pytest.raises(SizeGuardError):
            compute_lambda(wide, guard=10**4)
        with pytest.raises(SizeGuardError):
            compute_constants(wide, guard=10**4)


class TestOmega:
    def test_worked_example(self, e1):
        assert compute_omega(e1) == F(1)

    def test_identical_valuations_sentinel(self):
        inst = Instance.from_rows([[2, 3], [2, 3]])
        assert compute_omega(inst) is None

    def test_single_positive_entry(self):
        inst = Instance.from_rows([[2, 0], [0, 0]])
        assert compute_omega(inst) == F(2)

    def test_guard(self, e1):
        with pytest.raises(SizeGuardError):
            compute_omega(e1, guard=3)

    def test_lower_bound_is_conservative(self, e1):
        omega = compute_omega(e1)
        assert omega_lower_bound(e1) <= omega

    def test_exact_far_beyond_allocation_count(self):
        # 2^40 allocations, but the welfares are 6a - 10b for a, b in 0..20:
        # all even, and 6*2 - 10*1 = 2
        inst = Instance.from_rows([[6] * 20 + [-10] * 20, [0] * 40])
        assert compute_omega(inst) == F(2)

    def test_guard_counts_sumset_work(self):
        # unit fractions with pairwise-coprime denominators: all 2^6 subset
        # sums differ, so the sumset work is 2 * (2^6 - 1) = 126
        inst = Instance.from_rows([[F(1, q) for q in (2, 3, 5, 7, 11, 13)], [0] * 6])
        assert compute_omega(inst, guard=126) == reference_omega(inst)
        with pytest.raises(SizeGuardError):
            compute_omega(inst, guard=50)
        # lambda honours the guard too, so the fallback needs an instance whose
        # subset sums collapse (lambda work 42 per agent) while its welfares
        # do not (omega work 156)
        spread = Instance.from_rows([[1] * 6, [F(1, 2)] * 6, [F(1, 3)] * 6])
        consts = compute_constants(spread, guard=50)
        assert consts.omega == omega_lower_bound(spread) and consts.omega_exact is False
        assert consts.lam == reference_lambda(spread)


DENOMINATORS = (1, 2, 3, 5, 7)
rationals = st.builds(F, st.integers(-6, 6), st.sampled_from(DENOMINATORS))
positives = st.builds(F, st.integers(1, 6), st.sampled_from(DENOMINATORS))


@st.composite
def instances(draw, max_n: int = 4, max_m: int = 8) -> Instance:
    """Small instances mixing the column kinds the constants must handle."""
    # n^m <= 4^8 keeps the reference enumeration under 10^5 allocations
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(2, max_m))
    shape = draw(st.sampled_from(("columns", "identical", "proportional")))
    if shape == "identical":
        row = draw(st.lists(rationals, min_size=m, max_size=m))
        return Instance.from_rows([row] * n)
    if shape == "proportional":
        row = draw(st.lists(rationals, min_size=m, max_size=m))
        factors = draw(st.lists(positives, min_size=n, max_size=n))
        return Instance.from_rows([[c * v for v in row] for c in factors])
    columns = []
    for _ in range(m):
        kind = draw(st.sampled_from(("any", "negative", "zero", "zero-positive", "constant")))
        if kind == "any":
            col = draw(st.lists(rationals, min_size=n, max_size=n))
        elif kind == "negative":
            col = [-v for v in draw(st.lists(positives, min_size=n, max_size=n))]
        elif kind == "zero":
            col = [F(0)] * n
        elif kind == "zero-positive":
            col = [F(0)] + draw(st.lists(st.just(F(0)) | positives, min_size=n - 1, max_size=n - 1))
            col = draw(st.permutations(col))
        else:
            col = [draw(rationals)] * n
        columns.append(col)
    return Instance.from_rows([[col[i] for col in columns] for i in range(n)])


class TestConstantsAgainstEnumeration:
    """The sumset constants equal the definitional Fraction enumerations."""

    @given(inst=instances())
    @settings(max_examples=150)
    def test_omega(self, inst):
        assert compute_omega(inst) == reference_omega(inst)

    @given(inst=instances())
    @settings(max_examples=150)
    def test_lambda(self, inst):
        assert compute_lambda(inst) == reference_lambda(inst)

    @given(row=st.lists(rationals, min_size=2, max_size=6), n=st.integers(2, 4))
    def test_identical_rows_have_no_welfare_gap(self, row, n):
        inst = Instance.from_rows([row] * n)
        assert compute_omega(inst) is None and reference_omega(inst) is None


class TestChooseEpsilon:
    def test_worked_example(self):
        # lam=1, omega=1, n=2, m=2, cap=4: floor=1/40, bound=1/160, half=1/320
        assert choose_epsilon(F(1), F(1), 2, 2, F(4)) == F(1, 320)

    def test_omega_sentinel_drops_terms(self):
        assert choose_epsilon(F(1), None, 2, 2, F(4)) == F(1) / (2 * 2) / 2

    def test_formula_instantiation(self):
        assert choose_epsilon(F(2), None, 2, 2, F(2)) == F(1, 4)


class TestPerturb:
    def _mk(self, e1):
        return compute_constants(e1)

    def test_zero_entries_stay_zero(self):
        inst = Instance.from_rows([[0, 5], [0, 2]])
        p = perturb(inst, 1, compute_constants(inst))
        assert p.pvalues[0][0] == 0 and p.pvalues[1][0] == 0

    def test_aux_item_value(self, e1):
        p = perturb(e1, 1, self._mk(e1))
        lam = p.constants.lam
        assert all(p.pvalues[i][2] == lam / 2 for i in range(2))

    def test_signs_and_bounds(self, e1):
        consts = self._mk(e1)
        p = perturb(e1, 5, consts)
        eps = consts.epsilon
        for i in range(2):
            for j in range(2):
                v, vbar = e1.values[i][j], p.pvalues[i][j]
                assert (v > 0) == (vbar > 0) and (v < 0) == (vbar < 0)
                assert 0 < v - vbar <= eps
        assert eps < consts.lam / (2 * e1.m)

    def test_deterministic_per_seed(self, e1):
        consts = self._mk(e1)
        a = perturb(e1, 9, consts)
        b = perturb(e1, 9, consts)
        c = perturb(e1, 10, consts)
        assert a.pvalues == b.pvalues
        assert a.pvalues != c.pvalues

    def test_eta_floor_below_eta(self, e1):
        consts = self._mk(e1)
        for seed in range(10):
            p = perturb(e1, seed, consts)
            floor = eta_floor(consts.lam, e1.n, e1.m, consts.value_cap)
            assert floor <= p.constants.eta
            assert compute_eta(p) == p.constants.eta

    def test_retry_exhaustion_reports_cycle(self, e1, monkeypatch):
        fake = (("item", 0), ("agent", 0), ("item", 1), ("agent", 1))
        monkeypatch.setattr(pp, "find_unit_ratio_cycle", lambda matrix: fake)
        for attempt in range(3):
            with pytest.raises(DegeneracyError) as err:
                perturb(e1, 1, self._mk(e1), attempt=attempt)
            assert err.value.cycle == fake

    def test_attempts_are_distinct_draws(self, e1):
        consts = self._mk(e1)
        draws = [perturb(e1, 1, consts, attempt=k).pvalues for k in range(3)]
        assert draws[0] == perturb(e1, 1, consts).pvalues
        assert len(set(draws)) == 3

    def test_all_zero_rejected(self):
        inst = Instance.from_rows([[0, 0], [0, 0]])
        with pytest.raises(InputError):
            perturb(inst, 0, compute_constants(inst))


class TestZeroItemPins:
    def test_holder_has_original_value_zero(self):
        inst = Instance.from_rows([[-3, 5], [0, 2]])
        normalized = normalize_mixed(inst)
        assert normalized.values[0][0] == 0
        p = perturb(normalized, 1, compute_constants(normalized))
        assert p.zero_items == frozenset({0})
        # the normalized base values item 0 at zero for both agents and would pin it on agent 0
        assert p.zero_item_pins(inst) == {0: 1}


class TestEta:
    def test_worked_example(self, ebar):
        assert compute_eta(ebar) == F(1, 31)

    def test_aux_dominates_collapse(self):
        base = Instance.from_rows([[0, 0], [0, 1]])
        consts = pp.Constants(
            lam=F(1), omega=None, omega_exact=True, epsilon=F(1, 100), eta=None, value_cap=F(1)
        )
        p = pp.PerturbedInstance(
            base=base,
            pvalues=((F(0), F(0), F(1, 2)), (F(0), F(0), F(1, 2))),
            constants=consts,
            seed=0,
        )
        assert compute_eta(p) == F(1, 2 * 2)  # 1/(m*n) when only aux is nonzero


class TestCycleScan:
    def test_proportional_rows_violate(self):
        cycle = find_unit_ratio_cycle(((F(1), F(2)), (F(2), F(4))))
        assert cycle is not None
        assert {kind for kind, _ in cycle} == {"item", "agent"}

    def test_generic_rows_pass(self):
        assert find_unit_ratio_cycle(((F(1), F(2)), (F(2), F(5)))) is None

    def test_single_nonzero_column(self):
        assert find_unit_ratio_cycle(((F(3), F(0)), (F(2), F(0)))) is None

    def test_three_agent_six_cycle(self):
        # ratios around the 6-cycle: (1/2) * (1/2) * (1/x) with x = v[2][0]
        bad = ((F(1), F(2), F(0)), (F(0), F(1), F(2)), (F(1, 4), F(0), F(1)))
        good = ((F(1), F(2), F(0)), (F(0), F(1), F(2)), (F(3), F(0), F(1)))
        assert find_unit_ratio_cycle(bad) is not None
        assert find_unit_ratio_cycle(good) is None

    def test_perturbed_instances_are_clean(self, e1):
        for seed in range(5):
            p = perturb(e1, seed, compute_constants(e1))
            assert find_unit_ratio_cycle(p.pvalues) is None


class TestRestrict:
    def test_drop_aux(self):
        assert restrict((frozenset({0, 2}), frozenset({1})), 2) == (
            frozenset({0}),
            frozenset({1}),
        )

    def test_aux_alone_leaves_empty_bundle(self):
        assert restrict((frozenset({2}), frozenset({0, 1})), 2) == (
            frozenset(),
            frozenset({0, 1}),
        )
