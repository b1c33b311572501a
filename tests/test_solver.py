from __future__ import annotations

from fractions import Fraction as F

import pytest

import manna.preprocess as pp
import manna.solver as solver
from manna.errors import DegeneracyError, InputError
from manna.model import format_rat
from manna.preprocess import DEFAULT_RETRIES, compute_constants, normalize_mixed, perturb
from manna.solver import PROFILES, SolveOptions, explain, generate_instance, solve


class TestRetryLoop:
    def test_solve_and_explain_skip_the_same_degenerate_draw(self, e1, monkeypatch):
        normalized = normalize_mixed(e1)
        first = perturb(normalized, 5, compute_constants(normalized))
        real = solver.find_wstar
        first_draw_seen: list[bool] = []

        def degenerate_on_first_draw(p, eta, **kwargs):
            first_draw_seen.append(p.pvalues == first.pvalues)
            if p.pvalues == first.pvalues:
                raise DegeneracyError("forced equality-graph cycle", cycle=(("agent", 0), ("item", 0)))
            return real(p, eta, **kwargs)

        monkeypatch.setattr(solver, "find_wstar", degenerate_on_first_draw)
        cert, report = solve(e1, SolveOptions(seed=5))
        assert report.overall
        assert cert.perturbed_values != first.pvalues
        text = explain(e1, seed=5)
        assert "w = (" + ", ".join(format_rat(x) for x in cert.w_star) + ")" in text.splitlines()
        # each call met the degenerate draw once, then certified on the next
        assert first_draw_seen == [True, False, True, False]

    def test_retries_exhausted_carry_the_last_cycle(self, e1, monkeypatch):
        draws: list = []

        def always_degenerate(p, eta, **kwargs):
            draws.append(p.pvalues)
            raise DegeneracyError("forced equality-graph cycle", cycle=(("agent", len(draws)),))

        monkeypatch.setattr(solver, "find_wstar", always_degenerate)
        with pytest.raises(DegeneracyError) as err:
            solve(e1, SolveOptions(seed=5))
        assert f"{DEFAULT_RETRIES + 1} perturbation draws" in str(err.value)
        assert len(set(draws)) == len(draws) == DEFAULT_RETRIES + 1
        assert err.value.cycle == (("agent", DEFAULT_RETRIES + 1),)

    def test_explain_at_a_supplied_weight_reads_the_draw_solve_certifies_on(self, e1, monkeypatch):
        normalized = normalize_mixed(e1)
        constants = compute_constants(normalized)
        first = perturb(normalized, 5, constants)
        second = perturb(normalized, 5, constants, attempt=1)
        assert first.constants.eta != second.constants.eta
        real = pp.find_unit_ratio_cycle

        def cycle_on_first_draw(matrix):
            return (("item", 0), ("agent", 0)) if matrix == first.pvalues else real(matrix)

        monkeypatch.setattr(pp, "find_unit_ratio_cycle", cycle_on_first_draw)
        cert, report = solve(e1, SolveOptions(seed=5))
        assert report.overall and cert.perturbed_values == second.pvalues
        text = explain(e1, seed=5, w=(F(1, 2), F(1, 2)))
        assert f"eta = {format_rat(second.constants.eta)}" in text.splitlines()


class TestOptions:
    def test_negative_guard_rejected(self):
        with pytest.raises(InputError, match="guard"):
            SolveOptions(guard=-1)


class TestManyItems:
    @pytest.mark.parametrize("m", [30, 40])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_two_agents_certify_pareto_optimality(self, m, profile):
        # 2^40 allocations: neither lambda nor the PO check may walk them
        inst = generate_instance(m, 2, m, 10, profile)
        _, report = solve(inst, SolveOptions(seed=1))
        assert report.overall
        assert report.po_on_original["verdict"] == "pass"
