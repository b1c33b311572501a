from __future__ import annotations

import manna.solver as solver
from manna.errors import DegeneracyError
from manna.model import format_rat
from manna.preprocess import compute_constants, normalize_mixed, perturb
from manna.solver import SolveOptions, explain, solve


class TestRetryLoop:
    def test_solve_and_explain_skip_the_same_degenerate_draw(self, e1, monkeypatch):
        normalized = normalize_mixed(e1)
        first = perturb(normalized, 5, compute_constants(normalized), max_retries=0)
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
        def always_degenerate(p, eta, **kwargs):
            raise DegeneracyError("forced equality-graph cycle", cycle=(("agent", 1),))

        monkeypatch.setattr(solver, "find_wstar", always_degenerate)
        try:
            solve(e1, SolveOptions(seed=5, max_retries=2))
        except DegeneracyError as exc:
            assert "3 perturbation draws" in str(exc)
            assert exc.cycle == (("agent", 1),)
        else:
            raise AssertionError("solve certified a point on degenerate draws")
