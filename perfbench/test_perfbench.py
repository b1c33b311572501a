"""Tests of the benchmark's own arithmetic, tracing and workload plumbing.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from run import op_tail, tail_percentile  # noqa: E402
from worker import Ops, problems  # noqa: E402


def span(name, parent, start, end, size=None):
    return [name, parent, start, end, 0, size]


class TestSelfTime:
    def test_nested_children(self):
        spans = [
            span("solve", None, 0.0, 10.0),
            span("find_wstar", 0, 1.0, 4.0),
            span("membership_summary", 1, 2.0, 3.0),
            span("verify_certificate", 0, 5.0, 9.0),
        ]
        assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_once(self):
        spans = [span("solve", None, 0.0, 10.0), span("perturb", 0, 1.0, 5.0), span("perturb", 0, 3.0, 7.0)]
        assert tracer.self_times(spans)[0] == pytest.approx(4.0)

    def test_child_clipped_to_parent(self):
        spans = [span("solve", None, 0.0, 10.0), span("perturb", 0, 8.0, 12.0), span("perturb", 0, 11.0, 13.0)]
        assert tracer.self_times(spans)[0] == pytest.approx(8.0)

    def test_self_times_sum_to_root_and_split_by_caller(self):
        spans = [
            span("op", None, 0.0, 20.0),
            span("solve", 0, 0.5, 19.0),
            span("compute_constants", 1, 1.0, 6.0),
            span("compute_omega", 2, 2.0, 5.0),
            span("verify_certificate", 1, 10.0, 18.0),
            span("compute_omega", 4, 11.0, 15.0),
            span("enumerate_opt", 4, 16.0, 17.0, size=7),
        ]
        totals, self_sum, root_sum = tracer.layer_totals(spans)
        assert self_sum == pytest.approx(root_sum) == pytest.approx(20.0)
        assert totals["preprocess.omega_s"] == pytest.approx(3.0)
        assert totals["oracles.omega_s"] == pytest.approx(4.0)
        assert totals["preprocess.constants_s"] == pytest.approx(2.0)
        assert totals["oracles.verify_s"] == pytest.approx(3.0)
        assert totals["pricing.face_allocs"] == 7
        assert totals["pricing.enumerate_opt_calls"] == 1
        shares = tracer.layer_shares(totals, root_sum)
        assert shares["oracles.share"] == pytest.approx(0.35)
        assert sum(shares.values()) + totals["bench.self_s"] / root_sum == pytest.approx(1.0)


class TestTailRule:
    def test_eleventh_slowest_at_sample_size(self):
        times = [float(t) for t in range(1, 31)]
        assert op_tail(times, 30) == 20.0
        assert tail_percentile(30) == pytest.approx(200 / 3)

    def test_longer_run_keeps_the_percentile(self):
        times = [float(t) for t in range(60, 0, -1)]
        assert op_tail(times, 30) == 40.0  # 20 ops beyond it, still p66.7
        assert op_tail(times[:45], 30) == 45.0  # 15 ops beyond it (60..46)

    def test_exactly_eleven_ops(self):
        assert op_tail([float(t) for t in range(11)], 11) == 0.0

    def test_too_few_ops(self):
        with pytest.raises(ValueError):
            op_tail([1.0] * 29, 30)


class TestTracer:
    def test_install_records_and_uninstall_restores(self):
        import manna
        import manna.kkm
        import manna.solver

        original = manna.kkm.find_wstar
        inst = manna.generate_instance(3, 2, 3, profile="mixed")
        t = tracer.Tracer()
        with t.installed():
            assert manna.solver.find_wstar is not original
            assert manna.find_wstar is manna.solver.find_wstar
            with t.root("op"):
                manna.solve(inst)
        assert manna.solver.find_wstar is original and manna.find_wstar is original
        assert type(manna.Certificate.__dict__["from_json"]) is classmethod
        names = {s[tracer.NAME] for s in t.spans}
        assert {"op", "solve", "find_wstar", "compute_omega", "verify_certificate", "brute_po"} <= names
        totals, self_sum, root_sum = tracer.layer_totals(t.spans)
        assert self_sum == pytest.approx(root_sum, rel=1e-9)
        assert totals["oracles.omega_s"] > 0 and totals["preprocess.omega_s"] > 0

    def test_metric_list_matches_benchmark_json(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == tracer.per_layer_metrics()
        assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


class TestWorkloads:
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS.values():
            assert workloads.items(workload, 5) == workloads.items(workload, 5)
            assert workloads.items(workload, 5) != workloads.items(workload, 6)

    def test_cycle_mix(self):
        cycle = workloads.weave({"a": 6, "b": 2, "c": 1})
        assert len(cycle) == 9 and cycle.count("b") == 2
        assert "b" in cycle[:5] and "c" in cycle[3:6]

    def test_end_to_end_from_every_op(self):
        times = [float(t) for t in range(1, 31)]
        got = run.end_to_end(times, 30, [0.1, 0.3, 0.2], 21.0)
        assert got["ops_per_s"][0] == pytest.approx(30 / sum(times))
        assert got["op_p50_s"][0] == 15.5
        assert got["op_tail_s"][0] == 20.0
        assert got["peak_rss_mb"][0] == 21.0 and got["setup_s"][0] == 0.2

    def test_times_at_reference_speed(self):
        ref = run.REFERENCE_LOOP_S
        assert run.at_reference_speed(1.0, ref, ref) == pytest.approx(1.0)
        # The loop took twice as long around the op: the machine ran at half speed.
        assert run.at_reference_speed(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
        assert run.at_reference_speed(1.0, ref, 3 * ref) == pytest.approx(0.5)
        assert worker.reference_loop() > 0

    def test_inputs_beyond_tail(self):
        # A cycle of three inputs run ten times; input 2 is always slowest, input 1 next.
        times = [t for _ in range(10) for t in (1.0, 2.0, 3.0)]
        assert run.inputs_beyond_tail(times, 30, 3) == 1
        times[3] = 5.0  # one run of input 0 joins the slowest ten
        assert run.inputs_beyond_tail(times, 30, 3) == 2

    def test_modes_alternate_per_cell(self):
        got = workloads.items(workloads.WORKLOADS["n3-search"], 1)
        by_cell = {}
        for item in got:
            by_cell.setdefault((item.m, item.profile), []).append(item.mode)
        assert by_cell[(3, "goods")] == ["enumerate", "augment"] * 4


class TestOutputGate:
    def test_problems_names_each_wrong_output(self):
        import manna

        inst = manna.generate_instance(1, 2, 4, profile="goods")
        cert, report = manna.solve(inst)
        assert problems(manna, inst, cert, report) == []
        unfair = dataclasses.replace(cert, allocation_original=(frozenset(range(4)), frozenset()))
        report.overall, report.po_on_original = False, {"verdict": "unverified"}
        assert len(problems(manna, inst, unfair, report)) == 3

    def test_failed_ops_are_counted_once(self):
        failures = [
            {"op": [0, 1], "reasons": ["PO verdict 'fail'"]},
            {"op": [0, 1], "reasons": ["traced and untraced certificate bytes differ"]},
            {"op": [1, 1], "reasons": ["PO verdict 'fail'"]},
        ]
        failed, reasons = run.tally_failures(failures, 3, {2: ["certificate bytes differ from an earlier run"]})
        assert failed == {(0, 1), (1, 1), (0, 2), (1, 2), (2, 2)}
        assert len(reasons[1]) == 3 and sorted(reasons) == [1, 2]

    def test_traced_run_refuses_worker_threads(self, monkeypatch):
        monkeypatch.setenv("MANNA_THREADS", "2")
        assert worker.main(["--inputs", "unused.json", "--trace", "1"]) == 2
        monkeypatch.setenv("MANNA_THREADS", "1")
        assert worker.thread_count() == 1

    def test_raising_op_is_a_failure(self):
        import manna

        inst = manna.generate_instance(1, 2, 3)
        entry = {"instance": manna.instance_to_dict(inst), "item": {"instance_seed": 1, "mode": "enumerate"}}
        ops = Ops(manna, {"kind": "solve", "items": [entry]})
        assert ops.record(0, ValueError("boom")) is None
        assert ops.record(0, ops.timed(0)) is not None
        assert ops.failures == [{"op": [0, 0], "reasons": ["raised ValueError: boom"]}]


def tiny(workload: workloads.Workload) -> workloads.Workload:
    """The workload with every instance cut to three or four items."""
    cells = tuple(dict.fromkeys(((n, 3 if n == 3 else 4, p), 1) for (n, m, p), _ in workload.cells))
    return dataclasses.replace(workload, name="tiny-" + workload.name, cells=cells, sample_ops=11)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(name, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(tiny(workloads.WORKLOADS[name]), seed=1, seconds=0.05, trace=trace)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [(m["name"], m["unit"]) for m in wanted]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "n2-wide", "--seed", "1", "--seconds", "1"]) == 2
