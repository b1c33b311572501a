"""Benchmark of the manna solver and certifier: one run of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload n3-search --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload n3-search --seed 1 --seconds 25 --trace 1

It imports manna from ``src/``, draws the workload's inputs from the seed
(for ``verify-cert`` it also solves them to get the certificates), then
starts one process (``worker.py``) with a random ``PYTHONHASHSEED`` that
runs the workload's op cycle in a closed loop for ``--seconds``, and
between ops starts set-up-only processes that time ``import manna`` plus
loading the inputs. Times are reported at the reference speed (see
:func:`at_reference_speed`). It prints every metric by name with its
unit, then one JSON object as the last line, and exits non-zero when any
output is wrong. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_shares, per_layer_metrics
from worker import CYCLE_LIMIT_S, problems
from workloads import WORKLOADS, Item, Workload, items

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
# The reference loop's time at the reference speed (worker.reference_loop).
REFERENCE_LOOP_S = 0.006
# Every process of the run must end within DEADLINE_S seconds of its start.
DEADLINE_S = 170.0


class RunError(Exception):
    """The run itself could not be carried out (as opposed to a wrong output)."""


def op_tail(times: list[float], sample_ops: int) -> float:
    """The op time with ``len(times) * 10 // sample_ops`` ops beyond it.

    That is the fixed percentile ``100 * (1 - 10 / sample_ops)``: for a run
    of exactly ``sample_ops`` ops, the highest percentile with at least ten
    ops beyond it (the 11th slowest). Longer runs keep the percentile, so
    the tail stays at the same place in the workload's fixed op mix.
    """
    if len(times) < sample_ops or sample_ops < 11:
        raise ValueError(f"the tail needs at least {max(sample_ops, 11)} ops, got {len(times)}")
    beyond = len(times) * 10 // sample_ops
    return sorted(times)[len(times) - 1 - beyond]


def tail_percentile(sample_ops: int) -> float:
    """Which percentile :func:`op_tail` reports."""
    return 100.0 * (sample_ops - 10) / sample_ops


def inputs_beyond_tail(times: list[float], sample_ops: int, cycle_len: int) -> int:
    """How many distinct inputs the ops beyond the tail come from (ops run in cycle order)."""
    beyond = len(times) * 10 // sample_ops
    slowest = sorted(range(len(times)), key=times.__getitem__)[len(times) - beyond:]
    return len({k % cycle_len for k in slowest})


def at_reference_speed(seconds: float, loop_before: float, loop_after: float) -> float:
    """A measured time scaled to the machine speed at which the reference loop takes ``REFERENCE_LOOP_S``.

    The shared machine's speed swings by more than half within seconds
    and stays slow or fast for whole runs. The reference loop, timed right
    before and after, measures the speed the work ran at.
    """
    return seconds * 2 * REFERENCE_LOOP_S / (loop_before + loop_after)


def code_digest() -> str:
    """Digest of the package sources, so digests are compared only within one code version."""
    h = hashlib.sha256()
    for path in sorted((SRC / "manna").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def prepare(manna, workload: Workload, run_items: list[Item]) -> tuple[dict, dict[int, list[str]]]:
    """Generate the instances; for verify-cert also solve them for their certificates."""
    entries, failures = [], {}
    for index, item in enumerate(run_items):
        inst = manna.generate_instance(item.instance_seed, item.n, item.m, profile=item.profile)
        entry = {"item": item.__dict__, "instance": manna.instance_to_dict(inst)}
        if workload.kind == "verify":
            cert, report = manna.solve(inst, manna.SolveOptions(seed=item.instance_seed, mode=item.mode))
            found = problems(manna, inst, cert, report)
            if found:
                failures[index] = ["making the certificate: " + r for r in found]
            entry["certificate"] = cert.to_json()
        entries.append(entry)
    return {"kind": workload.kind, "items": entries}, failures


def start_worker(args: list[str], hash_seed: int, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise RunError("a workload process ran past the run's deadline and was stopped") from None
    if proc.returncode != 0:
        raise RunError(f"workload process exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_ledger(code: str, entries: list[dict], digests: list[str | None]) -> list[int]:
    """Compare certificate digests with earlier runs that solved the same input with the same code.

    Entries are keyed by the package digest and the input (instance and
    solve options), so runs of other seeds or workloads share them too.
    """
    path = OUT / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    mismatched = []
    for i, digest in enumerate(digests):
        entry = json.dumps([entries[i]["item"], entries[i]["instance"]], sort_keys=True)
        key = code + "/" + hashlib.sha256(entry.encode()).hexdigest()
        if digest is not None and ledger.setdefault(key, digest) != digest:
            mismatched.append(i)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, sort_keys=True))
    os.replace(tmp, path)
    return mismatched


def end_to_end(times: list[float], sample_ops: int, setups: list[float], peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics from every op's time and every set-up time, both at the reference speed."""
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (op_tail(times, sample_ops), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(worker: dict) -> dict[str, tuple[float, str]]:
    """Per-op means over every traced op."""
    ops = len(worker["times"])
    values = {k: v / ops for k, v in worker["totals"].items()}
    values.update(layer_shares(worker["totals"], worker["root_sum"]))
    values["trace_op_s"] = worker["traced_op_s"] / ops
    values["trace_overhead_frac"] = worker["traced_op_s"] / sum(worker["times"]) - 1
    return {name: (values.get(name, 0.0), unit) for name, unit in per_layer_metrics()}


def tally_failures(
    failures: list[dict], cycles: int, input_failures: dict[int, list[str]]
) -> tuple[set[tuple[int, int]], dict[int, list[str]]]:
    """The failed ops, each a (cycle, input) pair, and every reason by input.

    An op counts once however many of its checks fail. An input whose
    certificate could not be made, or differs from an earlier run, fails
    in every cycle.
    """
    reasons = {i: list(r) for i, r in input_failures.items()}
    failed_ops = {(c, i) for c in range(cycles) for i in input_failures}
    for failure in failures:
        cycle, index = failure["op"]
        failed_ops.add((cycle, index))
        reasons.setdefault(index, []).extend(failure["reasons"])
    return failed_ops, reasons


def run(workload: Workload, seed: int, seconds: float, trace: int) -> int:
    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, str(SRC))
    import manna

    OUT.mkdir(exist_ok=True)
    data, input_failures = prepare(manna, workload, items(workload, seed))
    cycle_len = len(data["items"])
    inputs = OUT / f"inputs-{workload.name}-{seed}-{os.getpid()}.json"
    inputs.write_text(json.dumps(data), encoding="ascii")
    hash_seed = random.SystemRandom().randrange(1, 2**32)
    args = ["--inputs", str(inputs), "--seconds", str(seconds), "--min-ops", str(workload.sample_ops), "--trace", str(trace)]
    if trace:
        args += ["--spans", str(OUT / f"spans-{workload.name}-{seed}.json.gz")]
    try:
        worker = start_worker(args, hash_seed, deadline)
    finally:
        inputs.unlink()
    times = worker["times"]
    if not trace and len(times) < workload.sample_ops:
        raise RunError(f"only {len(times)} ops ran within {CYCLE_LIMIT_S:.0f} s; the run needs {workload.sample_ops}")

    if workload.kind == "verify":
        digests = [hashlib.sha256(e["certificate"].encode("ascii")).hexdigest() for e in data["items"]]
    else:
        digests = worker["digests"]
    for i in check_ledger(code_digest(), data["items"], digests):
        input_failures.setdefault(i, []).append("certificate bytes differ from an earlier run of the same code")
    failed_ops, reasons = tally_failures(worker["failures"], worker["cycles"], input_failures)
    run_failures = []

    attempted = len(times)
    print(f"workload {workload.name} seed {seed} trace {trace}: {worker['cycles']} cycles of {cycle_len} ops, "
          f"PYTHONHASHSEED {hash_seed}, MANNA_THREADS {worker['threads']}")
    if trace:
        metrics = per_layer(worker)
        if abs(worker["self_sum"] - worker["root_sum"]) > 1e-6 * worker["root_sum"]:
            run_failures.append(f"self times sum to {worker['self_sum']:.6f} s "
                                f"but the traced roots last {worker['root_sum']:.6f} s")
    else:
        loops = worker["loops"]
        scaled = [at_reference_speed(t, loops[k], loops[k + 1]) for k, t in enumerate(times)]
        setups = [at_reference_speed(*probe) for probe in worker["setups"]]
        metrics = end_to_end(scaled, workload.sample_ops, setups, worker["peak_rss_mb"])
        wall = end_to_end(times, workload.sample_ops, [probe[0] for probe in worker["setups"]], worker["peak_rss_mb"])
        print(f"reference loop: median {statistics.median(loops) * 1e3:.2f} ms (reference {REFERENCE_LOOP_S * 1e3:g} ms); "
              "wall-clock figures: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in wall.items() if k != "peak_rss_mb"))
        print(f"op_tail_s is percentile {tail_percentile(workload.sample_ops):.1f} of {attempted} ops: "
              f"{attempted * 10 // workload.sample_ops} ops beyond it, from "
              f"{inputs_beyond_tail(times, workload.sample_ops, cycle_len)} distinct inputs")
    run_digest = hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest()
    print(f"certificate digests over the run: sha256 {run_digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for index, found in sorted(reasons.items()):
        label = Item(**data["items"][index]["item"]).label()
        cycles = sum(1 for _, i in failed_ops if i == index)
        print(f"FAILED {label}, in {cycles} cycles: {'; '.join(dict.fromkeys(found))}", file=sys.stderr)
    for reason in run_failures:
        print(f"FAILED the run: {reason}", file=sys.stderr)

    correct = not failed_ops and not run_failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "manna" / "__init__.py").is_file():
        print(f"perfbench: no manna package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        return run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
