"""The process of one benchmark run: time set-up, run the op cycle until time is up, check every output.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. It times
``import manna`` plus loading the prepared inputs, runs one tiny solve
untimed so that lazy set-up is done, then runs the workload's cycle of
ops again and again, each op starting only when the previous one has
returned, on a single thread, until the ops have taken ``--seconds`` in
all and there are at least ``--min-ops`` of them. Between ops of an
untraced run it starts ``SETUP_SAMPLES`` set-up-only copies of itself,
one at a time and spread evenly over the timed phase, since only a fresh
process can time ``import manna``. Before every op and around every set-up it times
:func:`reference_loop`, which measures how fast the machine runs at that
moment. It prints one JSON object with the raw measurements; ``run.py``
turns them into metrics.

  --inputs F --seconds S --min-ops N            untraced: every op once per cycle
  --inputs F --seconds S --min-ops N --trace 1  every op untraced and traced per cycle
  --inputs F --no-ops                           only time the set-up
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction

from tracer import END, START, Tracer, layer_totals

SETUP_SAMPLES = 20
# No cycle starts after this many seconds of cycles, so that a run on a
# slow machine still ends in time.
CYCLE_LIMIT_S = 110.0


def problems(manna, inst, cert, report) -> list[str]:
    """Why a solve or verification output is wrong; empty when it is right."""
    found = []
    if not report.overall:
        found.append(f"verification report failed: {report.failures}")
    po = (report.po_on_original or {}).get("verdict")
    if po != "pass":
        found.append(f"PO verdict {po!r}")
    if not manna.is_ief1(inst, cert.allocation_original):
        found.append("allocation_original is not IEF1")
    return found


def thread_count() -> int:
    """The worker count the package reads from ``MANNA_THREADS`` (1 when unset or not a number)."""
    try:
        return max(1, int(os.environ.get("MANNA_THREADS", "1")))
    except ValueError:
        return 1


class Ops:
    """The loaded inputs, the op of the workload's kind, and the output checks."""

    def __init__(self, manna, data: dict):
        self.manna = manna
        self.kind = data["kind"]
        self.items = [
            (manna.instance_from_dict(entry["instance"]), entry["item"], entry.get("certificate"))
            for entry in data["items"]
        ]
        self.cycle = 0
        self.times: list[float] = []
        self.failures: list[dict] = []
        self.digests: list[str | None] = []
        self.setups: list[list[float]] = []  # [setup_s, reference loop before, after]
        self.loops: list[float] = []  # the reference loop before each op, and after the last

    def op(self, index: int):
        """One op: a solve, or parsing and re-verifying a stored certificate."""
        inst, item, text = self.items[index]
        if self.kind == "solve":
            return self.manna.solve(inst, self.manna.SolveOptions(seed=item["instance_seed"], mode=item["mode"]))
        cert = self.manna.Certificate.from_json(text)
        return cert, self.manna.verify_certificate(inst, cert)

    def timed(self, index: int):
        start = time.perf_counter()
        try:
            outcome = self.op(index)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            outcome = exc
        self.times.append(time.perf_counter() - start)
        return outcome

    def round_trip(self, index: int, cert) -> tuple[str, bool]:
        """The certificate's bytes, and whether they parse back to the same certificate."""
        text = cert.to_json()
        if self.kind == "solve":
            return text, self.manna.Certificate.from_json(text) == cert
        return text, text == self.items[index][2]

    def fail(self, index: int, reasons: list[str]) -> None:
        self.failures.append({"op": [self.cycle, index], "reasons": reasons})

    def record(self, index: int, outcome, round_trip=None) -> str | None:
        """Check one op's output; ``outcome`` is (cert, report) or the exception it raised.

        Returns the digest of the certificate's bytes.
        """
        if isinstance(outcome, BaseException):
            self.fail(index, ["raised " + "".join(traceback.format_exception_only(type(outcome), outcome)).strip()])
            return None
        cert, report = outcome
        text, ok = round_trip if round_trip is not None else self.round_trip(index, cert)
        found = problems(self.manna, self.items[index][0], cert, report)
        if not ok:
            found.append("certificate does not round-trip through JSON")
        if found:
            self.fail(index, found)
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    def keep_digest(self, index: int, digest: str | None) -> None:
        """Record the first cycle's digest; later cycles must give the same bytes."""
        if self.cycle == 0:
            self.digests.append(digest)
        elif None not in (digest, self.digests[index]) and digest != self.digests[index]:
            self.fail(index, ["certificate bytes differ from the first cycle's"])


def reference_loop() -> float:
    """Seconds taken by a fixed loop of the kind of work the package does: Fraction sums and dict stores."""
    start = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 1500):
        total += Fraction(1, i)
        seen[i % 97] = (total, i)
    return time.perf_counter() - start


def warm_up(manna) -> None:
    """Run the whole pipeline and the reference loop once so lazy set-up is not timed."""
    reference_loop()
    inst = manna.generate_instance(0, 2, 3)
    cert, _ = manna.solve(inst)
    manna.verify_certificate(inst, manna.Certificate.from_json(cert.to_json()))


def traced_cycle(ops: Ops, tracer: Tracer) -> float:
    """Every op once untraced and once traced, alternating which goes first; returns the traced time."""
    traced_op_s = 0.0
    for index in range(len(ops.items)):
        digests = set()
        for with_trace in (index % 2 == 1, index % 2 == 0):
            if not with_trace:
                digests.add(ops.record(index, ops.timed(index)))
                continue
            tracer.op = index
            round_trip = None
            with tracer.installed():
                with tracer.root("op") as root:
                    try:
                        outcome = ops.op(index)
                    except Exception as exc:  # recorded as a failed op below
                        outcome = exc
                if not isinstance(outcome, BaseException):
                    with tracer.root("roundtrip"):
                        round_trip = ops.round_trip(index, outcome[0])
            traced_op_s += root[END] - root[START]
            digests.add(ops.record(index, outcome, round_trip))
        if len(digests) != 1:
            ops.fail(index, ["traced and untraced certificate bytes differ"])
        ops.keep_digest(index, digests.pop())
    return traced_op_s


def setup_probe(inputs: str) -> list[float]:
    """``setup_s`` of a fresh set-up-only process, and the reference loop's time before and after it."""
    before = reference_loop()
    proc = subprocess.run(
        [sys.executable, __file__, "--inputs", inputs, "--no-ops"], capture_output=True, text=True, timeout=60, check=True
    )
    return [json.loads(proc.stdout)["setup_s"], before, reference_loop()]


def run_cycles(ops: Ops, args: argparse.Namespace) -> dict:
    """Cycles until the ops have taken ``--seconds`` and there are ``--min-ops`` of them, or ``--limit`` has passed."""
    seconds, trace = args.seconds, bool(args.trace)
    tracer = Tracer() if trace else None
    traced_op_s = 0.0
    stop = time.monotonic() + CYCLE_LIMIT_S
    while True:
        if tracer is not None:
            traced_op_s += traced_cycle(ops, tracer)
        else:
            for index in range(len(ops.items)):
                ops.loops.append(reference_loop())
                ops.keep_digest(index, ops.record(index, ops.timed(index)))
                while len(ops.setups) < SETUP_SAMPLES * min(1.0, sum(ops.times) / max(seconds, 1e-9)):
                    ops.setups.append(setup_probe(args.inputs))
        ops.cycle += 1
        done = sum(ops.times) + traced_op_s >= seconds and (trace or len(ops.times) >= args.min_ops)
        if done or time.monotonic() >= stop:
            break
    if tracer is None:
        ops.loops.append(reference_loop())
        while len(ops.setups) < SETUP_SAMPLES:
            ops.setups.append(setup_probe(args.inputs))
        return {}
    if args.spans:
        tracer.write(args.spans)
    totals, self_sum, root_sum = layer_totals(tracer.spans)
    return {"totals": totals, "self_sum": self_sum, "root_sum": root_sum, "traced_op_s": traced_op_s}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    parser.add_argument("--no-ops", action="store_true")
    args = parser.parse_args(argv)
    if args.trace and thread_count() > 1:
        # Spans from the package's worker threads would nest under the wrong parents.
        print(f"a traced run needs MANNA_THREADS=1, not {os.environ['MANNA_THREADS']}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    import manna

    with open(args.inputs, encoding="ascii") as fh:
        ops = Ops(manna, json.load(fh))
    setup_s = time.perf_counter() - start

    result: dict = {}
    if not args.no_ops:
        warm_up(manna)
        result = run_cycles(ops, args)
    result.update(
        setup_s=setup_s,
        setups=ops.setups,
        cycles=ops.cycle,
        times=ops.times,
        loops=ops.loops,
        failures=ops.failures,
        digests=ops.digests,
        threads=thread_count(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
