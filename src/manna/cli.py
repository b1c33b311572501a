"""Command line front end: gen, solve, verify, explain.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 size
guard exceeded, 5 degeneracy retries exhausted, 70 internal invariant
violation. Code 4 is unused: the search for w* is exact and never gives
up, and more than 3 agents is an input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certificate import Certificate, instance_from_dict, instance_to_dict, instance_digest
from .errors import (
    DegeneracyError,
    InputError,
    MannaError,
    SizeGuardError,
    SoundnessError,
    VerificationError,
)
from .model import Instance, parse_rat
from .oracles import brute_find_ief1_po, verify_certificate
from .preprocess import DEFAULT_ENUM_GUARD, DEFAULT_GRID_BASE
from .solver import PROFILES, SolveOptions, explain, generate_instance, solve

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_DEGENERACY = 5
EXIT_INTERNAL = 70


def load_instance(path: str) -> Instance:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InputError(f"instance file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"instance file is not valid JSON: {exc}") from None
    return instance_from_dict(data)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    inst = generate_instance(args.seed, args.agents, args.items, args.value_range, args.profile)
    text = json.dumps(instance_to_dict(inst), sort_keys=True, indent=1) + "\n"
    _write_or_print(text, args.out)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    opts = SolveOptions(
        seed=args.seed,
        mode=args.mode,
        guard=args.guard,
        grid_base=args.max_denominator,
        keep_trace=args.trace,
    )
    cert, report = solve(inst, opts)
    text = cert.to_json()
    if args.out is not None:
        Path(args.out).write_text(text)
        stream = sys.stdout
    else:
        sys.stdout.write(text)
        stream = sys.stderr
    status = "pass" if report.overall else "fail"
    po = (report.po_on_original or {}).get("verdict")
    stream.write(f"verification: {status}\n")
    if po == "unverified":
        stream.write("note: efficiency on the original instance is unverified (PO search guard exceeded)\n")
    if report.failures:
        stream.write("failing clauses: " + ", ".join(report.failures) + "\n")
    if args.all_witnesses:
        try:
            every = brute_find_ief1_po(inst, args.guard, collect_all=True)
            total = inst.n ** inst.m
            stream.write(f"fair+efficient allocations: {len(every)} of {total}\n")
        except SizeGuardError:
            stream.write("fair+efficient density: skipped (enumeration guard)\n")
    return EXIT_OK if report.overall else EXIT_VERIFY_FAIL


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.guard < 0:
        raise InputError(f"the enumeration guard must be nonnegative, not {args.guard}")
    inst = load_instance(args.instance)
    try:
        cert = Certificate.from_json(Path(args.certificate).read_text())
    except FileNotFoundError:
        raise InputError(f"certificate file not found: {args.certificate}") from None
    if cert.instance_digest != instance_digest(inst):
        sys.stdout.write("digest mismatch\n")
        return EXIT_VERIFY_FAIL
    report = verify_certificate(inst, cert, args.guard)
    sys.stdout.write(json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")
    return EXIT_OK if report.overall else EXIT_VERIFY_FAIL


def _cmd_explain(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    w = None
    if args.w is not None:
        w = tuple(parse_rat(part) for part in args.w.split(","))
    text = explain(
        inst,
        seed=args.seed,
        w=w,
        guard=args.guard,
        with_trace=args.trace,
    )
    sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manna",
        description="Exact solver and certifier for fair division of mixed manna",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a deterministic random instance")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-n", "--agents", type=int, required=True)
    gen.add_argument("-m", "--items", type=int, required=True)
    gen.add_argument("--value-range", type=int, default=10)
    gen.add_argument("--profile", choices=PROFILES, default="mixed")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    slv = sub.add_parser("solve", help="solve an instance and emit a certificate")
    slv.add_argument("instance")
    slv.add_argument("--seed", type=int, default=0)
    slv.add_argument("--mode", choices=("enumerate", "augment"), default="enumerate")
    slv.add_argument("--guard", type=int, default=DEFAULT_ENUM_GUARD)
    slv.add_argument("--max-denominator", type=int, default=DEFAULT_GRID_BASE)
    slv.add_argument("--all-witnesses", action="store_true")
    slv.add_argument("--trace", action="store_true")
    slv.add_argument("--out", default=None)
    slv.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="re-check a certificate against its instance")
    ver.add_argument("instance")
    ver.add_argument("certificate")
    ver.add_argument("--guard", type=int, default=DEFAULT_ENUM_GUARD)
    ver.set_defaults(func=_cmd_verify)

    exp = sub.add_parser("explain", help="dump the pricing structure at a weight")
    exp.add_argument("instance")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--w", default=None, help="comma-separated rational weights, e.g. 1/2,1/2")
    exp.add_argument("--guard", type=int, default=DEFAULT_ENUM_GUARD)
    exp.add_argument("--trace", action="store_true")
    exp.set_defaults(func=_cmd_explain)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except SizeGuardError as exc:
        sys.stderr.write(f"size guard: {exc}\n")
        return EXIT_GUARD
    except DegeneracyError as exc:
        sys.stderr.write(f"degeneracy: {exc}\n")
        if exc.cycle:
            sys.stderr.write(f"violating cycle: {exc.cycle}\n")
        return EXIT_DEGENERACY
    except VerificationError as exc:
        sys.stderr.write(f"verification error: {exc}\n")
        return EXIT_VERIFY_FAIL
    except SoundnessError as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return EXIT_INTERNAL
    except MannaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
