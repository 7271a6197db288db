"""Command-line interface: solve, gen, bench, trace, check.

Exit codes: 0 success, 1 certificate does not verify (`check`), 2 input
error, 3 internal invariant violation, 4 limit exceeded: a valid input
beyond an exact routine's cap, such as a knapsack front of more than
`oracle.KNAPSACK_FRONT_CAP` (2^16) pairs in a machine's configuration query,
which `check` asks for every machine and `--lp-bound` only in a
column-generation run at a grid point from the Hall bound up to below the
schedule's makespan; the item count has no cap. `solve --oracle` runs the
exhaustive oracle only up to 12 jobs (`oracle.MAKESPAN_JOB_CAP`) and above
that reports the bound it has, with exit 0. `bench` does not exit on a bound
over the cap; it prints that row's ratio as `refused`. It exits 3 when the
solves of a row count different engine iterations.
"""

from __future__ import annotations

import argparse
import sys

from .rational import frac, ratio_str
from .model import parse_instance, serialize_instance, InstanceFormatError
from .generator import GenSpec, generate_instance
from .driver import solve
from .traceio import emit_jsonl, emit_dot
from .bench import bench, rows_to_text, rows_to_jsonl
from .certificate import certificate_from_text, recheck_certificate, CertificateError
from .engine import EngineInvariantError
from .simplex import SimplexError
from .oracle import CapExceededError

EXIT_OK, EXIT_REJECTED, EXIT_INPUT, EXIT_INTERNAL, EXIT_LIMIT = 0, 1, 2, 3, 4


def _add_common(p):
    p.add_argument("--epsilon", default="1/24", help="approximation slack (rational), default 1/24")
    p.add_argument("--tol", default="1/100", help="binary-search stop ratio (rational), default 1/100")
    p.add_argument("--audit", action="store_true",
                   help="check engine invariants every iteration, run the seed flow behind "
                        "every guess the densest job set decides, and validate the seed "
                        "of every successful probe")
    p.add_argument("--trace", metavar="PATH", help="write JSONL event trace")
    p.add_argument("--dot", metavar="PATH", help="write DOT snapshots of final trees")
    p.add_argument("--lp-bound", action="store_true",
                   help="tighten the lower bound by column generation")
    p.add_argument("--oracle", action="store_true",
                   help="tighten the lower bound by exhaustive search (skipped above 12 jobs)")


def build_parser():
    ap = argparse.ArgumentParser(prog="rasched",
                                 description="Restricted-assignment makespan solver")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    _add_common(p)

    p = sub.add_parser("gen", help="generate a pseudo-random instance")
    p.add_argument("--machines", type=int, required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--preset", default="uniform")
    p.add_argument("--density", default="1/2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="output path (default: stdout)")

    p = sub.add_parser("bench", help="benchmark a corpus directory")
    p.add_argument("corpus")
    p.add_argument("--epsilon-list", default="1/24", help="comma-separated rationals")
    p.add_argument("--tol", default="1/100")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--jsonl", metavar="PATH", help="also write machine-readable rows")

    p = sub.add_parser("trace", help="solve and emit the event trace")
    p.add_argument("instance")
    _add_common(p)

    p = sub.add_parser("check", help="re-verify a serialized certificate")
    p.add_argument("instance")
    p.add_argument("certificate")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            spec = GenSpec(machines=args.machines, jobs=args.jobs,
                           preset=args.preset, density=frac(args.density),
                           seed=args.seed)
            text = serialize_instance(generate_instance(spec))
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return EXIT_OK

        if args.command == "bench":
            epsilons = [frac(tok) for tok in args.epsilon_list.split(",")]
            rows = bench(args.corpus, epsilons, repetitions=args.reps,
                         workers=args.workers, tau=frac(args.tol))
            sys.stdout.write(rows_to_text(rows))
            if args.jsonl:
                with open(args.jsonl, "w", encoding="utf-8") as fh:
                    fh.write(rows_to_jsonl(rows))
            return EXIT_OK

        if args.command == "check":
            with open(args.instance, "r", encoding="utf-8") as fh:
                inst = parse_instance(fh.read())
            with open(args.certificate, "r", encoding="utf-8") as fh:
                cert = certificate_from_text(fh.read(), inst)
            if recheck_certificate(cert, inst):
                print("certificate OK: the guess "
                      f"{ratio_str(cert.guess)} is below the optimum")
                return EXIT_OK
            print("certificate FAILED verification", file=sys.stderr)
            return EXIT_REJECTED

        # solve / trace
        with open(args.instance, "r", encoding="utf-8") as fh:
            inst = parse_instance(fh.read())
        want_logs = bool(args.trace or args.dot or args.command == "trace")
        report = solve(inst, frac(args.epsilon), frac(args.tol),
                       audit=args.audit, log_events=want_logs,
                       lp_bound=args.lp_bound, use_oracle=args.oracle)
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(emit_jsonl(report.run_logs, inst))
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(emit_dot(report.run_logs, inst))
        if args.command == "trace" and not args.trace:
            sys.stdout.write(emit_jsonl(report.run_logs, inst))
        else:
            sys.stdout.write(report.to_text())
        return EXIT_OK

    except (InstanceFormatError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (EngineInvariantError, CertificateError, SimplexError, AssertionError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
