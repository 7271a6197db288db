"""Benchmark for rasched: solve seeded workloads, check every output, report metrics.

Run from the repository root:

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: each `solve` starts when the previous
one and its output checks have finished. The workload's instances come from
`workloads.py` and the seed; the package under `src/` is imported from this
checkout and nowhere else.

`--trace 0` measures the end-to-end metrics for `--seconds` seconds, cycling
through the instance pool. `--trace 1` covers the workload's fixed traced set
instead, so its counts repeat exactly per seed: each instance is solved once
untraced and once with every wrap point of `tracing.py` installed, the two
reports must be byte-identical, and the spans give the per-layer metrics and
the tracing overhead. Spans are written to `.perfbench_out/`.

Human-readable lines come first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The exit code is 1
when any operation failed or any output check did not pass, and 2 when the
package cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import Stopwatch, Tracer, layer_metrics
from workloads import WORKLOADS, generate

# Modules that import rasched are imported inside the functions below, once
# import_package() has put this checkout's src/ first on the path.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(".perfbench_out")
SETUP_REPS = 5

_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import rasched; "
                 "print(time.perf_counter() - t)")


def import_package():
    """Import rasched from this checkout's src/, or exit 2."""
    if not (SRC / "rasched" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'rasched'}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import rasched
    if Path(rasched.__file__).resolve().parent != SRC / "rasched":
        print(f"perfbench: imported rasched from {rasched.__file__}, not from {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


class Outcomes:
    """What happened to every solve of one run."""

    def __init__(self):
        self.solve_s = []  # successful solves
        self.solve_ref = []  # the same, in reference-task units (timed runs)
        self.ref_s = []  # reference-task time bracketing each timed solve
        self.check_s = []  # one per certificate re-verified from text
        self.failed = 0
        self.refused = 0  # documented CapExceededError on over-cap instances
        self.problems = []
        self.first = {}  # pool index -> (report text, ratio, bound checkable offline)

    @property
    def attempted(self) -> int:
        return len(self.solve_s) + self.failed + self.refused

    def fail(self, idx, message):
        self.failed += 1
        self.problems.append(f"instance {idx}: {message}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for idx in sorted(self.first):
            h.update(f"{idx}\n{self.first[idx][0]}".encode())
        return h.hexdigest()


def solve_checked(workload, gen, inst, idx, out: Outcomes, clock):
    """Solve one instance, check its output, and record the outcome.

    Returns the report text, or None when the solve failed or was refused.
    """
    from checker import CHECKABLE_KINDS, check_certificate, check_report, exact
    from rasched.driver import solve
    from rasched.oracle import CapExceededError

    try:
        with clock.span("driver.solve") as span:
            report = solve(inst, lp_bound=workload.lp_bound)
    except CapExceededError:
        if not gen.over_cap:
            out.fail(idx, "CapExceededError on an instance within the knapsack cap")
            return None
        out.refused += 1
        out.first.setdefault(idx, ("refused CapExceededError\n", None, False))
        return None
    except Exception:  # the loop must go on; the failure is counted and shown
        out.fail(idx, traceback.format_exc(limit=3))
        return None

    problems = check_report(gen, report)
    for _, cert in report.certificates:
        cert_problems, check_s = check_certificate(cert, inst, clock)
        problems += cert_problems
        out.check_s.append(check_s)
    text = report.to_text()
    if idx in out.first and out.first[idx][0] != text:
        problems.append("the report differs from an earlier solve of the same instance")
    if problems:
        out.fail(idx, "; ".join(problems))
        return None
    out.solve_s.append(span.elapsed)
    ratio = exact(report.makespan) / exact(report.lower_bound)
    out.first.setdefault(idx, (text, ratio, report.lower_bound_kind in CHECKABLE_KINDS))
    return text


def measure_setup(workload, seed):
    """Median over SETUP_REPS of: import in a fresh interpreter, plus
    generating and parsing the whole pool in this process."""
    from rasched.model import parse_instance

    times = []
    for _ in range(SETUP_REPS):
        child = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                               capture_output=True, text=True, check=True, timeout=120)
        t0 = perf_counter()
        gens = generate(workload, seed)
        insts = [parse_instance(g.text) for g in gens]
        times.append(float(child.stdout) + perf_counter() - t0)
    return statistics.median(times), gens, insts


def reference_s() -> float:
    """Seconds for one fixed task of exact Fraction arithmetic.

    The solver spends its time on the same operations, and the task shares no
    code with rasched, so its time tracks only the host's effective speed.
    """
    t0 = perf_counter()
    total = Fraction(0)
    for k in range(1, 6000):
        total += Fraction(k % 89 + 1, k % 97 + 1)
    return perf_counter() - t0


def tail(samples):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it. Needs eleven samples; with fewer, the maximum."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(out: Outcomes, wall_s, wall_ref, setup_s):
    """The end-to-end metrics; failures count as slower than any success.

    Each timing comes in seconds and in reference-task units (`ref`): a
    solve's seconds over the mean of the reference times taken just before
    and just after it. `wall_ref` is the run's wall time in the same units.
    """
    failures = [math.inf] * out.failed
    timed, timed_ref = out.solve_s + failures, out.solve_ref + failures
    tail_s, tail_pct = tail(timed) if timed else (math.inf, 100.0)
    tail_ref, _ = tail(timed_ref) if timed_ref else (math.inf, 100.0)
    solved = [v for v in out.first.values() if v[1] is not None]
    return {
        "solve_ref_p50": (statistics.median(timed_ref) if timed_ref else math.inf, "ref"),
        "solve_ref_tail": (tail_ref, "ref"),
        "solves_per_ref": (len(out.solve_s) / wall_ref, "1/ref"),
        "solve_s_p50": (statistics.median(timed) if timed else math.inf, "s"),
        "solve_s_tail": (tail_s, "s"),
        "solves_per_s": (len(out.solve_s) / wall_s, "1/s"),
        "ref_s": (statistics.median(out.ref_s), "s"),
        "check_s_p50": (statistics.median(out.check_s) if out.check_s else None, "s"),
        "failed_share": (out.failed / out.attempted, "share"),
        "ratio_mean": (float(sum(r for _, r, _ in solved) / len(solved)) if solved else None,
                       "ratio"),
        "lb_checkable_share": (sum(ok for *_, ok in solved) / len(solved) if solved else None,
                               "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, (tail_pct, len(timed))


def timed_run(workload, gens, insts, seconds):
    """Solve the pool in order for `seconds`, timing the reference task
    between consecutive solves. Returns (outcomes, wall s, wall in ref)."""
    out, clock = Outcomes(), Stopwatch()
    start = perf_counter()
    deadline = start + seconds
    wall_ref = 0.0
    ref_before = reference_s()
    k = 0
    while perf_counter() < deadline:
        t0 = perf_counter()
        idx = k % len(insts)
        ok = solve_checked(workload, gens[idx], insts[idx], idx, out, clock) is not None
        ref_after = reference_s()
        ref = (ref_before + ref_after) / 2
        out.ref_s.append(ref)
        if ok:
            out.solve_ref.append(out.solve_s[-1] / ref)
        wall_ref += (perf_counter() - t0) / ref
        ref_before = ref_after
        k += 1
    return out, perf_counter() - start, wall_ref


def traced_run(workload, gens, insts, spans_path):
    """Each traced-set instance: an untraced solve, then a traced parse and
    solve whose report must match byte for byte."""
    from rasched.model import parse_instance

    plain, traced, tracer = Outcomes(), Outcomes(), Tracer()
    for idx in range(workload.traced):
        expected = solve_checked(workload, gens[idx], insts[idx], idx, plain, Stopwatch())
        tracer.instance = idx
        with tracer.installed():
            with tracer.span("model.parse"):
                inst = parse_instance(gens[idx].text)
            got = solve_checked(workload, gens[idx], inst, idx, traced, tracer)
        if got != expected:
            traced.fail(idx, "the traced report differs from the untraced one")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps(sp.as_dict()) + "\n")
    return plain, traced, tracer.spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    from rasched import rational

    workload = WORKLOADS[args.workload]
    setup_s, gens, insts = measure_setup(workload, args.seed)

    provenance = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "backend": rational.BACKEND, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "setup_s": setup_s,
    }
    if args.trace:
        spans_path = OUT_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
        plain, out, spans = traced_run(workload, gens, insts, spans_path)
        layers = layer_metrics(spans)
        layers["trace.overhead_share"] = (sum(out.solve_s) / sum(plain.solve_s) - 1
                                          if plain.solve_s else 0.0)
        metrics = {name: (value, _unit(name)) for name, value in layers.items()}
        out.failed += plain.failed
        out.problems += plain.problems
        attempted = plain.attempted + out.attempted
        used = gens[:workload.traced]
        provenance["spans"] = str(spans_path)
        _print_layers(layers)
    else:
        out, wall_s, wall_ref = timed_run(workload, gens, insts, args.seconds)
        metrics, (tail_pct, samples) = end_to_end(out, wall_s, wall_ref, setup_s)
        attempted = out.attempted
        used = gens[:len(out.first)]
        provenance.update(seconds=args.seconds, wall_s=wall_s, tail_percentile=tail_pct,
                          tail_samples=samples, refused=out.refused)
        _print_end_to_end(metrics, tail_pct, samples, out)
    provenance.update(instances=len(used),
                      shapes=Counter(f"{g.machines}x{len(g.jobs)}" for g in used),
                      reports_sha256=out.digest())

    for problem in out.problems:
        print(f"FAILED {problem}")
    correct = not out.problems
    declared = _declared(args.trace)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": out.failed,
        "metrics": {name: {"value": _finite(value), "unit": unit}
                    for name, (value, unit) in metrics.items() if name in declared},
    }))
    return 0 if correct else 1


def _declared(trace: int):
    """Names the final JSON line carries: those BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "count"


def _finite(value):
    return None if value is None or math.isinf(value) else value


def _print_end_to_end(metrics, tail_pct, samples, out):
    print(f"end-to-end, untraced, one closed-loop client; "
          f"{len(out.solve_s)} solved, {out.failed} failed, {out.refused} refused "
          f"(CapExceededError on over-cap instances), {len(out.check_s)} certificates checked")
    for name, (value, unit) in metrics.items():
        note = f"  (p{tail_pct:.1f} of {samples} samples)" if name.endswith("_tail") else ""
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:20} {shown:>12} {unit}{note}")


def _print_layers(layers):
    solve_s = layers["driver.solve_s"] or 1.0
    print("per-layer, traced; share = seconds / traced solve seconds")
    for name, value in layers.items():
        share = f"{100 * value / solve_s:6.1f}%" if _unit(name) == "s" else ""
        print(f"  {name:32} {value:>14.6g} {_unit(name):6} {share}")


if __name__ == "__main__":
    sys.exit(main())
