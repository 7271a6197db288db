"""Benchmark harness over a corpus of instance files.

Each row times the plain solves of one instance at one epsilon, reads the
deepest layer off one more, logged solve, and takes its config-LP bound and
ratio from one timed `solve(..., lp_bound=True)`: the `lower-bound` and
`ratio-bound` that `rasched solve --lp-bound` prints, or none where that
bound refuses the instance (over a cap). Every solve of a row must count
the same engine iterations.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import rational
from .rational import frac, ratio_str
from .model import parse_instance, InstanceFormatError
from .driver import solve
from .engine import EngineInvariantError, layer_cap
from .oracle import CapExceededError


@dataclass
class BenchRow:
    instance: str
    epsilon: object
    layer_limit: int
    engine_iterations: int
    max_layer: int
    wall_seconds: float  # best solve time over the repetitions
    lp_seconds: float  # one solve with the config-LP bound, after the timed solves
    makespan: object
    lp_lower: object  # None when the bound refused the instance (over a cap)
    ratio: object


def _run_one(args):
    name, inst, eps, tau, reps = args
    times, counts = [], set()
    for _ in range(reps):
        start = time.perf_counter()
        report = solve(inst, eps, tau)
        times.append(time.perf_counter() - start)
        counts.add(report.iterations.get("engine_iterations", 0))
    # the event log only feeds max_layer: one more solve, untimed, keeps it
    logged = solve(inst, eps, tau, log_events=True)
    counts.add(logged.iterations.get("engine_iterations", 0))
    max_layer = max((ev["layer"] for run in logged.run_logs for ev in run.events
                     if ev["layer"]), default=0)
    start = time.perf_counter()
    try:
        bounded = solve(inst, eps, tau, lp_bound=True)
        counts.add(bounded.iterations.get("engine_iterations", 0))
        lp_lower, ratio = bounded.lower_bound, bounded.ratio_bound
    except CapExceededError:
        lp_lower = ratio = None
    lp_seconds = time.perf_counter() - start
    if len(counts) != 1:
        raise EngineInvariantError(f"nondeterministic iteration count on {name}")
    return BenchRow(
        instance=name, epsilon=eps,
        layer_limit=layer_cap(inst.num_machines, eps),
        engine_iterations=counts.pop(), max_layer=max_layer,
        wall_seconds=min(times), lp_seconds=lp_seconds, makespan=report.makespan,
        lp_lower=lp_lower, ratio=ratio,
    )


def bench(corpus_dir: str, epsilons, repetitions: int = 1, workers: int = 1,
          tau=frac("1/100")):
    """Run solve over every parseable instance in the corpus for each epsilon."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    tasks = []
    for name in sorted(os.listdir(corpus_dir)):
        path = os.path.join(corpus_dir, name)
        if not os.path.isfile(path):
            continue
        try:
            with open(path, "r", encoding="utf-8") as fh:
                inst = parse_instance(fh.read())
        except (OSError, UnicodeDecodeError, InstanceFormatError) as exc:
            print(f"warning: skipping {name}: {exc}", file=sys.stderr)
            continue
        tasks.extend((name, inst, frac(eps), frac(tau), repetitions) for eps in epsilons)

    # the pool starts all its processes at the first submit, so ask for no
    # more than there are tasks and CPUs to run them
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one, tasks))
    else:
        rows = [_run_one(t) for t in tasks]
    rows.sort(key=lambda r: (r.instance, float(r.epsilon)))
    return rows


def rows_to_text(rows) -> str:
    header = (f"{'instance':24} {'epsilon':>8} {'K':>5} {'iters':>7} "
              f"{'maxL':>5} {'wall_s':>9} {'lp_s':>9} {'ratio_vs_lp':>12}  "
              f"[{rational.BACKEND}]")
    lines = [header, "-" * len(header)]
    for r in rows:
        ratio = "refused" if r.ratio is None else f"{float(r.ratio):.6f}"
        lines.append(
            f"{r.instance:24} {ratio_str(r.epsilon):>8} {r.layer_limit:>5} "
            f"{r.engine_iterations:>7} {r.max_layer:>5} {r.wall_seconds:>9.4f} "
            f"{r.lp_seconds:>9.4f} {ratio:>12}"
        )
    return "\n".join(lines) + "\n"


def rows_to_jsonl(rows) -> str:
    out = []
    for r in rows:
        out.append(json.dumps({
            "instance": r.instance,
            "epsilon": ratio_str(r.epsilon),
            "layer_limit": r.layer_limit,
            "engine_iterations": r.engine_iterations,
            "max_layer": r.max_layer,
            "wall_seconds": round(r.wall_seconds, 6),
            "lp_seconds": round(r.lp_seconds, 6),
            "makespan": ratio_str(r.makespan),
            "lp_lower_bound": None if r.lp_lower is None else ratio_str(r.lp_lower),
            "ratio_vs_lp": None if r.ratio is None else ratio_str(r.ratio),
            "backend": rational.BACKEND,
        }, sort_keys=True))
    return "\n".join(out) + ("\n" if out else "")
