"""Summarise or compare saved outputs of perfbench/run.py.

    python3 perfbench/compare.py RUNS_DIR
    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the standard output of runs, one file per run, named
`*.out`. For every workload and metric this prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, which is the distance
between the quartiles as a share of the median. Given two directories, it
also prints each end-to-end metric's change against the bound in
BENCHMARK.json, where a positive change is a worsening.

Results are only compared when every run used the same rational backend:
Fraction and gmpy2 timings differ by far more than any bound. Exit code 2
means the runs cannot be compared, 1 that a run failed or a metric worsened
beyond its bound, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): [(provenance, result), ...]} for the *.out files."""
    groups = defaultdict(list)
    for path in sorted(Path(directory).glob("*.out")):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        if len(lines) < 2:
            raise ValueError(f"{path}: no result")
        provenance = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
        groups[(provenance["workload"], provenance["trace"])].append((provenance, result))
    return groups


def summary(values):
    """(median, first quartile, third quartile, spread)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def metric_values(runs):
    values = defaultdict(list)
    for _, result in runs:
        for name, metric in result["metrics"].items():
            if metric["value"] is not None:
                values[name].append(metric["value"])
    return values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        sides = [load(d) for d in argv]
    except (ValueError, KeyError) as exc:  # a run that printed no result line
        print(f"cannot read the runs: {exc!r}", file=sys.stderr)
        return 2
    backends = {p["backend"] for side in sides for runs in side.values() for p, _ in runs}
    if len(backends) != 1:
        print(f"refusing to compare runs made with different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_spec = {m["name"]: m for m in spec["end_to_end"]}

    status = 0
    for key in sorted(sides[0]):
        workload, trace = key
        runs = [side.get(key, []) for side in sides]
        bad = sum(1 for side in runs for _, r in side if not r["correct"] or r["failed"])
        status |= bool(bad)
        print(f"{workload} trace={trace}: "
              + " vs ".join(f"{len(side)} runs" for side in runs)
              + (f", {bad} with failures" if bad else ""))
        values = [metric_values(side) for side in runs]
        for name in sorted(values[0]):
            cells = []
            stats = [summary(v[name]) for v in values if v.get(name)]
            for med, q1, q3, spread in stats:
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
            line = f"  {name:30} " + "  |  ".join(cells)
            if len(stats) == 2 and name in metric_spec:
                m = metric_spec[name]
                base, new = stats[0][0], stats[1][0]
                change = (new / base - 1) if m["better"] == "lower" else (1 - new / base)
                verdict = "ok"
                if change > m["bound"]:
                    verdict = "WORSE beyond bound"
                    status = 1
                if max(stats[0][3], stats[1][3]) > m["bound"]:
                    verdict += ", unresolved (spread above bound)"
                line += f"  change {change:+.3f} (bound {m['bound']}) {verdict}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
