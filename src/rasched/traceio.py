"""Search-trace emitters: line-delimited JSON events and DOT tree snapshots."""

from __future__ import annotations

import json

from .model import Instance
from .rational import ratio_str


def emit_jsonl(run_logs, inst: Instance) -> str:
    """One JSON record per engine event (`InsertionEngine._log`) of the
    (guess, `driver.EngineRun`) pairs in `run_logs`, with its run number,
    guess and inserted job; jobs referenced by original name."""
    lines = []
    for run_no, (guess, run) in enumerate(run_logs, start=1):
        head = {"run": run_no, "guess": ratio_str(guess),
                "inserting": inst.name_of(run.j_new)}
        for ev in run.events:
            rec = {**ev, **head, "job": inst.name_of(ev["job"])}
            lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def _dot_string(text: str) -> str:
    """`text` as a DOT double-quoted string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(run_logs, inst: Instance) -> str:
    """One digraph per final tree snapshot; activation edges parent -> child."""
    out = []
    for run_no, (guess, run) in enumerate(run_logs, start=1):
        out.append(f"digraph run{run_no} {{")
        label = f"insert {inst.name_of(run.j_new)} at T={ratio_str(guess)} ({run.outcome})"
        out.append(f"  label={_dot_string(label)};")
        out.append('  root [shape=point];')
        for b in run.snapshot:
            label = (f"{inst.name_of(b['job'])}@m{b['machine']} {b['type']}"
                     f" L{b['layer']}.{b['sublayer']}")
            out.append(f'  b{b["stamp"]} [label={_dot_string(label)}];')
        for b in run.snapshot:
            parent = "root" if b["parent_stamp"] is None else f"b{b['parent_stamp']}"
            out.append(f'  {parent} -> b{b["stamp"]};')
        out.append("}")
    return "\n".join(out) + ("\n" if out else "")
