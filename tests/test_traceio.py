import json
import re

from rasched.rational import Frac
from rasched.model import make_instance, parse_instance
from rasched.driver import solve
from rasched.traceio import emit_jsonl, emit_dot

from conftest import EPS


def tiny_report(**kw):
    inst = make_instance(2, [(Frac(1, 3), {1}), (Frac(9, 10), {1, 2})])
    return inst, solve(inst, EPS, Frac(1, 100), log_events=True, **kw)


def collision_report():
    inst = make_instance(
        4, [(Frac(1), {1}), (Frac(1), {2}), (Frac(1), {3}), (Frac(1), {4}),
            (Frac(59, 60), {1, 2, 3, 4})])
    return inst, solve(inst, EPS, Frac(1, 100), log_events=True)


DOT_NODE = re.compile(r'^\s*(\w+)\s*(\[[^\]]*\])?;$')
DOT_EDGE = re.compile(r'^\s*(\w+)\s*->\s*(\w+);$')
DOT_LABEL = re.compile(r'^\s*(?:label=|\w+ \[label=)"((?:[^"\\]|\\.)*)"\]?;$')


def check_dot_grammar(text):
    """Tiny structural validator for the emitted DOT subset."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    graphs = 0
    open_graph = False
    nodes, edges = set(), []
    for ln in lines:
        if ln.startswith("digraph"):
            assert not open_graph and ln.endswith("{")
            open_graph = True
            graphs += 1
            nodes, edges = set(), []
            continue
        if ln == "}":
            assert open_graph
            for a, b in edges:
                assert a in nodes and b in nodes
            open_graph = False
            continue
        assert open_graph
        if ln.strip().startswith("label="):
            continue
        m = DOT_EDGE.match(ln)
        if m:
            edges.append((m.group(1), m.group(2)))
            continue
        m = DOT_NODE.match(ln)
        assert m, f"unparseable dot line: {ln!r}"
        nodes.add(m.group(1))
    assert not open_graph
    return graphs


class TestJsonl:
    def test_empty_run_is_empty_stream(self):
        inst = make_instance(2, [(Frac(1, 2), {1, 2})] * 6)
        rep = solve(inst, EPS, Frac(1, 100), log_events=True)
        assert rep.run_logs == []
        assert emit_jsonl(rep.run_logs, inst) == ""

    def test_add_then_move_records(self):
        inst, rep = tiny_report()
        text = emit_jsonl(rep.run_logs, inst)
        records = [json.loads(ln) for ln in text.splitlines()]
        assert records, "expected at least one insertion run"
        first_run = [r for r in records if r["run"] == 1]
        assert [r["event"] for r in first_run] == ["add", "move"]
        assert first_run[0]["job"] == "j2" and first_run[0]["type"] == "bb"
        assert first_run[0]["signature"] == [[2, 0, 0, 0, 0]]

    def test_add_signatures_increase_within_runs(self):
        from rasched.engine import InsertionEngine
        inst, rep = collision_report()
        records = [json.loads(ln) for ln in
                   emit_jsonl(rep.run_logs, inst).splitlines()]
        by_run = {}
        for rec in records:
            if rec["event"] == "add":
                by_run.setdefault(rec["run"], []).append(
                    tuple(tuple(c) for c in rec["signature"]))
        checked = 0
        for sigs in by_run.values():
            for a, b in zip(sigs, sigs[1:]):
                assert InsertionEngine.signature_lt(a, b)
                checked += 1
        assert checked > 0

    def test_records_reference_original_names(self):
        inst, rep = collision_report()
        records = [json.loads(ln) for ln in
                   emit_jsonl(rep.run_logs, inst).splitlines()]
        names = set(inst.names)
        for rec in records:
            assert rec["inserting"] in names
            if rec["job"] is not None:
                assert rec["job"] in names


class TestDot:
    def test_empty_logs_empty_output(self):
        inst = make_instance(2, [(Frac(1, 2), {1, 2})] * 6)
        rep = solve(inst, EPS, Frac(1, 100), log_events=True)
        assert emit_dot(rep.run_logs, inst) == ""

    def test_snapshots_parse_and_edges_resolve(self):
        inst, rep = collision_report()
        text = emit_dot(rep.run_logs, inst)
        graphs = check_dot_grammar(text)
        assert graphs == len(rep.run_logs) >= 1

    def test_labels_escape_quotes_and_backslashes(self):
        names = ['x"y', "a\\b", 'c"\\', "d", "e"]
        inst = parse_instance(
            "ra 1\nmachines 4\n"
            + "".join(f"job {name} 1 : {i}\n" for i, name in enumerate(names[1:], start=1))
            + f"job {names[0]} 59/60 : 1 2 3 4\n")
        rep = solve(inst, EPS, Frac(1, 100), log_events=True)
        text = emit_dot(rep.run_logs, inst)
        labels = [ln for ln in text.splitlines() if "label=" in ln]
        assert labels
        seen = ""
        for ln in labels:
            m = DOT_LABEL.match(ln)
            assert m, f"label is not one quoted string: {ln!r}"
            seen += re.sub(r'\\(.)', r"\1", m.group(1))
        assert 'insert x"y at' in seen
        assert "a\\b@m" in seen and 'c"\\@m' in seen

    def test_stuck_snapshot_keeps_blockers(self):
        inst, rep = collision_report()
        stuck_runs = [r for r in rep.run_logs if r.outcome == "stuck"]
        assert stuck_runs
        text = emit_dot(stuck_runs, inst)
        assert "root" in text and "->" in text
