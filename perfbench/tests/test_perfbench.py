"""Tests for the benchmark's own code. Run from the repository root:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checker  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rasched.driver import solve  # noqa: E402
from rasched.model import parse_instance  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_two_value(count):
    """The two_value workload cut to `count` instances on 5 machines."""
    return dataclasses.replace(workloads.WORKLOADS["two_value"], pool=count, traced=count,
                               make=lambda rng, _: workloads.two_value_instance(rng, 5))


@functools.cache
def certified_report():
    """A two-value solve whose report carries a stuck-state certificate."""
    for seed in range(40):
        gen = workloads.two_value_instance(random.Random(seed), 10)
        inst = parse_instance(gen.text)
        report = solve(inst)
        if report.certificates:
            return gen, inst, report
    raise AssertionError("no small two-value instance produced a certificate")


# ---------- generators ----------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    w = workloads.WORKLOADS[name]
    texts = [g.text for g in workloads.generate(w, 7, count=9)]
    assert texts == [g.text for g in workloads.generate(w, 7, count=9)]
    assert texts != [g.text for g in workloads.generate(w, 8, count=9)]
    assert texts[:4] == [g.text for g in workloads.generate(w, 7, count=4)]


def test_generators_do_not_use_the_package_generator(monkeypatch):
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [mod for mod in imported if mod and mod.startswith("rasched")]

    import rasched.generator

    before = {n: [g.text for g in workloads.generate(w, 3, count=8)]
              for n, w in workloads.WORKLOADS.items()}

    def forbidden(*args, **kwargs):
        raise AssertionError("the benchmark called rasched.generator")

    monkeypatch.setattr(rasched.generator, "generate_instance", forbidden)
    monkeypatch.setattr(rasched.generator, "GenSpec", forbidden)
    assert before == {n: [g.text for g in workloads.generate(w, 3, count=8)]
                      for n, w in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ground_truth_matches_the_parsed_text(name):
    for gen in workloads.generate(workloads.WORKLOADS[name], 5, count=8):
        inst = parse_instance(gen.text)
        assert inst.num_machines == gen.machines
        for j in inst.jobs:
            size, perm = gen.jobs[inst.name_of(j)]
            assert (checker.exact(inst.sizes[j]), inst.gamma[j]) == (size, perm)


def test_lp_bound_pool_keeps_its_over_cap_instances():
    gens = workloads.generate(workloads.WORKLOADS["lp_bound"], 1, count=16)
    assert [k for k, g in enumerate(gens) if g.over_cap] == [7, 15]


# ---------- output checker ----------

def test_checker_accepts_a_correct_report():
    gen, _, report = certified_report()
    assert checker.check_report(gen, report) == []


def test_checker_rejects_a_corrupted_assignment():
    gen, _, report = certified_report()
    name, machine = next(iter(report.assignment.items()))
    outside = next(i for i in range(1, gen.machines + 1) if i not in gen.jobs[name][1])
    bad = dataclasses.replace(report, assignment={**report.assignment, name: outside})
    assert any("outside its permitted set" in p for p in checker.check_report(gen, bad))
    bad = dataclasses.replace(report, makespan=report.makespan * 2)
    assert any("recomputed makespan" in p for p in checker.check_report(gen, bad))


def test_checker_rejects_a_tampered_certificate():
    _, inst, report = certified_report()
    cert = report.certificates[0][1]
    problems, _ = checker.check_certificate(cert, inst, tracing.Stopwatch())
    assert problems == []
    tampered = dataclasses.replace(cert, y={i: -v for i, v in cert.y.items()}, transcript=[])
    problems, _ = checker.check_certificate(tampered, inst, tracing.Stopwatch())
    assert any("failed recheck_certificate" in p for p in problems)


# ---------- tracing ----------

def originals():
    out = {}
    for module, path, *_ in tracing.WRAP_POINTS:
        owner, attr = tracing.resolve(module, path)
        out[(module, path)] = vars(owner)[attr]
    return out


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = originals()
    w = small_two_value(3)
    gens = workloads.generate(w, 2)
    insts = [parse_instance(g.text) for g in gens]
    plain, traced, spans = bench.traced_run(w, gens, insts, tmp_path / "spans.jsonl")
    assert originals() == before
    assert traced.problems == [] and plain.problems == []
    assert {sp.name for sp in spans} >= {"driver.solve", "model.parse", "seed.lp", "simplex.feas"}
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == len(spans)


def test_wrappers_are_removed_when_the_traced_code_raises():
    before = originals()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert originals() != before
            raise RuntimeError("stop")
    assert originals() == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("driver.solve") as root:
        with tracer.span("seed.seed") as child:
            pass
    m = tracing.layer_metrics(tracer.spans)
    assert m["driver.self_s"] == pytest.approx(root.elapsed - child.elapsed)
    assert m["seed.s"] == child.elapsed


def test_a_checkout_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "uniform",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert bench.tail(list(range(1, 21))) == (10, 50.0)
    assert bench.tail([3.0, 1.0]) == (3.0, 100.0)


# ---------- metric names ----------

def test_every_metric_name_is_well_formed():
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in declared] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in declared)


def test_declared_metrics_are_the_measured_ones():
    layers = set(tracing.layer_metrics([])) | {"trace.overhead_share"}
    assert {m["name"] for m in SPEC["per_layer"]} == layers
    assert all(m["unit"] == bench._unit(m["name"]) for m in SPEC["per_layer"])
    out = bench.Outcomes()
    out.solve_s, out.solve_ref, out.ref_s, out.check_s = [0.5], [25.0], [0.02], [0.01]
    out.first[0] = ("report", 1, True)
    e2e, _ = bench.end_to_end(out, 1.0, 50.0, 0.1)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(e2e)
    assert all(NAME.fullmatch(n) for n in e2e)
    for m in SPEC["end_to_end"]:
        assert e2e[m["name"]][1] == m["unit"]


def test_workload_reasons_match_the_spec():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        n: w.why for n, w in workloads.WORKLOADS.items()}
