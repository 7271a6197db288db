"""The benchmark's traced runs wrap rasched functions by name and read
counts off their arguments and results; a rename or a signature change under
src/ must fail here rather than only when a traced benchmark run starts."""

import importlib.util
import random
from collections import Counter
from pathlib import Path

from conftest import benchmark_pool, lp_bound_instance

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves_to_a_callable():
    tracing = load_tracing()
    assert tracing.WRAP_POINTS
    for module, path, *_ in tracing.WRAP_POINTS:
        owner, attr = tracing.resolve(module, path)
        # Tracer.installed() reads the attribute from the owner's own namespace
        assert attr in vars(owner), f"{module}: {path} is gone"
        assert callable(vars(owner)[attr]), f"{module}: {path} is not callable"


def test_traced_lp_bound_solve_reports_the_same_and_counts_the_runs():
    """The hooks read the arguments and results of the calls they wrap; a
    signature or field change there must fail here too, not only in a
    traced benchmark run."""
    from rasched.driver import solve
    tracing = load_tracing()
    # a bound that still runs column generation above its Hall bound
    inst = lp_bound_instance(random.Random(105), 5, 10, 6)
    untraced = solve(inst, lp_bound=True).to_text()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = solve(inst, lp_bound=True).to_text()
    assert traced == untraced
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["certificate.cg_calls"] > 0
    assert metrics["certificate.cg_rounds"] > 0


def test_traced_uniform_solves_report_the_same_and_attribute_the_probes():
    """The per-layer attribution of the common shape: tracing changes no
    report, every probe is one `model.scale` span, and the cycles that the
    read schedules' roundings cancel are counted."""
    from rasched.driver import solve
    from rasched.generator import GenSpec, generate_instance
    tracing = load_tracing()
    insts = [generate_instance(GenSpec(machines=6, jobs=24, preset="uniform", seed=k))
             for k in range(8)]
    untraced = [solve(inst).to_text() for inst in insts]
    tracer = tracing.Tracer()
    with tracer.installed():
        reports = [solve(inst) for inst in insts]
    assert [rep.to_text() for rep in reports] == untraced
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["seed.cycles_cancelled"] > 0
    assert metrics["driver.probes"] == sum(rep.iterations["probes"] for rep in reports)


def test_traced_two_value_solves_count_one_seed_call_per_probe():
    """Probes decided by the densest set still make one `seed.seed` span
    each, and those that raise SeedInfeasible are the reports'
    seed-infeasible probes."""
    from rasched.driver import solve
    tracing = load_tracing()
    insts = benchmark_pool("two_value", 101, 12)
    tracer = tracing.Tracer()
    with tracer.installed():
        reports = [solve(inst) for inst in insts]
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["seed.calls"] == metrics["driver.probes"] > 0
    infeasible = sum(outcome == "seed-infeasible"
                     for rep in reports for _, outcome in rep.probes)
    assert metrics["driver.probes_seed_infeasible"] == infeasible > 0


def test_every_wrap_point_but_the_seed_simplex_fires():
    """A refactor that bypasses a traced name leaves its span silent: plain,
    audited and `--lp-bound` solves reach every wrap point except
    `simplex.feas`, the seed simplex that no solve calls. A plain uniform
    solve runs one seed flow, for the seed it reads, and that flow is a
    `seed.lp` span too."""
    from rasched.driver import solve
    from rasched.generator import GenSpec, generate_instance
    tracing = load_tracing()
    two_value = benchmark_pool("two_value", 101, 3)
    uniform = [generate_instance(GenSpec(machines=6, jobs=24, preset="uniform", seed=k))
               for k in range(2)]

    def fired(insts, **flags):
        tracer = tracing.Tracer()
        with tracer.installed():
            for inst in insts:
                solve(inst, **flags)
        return Counter(sp.name for sp in tracer.spans)

    plain_uniform = fired(uniform)
    assert plain_uniform["seed.lp"] == len(uniform)
    spans = (plain_uniform + fired(two_value) + fired(two_value + uniform, audit=True)
             + fired([lp_bound_instance(random.Random(105), 5, 10, 6)], lp_bound=True))
    assert {name for _, _, name, *_ in tracing.WRAP_POINTS} - set(spans) == {"simplex.feas"}
