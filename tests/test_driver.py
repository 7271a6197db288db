import dataclasses
import hashlib
import random
import re
from collections import Counter

import pytest

from rasched.rational import Frac, ratio_str
from rasched import driver, seed
from rasched.cli import main, EXIT_INTERNAL
from rasched.model import ScaledInstance, make_instance, scale_instance, serialize_instance
from rasched.driver import solve, _greedy, _insert, _polish, _makespan, _probe
from rasched.engine import EngineInvariantError, InsertionEngine
from rasched.flow import AssignmentNetwork
from rasched.generator import GenSpec, PRESETS, generate_instance
from rasched.oracle import exact_optimal_makespan, MAKESPAN_JOB_CAP
from rasched.certificate import certificate_from_text, certificate_to_text, recheck_certificate
from rasched.traceio import emit_dot, emit_jsonl

from conftest import EPS, benchmark_pool, deadline, two_value_instance

TAU = Frac(1, 100)


class TestSolve:
    def test_single_huge_job_single_machine_ratio_one(self):
        inst = make_instance(1, [(Frac(7, 4), {1})])
        rep = solve(inst, EPS, TAU, use_oracle=True)
        assert rep.makespan == Frac(7, 4)
        assert rep.assignment == {"j1": 1}
        assert rep.ratio_bound == 1

    def test_no_huge_jobs_reduces_to_seeding(self):
        # six equal halves: capacity drives the bracket, so no probe ever
        # reaches scales where anything counts as huge
        inst = make_instance(2, [(Frac(1, 2), {1, 2})] * 6)
        rep = solve(inst, EPS, TAU)
        assert rep.iterations.get("engine_iterations", 0) == 0
        assert rep.iterations["probes"] >= 1
        opt = exact_optimal_makespan(inst)
        assert rep.makespan <= Frac(11, 6) * (1 + TAU) * opt

    def test_guarantee_against_lower_bound(self):
        for seed in range(10):
            inst = generate_instance(GenSpec(machines=3, jobs=8, seed=seed,
                                             preset="collision", density=Frac(1, 2)))
            rep = solve(inst, EPS, TAU)
            cap = 1 + Frac(5, 6) + 2 * EPS
            assert rep.makespan <= cap * rep.guess_final
            assert rep.ratio_bound == rep.makespan / rep.lower_bound

    def test_certified_guesses_stay_below_successes(self):
        inst = make_instance(2, [(Frac(1), {1}), (Frac(1), {1}), (Frac(1, 4), {2})])
        rep = solve(inst, EPS, TAU, use_oracle=True)
        failures = [g for g, o in rep.probes if o != "success"]
        successes = [g for g, o in rep.probes if o == "success"]
        assert all(f <= s for f in failures for s in successes)
        assert rep.lower_bound <= exact_optimal_makespan(inst)

    def test_schedule_is_total_and_permitted(self):
        inst = generate_instance(GenSpec(machines=4, jobs=9, seed=4,
                                         preset="huge_heavy"))
        rep = solve(inst, EPS, TAU)
        assert set(rep.assignment) == set(inst.names)
        for orig, name in enumerate(inst.names):
            j = inst.internal_of[orig]
            assert rep.assignment[name] in inst.gamma[j]

    def test_reports_byte_identical(self):
        inst = generate_instance(GenSpec(machines=3, jobs=9, seed=123,
                                         preset="collision"))
        a = solve(inst, EPS, TAU, audit=True).to_text()
        b = solve(inst, EPS, TAU, audit=True).to_text()
        assert a == b and a.startswith("ra-report 1\n")

    def test_stuck_certificates_recheck_after_round_trip(self):
        from rasched.certificate import certificate_to_text
        inst = make_instance(
            4, [(Frac(1), {1}), (Frac(1), {2}), (Frac(1), {3}), (Frac(1), {4}),
                (Frac(59, 60), {1, 2, 3, 4})])
        rep = solve(inst, EPS, TAU)
        assert rep.certificates, "expected stuck probes on the pigeonhole instance"
        for guess, cert in rep.certificates:
            reparsed = certificate_from_text(certificate_to_text(cert, inst), inst)
            assert reparsed.guess == guess
            assert recheck_certificate(reparsed, inst)

    def test_lp_bound_and_oracle_tighten_lower_bound(self):
        inst = make_instance(2, [(Frac(1, 2), {1}), (Frac(1, 2), {2}),
                                 (Frac(1), {1, 2})])
        plain = solve(inst, EPS, TAU)
        with_lp = solve(inst, EPS, TAU, lp_bound=True)
        with_oracle = solve(inst, EPS, TAU, use_oracle=True)
        assert with_lp.lower_bound >= plain.lower_bound
        assert with_oracle.lower_bound == Frac(3, 2)
        assert with_oracle.ratio_bound == with_oracle.makespan / Frac(3, 2)

    def test_empty_instance_fast_path(self):
        inst = make_instance(1, [])
        rep = solve(inst, EPS, TAU)
        assert rep.makespan == 0 and rep.assignment == {}

    def test_parameter_validation(self):
        inst = make_instance(1, [(Frac(1), {1})])
        with pytest.raises(ValueError):
            solve(inst, Frac(1, 12), TAU)
        with pytest.raises(ValueError):
            solve(inst, EPS, 0)

    def test_bracket_converges_to_tolerance(self):
        inst = generate_instance(GenSpec(machines=2, jobs=6, seed=9))
        rep = solve(inst, EPS, TAU)
        assert rep.guess_final <= rep.lower_bound * (1 + TAU) or \
            rep.lower_bound_kind in ("config-lp", "oracle-optimum")


def rational_bisection(inst, probes, tau):
    """The guesses of the bracket [max size, polished greedy makespan]
    bisected on rationals, as the reference for the integer bisection:
    each midpoint (lo + hi) / 2 replaces hi after a success and lo after a
    failure, read off `probes`, until hi <= lo (1 + tau). Returns the
    guesses and the final lo."""
    lo, hi = inst.max_size(), _makespan(inst, _polish(inst, _greedy(inst)))
    guesses = [hi]
    for _, outcome in probes[1:]:
        assert hi > lo * (1 + tau)
        mid = (lo + hi) / 2
        guesses.append(mid)
        if outcome == "success":
            hi = mid
        else:
            lo = mid
    assert not hi > lo * (1 + tau)
    return guesses, lo


@pytest.mark.parametrize("tau", [Frac(1, 100), Frac(1, 3), Frac(7, 10)])
def test_integer_bisection_guesses_match_the_rational_loop(tau):
    rng = random.Random(17)
    cases = [generate_instance(GenSpec(machines=2 + k % 4, jobs=3 + k % 10,
                                       preset=PRESETS[k % len(PRESETS)],
                                       density=(Frac(1, 3), Frac(1, 2))[k % 2], seed=k))
             for k in range(60)]
    cases += [two_value_instance(rng, 4 + k % 5) for k in range(12)]
    lengths = []
    for inst in cases:
        rep = solve(inst, EPS, tau)
        guesses, lo = rational_bisection(inst, rep.probes, tau)
        assert [g for g, _ in rep.probes] == guesses
        assert [ratio_str(g) for g, _ in rep.probes] == [ratio_str(g) for g in guesses]
        assert rep.lower_bound == lo
        lengths.append(len(guesses))
    assert min(lengths) == 1 and max(lengths) >= (7 if tau == Frac(1, 100) else 3)


@pytest.mark.parametrize("audit", [False, True])
def test_successful_probe_builds_no_rational_size(audit):
    # the seed, the engine's load conditions, the audit and the final
    # validation all decide on integer sizes over the unit
    inst = two_value_instance(random.Random(0), 8)
    moved, memo = 0, {}  # a shared memo also replays repeated engine images
    for guess, outcome in solve(inst, EPS, TAU).probes:
        if outcome != "success":
            continue
        counters = Counter()
        network = AssignmentNetwork(inst)
        res = _probe(inst, guess, EPS, audit=audit, log_events=True, run_logs=[],
                     counters=counters, network=network,
                     densest=seed.max_density(inst, network), memo=memo)
        assert res.outcome == "success" and res.certificate is None
        if res.placement is None:  # a huge-free success outside audit: read its seed
            assert not audit and not res.scaled.huge_jobs()
            seed.decided_seed(None, res.scaled, network)
        assert "size" not in res.scaled.__dict__
        moved += counters.get("engine_moves", 0)
    assert moved > 0


def test_a_huge_free_solve_rounds_only_the_schedule_it_reads(monkeypatch):
    # seven unit jobs on three machines: the bisection tries guesses from 2
    # to 3, where no job is huge, and the LP holds from 7/3 on, below the
    # optimum 3, so several probes succeed
    inst = make_instance(3, [(Frac(1), {1, 2, 3})] * 7)
    rounded, flows, successes = [], [], []
    round_forest, solve_lp, probe = seed.round_forest, seed.solve_assignment_lp, driver._probe

    def counting_round(fa, scaled):
        rounded.append(scaled.guess)
        return round_forest(fa, scaled)

    def counting_lp(scaled, network=None):
        flows.append(scaled.guess)
        return solve_lp(scaled, network)

    def recording_probe(*args, **kwargs):
        res = probe(*args, **kwargs)
        if res.outcome == "success":
            successes.append(res)
        return res

    monkeypatch.setattr(seed, "round_forest", counting_round)
    monkeypatch.setattr(seed, "solve_assignment_lp", counting_lp)
    monkeypatch.setattr(driver, "_probe", recording_probe)
    plain = solve(inst, EPS, TAU)
    assert not any(scale_instance(inst, g, EPS).huge_jobs() for g, _ in plain.probes)
    # each success holds only its scaled guess; the read runs its one flow
    assert len(successes) > 1 and all(res.placement is None for res in successes)
    assert rounded == flows == [plain.guess_final]
    rounded.clear()
    audited = solve(inst, EPS, TAU, audit=True)
    successes = [g for g, outcome in audited.probes if outcome == "success"]
    assert len(successes) > 1 and rounded == successes
    assert audited.to_text() == plain.to_text()


def differential_cases():
    """42 instances: every generator preset and two-value shapes, mostly
    within the oracle's job cap, a few beyond it."""
    cases = []
    for preset, count in (("collision", 10), ("huge_heavy", 10),
                          ("uniform", 8), ("small_only", 4)):
        for seed in range(count):
            jobs = 20 if seed == count - 1 else 6 + seed % 7
            spec = GenSpec(machines=2 + seed % 3, jobs=jobs, preset=preset,
                           density=Frac(1, 2), seed=100 + seed)
            cases.append((f"{preset}-{seed}", generate_instance(spec)))
    for seed in range(10):
        machines = 14 if seed == 9 else 3 + seed % 5  # 24 jobs, else 6 to 12
        cases.append((f"two_value-{seed}",
                      two_value_instance(random.Random(200 + seed), machines)))
    return cases


DIFF_CASES = differential_cases()


@pytest.mark.parametrize("name,inst", DIFF_CASES, ids=[c[0] for c in DIFF_CASES])
def test_solve_brackets_from_the_polished_greedy(name, inst):
    with deadline(60):
        rep = solve(inst, EPS, TAU)
        again = solve(inst, EPS, TAU).to_text()
    greedy_makespan = _makespan(inst, _polish(inst, _greedy(inst)))
    assert rep.probes[0] == (greedy_makespan, "success")
    assert rep.makespan <= greedy_makespan
    assert rep.makespan <= (1 + Frac(5, 6) + 2 * EPS) * rep.guess_final
    assert rep.lower_bound <= rep.makespan
    if inst.num_jobs <= MAKESPAN_JOB_CAP:
        assert rep.lower_bound <= exact_optimal_makespan(inst)
    assert rep.to_text() == again


def test_engine_runs_once_per_image_and_seed_on_the_benchmark_pools(monkeypatch):
    """Over the pools at seeds 9, 1 and 101, a probe whose seed and engine
    image repeat an earlier probe of its solve replays that probe's runs,
    stuck or not: fewer runs and iterations execute, while the reports still
    count every run, logged ones log every run, and every stuck probe builds
    and verifies its certificate. Under audit every run executes again, and
    the flows stay those of every run."""
    counts, stuck = Counter(), Counter()
    run, violator = InsertionEngine.run, AssignmentNetwork.violator
    build, verify = driver.build_dual_certificate, driver.verify_certificate

    def counting_run(self):
        result = run(self)
        counts["runs"] += 1
        counts["iterations"] += self.iterations
        stuck["executed"] += isinstance(result, InsertionEngine)
        return result

    def counting_violator(self, supply, capacity):
        counts["flows"] += 1
        return violator(self, supply, capacity)

    def counting_build(state, scaled):
        stuck["built"] += 1
        return build(state, scaled)

    def counting_verify(cert, scaled):
        stuck["verified"] += 1
        return verify(cert, scaled)

    monkeypatch.setattr(InsertionEngine, "run", counting_run)
    monkeypatch.setattr(AssignmentNetwork, "violator", counting_violator)
    monkeypatch.setattr(driver, "build_dual_certificate", counting_build)
    monkeypatch.setattr(driver, "verify_certificate", counting_verify)

    def tally(workload, **flags):
        counts.clear()
        stuck.clear()
        for pool_seed in (9, 1, 101):
            for inst in benchmark_pool(workload, pool_seed):
                rep = solve(inst, EPS, TAU, **flags)
                counts["printed"] += rep.iterations.get("engine_iterations", 0)
                if flags.get("log_events"):
                    counts["logs"] += len(rep.run_logs)
        return dict(counts)

    assert tally("two_value") == {"runs": 6129, "iterations": 18754, "flows": 1881,
                                  "printed": 29103}
    # 18 of the 119 stuck probes replay a stored stuck run
    assert stuck == {"executed": 101, "built": 119, "verified": 119}
    # logged runs go through the same accounting: one log entry per run, executed or not
    assert tally("two_value", log_events=True) == {
        "runs": 6129, "iterations": 18754, "flows": 1881, "printed": 29103, "logs": 9563}
    assert stuck == {"executed": 101, "built": 119, "verified": 119}
    assert tally("two_value", audit=True) == {"runs": 9563, "iterations": 29103,
                                              "flows": 3773, "printed": 29103}
    # an audited repeat builds the stored state's certificate and its own to compare
    assert stuck == {"executed": 119, "built": 155, "verified": 119}
    assert tally("lp_bound", lp_bound=True)["flows"] == 766
    assert tally("uniform") == {"flows": 727, "printed": 0}


def scale_counts(monkeypatch, inst):
    """The engine iterations and additions, probes, stuck probes,
    `AssignmentNetwork.violator` flows, and Dinic's `_levels` searches and
    `_blocking_flow` phases, of one solve."""
    calls = Counter()
    for name in ("violator", "_levels", "_blocking_flow"):
        def counting(self, *args, name=name, method=getattr(AssignmentNetwork, name)):
            calls[name] += 1
            return method(self, *args)
        monkeypatch.setattr(AssignmentNetwork, name, counting)
    with deadline(30):
        counters = solve(inst, EPS, TAU).iterations
    return tuple(counters.get(name, 0) for name in
                 ("engine_iterations", "engine_adds", "probes", "stuck_events")) + tuple(
        calls[name] for name in ("violator", "_levels", "_blocking_flow"))


def test_two_value_work_grows_linearly_from_256_to_512_machines(monkeypatch):
    """Two-value at 256 and 512 machines (436 and 870 jobs): the counts are
    pinned, and none more than 2.5 times larger at twice the machines."""
    small, large = (scale_counts(monkeypatch, two_value_instance(random.Random(f"tv{m}"), m))
                    for m in (256, 512))
    assert small == (498, 303, 8, 1, 5, 44, 39)
    assert large == (973, 579, 8, 1, 6, 59, 53)
    assert all(b <= 2.5 * a for a, b in zip(small, large))


@pytest.mark.parametrize("preset,flows,phases", [("collision", 7, (9, 2)),
                                                  ("huge_heavy", 2, (4, 2))],
                         ids=["collision-7", "huge_heavy-2"])
def test_generated_presets_at_256_by_1024_need_no_engine_run(monkeypatch, preset, flows,
                                                              phases):
    inst = generate_instance(GenSpec(machines=256, jobs=1024, preset=preset, seed=1))
    assert scale_counts(monkeypatch, inst) == (0, 0, 8, 0, flows, *phases)


def test_lp_bound_on_a_collision_instance_prices_within_a_236_pair_front(monkeypatch):
    """`rasched gen --machines 8 --jobs 96 --preset collision --density 1/2
    --seed 1`, solved with `--tol 1/1000 --lp-bound`: more than 30 jobs
    price on a machine. The bound, its column-generation runs, the knapsack
    queries and the largest front (236 pairs, reached by one query) are
    pinned."""
    import rasched.certificate as cm
    import rasched.oracle as om
    inst = generate_instance(GenSpec(machines=8, jobs=96, preset="collision",
                                     density=Frac(1, 2), seed=1))
    queries, price = [], cm.knapsack_max_value

    def recording(query):
        queries.append(query)
        return price(query)

    monkeypatch.setattr(cm, "knapsack_max_value", recording)
    monkeypatch.setattr(om, "KNAPSACK_FRONT_CAP", 236)  # the largest front fits
    with deadline(30):
        report = solve(inst, EPS, Frac(1, 1000), lp_bound=True)
    assert (report.lower_bound, report.lower_bound_kind) == (Frac(337, 30), "config-lp")
    assert report.makespan == Frac(45, 4)
    assert report.iterations["lp_bound_probes"] == 4
    assert max(len(query.items) for query in queries) > 30
    monkeypatch.setattr(om, "KNAPSACK_FRONT_CAP", 235)  # and one pair less does not
    refused = 0
    for query in queries:
        try:
            price(query)
        except om.CapExceededError:
            refused += 1
    assert (len(queries), refused) == (632, 1)


class EngineImageOnly:
    """A scaled instance cut down to what the insertion search may read of
    a guess, its engine image, beside the base and epsilon: reading
    anything else raises AttributeError."""

    __slots__ = ("base", "epsilon", "cap", "huge_cap", "small_end", "huge_start")
    is_small, is_huge = ScaledInstance.is_small, ScaledInstance.is_huge

    def __init__(self, scaled):
        for name in self.__slots__:
            setattr(self, name, getattr(scaled, name))


@pytest.mark.parametrize("audit", [False, True])
def test_the_engine_reads_a_guess_only_through_its_engine_image(audit):
    """Every probe with huge jobs in the seed-9 two_value pool runs the same
    insertions, to the same outcome, placement, counters, events and tree,
    on a schedule whose scaled instance exposes only the engine image."""
    probes = stuck = 0
    for inst in benchmark_pool("two_value", 9):
        network = AssignmentNetwork(inst)
        densest = seed.max_density(inst, network)
        for guess, outcome in solve(inst, EPS, TAU).probes:
            scaled = scale_instance(inst, guess, EPS)
            huge = sorted(scaled.huge_jobs(), reverse=True)
            if outcome == "seed-infeasible" or not huge:
                continue
            results = []
            for view in (scaled, EngineImageOnly(scaled)):
                schedule = seed.decided_seed(seed.seed_small_medium(scaled, network, densest),
                                             scaled, network)
                schedule.scaled = view
                result, runs = _insert(schedule, huge, audit=audit, log_events=True)
                final = (tuple(result.schedule.assignment)
                         if isinstance(result, InsertionEngine) else result)
                results.append((type(result), final, runs))
            assert results[0] == results[1], (inst, guess)
            probes += 1
            stuck += results[0][0] is InsertionEngine
    assert probes >= 200 and stuck >= 30, (probes, stuck)


#: computed once the config-LP bound searched the grid 1/L
PINNED_POOL_DIGEST = "1d1af1b4ffb6ac2ec71072d96dd502fd2fd9069b36637a061c2ee011ff308d4c"


def pool_digest(**flags):
    """sha256 over the report text, JSONL trace and DOT output of every
    seed-9 pool instance of the three benchmark workloads, events logged and
    `lp_bound` solved with the config-LP bound."""
    h = hashlib.sha256()
    for workload in ("uniform", "two_value", "lp_bound"):
        for inst in benchmark_pool(workload, 9):
            rep = solve(inst, EPS, TAU, log_events=True,
                        lp_bound=workload == "lp_bound", **flags)
            for text in (rep.to_text(), emit_jsonl(rep.run_logs, inst),
                         emit_dot(rep.run_logs, inst)):
                h.update(text.encode())
    return h.hexdigest()


def test_pool_reports_traces_and_dot_output_are_pinned():
    """The seed-9 pools' reports, traces and DOT output are those pinned,
    and audit, which executes every insertion run, changes none of them."""
    assert pool_digest() == PINNED_POOL_DIGEST
    assert pool_digest(audit=True) == PINNED_POOL_DIGEST


def test_replayed_runs_report_and_trace_as_executed_ones(monkeypatch):
    """A replayed run gives the report, JSONL trace and DOT output that
    executing it gives: audit executes every run."""
    executed, run = [], InsertionEngine.run

    def counting_run(self):
        executed.append(None)
        return run(self)

    monkeypatch.setattr(InsertionEngine, "run", counting_run)
    replayed = 0
    for inst in benchmark_pool("two_value", 9, 40):
        executed.clear()
        plain = solve(inst, EPS, TAU, log_events=True)
        replayed += len(plain.run_logs) - len(executed)
        executed.clear()
        audited = solve(inst, EPS, TAU, log_events=True, audit=True)
        assert len(executed) == len(audited.run_logs)
        assert plain.to_text() == audited.to_text()
        for emit in (emit_jsonl, emit_dot):
            assert emit(plain.run_logs, inst) == emit(audited.run_logs, inst)
    assert replayed >= 20


def audit_probe(inst, guess, memo, audit):
    network = AssignmentNetwork(inst)
    return _probe(inst, guess, EPS, audit=audit, log_events=True, run_logs=[],
                  counters=Counter(), network=network,
                  densest=seed.max_density(inst, network), memo=memo)


def engine_guess(inst, outcome):
    """The first guess of `inst`'s solve with huge jobs and `outcome`."""
    return next(g for g, o in solve(inst, EPS, TAU).probes
                if o == outcome and scale_instance(inst, g, EPS).huge_jobs())


@pytest.mark.parametrize("part", ["placement", "counts", "runs"])
def test_an_audited_hit_must_reproduce_the_stored_runs(part):
    """Under audit a probe whose seed and engine image were seen runs its
    insertions again, and a run that differs from the record raises."""
    inst, memo = two_value_instance(random.Random(305), 16), {}
    guess = engine_guess(inst, "success")
    first = audit_probe(inst, guess, memo, False)
    [(key, (placement, runs))] = memo.items()
    assert audit_probe(inst, guess, memo, True).placement == first.placement
    if part == "placement":  # the largest job left unassigned
        placement = placement[:-1] + (None,)
    elif part == "counts":  # the first run counts one more of its first counter
        (name, n), *rest = runs[0].counts
        runs = [runs[0]._replace(counts=((name, n + 1), *rest))] + runs[1:]
    else:  # the last run dropped
        runs = runs[:-1]
    memo[key] = (placement, runs)
    with pytest.raises(EngineInvariantError, match="differ"):
        audit_probe(inst, guess, memo, True)


def test_an_audited_hit_that_gets_stuck_raises():
    """A success stored under the seed and engine image of a probe that gets
    stuck (here the seed itself, placed by no run) differs from the
    audited rerun, which raises."""
    inst = two_value_instance(random.Random(306), 8)
    guess = engine_guess(inst, "stuck")
    assert audit_probe(inst, guess, {}, True).outcome == "stuck"
    network = AssignmentNetwork(inst)
    scaled = scale_instance(inst, guess, EPS)
    schedule = seed.decided_seed(
        seed.seed_small_medium(scaled, network, seed.max_density(inst, network)),
        scaled, network)
    placement = tuple(schedule.assignment)
    memo = {(placement, scaled.engine_image): (placement, [])}
    with pytest.raises(EngineInvariantError, match="differ"):
        audit_probe(inst, guess, memo, True)


def stored_stuck_run():
    """An instance whose solve replays a stuck run at a second guess: the
    memo after probing the first guess, which gets stuck, and both guesses."""
    inst = two_value_instance(random.Random(329), 16)
    first, second = Frac(19, 16), Frac(153, 128)
    assert (scale_instance(inst, first, EPS).engine_image
            == scale_instance(inst, second, EPS).engine_image)
    memo = {}
    assert audit_probe(inst, first, memo, False).outcome == "stuck"
    return inst, memo, second


def executed_runs(monkeypatch):
    executed, run = [], InsertionEngine.run

    def counting_run(self):
        executed.append(None)
        return run(self)

    monkeypatch.setattr(InsertionEngine, "run", counting_run)
    return executed


def test_a_repeated_stuck_run_is_replayed_and_certified_at_its_own_guess(monkeypatch):
    """A probe whose seed and engine image repeat a stored stuck run runs no
    insertion; its certificate, built from the stored state at its own
    guess, verifies there and is the one that running it gives (audit runs
    the engine again, and its runs equal the record)."""
    inst, memo, second = stored_stuck_run()
    [(key, (state, runs))] = memo.items()
    assert isinstance(state, InsertionEngine) and state.scaled.guess != second
    executed = executed_runs(monkeypatch)
    replayed = audit_probe(inst, second, dict(memo), False)
    assert executed == []
    audited = audit_probe(inst, second, memo, True)
    assert len(executed) == len(runs) and list(memo) == [key]
    assert memo[key][1] == runs
    assert replayed.outcome == audited.outcome == "stuck"
    assert replayed.certificate.guess == second
    assert (certificate_to_text(replayed.certificate, inst)
            == certificate_to_text(audited.certificate, inst))


@pytest.mark.parametrize("part", ["placement", "counts", "runs"])
def test_an_audited_hit_must_reproduce_the_stored_stuck_run(part):
    """Under audit a probe that repeats a stored stuck run runs its
    insertions again, and a record whose runs, or whose state's certificate
    at the probe's guess, differ from the rerun's raises."""
    inst, memo, second = stored_stuck_run()
    [(key, (state, runs))] = memo.items()
    if part == "placement":  # an active job off its machine: its machine's y falls
        j = next(j for j in state.value_layers()
                 if state.schedule.machine_of(j) is not None)
        state.schedule.unassign(j)
    elif part == "counts":  # the stuck run counts one more of its first counter
        (name, n), *rest = runs[-1].counts
        runs = runs[:-1] + [runs[-1]._replace(counts=((name, n + 1), *rest))]
    else:  # the stuck run dropped
        runs = runs[:-1]
    memo[key] = (state, runs)
    with pytest.raises(EngineInvariantError, match="differ"):
        audit_probe(inst, second, memo, True)


@pytest.mark.parametrize("fault, message", [
    ("placement", r"job \d+ left unassigned by a successful probe"),
    ("cap", "final makespan exceeds the probe guarantee"),
])
def test_the_solve_refuses_a_success_its_guards_reject(monkeypatch, tmp_path, capsys,
                                                       fault, message):
    """Every success carries a placement with its last job unassigned, or a
    scaled instance at a quarter of its guess, whose cap the makespan
    exceeds: the solve raises, and `rasched solve` exits 3 without a
    traceback."""
    inst = two_value_instance(random.Random(305), 16)
    probe = driver._probe

    def faulty(inst, guess, epsilon, **kwargs):
        res = probe(inst, guess, epsilon, **kwargs)
        if res.outcome != "success":
            return res
        if fault == "placement":
            placement = res.placement or tuple(
                seed.decided_seed(None, res.scaled, kwargs["network"]).assignment)
            return dataclasses.replace(res, placement=placement[:-1] + (None,))
        return dataclasses.replace(res, scaled=scale_instance(inst, guess / 4, epsilon))

    monkeypatch.setattr(driver, "_probe", faulty)
    with pytest.raises(EngineInvariantError, match=message):
        solve(inst, EPS, TAU)
    path = tmp_path / "guarded.ra"
    path.write_text(serialize_instance(inst))
    capsys.readouterr()
    assert main(["solve", str(path)]) == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("internal invariant violation: ") and re.search(message, err)
