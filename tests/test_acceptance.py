"""Acceptance gate: every criterion as one test with a printed verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The shared campaign solves 500 generated instances (at most
10 jobs, at most 4 machines) at epsilon = 1/24, tau = 1/100 with invariant
auditing enabled throughout.
"""

import dataclasses
import itertools
import random
import time

import pytest

from rasched.rational import Frac, ZERO
from rasched.model import scale_instance, validate_partial_schedule
from rasched.driver import solve
from rasched.engine import InsertionEngine
from rasched.seed import solve_assignment_lp, round_seed, SeedInfeasible
from rasched.certificate import (verify_objective_negative,
                                 verify_dual_feasibility, check_bs_s_machine_counts)
from rasched.oracle import exact_optimal_makespan, knapsack_max_value, KnapsackQuery
from rasched.generator import GenSpec, generate_instance

from reference import exact_config_lp_feasible

EPSILON = Frac(1, 24)
TAU = Frac(1, 100)
RATIO_LIMIT = Frac(11, 6) + 2 * EPSILON + Frac(1, 50)  # 11/6 + 2eps + 0.02

CAMPAIGN_SIZE = 500
PRESETS = ("collision", "uniform", "huge_heavy", "collision", "small_only")
DENSITIES = (Frac(1, 4), Frac(1, 2), Frac(3, 4), Frac(1))


def campaign_instance(k):
    return generate_instance(GenSpec(
        machines=2 + k % 3,
        jobs=4 + k % 7,
        preset=PRESETS[k % len(PRESETS)],
        density=DENSITIES[k % len(DENSITIES)],
        seed=k,
    ))


def verdict(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def campaign():
    t0 = time.time()
    records = []
    for k in range(CAMPAIGN_SIZE):
        inst = campaign_instance(k)
        report = solve(inst, EPSILON, TAU, audit=True)
        records.append((k, inst, report))
    return {"records": records, "elapsed": time.time() - t0}


def test_criterion_1_approximation_ratio(campaign):
    worst = ZERO
    failures = []
    for k, inst, report in campaign["records"]:
        opt = exact_optimal_makespan(inst)
        ratio = report.makespan / opt
        worst = max(worst, ratio)
        if ratio > RATIO_LIMIT:
            failures.append((k, ratio))
    verdict(
        "1 approximation-ratio", not failures and campaign["elapsed"] < 300,
        f"{CAMPAIGN_SIZE} instances, worst ratio {float(worst):.5f} "
        f"<= limit {float(RATIO_LIMIT):.5f}, campaign {campaign['elapsed']:.1f}s",
    )


def test_criterion_2_certificates_sound(campaign):
    certs = 0
    bad = []
    for k, inst, report in campaign["records"]:
        for guess, cert in report.certificates:
            certs += 1
            scaled = scale_instance(inst, guess, EPSILON)
            probe = dataclasses.replace(cert, transcript=[])  # fresh transcript, same values
            if not verify_objective_negative(probe):
                bad.append((k, "objective"))
            ok, _ = verify_dual_feasibility(probe, scaled)
            if not ok:
                bad.append((k, "feasibility"))
            if inst.num_jobs <= 12 and exact_config_lp_feasible(inst, guess):
                bad.append((k, "oracle-disagrees"))
    verdict(
        "2 certificate-soundness", certs > 0 and not bad,
        f"{certs} stuck certificates verified and oracle-confirmed, "
        f"{len(bad)} failures",
    )


def _randomized_engine_runs(target_iterations):
    """Audited insertion runs on seeded schedules at aggressive guesses."""
    total = 0
    runs = 0
    stuck_states = []
    dips = 0
    for seed in itertools.count():
        if total >= target_iterations:
            break
        rng = random.Random(900_000 + seed)
        m = 2 + seed % 3
        inst = generate_instance(GenSpec(
            machines=m, jobs=m + 2 + seed % 6,
            preset=("uniform", "huge_heavy", "collision")[seed % 3],
            density=(Frac(1, 3), Frac(2, 3))[seed % 2], seed=seed))
        guess = inst.max_size() * Frac(rng.randint(100, 125), 100)
        scaled = scale_instance(inst, guess, EPSILON)
        try:
            schedule = round_seed(solve_assignment_lp(scaled), scaled)
        except SeedInfeasible:
            continue
        for j in sorted(scaled.huge_jobs(), reverse=True):
            engine = InsertionEngine(schedule, j, audit=True)
            result = engine.run()
            total += engine.iterations
            runs += 1
            dips += len(engine.signature_dips)
            if isinstance(result, InsertionEngine):
                stuck_states.append(result)
                break
        assert validate_partial_schedule(schedule) == []
    return total, runs, stuck_states, dips


def test_criterion_3_invariant_suite(campaign):
    campaign_iters = sum(rep.iterations.get("engine_iterations", 0)
                         for _, _, rep in campaign["records"])
    # the campaign audits every loop iteration; top up with dedicated runs
    extra_iters, runs, stuck_states, _ = _randomized_engine_runs(
        max(0, 10_000 - campaign_iters))
    total = campaign_iters + extra_iters
    test_criterion_3_invariant_suite.stuck_states = stuck_states
    verdict(
        "3 invariant-suite", total >= 10_000,
        f"{total} audited engine iterations across the campaign plus {runs} "
        f"randomized runs, zero violations",
    )


def test_criterion_4_bs_s_count_balance(campaign):
    checks = sum(rep.iterations.get("bs_s_checks", 0)
                 for _, _, rep in campaign["records"])
    stuck_events = sum(rep.iterations.get("stuck_events", 0)
                       for _, _, rep in campaign["records"])
    bad = 0
    extra = getattr(test_criterion_3_invariant_suite, "stuck_states", [])
    for stuck in extra:
        ok, _ = check_bs_s_machine_counts(stuck)
        bad += not ok
    verdict(
        "4 bs-s-machine-balance",
        checks == stuck_events and stuck_events > 0 and bad == 0,
        f"{checks} in-solve checks at every stuck state plus "
        f"{len(extra)} randomized stuck states, zero violations",
    )


def test_criterion_5_signature_monotonicity(campaign):
    checkpoints = sum(rep.iterations.get("signature_checkpoints", 0)
                      for _, _, rep in campaign["records"])
    dips = sum(rep.iterations.get("signature_dips", 0)
               for _, _, rep in campaign["records"])
    # add-checkpoint monotonicity and the 1e6-iteration watchdog are hard
    # errors inside the engine, so completing the campaign proves both
    verdict(
        "5 signature-monotonicity", checkpoints > 0 and dips == 0,
        f"{checkpoints} checkpoints across the campaign, {dips} run-end dips, "
        f"watchdog never tripped",
    )


def test_criterion_6_seed_bound(campaign):
    checked = 0
    bad = 0
    for k, inst, _ in campaign["records"]:
        rng = random.Random(k)
        guess = inst.max_size() * Frac(rng.randint(100, 240), 100)
        scaled = scale_instance(inst, guess, EPSILON)
        try:
            schedule = round_seed(solve_assignment_lp(scaled), scaled)
        except SeedInfeasible:
            continue
        checked += 1
        p_max = max((scaled.size[j] for j in scaled.base.jobs
                     if not scaled.is_huge(j)), default=ZERO)
        for i in scaled.base.machines:
            if not (schedule.load(i) <= 1 + p_max <= Frac(11, 6)):
                bad += 1
    verdict(
        "6 seed-bound", checked >= 100 and bad == 0,
        f"{checked} feasible seeds, every machine load <= 1 + max sm size <= 11/6",
    )


def test_criterion_7_oracle_self_consistency():
    rng = random.Random(777)
    knap_bad = 0
    for _ in range(200):
        n = rng.randint(1, 15)
        # the integer image of weights k/40 against a capacity k/40, values k/11
        items = tuple((rng.randint(1, 40), rng.randint(0, 30)) for _ in range(n))
        cap = rng.randint(1, 60)
        value, subset = knapsack_max_value(KnapsackQuery(items, cap))
        best = 0
        for r in range(n + 1):
            for combo in itertools.combinations(range(n), r):
                if sum(items[t][0] for t in combo) <= cap:
                    best = max(best, sum(items[t][1] for t in combo))
        if value != best:
            knap_bad += 1
    mk_bad = 0
    for seed in range(100):
        inst = generate_instance(GenSpec(
            machines=2 + seed % 3, jobs=4 + seed % 5,
            preset=("uniform", "collision")[seed % 2], seed=5000 + seed))
        best = None
        for combo in itertools.product(*[sorted(inst.gamma[j]) for j in inst.jobs]):
            loads = {}
            for j, i in zip(inst.jobs, combo):
                loads[i] = loads.get(i, ZERO) + inst.sizes[j]
            worst = max(loads.values())
            best = worst if best is None or worst < best else best
        if exact_optimal_makespan(inst) != best:
            mk_bad += 1
    verdict(
        "7 oracle-self-consistency", knap_bad == 0 and mk_bad == 0,
        f"200 knapsack queries and 100 makespan instances match enumeration exactly",
    )


def test_criterion_8_determinism(campaign):
    mismatches = 0
    checked = 0
    for k, inst, report in campaign["records"]:
        if k % 61 == 0 or report.certificates:
            checked += 1
            again = solve(inst, EPSILON, TAU, audit=True)
            if again.to_text() != report.to_text():
                mismatches += 1
        if checked >= 40:
            break
    verdict(
        "8 determinism", checked > 0 and mismatches == 0,
        f"{checked} repeated solves byte-identical",
    )
