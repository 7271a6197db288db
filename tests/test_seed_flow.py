"""The max-flow seed: agreement with the LP it replaces, Hall violators on
infeasibility, the densest job set that decides a solve's guesses, the
shared flow network, and supports too long for recursive graph searches."""

import random

import pytest

from rasched import driver, seed
from rasched.engine import EngineInvariantError
from rasched.flow import AssignmentNetwork
from rasched.rational import Frac, integer_image, ratio_str
from rasched.model import make_instance, scale_instance, validate_partial_schedule
from rasched.seed import (FractionalAssignment, SeedInfeasible, solve_assignment_lp, seed_small_medium,
                          round_seed, eliminate_support_cycles,
                          HallViolator, max_density)
from rasched.simplex import solve_equality_feasibility
from rasched.generator import GenSpec, PRESETS, generate_instance

from conftest import (EPS, ReferenceNetwork, benchmark_pool, entries_of, job_sum, machine_load,
                      record_cycles, reference_support_cycle, still_violates, two_value_instance)

CHAIN = 700


def lp_feasible(scaled):
    """The assignment LP as integer rows and columns, decided by the exact
    simplex: sum_i x[j,i] = 1 per small/medium job, and per machine
    sum_j L p_j x[j,i] + slack = L, with L the lcm of the sizes'
    denominators."""
    sm_jobs = [j for j in scaled.base.jobs if not scaled.is_huge(j)]
    if not sm_jobs:
        return True
    n, m = len(sm_jobs), scaled.base.num_machines
    L, sizes = integer_image(scaled.size[j] for j in sm_jobs)
    columns = []
    for row, j in enumerate(sm_jobs):
        for i in sorted(scaled.base.gamma[j]):
            columns.append([(row, 1), (n + i - 1, sizes[row])])
    columns += [[(n + i, 1)] for i in range(m)]
    out = solve_equality_feasibility(n + m, columns, [1] * n + [L] * m,
                                     artificial_rows=range(n))
    return out.feasible


def breakpoint_guesses(inst, rng, count=3):
    """Guesses at and just around the class breakpoints 6p/5 (medium/huge)
    and 2p (small/medium) of a few job sizes."""
    guesses = set()
    for p in rng.sample(sorted(set(inst.sizes[1:])), min(count, len(set(inst.sizes[1:])))):
        for point in (Frac(6, 5) * p, 2 * p):
            guesses.update({point, point * Frac(99, 100), point * Frac(101, 100)})
    return sorted(guesses)


def differential_cases():
    rng = random.Random(7)
    cases = []
    for k in range(24):
        inst = generate_instance(GenSpec(machines=2 + k % 3, jobs=4 + k % 6,
                                         preset=PRESETS[k % len(PRESETS)],
                                         density=(Frac(1, 3), Frac(2, 3))[k % 2], seed=k))
        cases += [(f"{PRESETS[k % len(PRESETS)]}-{k}", inst, g)
                  for g in breakpoint_guesses(inst, rng, 1)]
    for k in range(8):
        inst = two_value_instance(rng, 4 + k % 3)
        cases += [(f"two_value-{k}", inst, g) for g in breakpoint_guesses(inst, rng)]
    return cases


def test_flow_decides_exactly_like_the_lp():
    cases = differential_cases()
    assert len(cases) >= 200
    outcomes = set()
    for name, inst, guess in cases:
        sc = scale_instance(inst, guess, EPS)
        try:
            fa = solve_assignment_lp(sc)
        except SeedInfeasible:
            fa = None
        assert (fa is not None) == lp_feasible(sc), (name, guess)
        outcomes.add(fa is not None)
        if fa is None:
            continue
        for j in fa.jobs:
            assert job_sum(fa, j) == 1
        for i in sc.base.machines:
            assert machine_load(fa, sc, i) <= 1
        for (j, i), v in entries_of(fa).items():
            assert 0 < v <= 1 and i in sc.base.gamma[j]
        eliminate_support_cycles(fa)
        assert reference_support_cycle(entries_of(fa)) is None
    assert outcomes == {True, False}


def plain_dinic(inst, supply, capacity):
    """The assignment network with its arcs in `AssignmentNetwork`'s order,
    flowed by `ReferenceNetwork.max_flow` from the first phase on. Returns
    the flow value, the (job, machine) flows and the jobs the source still
    reaches, in id order."""
    n, m = inst.num_jobs, inst.num_machines
    net, arcs = ReferenceNetwork(n + m + 2), []
    for j in inst.jobs:
        net.arc(0, j, supply[j])
    for j in inst.jobs:
        for i in sorted(inst.gamma[j]):
            arcs.append((j, i, len(net.head)))
            net.arc(j, n + i, supply[j])
    for i in inst.machines:
        net.arc(n + i, n + m + 1, capacity)
    value, level = net.max_flow(0, n + m + 1)
    return (value, {(j, i): f for j, i, e in arcs if (f := supply[j] - net.cap[e])},
            [j for j in inst.jobs if level[j] >= 0])


def hand_networks():
    """(name, instance, supply, capacity); the jobs are equal in size, so
    internal ids follow the list."""
    unit = Frac(1)
    fan = make_instance(2, [(unit, {1, 2}), (unit, {1}), (unit, {2})])
    chain = make_instance(2, [(unit, {1}), (unit, {1, 2}), (unit, {2})])
    return [
        # job 3 is huge: it keeps arcs of capacity 0
        ("a job without supply", fan, [0, 4, 3, 0], 4),
        # job 1 fills machine 1 and goes on to machine 2; job 2 then needs
        # a later phase, which finds machine 2 full
        ("a machine full partway through a job", fan, [0, 5, 2, 1], 3),
        # job 2 splits 2 : 1 and every job is saturated in the first phase
        ("a first phase that saturates", chain, [0, 2, 3, 1], 4),
    ]


def test_bulk_laid_network_matches_arc_by_arc_laying():
    """`AssignmentNetwork` fills its arc lists in bulk; they equal those of
    `ReferenceNetwork.arc` called once per arc in the documented order, and
    each arc reads its capacity from the value its owner names."""
    for name, inst, _ in differential_cases():
        n, m = inst.num_jobs, inst.num_machines
        values = [0, *range(10, 10 + n), 7]  # job j supplies 9 + j, machines absorb 7
        plain = ReferenceNetwork(n + m + 2)
        for j in inst.jobs:
            plain.arc(0, j, values[j])
        for j in inst.jobs:
            for i in sorted(inst.gamma[j]):
                plain.arc(j, n + i, values[j])
        for i in inst.machines:
            plain.arc(n + i, n + m + 1, values[n + 1])
        bulk = AssignmentNetwork(inst)
        assert (bulk.head, bulk.out) == (plain.head, plain.out), name
        assert [values[o] for o in bulk._owner] == plain.cap, name


def flow_cases():
    """The hand networks, then every differential case with its seed
    supplies: (name, instance, supply, capacity)."""
    cases = hand_networks()
    for name, inst, guess in differential_cases():
        sc = scale_instance(inst, guess, EPS)
        supply = [0] * (inst.num_jobs + 1)
        q = inst.integer_image[1]
        for j in range(1, sc.huge_start):
            supply[j] = sc.guess.denominator * q[j]
        cases.append((name, inst, supply, sc.unit))
    return cases


def test_closed_form_first_phase_flows_like_dinic():
    """The query's jobs, its flow and the flow's value are those of the
    reference Dinic run from the first phase on."""
    cases, saturated = flow_cases(), 0
    for name, inst, supply, capacity in cases:
        network = AssignmentNetwork(inst)
        jobs = network.violator(supply, capacity)
        flow = network.job_flow(supply)
        assert (sum(flow.values()), flow, jobs) == plain_dinic(inst, supply, capacity), name
        saturated += not jobs
    assert 0 < saturated < len(cases)


def test_violator_is_empty_exactly_when_the_flow_saturates():
    """The query returns no job exactly when the reference flow sends every
    supply, and otherwise jobs J whose supply exceeds capacity |Gamma(J)|."""
    outcomes = set()
    for name, inst, supply, capacity in flow_cases():
        jobs = AssignmentNetwork(inst).violator(supply, capacity)
        value, _, _ = plain_dinic(inst, supply, capacity)
        assert (not jobs) == (value == sum(supply)), name
        if jobs:
            machines = set().union(*(inst.gamma[j] for j in jobs))
            assert sum(supply[j] for j in jobs) > capacity * len(machines), name
        outcomes.add(not jobs)
    assert outcomes == {True, False}


def violator_sweep():
    """40 small gen-preset and two-value instances."""
    rng = random.Random(3)
    for k in range(40):
        if k % 5 == 4:
            yield two_value_instance(rng, 5)
        else:
            yield generate_instance(GenSpec(machines=2 + k % 3, jobs=4 + k % 7,
                                            preset=PRESETS[k % len(PRESETS)],
                                            density=Frac(1, 2), seed=k))


def test_hall_violator_on_every_infeasible_probe(monkeypatch):
    violators = []

    def recording_seed(scaled, *args):
        try:
            return seed_small_medium(scaled, *args)
        except SeedInfeasible as exc:
            violators.append((scaled, exc.jobs))
            raise

    monkeypatch.setattr(driver, "seed_small_medium", recording_seed)
    for inst in violator_sweep():
        driver.solve(inst, EPS)
    assert len(violators) >= 40
    for sc, jobs in violators:
        assert jobs and all(not sc.is_huge(j) for j in jobs)
        machines = set().union(*(sc.base.gamma[j] for j in jobs))
        assert sum(sc.size[j] for j in jobs) > len(machines)


def test_violator_summaries_decide_like_still_violates(monkeypatch):
    """Every violator of the sweep, the densest set of each solve and those
    of the probe flows that fail, summarised once, against every probe of
    its solve and the guesses around the one where its largest job turns
    huge: the summary's fields are the sums over its jobs, and it proves a
    guess exactly when the reference re-summing test does."""
    probes, found = [], []

    def recording_density(inst, network):
        found.append(seed.max_density(inst, network))
        return found[-1]

    def recording_seed(scaled, network, densest):
        probes.append(scaled)
        try:
            return seed_small_medium(scaled, network, densest)
        except SeedInfeasible as exc:
            if exc.violator is not densest:
                found.append(exc.violator)
            raise

    monkeypatch.setattr(driver, "max_density", recording_density)
    monkeypatch.setattr(driver, "seed_small_medium", recording_seed)
    decisions = []
    for inst in violator_sweep():
        probes.clear()
        found.clear()
        driver.solve(inst, EPS)
        q = inst.integer_image[1]
        for v in found:
            assert v.top == max(v.jobs)
            assert v.volume == sum(q[j] for j in v.jobs)
            assert v.width == len(set().union(*(inst.gamma[j] for j in v.jobs)))
            turn = Frac(6, 5) * inst.sizes[v.top]
            around = [scale_instance(inst, turn * r, EPS)
                      for r in (Frac(99, 100), 1, Frac(101, 100))]
            for sc in probes + around:
                decisions.append(v.proves(sc))
                assert decisions[-1] == still_violates(sc, v.jobs), (v, sc.guess)
    assert len(decisions) >= 200 and 0 < sum(decisions) < len(decisions)


def test_a_shared_network_flows_like_a_fresh_one():
    """One network per instance, reused over all its guesses in order, gives
    the entries and violators of a network laid for each guess alone."""
    networks = {}
    for name, inst, guess in differential_cases():
        sc = scale_instance(inst, guess, EPS)
        shared = networks.setdefault(id(inst), AssignmentNetwork(inst))
        outcomes = []
        for network in (shared, None):
            try:
                outcomes.append(entries_of(solve_assignment_lp(sc, network)))
            except SeedInfeasible as exc:
                outcomes.append(exc.jobs)
        assert outcomes[0] == outcomes[1], (name, guess)


def solve_cases():
    """Over 200 small gen-preset and two-value instances."""
    rng = random.Random(11)
    cases = []
    for k in range(180):
        cases.append(generate_instance(GenSpec(machines=2 + k % 4, jobs=4 + k % 9,
                                               preset=PRESETS[k % len(PRESETS)],
                                               density=(Frac(1, 3), Frac(1, 2),
                                                        Frac(2, 3))[k % 3], seed=k)))
    cases += [two_value_instance(rng, 4 + k % 5) for k in range(30)]
    return cases


def solve_record(inst):
    rep = driver.solve(inst, EPS, log_events=True)
    return rep.to_text(), [(guess, run.j_new, run.outcome, run.events, run.snapshot)
                           for guess, run in rep.run_logs]


def test_reused_violators_decide_like_the_flow(monkeypatch):
    """Solves whose probes the densest set decides report what solves that
    run every probe's flow report."""
    cases = solve_cases()
    assert len(cases) >= 200
    reused, without_flow = [], []

    def counting_seed(scaled, network, densest):
        try:
            fa = seed_small_medium(scaled, network, densest)
        except SeedInfeasible as exc:
            reused.append(exc.violator is densest)
            raise
        without_flow.append(fa is None)
        return fa

    monkeypatch.setattr(driver, "seed_small_medium", counting_seed)
    with_reuse = [solve_record(inst) for inst in cases]
    assert sum(reused) >= 100 and sum(without_flow) >= 100 and not all(without_flow)

    def flow_every_probe(scaled, network, densest):
        return solve_assignment_lp(scaled, network)

    monkeypatch.setattr(driver, "seed_small_medium", flow_every_probe)
    for inst, record in zip(cases, with_reuse):
        assert solve_record(inst) == record


def test_a_violator_with_a_job_now_huge_is_not_reused():
    # at T = 4 the jobs weigh 1/2 + 3/4 > 1 on the one machine; at T = 7/2
    # the larger weighs 6/7, huge, and the seed drops it, though the two
    # still weigh more than the machine holds
    inst = make_instance(1, [(Frac(3), {1}), (Frac(2), {1})])
    with pytest.raises(SeedInfeasible) as info:
        solve_assignment_lp(scale_instance(inst, 4, EPS))
    violator = info.value.violator
    assert violator.jobs == (1, 2)
    # the flow's violator is the instance's densest set
    assert violator == max_density(inst, AssignmentNetwork(inst))
    sc = scale_instance(inst, Frac(7, 2), EPS)
    assert sc.is_huge(2) and not sc.is_huge(1)
    assert sum(sc.size[j] for j in violator.jobs) > 1
    assert not still_violates(sc, violator.jobs)
    assert not violator.proves(sc)
    sched = round_seed(seed_small_medium(sc, AssignmentNetwork(inst), violator), sc)
    assert sched.machine_of(1) == 1 and sched.machine_of(2) is None


def test_a_violator_at_hall_equality_is_not_reused(monkeypatch):
    inst = make_instance(1, [(Frac(3), {1}), (Frac(3), {1})])
    with pytest.raises(SeedInfeasible) as info:
        solve_assignment_lp(scale_instance(inst, 5, EPS))
    violator = info.value.violator
    assert violator == max_density(inst, AssignmentNetwork(inst))
    # at T = 6 the jobs fill the machine exactly: the LP is feasible
    sc = scale_instance(inst, 6, EPS)
    assert not violator.proves(sc) and not still_violates(sc, violator.jobs)
    sched = round_seed(solve_assignment_lp(sc), sc)
    assert {sched.machine_of(1), sched.machine_of(2)} == {1}
    # just below, the violator decides the guess without a flow, and a
    # single job of it does not
    sc = scale_instance(inst, Frac(11, 2), EPS)
    single = HallViolator.of(inst, (2,))
    assert violator.proves(sc) and not single.proves(sc)

    def no_flow(scaled, network=None):
        raise AssertionError(f"a flow ran at {scaled.guess}")

    monkeypatch.setattr(seed, "solve_assignment_lp", no_flow)
    with pytest.raises(SeedInfeasible) as info:
        seed_small_medium(sc, AssignmentNetwork(inst), violator)
    assert info.value.violator is violator


def bisection_instance():
    """An instance whose bisection runs a successful probe after a
    seed-infeasible one, which the densest set decides."""
    inst = generate_instance(GenSpec(machines=3, jobs=9, preset="uniform",
                                     density=Frac(1, 2), seed=1))
    outcomes = [outcome for _, outcome in driver.solve(inst, EPS).probes]
    first_failure = outcomes.index("seed-infeasible")
    assert "success" in outcomes[first_failure:]
    return inst


def hall_fork_instance():
    """J* = {1, 1/5} on machine 1 has density 6/5, and its unit job is huge
    below 6/5, so J* refutes no guess; the two jobs of 59/100 on machine 2
    refute every guess below 59/50 through the flow alone."""
    return make_instance(2, [(Frac(1), {1}), (Frac(1, 5), {1}),
                             (Frac(59, 100), {2}), (Frac(59, 100), {2})])


HALL_FORK_REPORT = """\
ra-report 1
machines 2
jobs 4
epsilon 1/24
tau 1/100
makespan 6/5 ~1.200000
guess-final 189/160
lower-bound 47/40 kind=seed-lp-infeasible
ratio-bound 48/47 ~1.021277
iterations engine_adds 2
iterations engine_iterations 4
iterations engine_moves 2
iterations probes 6
iterations seed_lps 6
iterations signature_checkpoints 2
iterations signature_dips 0
probe 6/5 success
probe 11/10 seed-infeasible
probe 23/20 seed-infeasible
probe 47/40 seed-infeasible
probe 19/16 success
probe 189/160 success
assign j1 1
assign j2 1
assign j3 2
assign j4 2
"""


@pytest.mark.parametrize("audit", [False, True])
def test_every_probe_the_densest_set_leaves_runs_its_own_flow(monkeypatch, audit):
    """A seed-infeasible probe that J* does not refute is decided by its own
    flow, even where the violator of an earlier failed flow would refute it
    too, and the report is the one those violators gave."""
    inst = hall_fork_instance()
    densest = max_density(inst, AssignmentNetwork(inst))
    assert Frac(densest.volume, inst.integer_image[0] * densest.width) == Frac(6, 5)
    failed = []

    def recording_flow(scaled, network=None):
        try:
            return solve_assignment_lp(scaled, network)
        except SeedInfeasible:
            failed.append(scaled.guess)
            raise

    monkeypatch.setattr(seed, "solve_assignment_lp", recording_flow)
    report = driver.solve(inst, EPS, audit=audit)
    assert report.to_text() == HALL_FORK_REPORT
    left = [guess for guess, outcome in report.probes if outcome == "seed-infeasible"
            and not densest.proves(scale_instance(inst, guess, EPS))]
    assert failed == left == [Frac(11, 10), Frac(23, 20), Frac(47, 40)]


def test_seed_flow_counts_on_two_benchmark_pools(monkeypatch):
    """The seed flows a solve runs, counted over the first twelve instances
    of two benchmark pools: a change that adds flows shows here without a
    timed run."""
    flows = []

    def counting_flow(scaled, network=None):
        flows.append(scaled.guess)
        return solve_assignment_lp(scaled, network)

    monkeypatch.setattr(seed, "solve_assignment_lp", counting_flow)
    counts = {}
    for workload in ("two_value", "lp_bound"):
        flows.clear()
        for inst in benchmark_pool(workload, 101, 12):
            driver.solve(inst)
        counts[workload] = len(flows)
    assert counts == {"two_value": 28, "lp_bound": 12}


def test_audit_runs_the_flow_behind_every_reused_violator(monkeypatch):
    """Under audit, every probe the densest set refutes runs its own flow."""
    inst = bisection_instance()
    flows, reused = [], []

    def counting_flow(scaled, network=None):
        flows.append(scaled.guess)
        return solve_assignment_lp(scaled, network)

    def counting_seed(scaled, network, densest):
        try:
            return seed_small_medium(scaled, network, densest)
        except SeedInfeasible as exc:
            if exc.violator is densest:
                reused.append(scaled.guess)
            raise

    monkeypatch.setattr(seed, "solve_assignment_lp", counting_flow)
    monkeypatch.setattr(driver, "seed_small_medium", counting_seed)
    audited = driver.solve(inst, EPS, audit=True)
    # the refuted guesses' one flow each; the flows at other guesses are
    # those of the probes the densest set left and of the schedules read
    assert reused and [guess for guess in flows if guess in reused] == reused
    assert audited.to_text() == driver.solve(inst, EPS).to_text()


def test_audited_solves_run_every_seed_flow_through_the_seed_module(monkeypatch):
    """Every flow of an audited solve but the density's is a call of
    `rasched.seed.solve_assignment_lp`, the name a traced run wraps, the
    audit's flow behind each guess the densest set refutes included."""
    inside = []
    counts = {"seed": 0, "other": 0, "audited": 0}
    network_flow, seed_flow, density = (AssignmentNetwork.violator,
                                        seed.solve_assignment_lp, driver.max_density)

    def counting_network_flow(self, supply, capacity):
        if not inside:
            counts["other"] += 1
        return network_flow(self, supply, capacity)

    def counting_seed_flow(scaled, network=None):
        counts["seed"] += 1
        inside.append(True)
        try:
            return seed_flow(scaled, network)
        finally:
            inside.pop()

    def uncounted_density(inst, network):
        inside.append(True)
        try:
            return density(inst, network)
        finally:
            inside.pop()

    def counting_seed(scaled, network, densest):
        try:
            return seed_small_medium(scaled, network, densest)
        except SeedInfeasible as exc:
            counts["audited"] += exc.violator is densest
            raise

    monkeypatch.setattr(AssignmentNetwork, "violator", counting_network_flow)
    monkeypatch.setattr(seed, "solve_assignment_lp", counting_seed_flow)
    monkeypatch.setattr(driver, "max_density", uncounted_density)
    monkeypatch.setattr(driver, "seed_small_medium", counting_seed)
    for workload in ("two_value", "lp_bound"):
        for inst in benchmark_pool(workload, 101, 12):
            driver.solve(inst, audit=True)
    assert counts["other"] == 0, counts
    assert counts["seed"] > counts["audited"] > 0, counts


def test_audit_refutes_a_violator_reused_at_a_feasible_guess(monkeypatch):
    """With a `proves` that always holds, the densest set refutes the
    feasible probe 19/16 below its density; the audit's own flow there
    saturates and refutes the densest set."""
    inst = hall_fork_instance()
    monkeypatch.setattr(seed.HallViolator, "proves", lambda self, scaled: True)
    driver.solve(inst, EPS)  # unaudited, the false proof goes unnoticed
    with pytest.raises(EngineInvariantError,
                       match="densest set refuted the feasible guess 19/16"):
        driver.solve(inst, EPS, audit=True)


def brute_force_density(inst):
    """max p(J)/|Gamma(J)| over every nonempty job set J, one set per bit
    mask, each built from the mask without its lowest bit."""
    scale, q = inst.integer_image
    n = inst.num_jobs
    volume, machines = [0] * (1 << n), [0] * (1 << n)
    best = Frac(0)
    for mask in range(1, 1 << n):
        low = mask & -mask
        j = low.bit_length()
        volume[mask] = volume[mask ^ low] + q[j]
        machines[mask] = machines[mask ^ low] | sum(1 << i for i in inst.gamma[j])
        best = max(best, Frac(volume[mask], machines[mask].bit_count()))
    return best / scale


def test_max_density_matches_every_job_subset():
    """lambda* is the largest density of any job set, and J* attains it."""
    rng = random.Random(13)
    cases = [generate_instance(GenSpec(machines=1 + k % 4, jobs=1 + k % 10,
                                       preset=PRESETS[k % len(PRESETS)],
                                       density=(Frac(1, 3), Frac(1, 2), Frac(2, 3))[k % 3],
                                       seed=k))
             for k in range(180)]
    cases += [two_value_instance(rng, 2 + k % 5) for k in range(30)]  # 2 to 10 jobs
    proper = 0
    for inst in cases:
        assert inst.num_jobs <= 10
        densest = max_density(inst, AssignmentNetwork(inst))
        assert densest == HallViolator.of(inst, densest.jobs)
        lam = Frac(densest.volume, inst.integer_image[0] * densest.width)
        assert lam == brute_force_density(inst), inst
        proper += len(densest.jobs) < inst.num_jobs
    assert len(cases) >= 200 and proper >= 20


def test_density_decided_probes_get_their_own_flows_outcome(monkeypatch):
    """On the three benchmark shapes, every probe the densest set decides,
    feasible without a flow or infeasible by J*, is decided as a flow on a
    fresh network decides it."""
    decided = []

    def recording_seed(scaled, network, densest):
        try:
            fa = seed_small_medium(scaled, network, densest)
        except SeedInfeasible as exc:
            if exc.violator is densest:
                decided.append((scaled, False))
            raise
        if fa is None:
            decided.append((scaled, True))
        return fa

    monkeypatch.setattr(driver, "seed_small_medium", recording_seed)
    for workload in ("uniform", "two_value", "lp_bound"):
        for inst in benchmark_pool(workload, 9, 24):
            driver.solve(inst)
    for scaled, feasible in decided:
        try:
            solve_assignment_lp(scaled)
        except SeedInfeasible:
            assert not feasible, scaled.guess
        else:
            assert feasible, scaled.guess
    outcomes = [feasible for _, feasible in decided]
    assert outcomes.count(True) >= 50 and outcomes.count(False) >= 50


def test_audit_refutes_a_density_one_step_low(monkeypatch):
    """With lambda* lowered by the final bracket's width, the highest
    seed-infeasible probe lies above it: the audit's own flow at that
    probe fails and refutes the density. Unaudited, the same flow runs when
    that probe's schedule is read, and fails the same way."""
    inst = bisection_instance()
    report = driver.solve(inst, EPS)
    assert report.lower_bound_kind == "seed-lp-infeasible"
    scale = inst.integer_image[0]
    densest = max_density(inst, AssignmentNetwork(inst))
    low = (Frac(densest.volume, scale * densest.width)
           - (report.guess_final - report.lower_bound))
    assert low <= report.lower_bound
    monkeypatch.setattr(driver, "max_density", lambda inst, network: HallViolator(
        densest.top, low.numerator * scale, low.denominator, densest.jobs))
    for audit in (True, False):
        with pytest.raises(EngineInvariantError, match="densest set decided the infeasible guess "
                           + ratio_str(report.lower_bound)):
            driver.solve(inst, EPS, audit=audit)


def test_hall_violator_of_a_hand_built_instance():
    # jobs 1-3 need 3/2 on machine 1; job 4 could use machine 2 and is no part of it
    sc = scale_instance(make_instance(2, [(Frac(1, 2), {1}), (Frac(1, 2), {1}),
                                          (Frac(1, 2), {1}), (Frac(1, 2), {1, 2})]),
                        1, EPS)
    with pytest.raises(SeedInfeasible) as info:
        solve_assignment_lp(sc)
    assert info.value.jobs == (1, 2, 3)


class TestLongChains:
    def test_support_cycle_on_a_long_path_and_a_long_cycle(self, monkeypatch):
        cycles = record_cycles(monkeypatch)
        flow = {e: 1 for k in range(1, CHAIN + 1) for e in ((k, k), (k, k + 1))}
        path = FractionalAssignment(dict(flow), dict.fromkeys(range(1, CHAIN + 1), 2))
        assert eliminate_support_cycles(path) == 0 and path.flow == flow
        flow[(CHAIN + 1, CHAIN + 1)] = flow[(CHAIN + 1, 1)] = 1
        cycle = FractionalAssignment(flow, dict.fromkeys(range(1, CHAIN + 2), 2))
        assert eliminate_support_cycles(cycle) == 1
        assert [len(nodes) for nodes in cycles] == [2 * (CHAIN + 1)]

    @staticmethod
    def pinned_chain(last_size):
        """Chain job k may use machines k and k+1, and a pinned job of size
        1/6 fills machine k up beside it; the last job may only use machine
        1, so its one augmenting path runs through the whole chain."""
        chain = [(Frac(5, 6), {k, k + 1}) for k in range(1, CHAIN)]
        pinned = [(Frac(1, 6), {k}) for k in range(1, CHAIN)]
        inst = make_instance(CHAIN, chain + [(last_size, {1})] + pinned)
        return inst, scale_instance(inst, 1, EPS)

    def test_flow_shifts_the_whole_chain_along_one_path(self):
        inst, sc = self.pinned_chain(Frac(5, 6))
        entries = entries_of(solve_assignment_lp(sc))
        for k in range(1, CHAIN):
            assert entries[(inst.internal_of[k - 1], k + 1)] == 1
        assert entries[(inst.internal_of[CHAIN - 1], 1)] == 1
        assert validate_partial_schedule(round_seed(solve_assignment_lp(sc), sc)) == []

    def test_seed_rounds_the_fractional_chain_a_partial_shift_leaves(self):
        # pushing 1/2 through the chain splits every chain job 2/5 : 3/5
        inst, sc = self.pinned_chain(Frac(1, 2))
        entries = entries_of(solve_assignment_lp(sc))
        for k in range(1, CHAIN):
            j = inst.internal_of[k - 1]
            assert (entries[(j, k)], entries[(j, k + 1)]) == (Frac(2, 5), Frac(3, 5))
        sched = round_seed(solve_assignment_lp(sc), sc)
        assert validate_partial_schedule(sched) == []
        for k in range(1, CHAIN):
            assert sched.machine_of(inst.internal_of[k - 1]) == k + 1
