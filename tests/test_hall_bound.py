"""The Hall bound: its value against every job subset and the optimum, its
stop rules and flow count, the config-LP search it floors, and the runs of
that bound on a benchmark pool."""

import hashlib
import math
import random

from rasched import driver
from rasched import certificate as cm
from rasched import seed
from rasched.certificate import config_lp_lower_bound
from rasched.flow import AssignmentNetwork
from rasched.model import make_instance
from rasched.oracle import CapExceededError, exact_config_lp_feasible, exact_optimal_makespan
from rasched.rational import Frac, ratio_str
from rasched.seed import hall_bound, max_density

from conftest import benchmark_pool, deadline, reference_max_density, two_value_instance
from test_acceptance import CAMPAIGN_SIZE, TAU, campaign_instance


def hall_and_density(inst):
    network = AssignmentNetwork(inst)
    densest = max_density(inst, network)
    return hall_bound(inst, network, densest), densest


#: sha256 of `hall_bound` over the acceptance campaign, then the seed-101
#: pools of the three benchmark workloads, one `ratio_str` line each,
#: computed while `hall_bound` still had a branch for a failed flow that
#: leaves best unchanged
PINNED_HALL_DIGEST = "e27c8a70809b1d318c32d6f4bf44743caea6db1c6b78dc553adfa48ca2dd12ca"


def brute_force_hall(inst):
    """max over every nonempty job set J of max(p(J)/|Gamma(J)|, the sum of
    the ceil(|J|/|Gamma(J)|) smallest sizes in J), one set per bit mask."""
    n = inst.num_jobs
    best = Frac(0)
    for mask in range(1, 1 << n):
        jobs = [j for j in inst.jobs if mask >> (j - 1) & 1]  # by size
        width = len(set().union(*(inst.gamma[j] for j in jobs)))
        volume = sum(inst.sizes[j] for j in jobs)
        smallest = sum(inst.sizes[j] for j in jobs[:math.ceil(len(jobs) / width)])
        best = max(best, volume / width, smallest)
    return best


def test_hall_bound_lies_between_the_density_and_every_job_set():
    """On every campaign instance (at most 10 jobs): lambda* <= H <= the
    largest bound(J) and H <= OPT, and the configuration LP is infeasible
    one grid step below H."""
    above_density = 0
    for k in range(CAMPAIGN_SIZE):
        inst = campaign_instance(k)
        assert inst.num_jobs <= 10
        hall, densest = hall_and_density(inst)
        scale = inst.integer_image[0]
        density = Frac(densest.volume, scale * densest.width)
        assert density <= hall <= brute_force_hall(inst), k
        assert hall <= exact_optimal_makespan(inst), k
        below = Frac(math.ceil(hall * scale) - 1, scale)
        assert not exact_config_lp_feasible(inst, below), k
        above_density += hall > density
    assert above_density >= 90, above_density


def test_hall_bound_counts_jobs_per_machine():
    """Three unit jobs on two machines: lambda* is 3/2, and some machine
    takes two of them."""
    inst = make_instance(2, [(Frac(1), {1, 2})] * 3)
    hall, densest = hall_and_density(inst)
    assert (densest.volume, densest.width) == (3, 2)
    assert hall == 2
    assert exact_config_lp_feasible(inst, 2)
    assert not exact_config_lp_feasible(inst, Frac(199, 100))


def test_a_bracket_closed_at_the_hall_bound_needs_no_run():
    """H = max size = the schedule's makespan: the configuration LP is
    feasible at H, and the search closes there without a run."""
    inst = make_instance(2, [(Frac(1), {1}), (Frac(1), {2})])
    hall, _ = hall_and_density(inst)
    assert hall == inst.max_size() == 1
    assert exact_config_lp_feasible(inst, hall)
    bound = config_lp_lower_bound(inst, Frac(1, 100), assignment={1: 1, 2: 2},
                                  infeasible_below=hall)
    assert (bound.lower, bound.probes) == (1, 0)


def test_the_printed_bound_lies_between_the_hall_bound_and_the_optimum(monkeypatch):
    """On every campaign instance (at most 10 jobs) under `lp_bound`, the
    printed lower bound lies in [max(p_max, H), OPT], and the search closes
    within the tolerance of its least feasible end (the makespan or a
    feasible run) unless a run came back unresolved."""
    bounds, runs_seen = [], []
    bound_of, run_cg = driver.config_lp_lower_bound, cm.config_lp_feasible_cg

    def recording_bound(*args, **kwargs):
        bounds.append(bound_of(*args, **kwargs))
        return bounds[-1]

    def recording_cg(*args, **kwargs):
        run = run_cg(*args, **kwargs)
        runs_seen.append(run)
        return run

    monkeypatch.setattr(driver, "config_lp_lower_bound", recording_bound)
    monkeypatch.setattr(cm, "config_lp_feasible_cg", recording_cg)
    runs = 0
    for k in range(CAMPAIGN_SIZE):
        inst = campaign_instance(k)
        assert inst.num_jobs <= 12
        hall, _ = hall_and_density(inst)
        bounds.clear()
        runs_seen.clear()
        report = driver.solve(inst, tau=TAU, lp_bound=True)
        (bound,) = bounds
        assert max(inst.max_size(), hall) <= report.lower_bound, k
        assert report.lower_bound <= exact_optimal_makespan(inst), k
        upper = min([run.T for run in runs_seen if run.status == "feasible"],
                    default=report.makespan)
        assert upper <= report.makespan, k
        assert (upper <= bound.lower * (1 + TAU)
                or [run.status for run in runs_seen[-1:]] == ["unresolved"]), k
        runs += len(runs_seen)
    assert runs >= 100, runs


def test_config_lp_runs_over_a_benchmark_pool(monkeypatch):
    """The column-generation runs and rounds, seed flows, network flows and
    knapsack-cap refusals of `solve(..., lp_bound=True)` over the seed-101
    lp_bound pool (48 instances), and the reports that print a lower bound
    below the Hall bound, which must be none: a change that adds runs or
    flows shows here without a timed run. While the bound bisected on
    rationals between the Hall bound and the makespan, the runs and rounds
    were 20 and 86. While it replayed the midpoints of [max size, total
    size], they were 28 and 106, one instance was refused, and 41 of the 47
    reports printed below the Hall bound."""
    pool = benchmark_pool("lp_bound", 101)
    halls = [hall_and_density(inst)[0] for inst in pool]
    counts = {"runs": 0, "rounds": 0, "seed flows": 0, "network flows": 0, "refused": 0,
              "below hall": 0}
    run_cg, seed_flow, network_flow = (cm.config_lp_feasible_cg, seed.solve_assignment_lp,
                                       AssignmentNetwork.violator)

    def counting_cg(*args, **kwargs):
        run = run_cg(*args, **kwargs)
        counts["runs"] += 1
        counts["rounds"] += run.rounds
        return run

    def counting_seed_flow(*args):
        counts["seed flows"] += 1
        return seed_flow(*args)

    def counting_network_flow(*args):
        counts["network flows"] += 1
        return network_flow(*args)

    monkeypatch.setattr(cm, "config_lp_feasible_cg", counting_cg)
    monkeypatch.setattr(seed, "solve_assignment_lp", counting_seed_flow)
    monkeypatch.setattr(AssignmentNetwork, "violator", counting_network_flow)
    for inst, hall in zip(pool, halls):
        try:
            report = driver.solve(inst, lp_bound=True)
        except CapExceededError:
            counts["refused"] += 1
        else:
            counts["below hall"] += report.lower_bound < hall
    assert counts == {"runs": 15, "rounds": 82, "seed flows": 68, "network flows": 259,
                      "refused": 0, "below hall": 0}


def test_hall_bound_is_pinned_on_the_campaign_and_the_benchmark_pools():
    """Every failed flow raises best, so `hall_bound` needs no branch that
    steps k and keeps best; its values match the pinned ones."""
    instances = [campaign_instance(k) for k in range(CAMPAIGN_SIZE)]
    for workload in ("uniform", "two_value", "lp_bound"):
        instances += benchmark_pool(workload, 101)
    lines = "".join(ratio_str(hall_and_density(inst)[0]) + "\n" for inst in instances)
    assert hashlib.sha256(lines.encode()).hexdigest() == PINNED_HALL_DIGEST


def hall_flows(inst):
    """(H, the flows `hall_bound` runs) on a fresh network."""
    network = AssignmentNetwork(inst)
    densest = max_density(inst, network)
    flows, flow = [], network.violator

    def counting(supply, capacity):
        flows.append(None)
        return flow(supply, capacity)

    network.violator = counting
    return hall_bound(inst, network, densest), len(flows)


def test_hall_bound_flows_are_pinned_on_the_benchmark_pools():
    """The flows `hall_bound` runs over the seed-101 pools, a deterministic
    work count: 2221, 1323 and 141 before the stop rules (a) and (b)."""
    flows = {workload: sum(hall_flows(inst)[1] for inst in benchmark_pool(workload, 101))
             for workload in ("uniform", "two_value", "lp_bound")}
    assert flows == {"uniform": 1491, "two_value": 332, "lp_bound": 141}


def test_hall_bound_at_scale_stops_after_one_flow():
    """Two-value at 1,024 machines (1,740 jobs): rule (a) stops the search
    after one flow, where the stages up to k = n ran 869."""
    inst = two_value_instance(random.Random("tv1024"), 1024)
    assert inst.num_jobs == 1740
    with deadline(10):
        assert hall_flows(inst) == (2, 1)


def violators_and_densest(find, inst):
    """The densest set `find` returns on a fresh network, and the violator
    of each flow it ran."""
    network = AssignmentNetwork(inst)
    seen, flow = [], network.violator

    def recording(supply, capacity):
        jobs = flow(supply, capacity)
        seen.append(tuple(jobs))
        return jobs

    network.violator = recording
    return find(inst, network), seen


def test_max_density_matches_the_loop_over_every_job():
    """Each flow over the previous violator's jobs alone finds the violator
    the flow over every job found, so J* and the flow count are unchanged,
    on the acceptance campaign and the three benchmark pools at seed 9."""
    instances = [campaign_instance(k) for k in range(CAMPAIGN_SIZE)]
    for workload in ("uniform", "two_value", "lp_bound"):
        instances += benchmark_pool(workload, 9)
    restricted = 0  # instances where some flow supplied a violator alone
    for inst in instances:
        got = violators_and_densest(max_density, inst)
        assert got == violators_and_densest(reference_max_density, inst)
        restricted += len(got[1]) > 1
    assert restricted >= 300
