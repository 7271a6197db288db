"""The Hall bound: its value against every job subset and the optimum, the
config-LP probes it decides, and the runs it saves on a benchmark pool."""

import math

from rasched import driver
from rasched import certificate as cm
from rasched import seed
from rasched.certificate import config_lp_lower_bound
from rasched.flow import AssignmentNetwork
from rasched.model import make_instance
from rasched.oracle import CapExceededError, exact_config_lp_feasible, exact_optimal_makespan
from rasched.rational import Frac
from rasched.seed import hall_bound, max_density

from conftest import benchmark_pool
from test_acceptance import CAMPAIGN_SIZE, campaign_instance


def hall_and_density(inst):
    network = AssignmentNetwork(inst)
    densest = max_density(inst, network)
    return hall_bound(inst, network, densest), densest


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


def test_a_probe_at_the_hall_bound_runs():
    """The fact decides only T < H: at T = H = max size the configuration
    LP is feasible, and the bound closes there."""
    inst = make_instance(2, [(Frac(1), {1}), (Frac(1), {2})])
    hall, _ = hall_and_density(inst)
    assert hall == inst.max_size() == 1
    bound = config_lp_lower_bound(inst, Frac(1, 100), infeasible_below=hall)
    assert (bound.lower, bound.upper, bound.lower_certified) == (1, 1, False)


def test_config_lp_runs_over_a_benchmark_pool(monkeypatch):
    """The column-generation runs and rounds, seed flows and network flows
    of `solve(..., lp_bound=True)` over the first twelve instances of the
    seed-101 lp_bound pool, one of which the knapsack cap refuses: a change
    that adds runs or flows shows here without a timed run. Before the Hall
    bound decided the probes below it, the runs and rounds were 34 and 91,
    and the network flows 24; while a run resumed from the last infeasible
    run's final master, the rounds were 24."""
    counts = {"runs": 0, "rounds": 0, "seed flows": 0, "network flows": 0, "refused": 0}
    run_cg, seed_flow, network_flow = (cm.config_lp_feasible_cg, seed.solve_assignment_lp,
                                       AssignmentNetwork.max_flow)

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
    monkeypatch.setattr(AssignmentNetwork, "max_flow", counting_network_flow)
    for inst in benchmark_pool("lp_bound", 101, 12):
        try:
            driver.solve(inst, lp_bound=True)
        except CapExceededError:
            counts["refused"] += 1
    assert counts == {"runs": 5, "rounds": 25, "seed flows": 12, "network flows": 59,
                      "refused": 1}
