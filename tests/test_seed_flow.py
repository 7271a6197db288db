"""The max-flow seed: agreement with the LP it replaces, Hall violators on
infeasibility, and supports too long for recursive graph searches."""

import random

import pytest

from rasched import driver
from rasched.rational import Frac, integer_image
from rasched.model import make_instance, scale_instance, validate_partial_schedule
from rasched.seed import (SeedInfeasible, solve_assignment_lp, seed_small_medium,
                          _support_cycle)
from rasched.simplex import solve_equality_feasibility
from rasched.generator import GenSpec, PRESETS, generate_instance

from conftest import EPS, two_value_instance

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
            assert fa.job_sum(j) == 1
        for i in sc.base.machines:
            assert fa.machine_load(sc, i) <= 1
        for (j, i), v in fa.entries.items():
            assert 0 < v <= 1 and i in sc.base.gamma[j]
        assert _support_cycle(fa.entries) is None
    assert outcomes == {True, False}


def test_hall_violator_on_every_infeasible_probe(monkeypatch):
    violators = []

    def recording_seed(scaled):
        try:
            return seed_small_medium(scaled)
        except SeedInfeasible as exc:
            violators.append((scaled, exc.jobs))
            raise

    monkeypatch.setattr(driver, "seed_small_medium", recording_seed)
    rng = random.Random(3)
    for k in range(40):
        if k % 5 == 4:
            inst = two_value_instance(rng, 5)
        else:
            inst = generate_instance(GenSpec(machines=2 + k % 3, jobs=4 + k % 7,
                                             preset=PRESETS[k % len(PRESETS)],
                                             density=Frac(1, 2), seed=k))
        driver.solve(inst, EPS)
    assert len(violators) >= 40
    for sc, jobs in violators:
        assert jobs and all(not sc.is_huge(j) for j in jobs)
        machines = set().union(*(sc.base.gamma[j] for j in jobs))
        assert sum(sc.size[j] for j in jobs) > len(machines)


def test_hall_violator_of_a_hand_built_instance():
    # jobs 1-3 need 3/2 on machine 1; job 4 could use machine 2 and is no part of it
    sc = scale_instance(make_instance(2, [(Frac(1, 2), {1}), (Frac(1, 2), {1}),
                                          (Frac(1, 2), {1}), (Frac(1, 2), {1, 2})]),
                        1, EPS)
    with pytest.raises(SeedInfeasible) as info:
        solve_assignment_lp(sc)
    assert info.value.jobs == (1, 2, 3)


class TestLongChains:
    def test_support_cycle_on_a_long_path_and_a_long_cycle(self):
        entries = {e: Frac(1, 2) for k in range(1, CHAIN + 1) for e in ((k, k), (k, k + 1))}
        assert _support_cycle(entries) is None
        entries[(CHAIN + 1, CHAIN + 1)] = Frac(1, 2)
        entries[(CHAIN + 1, 1)] = Frac(1, 2)
        assert len(_support_cycle(entries)) == 2 * (CHAIN + 1)

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
        fa = solve_assignment_lp(sc)
        for k in range(1, CHAIN):
            assert fa.entries[(inst.internal_of[k - 1], k + 1)] == 1
        assert fa.entries[(inst.internal_of[CHAIN - 1], 1)] == 1
        assert validate_partial_schedule(seed_small_medium(sc)) == []

    def test_seed_rounds_the_fractional_chain_a_partial_shift_leaves(self):
        # pushing 1/2 through the chain splits every chain job 2/5 : 3/5
        inst, sc = self.pinned_chain(Frac(1, 2))
        fa = solve_assignment_lp(sc)
        for k in range(1, CHAIN):
            j = inst.internal_of[k - 1]
            assert (fa.entries[(j, k)], fa.entries[(j, k + 1)]) == (Frac(2, 5), Frac(3, 5))
        sched = seed_small_medium(sc)
        assert validate_partial_schedule(sched) == []
        for k in range(1, CHAIN):
            assert sched.machine_of(inst.internal_of[k - 1]) == k + 1
