"""The restricted greedy schedule and the move/swap descent that polishes it."""

import random

import pytest

from rasched.rational import Frac, ZERO
from rasched.model import make_instance
from rasched.generator import GenSpec, generate_instance, PRESETS
from rasched.driver import _greedy, _polish, _makespan

from conftest import deadline, two_value_instance


def polish_cases():
    cases = []
    for preset in PRESETS:
        for seed in range(6):
            spec = GenSpec(machines=2 + seed % 4, jobs=8 + 3 * seed,
                           preset=preset, seed=seed)
            cases.append((f"{preset}-{seed}", generate_instance(spec)))
    for seed in range(8):
        cases.append((f"two_value-{seed}",
                      two_value_instance(random.Random(seed), 3 + 2 * seed)))
    return cases


CASES = polish_cases()


def starts(inst):
    """The greedy placement, and a random permitted one with more to undo."""
    rng = random.Random(inst.num_jobs * 31 + inst.num_machines)
    spread = {j: rng.choice(sorted(inst.gamma[j])) for j in inst.jobs}
    return [("greedy", _greedy(inst)), ("random", spread)]


def loads_of(inst, placement):
    loads = {i: ZERO for i in inst.machines}
    for j, i in placement.items():
        loads[i] += inst.sizes[j]
    return loads


def improving_steps(inst, placement):
    """Every move or swap off a max-load machine that leaves the other
    machine strictly below the max."""
    loads = loads_of(inst, placement)
    top = max(loads.values())
    steps = []
    for j, i in placement.items():
        if loads[i] != top:
            continue
        for k in inst.gamma[j] - {i}:
            if loads[k] + inst.sizes[j] < top:
                steps.append(("move", j, k))
            for j2, k2 in placement.items():
                if (k2 == k and inst.sizes[j2] < inst.sizes[j] and i in inst.gamma[j2]
                        and loads[k] + inst.sizes[j] - inst.sizes[j2] < top):
                    steps.append(("swap", j, j2))
    return steps


@pytest.mark.parametrize("name,inst", CASES, ids=[c[0] for c in CASES])
class TestPolish:
    def test_never_raises_the_makespan(self, name, inst):
        for _, start in starts(inst):
            with deadline(20):
                polished = _polish(inst, start)
            assert _makespan(inst, polished) <= _makespan(inst, start)

    def test_every_job_stays_on_a_permitted_machine(self, name, inst):
        for _, start in starts(inst):
            with deadline(20):
                polished = _polish(inst, start)
            assert set(polished) == set(inst.jobs)
            assert all(polished[j] in inst.gamma[j] for j in inst.jobs)

    def test_result_is_a_local_optimum(self, name, inst):
        for _, start in starts(inst):
            with deadline(20):
                polished = _polish(inst, start)
            assert improving_steps(inst, polished) == []

    def test_two_calls_give_the_same_placement(self, name, inst):
        for _, start in starts(inst):
            before = dict(start)
            with deadline(20):
                a, b = _polish(inst, start), _polish(inst, start)
            assert a == b
            assert start == before  # the input placement is not changed


def test_greedy_takes_largest_first_and_breaks_ties_by_machine_id():
    # decreasing internal id is decreasing size: 3 goes to machine 1 (a tie),
    # 2 to machine 2, the later 1 to machine 2 (load 2), and the earlier 1
    # to machine 1, where the loads tie at 3
    inst = make_instance(2, [(Frac(1), {1, 2}), (Frac(3), {1, 2}),
                             (Frac(2), {1, 2}), (Frac(1), {1, 2})])
    j1a, j3, j2, j1b = inst.internal_of
    placement = _greedy(inst)
    assert placement == {j3: 1, j2: 2, j1b: 2, j1a: 1}
    assert _makespan(inst, placement) == 4


def test_polish_swaps_when_no_move_helps():
    # machine 1 holds 5 and 3 (load 8), machine 2 holds 9/2 and 2 (load
    # 13/2): no move off machine 1 stays below 8, but swapping 5 for 9/2
    # leaves machine 2 at 7 and machine 1 at 15/2
    inst = make_instance(2, [(Frac(5), {1, 2}), (Frac(3), {1, 2}),
                             (Frac(9, 2), {1, 2}), (Frac(2), {1, 2})])
    j5, j3, j4, j2 = inst.internal_of
    polished = _polish(inst, {j5: 1, j3: 1, j4: 2, j2: 2})
    assert polished == {j5: 2, j3: 1, j4: 1, j2: 2}
    assert _makespan(inst, polished) == Frac(15, 2)
    assert improving_steps(inst, polished) == []
