"""The restricted greedy schedule and the move/swap descent that polishes it."""

import random

import pytest

from rasched.rational import Frac, ZERO
from rasched.model import make_instance
from rasched.generator import GenSpec, generate_instance, PRESETS
from rasched import driver
from rasched.driver import _greedy, _polish, _makespan

from conftest import benchmark_pool, deadline, two_value_instance


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


def reference_polish(inst, placement):
    """The descent with every scan re-sorting each machine's jobs, kept as
    the reference for `_polish`, which keeps them sorted across steps."""
    sizes, gamma = inst.integer_image[1], inst.gamma
    placement = dict(placement)
    loads = [0] * (inst.num_machines + 1)
    on = [set() for _ in range(inst.num_machines + 1)]
    for j, i in placement.items():
        loads[i] += sizes[j]
        on[i].add(j)

    def step(top):
        for i in inst.machines:
            if loads[i] != top:
                continue
            for j in sorted(on[i], reverse=True):
                p = sizes[j]
                for k in sorted(gamma[j] - {i}, key=lambda k: (loads[k], k)):
                    if loads[k] + p < top:
                        return i, j, k, None
                    for j2 in sorted(on[k]):  # increasing id: nondecreasing size
                        if sizes[j2] >= p:
                            break
                        if i in gamma[j2] and loads[k] + p - sizes[j2] < top:
                            return i, j, k, j2
        return None

    while (found := step(max(loads[1:]))) is not None:
        i, j, k, j2 = found
        on[i].remove(j)
        on[k].add(j)
        placement[j] = k
        delta = sizes[j]
        if j2 is not None:
            on[k].remove(j2)
            on[i].add(j2)
            placement[j2] = i
            delta -= sizes[j2]
        loads[i] -= delta
        loads[k] += delta
    return placement


@pytest.mark.parametrize("seed", [9, 1, 101])
def test_sorted_lists_polish_like_the_resorting_reference(monkeypatch, seed):
    """Every placement the solves of the benchmark pools polish, the greedy
    one and the best probe's, ends where the reference ends it."""
    polish_inputs = []

    def recording_polish(inst, placement):
        polish_inputs.append((inst, dict(placement)))
        return _polish(inst, placement)

    monkeypatch.setattr(driver, "_polish", recording_polish)
    for workload in ("uniform", "two_value", "lp_bound"):
        for inst in benchmark_pool(workload, seed):
            driver.solve(inst)
    moved = 0
    for inst, start in polish_inputs:
        polished = _polish(inst, start)
        assert polished == reference_polish(inst, start)
        moved += polished != start
    assert len(polish_inputs) == 2 * (120 + 120 + 48) and moved > 100
