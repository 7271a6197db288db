import random
from collections import deque

import pytest

from rasched.rational import Frac, ZERO, integer_image
from rasched.model import Schedule, scale_instance, validate_partial_schedule
from rasched.seed import (FractionalAssignment, SeedInfeasible,
                          solve_assignment_lp, eliminate_support_cycles,
                          round_forest, round_seed)
from rasched.generator import GenSpec, generate_instance

from conftest import (EPS, assigned_jobs, deadline, entries_of, job_sum, machine_load,
                      record_cycles, reference_eliminate_support_cycles,
                      reference_support_cycle, scaled_of)
from reference import exact_config_lp_feasible


class TestAssignmentLP:
    def test_forced_assignment(self):
        sc = scaled_of([(Frac(1, 2), {1})], 1)
        fa = solve_assignment_lp(sc)
        assert entries_of(fa) == {(1, 1): 1}

    def test_two_two_thirds_on_one_machine_infeasible(self):
        sc = scaled_of([(Frac(2, 3), {1}), (Frac(2, 3), {1})], 1)
        with pytest.raises(SeedInfeasible):
            solve_assignment_lp(sc)

    def test_huge_jobs_do_not_participate(self):
        sc = scaled_of([(Frac(9, 10), {1}), (Frac(1, 3), {1})], 1)
        fa = solve_assignment_lp(sc)
        assert fa.jobs == [1] and sc.is_small(1)

    @pytest.mark.parametrize("seed", range(12))
    def test_feasible_solutions_satisfy_both_row_families(self, seed):
        inst = generate_instance(GenSpec(machines=3, jobs=6, seed=seed,
                                         density=Frac(2, 3)))
        guess = sum(inst.sizes[1:]) / 2
        sc = scale_instance(inst, guess, EPS)
        try:
            fa = solve_assignment_lp(sc)
        except SeedInfeasible:
            # soundness: the covering relaxation must also fail at this guess
            assert not exact_config_lp_feasible(inst, guess)
            return
        for j in fa.jobs:
            assert job_sum(fa, j) == 1
        for i in sc.base.machines:
            assert machine_load(fa, sc, i) <= 1
        for (j, i), v in entries_of(fa).items():
            assert 0 < v <= 1 and i in sc.base.gamma[j]

    def test_support_is_forest(self):
        for seed in range(8):
            inst = generate_instance(GenSpec(machines=4, jobs=9, seed=seed))
            sc = scale_instance(inst, sum(inst.sizes[1:]), EPS)
            fa = solve_assignment_lp(sc)
            eliminate_support_cycles(fa)
            assert reference_support_cycle(entries_of(fa)) is None
            assert len(entries_of(fa)) <= len(fa.jobs) + sc.base.num_machines


class TestCycleElimination:
    def test_hand_built_cycle_is_cancelled_load_preservingly(self):
        # two jobs split half and half across two machines in a 4-cycle; at
        # scale 24 the supplies are 6 (job 1, size 1/4) and 8 (job 2, size 1/3)
        sc = scaled_of([(Frac(1, 3), {1, 2}), (Frac(1, 4), {1, 2})], 2)
        fa = FractionalAssignment({(1, 1): 3, (1, 2): 3, (2, 1): 4, (2, 2): 4},
                                  {1: 6, 2: 8})
        loads = {i: machine_load(fa, sc, i) for i in (1, 2)}
        cancelled = eliminate_support_cycles(fa)
        assert cancelled == 1
        assert reference_support_cycle(entries_of(fa)) is None
        for j in (1, 2):
            assert job_sum(fa, j) == 1
        for i in (1, 2):
            assert machine_load(fa, sc, i) == loads[i]

    def test_forest_input_is_untouched(self):
        fa = FractionalAssignment({(1, 1): 1, (1, 2): 1}, {1: 2})
        assert eliminate_support_cycles(fa) == 0
        assert entries_of(fa) == {(1, 1): Frac(1, 2), (1, 2): Frac(1, 2)}


def rational_eliminate_support_cycles(entries, scaled, lengths):
    """The rational cycle cancelling that the integer one replaced, kept as the
    reference: x-values in `entries` move by +-t_k * theta with
    t_k = p(j_0)/p(j_k). Appends each cancelled cycle's length to `lengths`."""
    cancelled = 0
    while True:
        nodes = reference_support_cycle(entries)
        if nodes is None:
            return cancelled
        cancelled += 1
        lengths.append(len(nodes))
        if nodes[0][0] == "m":
            nodes = nodes[1:] + nodes[:1]
        q = len(nodes) // 2
        jobs_seq = [nodes[2 * k][1] for k in range(q)]
        machines_seq = [nodes[2 * k + 1][1] for k in range(q)]
        deltas = {}
        for k in range(q):
            j = jobs_seq[k]
            t_k = scaled.size[jobs_seq[0]] / scaled.size[j]
            deltas[(j, machines_seq[k])] = t_k
            deltas[(j, machines_seq[k - 1])] = -t_k
        theta = min(entries[e] / -d for e, d in deltas.items() if d < 0)
        assert theta > 0
        for e, d in deltas.items():
            entries[e] += d * theta
            assert entries[e] >= 0
            if entries[e] == 0:
                del entries[e]


def random_support(rng):
    """A supported flow on random sizes with mixed denominators. Jobs 1..k
    form a planted cycle of length 2k >= 6 over machines 1..k; every job
    also splits its supply onto up to two further random machines."""
    machines = rng.randint(3, 7)
    jobs = rng.randint(3, 9)
    sizes = [Frac(rng.randint(1, 5 * d // 6), d)
             for d in (rng.choice((2, 3, 5, 7, 12, 35)) for _ in range(jobs))]
    sc = scaled_of([(p, set(range(1, machines + 1))) for p in sizes], machines)
    _, supplies = integer_image(sc.size[j] for j in sc.base.jobs)
    grain = rng.randint(4, 12)  # a finer common scale, so every split is integral
    planted = rng.randint(3, min(jobs, machines))
    flow, supply = {}, {}
    for j in sc.base.jobs:
        support = {j, j % planted + 1} if j <= planted else set()
        support |= set(rng.sample(range(1, machines + 1), rng.randint(1, 2)))
        support = sorted(support)
        total = supplies[j - 1] * grain
        cuts = sorted(rng.sample(range(1, total), len(support) - 1))
        for i, lo, hi in zip(support, [0] + cuts, cuts + [total]):
            flow[(j, i)] = hi - lo
        supply[j] = total
    return sc, FractionalAssignment(flow, supply)


def test_integer_cancelling_matches_the_rational_reference():
    rng = random.Random(7)
    lengths = []
    for _ in range(320):
        sc, fa = random_support(rng)
        entries = entries_of(fa)
        with deadline(20):  # a cycle cancelled by zero would repeat forever
            cancelled = eliminate_support_cycles(fa)
        assert cancelled > 0  # the planted cycle at least
        assert rational_eliminate_support_cycles(entries, sc, lengths) == cancelled
        assert list(entries_of(fa).items()) == list(entries.items())
        assert reference_support_cycle(fa.flow) is None
    assert sum(n >= 6 for n in lengths) >= 300


def max_flow_supports():
    """(scaled instance, decided LP solution) of 60 generated instances at a
    guess a tenth above the average machine load, where one exists."""
    out = []
    for k in range(60):
        inst = generate_instance(GenSpec(machines=3 + k % 4, jobs=8 + k % 9,
                                         density=(Frac(1, 2), Frac(2, 3))[k % 2], seed=k))
        guess = max(inst.max_size(), sum(inst.sizes[1:]) / inst.num_machines) * Frac(11, 10)
        sc = scale_instance(inst, guess, EPS)
        try:
            out.append((sc, solve_assignment_lp(sc)))
        except SeedInfeasible:
            pass
    return out


def long_chains(length=700):
    """A path of `length` jobs, each split over machines k and k + 1, and
    the same path closed into one cycle of 2 (length + 1) nodes."""
    path = {e: 1 for k in range(1, length + 1) for e in ((k, k), (k, k + 1))}
    cycle = {**path, (length + 1, length + 1): 1, (length + 1, 1): 1}
    return [FractionalAssignment(path, dict.fromkeys(range(1, length + 1), 2)),
            FractionalAssignment(cycle, dict.fromkeys(range(1, length + 2), 2))]


def test_adjacency_once_cancelling_matches_the_rebuilding_reference(monkeypatch):
    """The support graph built once per rounding cancels the same cycles in
    the same order, to the same flow, as the graph rebuilt for each cycle."""
    rng = random.Random(13)
    cases = [random_support(rng)[1] for _ in range(200)]
    cases += [fa for _, fa in max_flow_supports()] + long_chains()
    # the same flows with their entries in random order, so neither search
    # may rely on the order it reads them in
    cases += [FractionalAssignment(dict(rng.sample(list(fa.flow.items()), len(fa.flow))),
                                   fa.supply) for fa in cases[:100]]
    cycles = record_cycles(monkeypatch)
    total = 0
    for fa in cases:
        offset = max(j for j, _ in fa.flow)  # machine i is node offset + i
        flow, expected = dict(fa.flow), []
        count = reference_eliminate_support_cycles(flow, expected)
        cycles.clear()
        assert eliminate_support_cycles(fa) == count
        assert list(fa.flow.items()) == list(flow.items())
        assert [[("j", v) if v <= offset else ("m", v - offset) for v in nodes]
                for nodes in cycles] == expected
        total += count
    assert len(cases) >= 340 and total >= 900


def reference_round_forest(fa, scaled):
    """The tagged breadth-first rounding that `seed.round_forest` replaced,
    kept as its reference: a queue of ("m"/"j", node, parent) entries from
    each tree's lowest machine, with visited sets for machines and jobs,
    and every fractional job on its lowest machine other than its parent."""
    schedule = Schedule(scaled)
    support = {j: [] for j in fa.jobs}
    for (j, i) in fa.flow:
        support[j].append(i)
    fractional = set()
    for j in fa.jobs:
        placed = [i for i in support[j] if fa.flow[(j, i)] == fa.supply[j]]
        if placed:
            schedule.assign(j, placed[0])
        else:
            fractional.add(j)
    adj_j = {j: sorted(support[j]) for j in fractional}
    adj_m = {}
    for j, machines in adj_j.items():
        for i in machines:
            adj_m.setdefault(i, []).append(j)
    visited_m, visited_j = set(), set()
    for root in sorted(adj_m):
        if root in visited_m:
            continue
        queue = deque([("m", root, None)])
        while queue:
            kind, node, parent = queue.popleft()
            if kind == "m":
                if node in visited_m:
                    continue
                visited_m.add(node)
                for j in sorted(adj_m[node]):
                    if j != parent:
                        queue.append(("j", j, node))
            else:
                if node in visited_j:
                    continue
                visited_j.add(node)
                children = [i for i in adj_j[node] if i != parent]
                schedule.assign(node, children[0])
                for i in children:
                    queue.append(("m", i, node))
    return schedule


def test_forest_walk_rounds_like_the_tagged_breadth_first_reference():
    """After cycle cancelling, the walk from each tree's lowest machine
    assigns every job where the breadth-first reference does: on the random
    supports, the decided LP solutions and the long path and cycle."""
    rng = random.Random(17)
    cases = [random_support(rng) for _ in range(200)] + max_flow_supports()
    chain = scaled_of([(Frac(1, 2), {k, k % 701 + 1}) for k in range(1, 702)], 701)
    cases += [(chain, fa) for fa in long_chains()]
    fractional = 0
    for sc, fa in cases:
        eliminate_support_cycles(fa)
        expected = reference_round_forest(fa, sc)
        got = round_forest(fa, sc)
        assert got.assignment == expected.assignment
        assert got.on_machine == expected.on_machine
        fractional += sum(1 for j in fa.jobs if fa.flow.get((j, got.machine_of(j))) != fa.supply[j])
    assert fractional >= 1000


class TestRounding:
    def test_integral_input_identity(self):
        sc = scaled_of([(Frac(1, 2), {1, 2}), (Frac(1, 3), {2})], 2)
        fa = FractionalAssignment({(1, 2): 2, (2, 2): 3}, {1: 2, 2: 3})  # scale 6
        sched = round_forest(fa, sc)
        assert sched.machine_of(1) == 2 and sched.machine_of(2) == 2

    def test_half_half_split_lands_once_with_bound(self):
        # both machines carry integral load 1/2 plus the split job
        sc = scaled_of([(Frac(1, 2), {1}), (Frac(1, 2), {2}),
                        (Frac(1, 2), {1, 2})], 2)
        fa = FractionalAssignment({(1, 1): 2, (2, 2): 2, (3, 1): 1, (3, 2): 1},
                                  {1: 2, 2: 2, 3: 2})  # scale 4
        sched = round_forest(fa, sc)
        landing = sched.machine_of(3)
        assert landing in (1, 2)
        assert sched.load(landing) <= machine_load(fa, sc, landing) + sc.size[3] / 2
        assert sched.load(landing) <= 1 + sc.size[3]

    def test_three_job_star_gives_center_at_most_one(self):
        sizes = [Frac(1, 3), Frac(2, 5), Frac(1, 2)]
        sc = scaled_of([(sizes[0], {1, 2}), (sizes[1], {1, 3}), (sizes[2], {1, 4})], 4)
        fa = FractionalAssignment({  # every job half and half, at scale 60
            (1, 1): 10, (1, 2): 10,
            (2, 1): 12, (2, 3): 12,
            (3, 1): 15, (3, 4): 15,
        }, {1: 20, 2: 24, 3: 30})
        sched = round_forest(fa, sc)
        assert len(sched.on_machine[1]) <= 1
        assert all(sched.machine_of(j) is not None for j in (1, 2, 3))

    def test_deterministic_tie_break_lowest_child_machine(self):
        # rooted at the lowest machine (1); the job matches its lowest child
        sc = scaled_of([(Frac(1, 2), {1, 2, 3})], 3)
        fa = FractionalAssignment({(1, 1): 1, (1, 2): 1, (1, 3): 1}, {1: 3})  # thirds
        assert round_forest(fa, sc).machine_of(1) == 2


class TestSeedPipeline:
    def test_only_huge_jobs_yields_empty_schedule(self):
        sc = scaled_of([(Frac(9, 10), {1}), (Frac(19, 20), {1})], 1)
        sched = round_seed(solve_assignment_lp(sc), sc)
        assert assigned_jobs(sched) == []
        assert validate_partial_schedule(sched) == []

    def test_single_small_job_lands_in_gamma(self):
        sc = scaled_of([(Frac(1, 3), {2})], 3)
        sched = round_seed(solve_assignment_lp(sc), sc)
        assert sched.machine_of(1) == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_seed_bound_and_validity(self, seed):
        rng = random.Random(seed)
        inst = generate_instance(GenSpec(machines=rng.randint(2, 4),
                                         jobs=rng.randint(3, 9),
                                         preset=("uniform", "huge_heavy")[seed % 2],
                                         density=Frac(2, 3), seed=seed))
        guess = inst.max_size() * Frac(rng.randint(100, 160), 100)
        sc = scale_instance(inst, guess, EPS)
        try:
            sched = round_seed(solve_assignment_lp(sc), sc)
        except SeedInfeasible:
            assert not exact_config_lp_feasible(inst, guess)
            return
        p_max = max((sc.size[j] for j in sc.base.jobs if not sc.is_huge(j)),
                    default=ZERO)
        for i in sc.base.machines:
            assert sched.load(i) <= 1 + p_max <= Frac(11, 6)
        for j in sc.base.jobs:
            if sc.is_huge(j):
                assert sched.machine_of(j) is None
            else:
                assert sched.machine_of(j) in sc.base.gamma[j]
        assert validate_partial_schedule(sched) == []
