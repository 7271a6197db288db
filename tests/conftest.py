import contextlib
import enum
import functools
import importlib.util
import random
import signal
import sys
from collections import deque
from pathlib import Path

import pytest

from rasched import seed
from rasched.seed import HallViolator, SeedInfeasible, round_seed, solve_assignment_lp
from rasched.engine import BlockerType, InsertionEngine
from rasched.generator import GenSpec, generate_instance
from rasched.certificate import DualCertificate, _active_on, best_configuration
from rasched.rational import Frac, ZERO, integer_image, ratio_str
from rasched.model import UNASSIGNED, Schedule, make_instance, parse_instance, scale_instance

EPS = Frac(1, 24)  # load cap 1 + R = 23/12 throughout the fixed-epsilon tests
CAP = Frac(23, 12)


def scaled_of(jobs, machines, *, guess=1, eps=EPS):
    """Build a ScaledInstance from (size, permitted) pairs in original order."""
    inst = make_instance(machines, [(Frac(s) if not hasattr(s, "numerator") else s, set(g))
                                    for s, g in jobs])
    return scale_instance(inst, guess, eps)


def insert_huge_job(schedule, j_new, **flags):
    """Run one insertion; returns its result and its engine."""
    engine = InsertionEngine(schedule, j_new, **flags)
    return engine.run(), engine


def schedule_of(scaled, assignment):
    sched = Schedule(scaled)
    for j, i in assignment.items():
        sched.assign(j, i)
    return sched


class JobClass(enum.Enum):
    SMALL = "small"
    MEDIUM = "medium"
    HUGE = "huge"


def classify_job(p) -> JobClass:
    """Small: p <= 1/2; medium: 1/2 < p <= 5/6; huge: p > 5/6 (scaled
    sizes). The reference for `ScaledInstance.is_small` and `is_huge`."""
    if p <= Frac(1, 2):
        return JobClass.SMALL
    if p <= Frac(5, 6):
        return JobClass.MEDIUM
    return JobClass.HUGE


def small_jobs(scaled):
    return list(range(1, scaled.small_end))


def load_from_scratch(schedule, i):
    """Machine i's load by summation, the reference for `Schedule.load`."""
    sc = schedule.scaled
    b, q = sc.guess.denominator, sc.base.integer_image[1]
    return Frac(sum(b * q[j] for j in schedule.on_machine[i]), sc.unit)


def assigned_jobs(schedule):
    return [j for j in schedule.scaled.base.jobs
            if schedule.machine_of(j) is not UNASSIGNED]


def entries_of(fa):
    """(job, machine) -> x-value f / P_j in (0, 1] of a seed LP solution,
    built anew on every call."""
    return {(j, i): Frac(f, fa.supply[j]) for (j, i), f in fa.flow.items()}


def job_sum(fa, j):
    return sum((v for (jj, _), v in entries_of(fa).items() if jj == j), Frac(0))


def machine_load(fa, scaled, i):
    return sum((scaled.size[j] * v for (j, ii), v in entries_of(fa).items() if ii == i),
               Frac(0))


def still_violates(scaled, jobs) -> bool:
    """Whether the Hall violator `jobs` proves this guess infeasible: every
    job of it is small or medium here, and b sum_J q_j > L a |Gamma(J)|,
    i.e. p(J) > T |Gamma(J)|. The reference that `HallViolator.proves`
    decides without the sums."""
    if any(scaled.is_huge(j) for j in jobs):
        return False
    gamma = scaled.base.gamma
    machines = set().union(*(gamma[j] for j in jobs))
    b, q = scaled.guess.denominator, scaled.base.integer_image[1]
    return sum(b * q[j] for j in jobs) > scaled.unit * len(machines)


def reference_dual_certificate(stuck, scaled):
    """The rational construction that `certificate.build_dual_certificate`
    replaced, kept as its reference: z_j = delta^k size_down(j) and
    y_i = delta^K + w_i, summed one rational at a time, at the guess of
    `scaled`."""
    engine = stuck
    delta = 1 - scaled.epsilon
    K = engine.K
    layers = engine.value_layers()
    z = {j: ZERO for j in scaled.base.jobs}
    for j, k in layers.items():
        z[j] = delta ** k * scaled.size_down(j)
    bs_layer, s_layer = {}, {}
    for b in engine.tree.blockers():
        if b.btype is BlockerType.BS:
            bs_layer[b.machine] = b.layer
        elif b.btype is BlockerType.S:
            s_layer[b.machine] = b.layer
    y = {}
    active_on = _active_on(engine, layers)
    for i in scaled.base.machines:
        w = sum((z[j] for j in active_on[i]), ZERO)
        if i in bs_layer:
            w += delta ** bs_layer[i] * Frac(1, 6)
        elif i in s_layer:
            w -= delta ** s_layer[i] * Frac(1, 6)
        y[i] = delta ** K + w
    return DualCertificate(guess=scaled.guess, epsilon=scaled.epsilon, delta=delta, K=K,
                           num_machines=scaled.base.num_machines, z=z, y=y)


def reference_verify(cert, scaled):
    """The rational checks that `certificate.verify_certificate` replaced,
    kept as its reference: rational sums of z and y, and each machine's
    knapsack on an integer image of z alone, its best value compared with
    y_i as a rational. Appends the transcript; returns (ok, witnesses)."""
    zs, ys = sum(cert.z.values(), ZERO), sum(cert.y.values(), ZERO)
    ok = zs > ys
    cert.transcript.append(f"objective z_total={ratio_str(zs)} y_total={ratio_str(ys)} "
                           f"{'PASS' if ok else 'FAIL'}")
    z_scale, ints = integer_image(cert.z.values())
    z_int = dict(zip(cert.z, ints))
    permitted_on, q = scaled.base.permitted_on, scaled.base.integer_image[1]
    witnesses = []
    for i in scaled.base.machines:
        best, config = best_configuration(permitted_on[i], q, z_int, scaled.fit)
        value = Frac(best, z_scale)
        passed = value <= cert.y[i]
        cert.transcript.append(f"machine {i} max-config z={ratio_str(value)} "
                               f"y={ratio_str(cert.y[i])} {'PASS' if passed else 'FAIL'}")
        if not passed:
            ok = False
            witnesses.append((i, config, value, cert.y[i]))
    return ok, witnesses


@pytest.fixture
def rng():
    return random.Random(20240811)


@contextlib.contextmanager
def deadline(seconds):
    """Fail, rather than hang, when the body runs longer than `seconds`."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def two_value_instance(rng, machines):
    """About 0.85*m unit jobs and as many of size 1/5, each on two machines:
    the two-value regime."""
    count = round(0.85 * machines)
    sizes = [Frac(1)] * count + [Frac(1, 5)] * count
    rng.shuffle(sizes)
    return make_instance(machines, [(p, set(rng.sample(range(1, machines + 1), 2)))
                                    for p in sizes])


@functools.lru_cache(maxsize=None)
def _benchmark_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def benchmark_pool(workload, seed, count=None):
    """The first `count` (default: all) instances of a benchmark workload's
    pool for `seed`, parsed from their text as the benchmark parses them."""
    workloads = _benchmark_workloads()
    return [parse_instance(g.text)
            for g in workloads.generate(workloads.WORKLOADS[workload], seed, count)]


def aggressive_stuck_states(seeds):
    """Audited insertions on seeded schedules at guesses just above the
    largest size (the acceptance campaign's construction); the first stuck
    state of each seed that gets stuck."""
    for seed in seeds:
        rng = random.Random(900_000 + seed)
        m = 2 + seed % 3
        inst = generate_instance(GenSpec(
            machines=m, jobs=m + 2 + seed % 6,
            preset=("uniform", "huge_heavy", "collision")[seed % 3],
            density=(Frac(1, 3), Frac(2, 3))[seed % 2], seed=seed))
        sc = scale_instance(inst, inst.max_size() * Frac(rng.randint(100, 125), 100), EPS)
        try:
            schedule = round_seed(solve_assignment_lp(sc), sc)
        except SeedInfeasible:
            continue
        for j in sorted(sc.huge_jobs(), reverse=True):
            result = InsertionEngine(schedule, j, audit=True).run()
            if isinstance(result, InsertionEngine):
                yield result
                break


def lp_bound_instance(rng, machines, jobs, huge):
    """The benchmark's lp_bound shape: `huge` sizes in 51/60..1 and the rest
    in 1/60..50/60, each job permitted on exactly three machines."""
    nums = [rng.randint(51, 60) for _ in range(huge)]
    nums += [rng.randint(1, 50) for _ in range(jobs - huge)]
    rng.shuffle(nums)
    return make_instance(machines, [(Frac(x, 60), set(rng.sample(range(1, machines + 1), 3)))
                                    for x in nums])


def reference_support_cycle(entries):
    """One cycle of the bipartite support graph of `entries` (keyed by
    (job, machine)) as an alternating node list [("j", job), ("m", machine),
    ...], or None when it is a forest: the graph is built anew from the keys
    on every call. Depth-first search from each unvisited node in sorted
    order, neighbours in sorted order; iterative."""
    adj = {}
    for (j, i) in entries:
        adj.setdefault(("j", j), []).append(("m", i))
        adj.setdefault(("m", i), []).append(("j", j))
    for node in adj:
        adj[node].sort()
    visited = set()
    for start in sorted(adj):
        if start in visited:
            continue
        visited.add(start)
        path, depth = [start], {start: 0}
        stack = [(None, iter(adj[start]))]
        while stack:
            parent, neighbours = stack[-1]
            for nxt in neighbours:
                if nxt == parent:
                    continue
                if nxt in depth:
                    return path[depth[nxt]:]
                if nxt not in visited:
                    visited.add(nxt)
                    depth[nxt] = len(path)
                    stack.append((path[-1], iter(adj[nxt])))
                    path.append(nxt)
                    break
            else:
                stack.pop()
                del depth[path.pop()]
    return None


def reference_eliminate_support_cycles(flow, cycles):
    """The integer cycle cancelling with the support graph rebuilt for every
    cycle (`reference_support_cycle`), kept as the reference for
    `seed.eliminate_support_cycles`: cancels in place on the (job, machine)
    -> flow dict, appends each cycle's node list to `cycles` and returns
    their number."""
    while (nodes := reference_support_cycle(flow)) is not None:
        cycles.append(nodes)
        if nodes[0][0] == "m":
            nodes = nodes[1:] + nodes[:1]
        jobs_seq = [v for _, v in nodes[0::2]]
        machines_seq = [v for _, v in nodes[1::2]]
        rising = list(zip(jobs_seq, machines_seq))
        falling = [(j, machines_seq[k - 1]) for k, j in enumerate(jobs_seq)]
        delta = min(flow[e] for e in falling)
        for e in rising:
            flow[e] += delta
        for e in falling:
            flow[e] -= delta
            if flow[e] == 0:
                del flow[e]
    return len(cycles)


def record_cycles(monkeypatch):
    """Record every cycle `seed.eliminate_support_cycles` cancels, as the
    node list its search returns."""
    cycles = []
    find = seed._support_cycle

    def recording(adj, order):
        nodes = find(adj, order)
        if nodes is not None:
            cycles.append(nodes)
        return nodes

    monkeypatch.setattr(seed, "_support_cycle", recording)
    return cycles


class ReferenceNetwork:
    """The reference for `flow.AssignmentNetwork`: a generic residual graph
    with integer capacities, laid one arc at a time (arc e and its reverse
    e ^ 1), and Dinic's algorithm from the first phase on."""

    def __init__(self, nodes):
        self.out = [[] for _ in range(nodes)]  # arc ids leaving each node
        self.head = []
        self.cap = []

    def arc(self, u, v, cap):
        self.out[u].append(len(self.head))
        self.head.append(v)
        self.cap.append(cap)
        self.out[v].append(len(self.head))
        self.head.append(u)
        self.cap.append(0)

    def levels(self, source):
        """BFS distance from the source over arcs with residual capacity;
        -1 marks nodes the source cannot reach."""
        out, head, cap = self.out, self.head, self.cap
        level = [-1] * len(out)
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            nxt = level[u] + 1
            for e in out[u]:
                v = head[e]
                if level[v] < 0 and cap[e] > 0:
                    level[v] = nxt
                    queue.append(v)
        return level

    def push_path(self, source, sink, level, cursor):
        """Augment along one source-sink path of the level graph and return
        the amount pushed, 0 once the phase's flow is blocking. Iterative
        depth-first search; cursor[u] skips arcs already found useless."""
        head, cap, out = self.head, self.cap, self.out
        path = []
        u = source
        while u != sink:
            arcs, k, want = out[u], cursor[u], level[u] + 1
            end = len(arcs)
            while k < end:
                e = arcs[k]
                if cap[e] > 0 and level[head[e]] == want:
                    break
                k += 1
            else:
                cursor[u] = k
                if not path:
                    return 0
                u = head[path.pop() ^ 1]  # dead end: back up, skip that arc
                cursor[u] += 1
                continue
            cursor[u] = k
            path.append(e)
            u = head[e]
        delta = min(cap[e] for e in path)
        for e in path:
            cap[e] -= delta
            cap[e ^ 1] += delta
        return delta

    def max_flow(self, source, sink):
        """Dinic's algorithm; returns the flow value and the final levels."""
        total = 0
        while True:
            level = self.levels(source)
            if level[sink] < 0:
                return total, level
            cursor = [0] * len(self.out)
            while pushed := self.push_path(source, sink, level, cursor):
                total += pushed


def reference_max_density(inst, network):
    """The Dinkelbach loop that `seed.max_density` replaced, kept verbatim as
    its reference: every flow supplies every job, not only the previous
    violator's."""
    scale, q = inst.integer_image
    jobs = inst.jobs
    while True:
        densest = HallViolator.of(inst, jobs)
        guess = Frac(densest.volume, scale * densest.width)
        supply = [guess.denominator * x for x in q]
        jobs = network.violator(supply, scale * guess.numerator)
        if not jobs:
            return densest
