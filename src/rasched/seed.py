"""Initial schedule of all small and medium jobs.

Decides the assignment LP at scaled threshold 1 as an exact max-flow on the
network source -> job (capacity P_j) -> permitted machine (capacity P_j) ->
sink (capacity L), where L is the common denominator of the sizes and
P_j = L p_j: the LP is feasible exactly when the flow saturates every job,
and x[j,i] = f[j,i] / P_j is then a solution. The flow stays integral from
there on: cycles of its support are cancelled on the integers until it is a
forest, and the forest is rounded so that every machine receives at most one
extra fractional job. The x-values are only derived when read. The resulting
plain load per machine is at most 1 + max small/medium size <= 11/6.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .rational import Frac, ZERO, integer_image
from .simplex import SimplexError
from .simplex import solve_equality_feasibility  # noqa: F401  (wrap point in perfbench/tracing.py)
from .model import Schedule, ScaledInstance


class SeedInfeasible(Exception):
    """The assignment LP has no solution at this guess (so neither has the
    configuration LP): the guess is below the optimum.

    `jobs` is a Hall violator when the flow found one: small/medium jobs J
    with p(J) > |union of their permitted sets| at scaled threshold 1.
    """

    def __init__(self, jobs=()):
        super().__init__("assignment LP infeasible")
        self.jobs = tuple(jobs)


@dataclass
class FractionalAssignment:
    flow: dict  # (job, machine) -> positive integer flow f
    supply: dict  # participating (small+medium) job -> its integer supply P_j

    @property
    def jobs(self):
        return list(self.supply)

    @property
    def entries(self):
        """(job, machine) -> x-value f / P_j in (0, 1]."""
        return {(j, i): Frac(f, self.supply[j]) for (j, i), f in self.flow.items()}

    def job_sum(self, j):
        return sum((v for (jj, _), v in self.entries.items() if jj == j), ZERO)

    def machine_load(self, scaled, i):
        return sum(
            (scaled.size[j] * v for (j, ii), v in self.entries.items() if ii == i),
            ZERO,
        )


class _Network:
    """Residual graph with integer capacities; arc e and its reverse e ^ 1."""

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
        level = [-1] * len(self.out)
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for e in self.out[u]:
                v = self.head[e]
                if level[v] < 0 and self.cap[e] > 0:
                    level[v] = level[u] + 1
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
            arcs = out[u]
            while cursor[u] < len(arcs):
                e = arcs[cursor[u]]
                if cap[e] > 0 and level[head[e]] == level[u] + 1:
                    break
                cursor[u] += 1
            else:
                if not path:
                    return 0
                u = head[path.pop() ^ 1]  # dead end: back up, skip that arc
                cursor[u] += 1
                continue
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


def solve_assignment_lp(scaled: ScaledInstance) -> FractionalAssignment:
    """Forest-supported solution of the small/medium assignment LP.

    Constraints: sum_i x[j,i] = 1 per job, sum_j p_j x[j,i] <= 1 per machine.
    Solved as an exact max-flow with every capacity scaled by the common
    denominator L of the sizes, so that the flow is integral: job j supplies
    P_j = L p_j and every machine absorbs L. The support then goes through
    `eliminate_support_cycles`, so it has at most jobs + machines entries.
    Raises SeedInfeasible, carrying the Hall violator read off the residual
    graph, when the flow cannot saturate every job.
    """
    sm_jobs = [j for j in scaled.base.jobs if not scaled.is_huge(j)]
    if not sm_jobs:
        return FractionalAssignment({}, {})
    n, m = len(sm_jobs), scaled.base.num_machines
    scale, supply = integer_image(scaled.size[j] for j in sm_jobs)
    source, sink = 0, n + m + 1  # jobs are nodes 1..n, machine i is node n + i
    net = _Network(n + m + 2)
    for k in range(n):
        net.arc(source, k + 1, supply[k])
    job_arcs = []
    for k, j in enumerate(sm_jobs):
        for i in sorted(scaled.base.gamma[j]):
            job_arcs.append((k, i, len(net.head)))
            net.arc(k + 1, n + i, supply[k])
    for i in scaled.base.machines:
        net.arc(n + i, sink, scale)

    value, level = net.max_flow(source, sink)
    if value < sum(supply):
        # The reachable machines are full, or the flow would augment, and only
        # reachable jobs load them, or a reverse arc would reach the job. A
        # reachable job reaches all its permitted machines: an arc it
        # saturates carries its whole supply, so its source arc is saturated
        # too and the job was reached back through that machine. Some
        # reachable job is short of its supply, so these jobs J outweigh the
        # full union of their permitted sets: p(J) > |Gamma(J)|.
        raise SeedInfeasible(j for k, j in enumerate(sm_jobs) if level[k + 1] >= 0)
    flow = {}
    for k, i, e in job_arcs:
        if f := supply[k] - net.cap[e]:
            flow[(sm_jobs[k], i)] = f
    fa = FractionalAssignment(flow, dict(zip(sm_jobs, supply)))
    eliminate_support_cycles(fa)
    return fa


def _support_cycle(entries):
    """Return one cycle of the bipartite support graph as an alternating node
    list [("j", job), ("m", machine), ...], or None when it is a forest.

    Depth-first search from each unvisited node in sorted order, neighbours
    in sorted order; iterative, so long supports cannot exhaust the stack."""
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
        path, depth = [start], {start: 0}  # current DFS path and node positions
        stack = [(None, iter(adj[start]))]  # (parent, remaining neighbours)
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


def _inflow(flow, machines):
    """Total flow into each of the given machines."""
    total = dict.fromkeys(machines, 0)
    for (_, i), f in flow.items():
        if i in total:
            total[i] += f
    return total


def eliminate_support_cycles(fa: FractionalAssignment) -> int:
    """Cancel support cycles with load-preserving alternating adjustments.

    Around the even cycle j_0, m_0, j_1, m_1, ..., job j_k's flow to m_k
    rises by delta and its flow to m_(k-1) falls by delta, which keeps every
    job's supply and every machine's inflow exactly unchanged. delta is the
    least flow on a falling arc, so every pass removes at least one entry.
    Max-flow supports generally contain cycles, and rounding needs a forest.
    Returns the number of cancelled cycles.
    """
    flow = fa.flow
    cancelled = 0
    while True:
        nodes = _support_cycle(flow)
        if nodes is None:
            return cancelled
        cancelled += 1
        if nodes[0][0] == "m":
            nodes = nodes[1:] + nodes[:1]
        q = len(nodes) // 2
        jobs_seq = [nodes[2 * k][1] for k in range(q)]
        machines_seq = [nodes[2 * k + 1][1] for k in range(q)]
        rising = [(jobs_seq[k], machines_seq[k]) for k in range(q)]
        falling = [(jobs_seq[k], machines_seq[k - 1]) for k in range(q)]

        before = _inflow(flow, machines_seq)
        delta = min(flow[e] for e in falling)
        assert delta > 0
        for e in rising:
            flow[e] += delta
        for e in falling:
            flow[e] -= delta
            assert flow[e] >= 0
            if flow[e] == 0:
                del flow[e]
        assert _inflow(flow, machines_seq) == before  # preserved by construction


def round_forest(fa: FractionalAssignment, scaled: ScaledInstance) -> Schedule:
    """Round a forest-supported assignment: integral jobs stay, each tree is
    rooted at its lowest machine, and every remaining fractional job goes to
    its lowest-id child machine, so machines gain at most one extra job."""
    schedule = Schedule(scaled)
    support = {j: [] for j in fa.jobs}
    for (j, i) in fa.flow:
        support[j].append(i)
    fractional = set()
    for j in fa.jobs:
        placed = [i for i in support[j] if fa.flow[(j, i)] == fa.supply[j]]
        if placed:
            schedule.assign(j, placed[0])
        elif not support[j]:
            raise SimplexError(f"job {j} lost all assignment mass")
        else:
            fractional.add(j)

    if not fractional:
        return schedule

    adj_j = {j: sorted(support[j]) for j in fractional}
    adj_m = {}
    for j, machines in adj_j.items():
        for i in machines:
            adj_m.setdefault(i, []).append(j)

    visited_m, visited_j = set(), set()
    for root in sorted(adj_m):
        if root in visited_m:
            continue
        queue = deque([("m", root, None)])  # oriented away from the machine root
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
                # A fractional job has two or more support machines, so in a
                # forest it always has a child; the parent is a fallback only.
                if not children:
                    children = [parent]
                schedule.assign(node, children[0])
                for i in children:
                    queue.append(("m", i, node))
    return schedule


def seed_small_medium(scaled: ScaledInstance) -> Schedule:
    """Assign every small and medium job with plain load <= 1 + max sm size.

    Raises SeedInfeasible when the assignment LP (a relaxation of the
    configuration LP) has no solution, i.e. the guess is too small.
    """
    fa = solve_assignment_lp(scaled)
    schedule = round_forest(fa, scaled)
    sm = [j for j in scaled.base.jobs if not scaled.is_huge(j)]
    assert all(schedule.machine_of(j) is not None for j in sm)
    bound = 1 + max((scaled.size[j] for j in sm), default=ZERO)
    for i in scaled.base.machines:
        assert schedule.load(i) <= bound, "seed rounding bound violated"
    return schedule
