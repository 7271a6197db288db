"""Initial schedule of all small and medium jobs.

Decides the assignment LP at scaled threshold 1 as an exact max-flow on the
network source -> job (capacity P_j) -> permitted machine (capacity P_j) ->
sink (capacity U). With the guess T = a/b and the instance's integer image
p_j = q_j / L, U = L a and P_j = b q_j, so P_j / U is job j's scaled size:
the LP is feasible exactly when the flow saturates every job, and
x[j,i] = f[j,i] / P_j is then a solution. The network's arcs are laid once
per solve (`flow.AssignmentNetwork`) and each guess only resets their
capacities. Every flow here is a call of the network's Hall query
(`AssignmentNetwork.violator`): a failed flow yields a Hall violator J,
small/medium jobs with p(J) > T |Gamma(J)|. It is kept as a `HallViolator`:
its largest job id, sum_J q_j and |Gamma(J)|, none of which depend on the
guess.

By Hall's condition the LP over all jobs is feasible at T exactly when
T >= lambda* = max_J p(J)/|Gamma(J)| (Lenstra-Shmoys-Tardos). A solve finds
lambda* and a set J* of that density once (`max_density`, Dinkelbach
iteration on the parametric flow, Gallo-Grigoriadis-Tarjan, every flow
after the first over the previous violator's jobs alone) and decides
each guess from it by integer comparisons (`seed_small_medium`): T >=
lambda* is feasible, since a guess's small and medium jobs are some of all
jobs, and below it J* proves the guess infeasible unless one of its jobs is
huge there. Only the remaining guesses run their own flow. A guess decided
feasible without a flow runs it only when its schedule is read
(`decided_seed`). `hall_bound` raises lambda* to the Hall bound, the floor
of the config-LP bound's search, by flows with a unit supply per job:
their violators are job sets of which some machine must take several.

Only a schedule that is read gets rounded (`round_seed`): cycles of the
flow's support are cancelled on the integers until it is a forest, and the
forest is rounded so that every machine receives at most one extra
fractional job. The support graph is built once per rounding and loses an
edge when its flow reaches 0; each cycle is found by a fresh depth-first
search over it, so the cycles, and with them the rounding, are those of a
graph rebuilt for every cycle (one search forest for all cycles would find
others). The resulting plain load per machine is at most 1 + max small or
medium size <= 11/6 at scale: in q, `fit` plus the largest such q_j. No
decision here reads a rational: the x-values and scaled loads are not built.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .engine import EngineInvariantError
from .flow import AssignmentNetwork
from .rational import Frac, ratio_str
from .simplex import solve_equality_feasibility  # noqa: F401  (wrap point in perfbench/tracing.py)
from .model import Instance, Schedule, ScaledInstance, UNASSIGNED


class HallViolator(NamedTuple):
    """A Hall violator J, kept by what decides later guesses: its largest
    job id `top`, its volume sum_J q_j and its width |Gamma(J)|."""

    top: int
    volume: int
    width: int
    jobs: tuple

    @classmethod
    def of(cls, inst: Instance, jobs):
        jobs = tuple(jobs)
        q = inst.integer_image[1]
        return cls(max(jobs), sum(q[j] for j in jobs),
                   len(set().union(*(inst.gamma[j] for j in jobs))), jobs)

    def proves(self, scaled: ScaledInstance) -> bool:
        """Whether J proves this guess infeasible: no job of J is huge at
        this guess, and b sum_J q_j > L a |Gamma(J)|, i.e. p(J) > T |Gamma(J)|."""
        return (self.top < scaled.huge_start
                and scaled.guess.denominator * self.volume > scaled.unit * self.width)


class SeedInfeasible(Exception):
    """The assignment LP has no solution at this guess (so neither has the
    configuration LP): the guess is below the optimum.

    `violator` is a Hall violator: small/medium jobs J with p(J) > |union of
    their permitted sets| at scaled threshold 1.
    """

    def __init__(self, violator: HallViolator):
        super().__init__("assignment LP infeasible")
        self.violator = violator

    @property
    def jobs(self) -> tuple:
        return self.violator.jobs


@dataclass
class FractionalAssignment:
    flow: dict  # (job, machine) -> positive integer flow f
    supply: dict  # participating (small+medium) job -> its integer supply P_j

    @property
    def jobs(self):
        return list(self.supply)


def solve_assignment_lp(scaled: ScaledInstance,
                        network: AssignmentNetwork | None = None) -> FractionalAssignment:
    """A solution of the small/medium assignment LP, or its Hall violator.

    Constraints: sum_i x[j,i] = 1 per job, sum_j p_j x[j,i] <= 1 per machine.
    Solved as an exact max-flow on integer capacities: job j supplies
    P_j = b q_j and every machine absorbs U = L a (see the module docstring).
    `network` is the instance's arc template, laid here when not given; the
    flow is copied out of it, since the next guess resets it. Raises
    SeedInfeasible, carrying the Hall violator of the network's query
    (`AssignmentNetwork.violator`), when the flow cannot saturate every job.
    """
    sm_jobs = range(1, scaled.huge_start)
    if not sm_jobs:
        return FractionalAssignment({}, {})
    if network is None:
        network = AssignmentNetwork(scaled.base)
    b, q, end = scaled.guess.denominator, scaled.base.integer_image[1], scaled.huge_start
    supply = [b * x for x in q[:end]] + [0] * (len(q) - end)
    if jobs := network.violator(supply, scaled.unit):
        raise SeedInfeasible(HallViolator.of(scaled.base, jobs))
    return FractionalAssignment(network.job_flow(supply), {j: supply[j] for j in sm_jobs})


def _support_cycle(adj, order):
    """Return one cycle of the support graph `adj` (node -> neighbours in
    increasing order) as an alternating node list, or None when it is a
    forest.

    Depth-first search from each unvisited node of `order`, neighbours in
    order; iterative, so long supports cannot exhaust the stack."""
    visited = set()
    for start in order:
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
    The support graph is built once; an edge leaves it when its flow reaches
    0, and each cycle is found by a fresh search over what is left. Returns
    the number of cancelled cycles.
    """
    flow = fa.flow
    # job j is node j and machine i node offset + i, after every job, so
    # node order is jobs by id, then machines by id
    offset = max((j for j, _ in flow), default=0)
    adj = {}
    for j, i in flow:
        adj.setdefault(j, []).append(offset + i)
        adj.setdefault(offset + i, []).append(j)
    for neighbours in adj.values():
        neighbours.sort()
    order = sorted(adj)
    cancelled = 0
    while True:
        nodes = _support_cycle(adj, order)
        if nodes is None:
            return cancelled
        cancelled += 1
        if nodes[0] > offset:
            nodes = nodes[1:] + nodes[:1]
        jobs_seq = nodes[0::2]
        machines_seq = [v - offset for v in nodes[1::2]]
        q = len(jobs_seq)
        rising = [(jobs_seq[k], machines_seq[k]) for k in range(q)]
        falling = [(jobs_seq[k], machines_seq[k - 1]) for k in range(q)]

        before = _inflow(flow, machines_seq)
        delta = min(flow[e] for e in falling)
        assert delta > 0
        for e in rising:
            flow[e] += delta
        for j, i in falling:
            flow[j, i] -= delta
            assert flow[j, i] >= 0
            if flow[j, i] == 0:
                del flow[j, i]
                adj[j].remove(offset + i)
                adj[offset + i].remove(j)
        assert _inflow(flow, machines_seq) == before  # preserved by construction


def round_forest(fa: FractionalAssignment, scaled: ScaledInstance) -> Schedule:
    """Round a forest-supported assignment: integral jobs stay, each tree is
    rooted at its lowest machine, and every remaining fractional job goes to
    its lowest-id child machine, so machines gain at most one extra job.

    A fractional job has two or more support machines, so it always has a
    child; in a tree, a job's parent is the machine it is first reached
    from, whatever the order of the walk."""
    schedule = Schedule(scaled)
    support = {j: [] for j in fa.jobs}
    for j, i in sorted(fa.flow):
        support[j].append(i)
    jobs_on = {}  # machine -> its fractional jobs
    for j, machines in support.items():
        if len(machines) == 1:
            schedule.assign(j, machines[0])
        else:
            for i in machines:
                jobs_on.setdefault(i, []).append(j)
    reached = set()
    for root in sorted(jobs_on):
        if root in reached:
            continue
        reached.add(root)
        stack = [root]
        while stack:
            parent = stack.pop()
            for j in jobs_on[parent]:
                if schedule.machine_of(j) is UNASSIGNED:
                    children = [i for i in support[j] if i != parent]
                    schedule.assign(j, children[0])
                    reached.update(children)
                    stack.extend(children)
    return schedule


def max_density(inst: Instance, network: AssignmentNetwork) -> HallViolator:
    """A densest job set J*: p(J*)/|Gamma(J*)| = lambda* = max_J p(J)/|Gamma(J)|.

    Dinkelbach iteration on the parametric flow: at T = a/b, the density of
    the current set, every job of that set supplies b q_j on `network` and
    every machine absorbs L a. A failed flow's Hall violator J'
    (`AssignmentNetwork.violator`) has p(J') > T |Gamma(J')|: T moves to its
    density and the flow runs again on the jobs of J' alone. The first flow
    that saturates shows T >= lambda*, and T is the density of a set, so
    T = lambda*. Starts at the whole job set, the set returned when the
    first flow saturates.

    Supplying the previous violator alone changes no violator. The flow's
    violator is the job side of its minimal minimum cut: the least
    maximizer A_T of f_T(J) = p(J) - T |Gamma(J)| over the supplied job
    sets, which lies inside every maximizer and is empty exactly when the
    flow saturates. f_T is supermodular, since |Gamma| is submodular. Let
    A = A_T and A' = A_T' over all jobs, for T' > T. Then f_T'(A u A') <=
    f_T(A) - (T' - T) |Gamma(A)| = f_T'(A), as A maximizes f_T and
    |Gamma(A u A')| >= |Gamma(A)|, so supermodularity gives f_T'(A n A')
    >= f_T'(A'): A n A' maximizes f_T' too, and A', the least maximizer,
    lies inside it, so inside A. By induction over the flows, each
    violator, and J* the last, lies inside the one before, so the least
    maximizer over all job sets is a subset of the supplied ones and is
    also the least among them: the restricted flow finds the same set.
    """
    scale, q = inst.integer_image
    jobs = inst.jobs
    while True:
        densest = HallViolator.of(inst, jobs)
        guess = Frac(densest.volume, scale * densest.width)
        b = guess.denominator
        supply = [0] * len(q)
        for j in jobs:
            supply[j] = b * q[j]
        jobs = network.violator(supply, scale * guess.numerator)
        if not jobs:
            return densest


def hall_bound(inst: Instance, network: AssignmentNetwork, densest: HallViolator) -> Frac:
    """A lower bound H on the configuration-LP optimum, and so on the
    optimum: the largest bound(J) = max(p(J)/|Gamma(J)|, sum of the
    c = ceil(|J|/|Gamma(J)|) smallest sizes in J) that the search finds.

    Some configuration of positive weight holds c jobs of J, which is the
    cardinality half. The search starts at lambda*, the density of J* (the
    volume half at its largest), and for k = 1, 2, ... takes the jobs of
    size s with (k+1) s > best, a suffix of the ids. Each of them supplies 1
    on `network` and every machine absorbs k. A failed flow's Hall violator
    J (`AssignmentNetwork.violator`) has |J| > k |Gamma(J)|, so c >= k + 1,
    and each of its jobs has (k+1) s > best, so its c smallest sizes sum to
    more than best: best always rises to that sum, and the flow runs again
    at the same k. No flow runs when the jobs number at most k times the
    least |Gamma(j)| among them, since then none of their subsets can
    outnumber k times its machines.

    Two rules end the search, since no stage from k on has a violator:

    - (a) best k >= lambda* (k + 1). A stage-k violator J has c >= k + 1
      and |J| > (c - 1) |Gamma(J)|. Its c smallest sizes average at most
      its mean size p(J)/|J|, and p(J) <= lambda* |Gamma(J)|, so they sum
      to less than lambda* c/(c - 1) <= lambda* (k + 1)/k <= best, while a
      violator's sum exceeds best, and lambda* (k + 1)/k only falls as k
      grows.
    - (b) k >= the most jobs permitted on one machine. Every job of J has a
      machine in Gamma(J), so |J| <= sum over i in Gamma(J) of
      |J & permitted_on(i)|, and |J| > k |Gamma(J)| needs a machine on which
      more than k jobs are permitted.
    """
    scale, q = inst.integer_image
    n = inst.num_jobs
    least_width = [0] * (n + 2)  # least |Gamma(j)| over the ids from j on
    least_width[n + 1] = inst.num_machines
    for j in reversed(inst.jobs):
        least_width[j] = min(len(inst.gamma[j]), least_width[j + 1])
    most_permitted = max(len(inst.permitted_on[i]) for i in inst.machines)
    density = best = Frac(densest.volume, scale * densest.width)
    k = 1
    while k < most_permitted and best * k < density * (k + 1):
        # (k+1) s > best = a/b for s = q_j/L: q_j > L a / ((k+1) b)
        start = bisect_right(q, scale * best.numerator // ((k + 1) * best.denominator), 1)
        count = n + 1 - start
        if count <= k * least_width[start]:
            k += 1
            continue
        jobs = network.violator([0] * start + [1] * count, k)  # by size
        if not jobs:
            k += 1
            continue
        c = -(-len(jobs) // HallViolator.of(inst, jobs).width)
        best = Frac(sum(q[j] for j in jobs[:c]), scale)
    return best


def seed_small_medium(scaled: ScaledInstance, network: AssignmentNetwork,
                      densest: HallViolator) -> FractionalAssignment | None:
    """Decide whether the small and medium jobs fit the guess, and return
    the decided LP solution; `decided_seed` turns it into a schedule.

    `densest` is the solve's `max_density` set J*, whose density is
    lambda*. A guess T >= lambda* is feasible, since its small and medium
    jobs are some of all jobs: that returns None without a flow.

    Raises SeedInfeasible when the assignment LP (a relaxation of the
    configuration LP) has no solution, i.e. the guess is too small: with J*
    when it proves the guess, without a flow, and otherwise with the Hall
    violator of the flow on `network` when that flow fails.
    """
    if scaled.guess.denominator * densest.volume <= scaled.unit * densest.width:
        return None
    if densest.proves(scaled):
        raise SeedInfeasible(densest)
    return solve_assignment_lp(scaled, network)


def round_seed(fa: FractionalAssignment, scaled: ScaledInstance) -> Schedule:
    """Assign every small and medium job of a decided LP solution, with
    plain load <= 1 + max small/medium size on every machine. Cancels the
    support cycles of `fa` in place, then rounds the forest."""
    eliminate_support_cycles(fa)
    schedule = round_forest(fa, scaled)
    sm = range(1, scaled.huge_start)
    assert all(schedule.machine_of(j) is not None for j in sm)
    q = scaled.base.integer_image[1]
    bound = scaled.fit + max(q[1:scaled.huge_start], default=0)
    for i in scaled.base.machines:
        assert schedule.int_load(i) <= bound, "seed rounding bound violated"
    return schedule


def decided_seed(fa: FractionalAssignment | None, scaled: ScaledInstance,
                 network: AssignmentNetwork) -> Schedule:
    """The rounded seed of a guess `seed_small_medium` decided feasible: of
    `fa`, or, when the densest set decided it without a flow (`fa` None),
    of the flow on `network` that the guess left out, since every flow
    resets the network's capacities. Raises EngineInvariantError when that
    flow does not saturate."""
    if fa is None:
        try:
            fa = solve_assignment_lp(scaled, network)
        except SeedInfeasible:
            raise EngineInvariantError(
                f"the densest set decided the infeasible guess {ratio_str(scaled.guess)}"
            ) from None
    return round_seed(fa, scaled)
