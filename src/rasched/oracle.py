"""Brute-force ground truth for small instances.

Everything here is exact; there are no tolerance parameters. The size caps
are hard errors, not silent truncations, because a degraded oracle is worse
than none. The knapsack is also the config-LP's pricing and verification
kernel; it takes integer data only, which its callers build from integer
sizes and integer duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .rational import ZERO, frac
from .simplex import solve_equality_feasibility
from .model import Instance

MAKESPAN_JOB_CAP = 12
CONFIG_LP_JOB_CAP = 15
KNAPSACK_ITEM_CAP = 30


class CapExceededError(Exception):
    """The input is valid but larger than an exact routine's documented cap."""


@dataclass(frozen=True)
class KnapsackQuery:
    items: tuple  # (weight, value) pairs of ints, weights positive, values nonnegative
    capacity: int

    def __post_init__(self):
        if type(self.capacity) is not int:
            raise TypeError("knapsack capacity must be an int")
        for w, v in self.items:
            if type(w) is not int or type(v) is not int:
                raise TypeError("knapsack weights and values must be ints")
            if w <= 0:
                raise ValueError("weights must be positive")
            if v < 0:
                raise ValueError("values must be nonnegative")


def knapsack_max_value(query: KnapsackQuery):
    """Exact maximum-value subset under the weight cap, with an argmax set.

    Branch and bound in value-density order with the fractional relaxation as
    the upper bound, all on the query's integers. Deterministic: the first
    optimum found in take-before-skip order is kept. Returns the best value
    and its items as sorted original indices. Scaling the weights and the
    capacity by one positive factor, or the values by another, leaves every
    comparison, and so the search and its answer, as it is; a caller with
    rational data passes such an integer image and reads the value back over
    its value scale.
    """
    if len(query.items) > KNAPSACK_ITEM_CAP:
        raise CapExceededError(f"knapsack limited to {KNAPSACK_ITEM_CAP} items")
    cap = query.capacity
    usable = [(w, v, idx) for idx, (w, v) in enumerate(query.items)
              if w <= cap and v > 0]
    # value density v/w descending, then index, compared exactly
    usable.sort(key=cmp_to_key(lambda a, b: b[1] * a[0] - a[1] * b[0] or a[2] - b[2]))
    n = len(usable)

    suffix_value = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix_value[k] = suffix_value[k + 1] + usable[k][1]

    best_value = 0
    best_set: tuple = ()
    chosen = []

    def below_best(k, room, value):
        """Whether value plus the fractional bound from item k on is <= best."""
        total = value - best_value
        while k < n and room > 0:
            w, v, _ = usable[k]
            if w <= room:
                total += v
                room -= w
            else:
                return total * w + v * room <= 0
            k += 1
        return total <= 0

    def descend(k, room, value):
        nonlocal best_value, best_set
        if value > best_value:
            best_value = value
            best_set = tuple(sorted(idx for _, _, idx in chosen))
        if k == n or value + suffix_value[k] <= best_value:
            return
        if below_best(k, room, value):
            return
        w, v, idx = usable[k]
        if w <= room:
            chosen.append(usable[k])
            descend(k + 1, room - w, value + v)
            chosen.pop()
        descend(k + 1, room, value)

    descend(0, cap, 0)
    return best_value, best_set


def exact_optimal_makespan(inst: Instance):
    """Minimum over all permitted total assignments of the max machine load."""
    n = inst.num_jobs
    if n > MAKESPAN_JOB_CAP:
        raise CapExceededError(f"makespan oracle limited to {MAKESPAN_JOB_CAP} jobs")
    if n == 0:
        return ZERO
    order = sorted(inst.jobs, key=lambda j: (-inst.sizes[j], j))
    loads = [ZERO] * (inst.num_machines + 1)

    # greedy incumbent: each job onto its least-loaded permitted machine
    for j in order:
        i = min(sorted(inst.gamma[j]), key=lambda i: loads[i])
        loads[i] += inst.sizes[j]
    best = max(loads[1:])
    loads = [ZERO] * (inst.num_machines + 1)

    def descend(k, current_max):
        nonlocal best
        if current_max >= best:
            return
        if k == len(order):
            best = current_max
            return
        j = order[k]
        for i in sorted(inst.gamma[j]):
            new_load = loads[i] + inst.sizes[j]
            if new_load < best:
                loads[i] = new_load
                descend(k + 1, max(current_max, new_load))
                loads[i] = new_load - inst.sizes[j]

    descend(0, ZERO)
    return best


def enumerate_configurations(inst: Instance, machine: int, T, *, maximal_only=False):
    """All job subsets permitted on the machine with total size <= T.

    With maximal_only, keep only inclusion-maximal subsets (no further
    permitted job fits), which preserves feasibility of the covering LP.
    """
    T = frac(T)
    eligible = sorted(j for j in inst.jobs if machine in inst.gamma[j] and inst.sizes[j] <= T)
    configs = []
    chosen = []
    in_chosen = set()

    def maximal(room):
        return all(j in in_chosen or inst.sizes[j] > room for j in eligible)

    def descend(k, room):
        if k == len(eligible):
            if not maximal_only or maximal(room):
                configs.append(frozenset(chosen))
            return
        j = eligible[k]
        if inst.sizes[j] <= room:
            chosen.append(j)
            in_chosen.add(j)
            descend(k + 1, room - inst.sizes[j])
            chosen.pop()
            in_chosen.discard(j)
        descend(k + 1, room)

    descend(0, T)
    return configs


def exact_config_lp_feasible(inst: Instance, T, *, configs="maximal") -> bool:
    """Solve the configuration covering LP at makespan T by full enumeration.

    Rows: one <=1 unit per machine (+slack), one >=1 cover per job
    (+surplus); feasible iff the minimized uncovered mass is zero. `configs`
    selects "maximal" (default, equivalent) or "all" enumeration.
    """
    if inst.num_jobs > CONFIG_LP_JOB_CAP:
        raise CapExceededError(f"configuration LP oracle limited to {CONFIG_LP_JOB_CAP} jobs")
    if inst.num_jobs == 0:
        return True
    T = frac(T)
    m = inst.num_machines
    n = inst.num_jobs
    job_row = {j: m + idx for idx, j in enumerate(inst.jobs)}

    columns = []
    for i in inst.machines:
        for conf in enumerate_configurations(inst, i, T, maximal_only=(configs == "maximal")):
            col = [(i - 1, 1)] + [(job_row[j], 1) for j in sorted(conf)]
            columns.append(col)
    for i in inst.machines:  # machine slack
        columns.append([(i - 1, 1)])
    for j in inst.jobs:  # cover surplus
        columns.append([(job_row[j], -1)])

    rhs = [1] * (m + n)
    out = solve_equality_feasibility(m + n, columns, rhs, artificial_rows=range(m, m + n))
    return out.feasible
