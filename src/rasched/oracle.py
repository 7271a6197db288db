"""The exact makespan oracle for small instances, and the knapsack kernel.

`exact_optimal_makespan` is the `--oracle` bound: a branch and bound over
the permitted assignments of at most `MAKESPAN_JOB_CAP` jobs. Everything
here is exact; there are no tolerance parameters. The caps are hard
errors, not silent truncations, because a degraded oracle is worse than
none. The knapsack is the config-LP's pricing and verification kernel; it
takes integer data only, which its callers build from integer sizes and
integer duals, and its cap is a front size, not an item count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rational import ZERO
from .model import Instance

MAKESPAN_JOB_CAP = 12
#: pairs one knapsack front may hold, a bound on its memory and work
KNAPSACK_FRONT_CAP = 1 << 16


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

    A Pareto-front DP (Nemhauser-Ullmann) on the query's integers: items
    join in index order, skipping any heavier than the capacity or of value
    0, and the front keeps each undominated (weight <= capacity, value)
    pair, value strictly increasing in weight, with one subset as a bit
    mask. Tie rule: of the subsets of the largest value, those of least
    weight, and of those the one of least sum of 2^index (on equal pairs
    the front keeps the subset without the newer item). Returns the value
    and the subset as sorted indices; raises CapExceededError once a front
    holds more than KNAPSACK_FRONT_CAP pairs. Scaling the weights and the
    capacity by one positive factor, or the values by another, leaves the
    answer as it is; a caller with rational data passes such an integer
    image and reads the value back over its value scale.
    """
    cap = query.capacity
    front = [(0, 0, 0)]  # (weight, value, subset mask)
    for idx, (w, v) in enumerate(query.items):
        if w > cap or v == 0:
            continue
        bit = 1 << idx
        grown = [(fw + w, fv + v, mask | bit) for fw, fv, mask in front if fw + w <= cap]
        # by weight, then value descending; the stable sort puts an equal
        # pair without the item first, and only a higher value is kept
        merged, best = [], -1
        for pair in sorted(front + grown, key=lambda p: (p[0], -p[1])):
            if pair[1] > best:
                merged.append(pair)
                best = pair[1]
        if len(merged) > KNAPSACK_FRONT_CAP:
            raise CapExceededError(f"knapsack front limited to {KNAPSACK_FRONT_CAP} pairs")
        front = merged
    _, value, mask = front[-1]
    return value, tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


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
