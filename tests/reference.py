"""Reference solvers that only tests read.

The configuration covering LP decided by full enumeration: every
configuration of every machine handed to the general phase-one simplex.
It is the tests' independent referee for the package's one config-LP
path, column generation priced by the knapsack
(`certificate.config_lp_feasible_cg`).
"""

from __future__ import annotations

from rasched.model import Instance
from rasched.oracle import CapExceededError
from rasched.rational import frac
from rasched.simplex import solve_equality_feasibility

CONFIG_LP_JOB_CAP = 15


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
