"""Seeded instance generators for the benchmark workloads.

The generators live here rather than in `rasched.generator`, so that a change
to the package's presets cannot move the benchmark's inputs. Each instance is
produced as `ra 1` text, which the benchmark parses with
`rasched.model.parse_instance` like any user input, together with the exact
sizes and permitted sets that the output checker uses as ground truth.

This module imports nothing from `rasched`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

#: denominator of every generated size
DEN = 60
#: rasched.oracle.KNAPSACK_ITEM_CAP, restated so that this module stays
#: independent of the package
KNAPSACK_CAP = 30


@dataclass(frozen=True)
class GeneratedInstance:
    """One input: its text, and the ground truth the checker reads."""

    text: str
    machines: int
    jobs: dict  # job name -> (exact Fraction size, frozenset of machine ids)
    over_cap: bool  # a machine has more permitted jobs than the knapsack cap


def _instance(machines: int, jobs: list) -> GeneratedInstance:
    """Number the jobs j1..jn in list order and render them as `ra 1` text."""
    lines = ["ra 1", f"machines {machines}"]
    table = {}
    for k, (size, perm) in enumerate(jobs, start=1):
        name = f"j{k}"
        perm = frozenset(perm)
        table[name] = (size, perm)
        machs = " ".join(str(i) for i in sorted(perm))
        lines.append(f"job {name} {size.numerator}/{size.denominator} : {machs}")
    per_machine = [sum(1 for _, perm in jobs if i in perm) for i in range(1, machines + 1)]
    return GeneratedInstance("\n".join(lines) + "\n", machines, table,
                             max(per_machine) > KNAPSACK_CAP)


def uniform_instance(rng: random.Random, machines: int = 6, jobs: int = 24) -> GeneratedInstance:
    """Sizes uniform on k/60, each machine permitted with probability 1/2."""
    out = []
    for _ in range(jobs):
        size = Fraction(rng.randint(1, DEN), DEN)
        perm = [i for i in range(1, machines + 1) if rng.random() < 0.5]
        out.append((size, perm or [rng.randint(1, machines)]))
    return _instance(machines, out)


def two_value_instance(rng: random.Random, machines: int = 16) -> GeneratedInstance:
    """About 0.85*m unit jobs and as many jobs of size 1/5, each permitted on
    two random machines: the two-value regime of Chakrabarty-Khanna-Li."""
    count = round(0.85 * machines)
    sizes = [Fraction(1)] * count + [Fraction(1, 5)] * count
    rng.shuffle(sizes)
    return _instance(machines, [(p, rng.sample(range(1, machines + 1), 2)) for p in sizes])


def lp_bound_instance(rng: random.Random, machines: int = 5, jobs: int = 10,
                      huge: int = 6, permitted: int = 3) -> GeneratedInstance:
    """huge_heavy-like: `huge` sizes in 51/60..1 and the rest in 1/60..50/60,
    each job permitted on exactly `permitted` machines. A fixed count of huge
    jobs and of permitted machines keeps the column-generation work per
    instance in a narrow band, so medians over a run are steady."""
    nums = [rng.randint(51, DEN) for _ in range(huge)]
    nums += [rng.randint(1, 50) for _ in range(jobs - huge)]
    rng.shuffle(nums)
    return _instance(machines, [(Fraction(x, DEN), rng.sample(range(1, machines + 1), permitted))
                                for x in nums])


def over_cap_instance(rng: random.Random, machines: int = 4, jobs: int = 34) -> GeneratedInstance:
    """Every job permitted everywhere, so each machine prices more than 30
    knapsack items: today's config-LP bound refuses it with CapExceededError."""
    out = [(Fraction(rng.randint(1, DEN), DEN), range(1, machines + 1)) for _ in range(jobs)]
    return _instance(machines, out)


def _lp_bound_pool_entry(rng: random.Random, index: int) -> GeneratedInstance:
    # One slot in eight holds an instance over the knapsack cap, so the
    # refusal stays visible in every run instead of being sized away.
    if index % 8 == 7:
        return over_cap_instance(rng)
    return lp_bound_instance(rng)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: int  # instances generated per run; the timed loop cycles through them
    traced: int  # leading pool instances the traced run covers, each once
    lp_bound: bool  # solve with the config-LP lower bound
    make: Callable[[random.Random, int], GeneratedInstance]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "uniform",
            "the common shape: the seed LP takes nearly all solve time and the "
            "engine never runs, so it shows seed/simplex gains and predicts no "
            "change for engine or certificate work",
            pool=120, traced=36, lp_bound=False,
            make=lambda rng, _: uniform_instance(rng)),
        Workload(
            "two_value",
            "the two-value regime, where the engine, stuck-state certificates "
            "and the check path run on most instances; engine work shows here "
            "once the seed simplex is gone",
            pool=120, traced=32, lp_bound=False,
            make=lambda rng, _: two_value_instance(rng)),
        Workload(
            "lp_bound",
            "config-LP bound on: the simplex runs as dual-producing "
            "optimisation and the knapsack prices columns; one slot in eight "
            "exceeds the 30-item knapsack cap",
            pool=48, traced=12, lp_bound=True,
            make=_lp_bound_pool_entry),
    )
}


def generate(workload: Workload, seed: int, count: int | None = None) -> list:
    """The first `count` (default: all) pool instances for this seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.make(rng, k) for k in range(workload.pool if count is None else count)]
