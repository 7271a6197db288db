"""Reproducible pseudo-random instance generation."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .rational import Frac, frac
from .model import MAX_MACHINES, Instance, make_instance

PRESETS = ("uniform", "huge_heavy", "small_only", "collision")

#: denominator of generated sizes; keeps rationals compact
_DEN = 60


@dataclass(frozen=True)
class GenSpec:
    machines: int
    jobs: int
    preset: str = "uniform"
    density: object = Frac(1, 2)  # probability each machine is permitted
    seed: int = 0

    def __post_init__(self):
        if self.machines < 1 or self.jobs < 1:
            raise ValueError("need at least one machine and one job")
        if self.machines > MAX_MACHINES or self.jobs > MAX_MACHINES:
            raise ValueError(f"at most {MAX_MACHINES} machines and jobs")
        object.__setattr__(self, "density", frac(self.density))
        if not (0 < self.density <= 1):
            raise ValueError("density must lie in (0, 1]")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; choose from {PRESETS}")


def generate_instance(spec: GenSpec) -> Instance:
    """Deterministic instance for the given parameters; permitted sets are never empty.

    Sizes are rationals with denominator 60. huge_heavy guarantees at least
    40% of jobs above 5/6 of the largest size; small_only stays at or below
    half of the largest possible draw; collision draws near-equal large sizes
    with mostly-singleton permitted sets so that big jobs compete for
    machines and the local search can genuinely get stuck.
    """
    rng = random.Random(spec.seed)
    numerators = []
    for _ in range(spec.jobs):
        if spec.preset == "huge_heavy":
            numerators.append(rng.randint(51, _DEN) if rng.random() < 0.55
                              else rng.randint(1, 50))
        elif spec.preset == "small_only":
            numerators.append(rng.randint(1, _DEN // 2))
        elif spec.preset == "collision":
            numerators.append(rng.randint(51, _DEN))
        else:
            numerators.append(rng.randint(1, _DEN))
    if spec.preset == "huge_heavy":
        # enforce the quota: anything >= 51 exceeds 5/6 of any max <= 60
        need = -(-spec.jobs * 2 // 5)
        for idx in sorted(range(spec.jobs), key=lambda k: -numerators[k])[:need]:
            if numerators[idx] <= 50:
                numerators[idx] = rng.randint(51, _DEN)

    jobs = []
    for k in range(spec.jobs):
        if spec.preset == "collision" and rng.random() < 0.5:
            perm = {rng.randint(1, spec.machines)}
        else:
            perm = {i for i in range(1, spec.machines + 1) if rng.random() < spec.density}
            if not perm:
                perm = {rng.randint(1, spec.machines)}
        jobs.append((Frac(numerators[k], _DEN), frozenset(perm)))
    return make_instance(spec.machines, jobs)
