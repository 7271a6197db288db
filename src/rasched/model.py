"""Core data model: instances, scaling, job classes, schedules.

Jobs are re-sorted at parse time so internal ids 1..n are nondecreasing in
(size, original position); min/max over id sets are therefore deterministic.
An instance keeps one integer image of its sizes, p_j = q_j / L, and every
load and configuration is a sum of q. A guess T reaches them only as
integer floor caps (`ScaledInstance.cap`, `huge_cap` and `fit`, the floors
of (1 + R) L T, R L T and L T) and as the job classes: a sum of q is at
most a cap exactly when its scaled load is at most 1 + R, R or 1. R and
1 + R depend on epsilon alone and are computed once per epsilon. Schedules
keep one integer load per machine, that of its small and medium jobs
(`Schedule.plain_load`); a machine's full load (`Schedule.int_load`) adds
the q of its huge job. The search reads a guess only through its engine
image (`ScaledInstance.engine_image`), so a solve runs it once per image
and seed. Rationals are built only for output: the scaled sizes
(`ScaledInstance.size`) when first read and a load (`Schedule.load`) when
read, for certificates, messages and tests. The engine's validity test
leaves room R beside a huge job, and the certificate rounds a huge job down
to 5/6 (`ScaledInstance.size_down`). An instance has at most `MAX_MACHINES`
machines, so neither a header nor a `make_instance` call makes a solve
build unbounded per-machine lists.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .rational import Frac, frac, integer_image, parse_ratio, ratio_str

FIVE_SIXTHS = Frac(5, 6)

#: the most machines an instance may have; `make_instance` rejects a larger
#: count, `parse_instance` a larger `machines` header with its line and
#: `GenSpec` larger counts, since a solve builds lists of that length
MAX_MACHINES = 100_000


class InstanceFormatError(ValueError):
    """Malformed instance text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Instance:
    """Jobs with exact rational sizes and permitted machine sets.

    Internal job ids are 1..n ordered by nondecreasing (size, original
    position); `names[orig]` and the id maps translate to the input order.
    """

    num_machines: int
    sizes: tuple  # sizes[j] for internal id j, index 0 unused
    gamma: tuple  # frozenset of permitted machine ids per internal id
    names: tuple  # job names in original (file) order
    orig_of: tuple  # orig_of[j] = original 0-based position of internal id j
    internal_of: tuple  # internal_of[orig] = internal id

    @property
    def num_jobs(self) -> int:
        return len(self.sizes) - 1

    @property
    def jobs(self):
        return range(1, len(self.sizes))

    @property
    def machines(self):
        return range(1, self.num_machines + 1)

    def name_of(self, j: int) -> str:
        return self.names[self.orig_of[j]]

    def max_size(self):
        return max(self.sizes[1:])

    @cached_property
    def integer_image(self):
        """(L, q): L is the lcm of the sizes' denominators and q[j] = L p_j,
        a tuple indexed by job with q[0] = 0, nondecreasing like the sizes."""
        scale, ints = integer_image(self.sizes[1:])
        return scale, (0, *ints)

    @cached_property
    def permitted_on(self):
        """The ids of the jobs permitted on each machine, in increasing
        order, as a tuple indexed by machine (index 0 is empty)."""
        on = [[] for _ in range(self.num_machines + 1)]
        for j in self.jobs:
            for i in self.gamma[j]:
                on[i].append(j)
        return tuple(map(tuple, on))

    @cached_property
    def sorted_gamma(self):
        """Each job's permitted machines in increasing order, as a tuple
        indexed by job (index 0 is empty)."""
        return tuple(tuple(sorted(g)) for g in self.gamma)


def make_instance(num_machines: int, jobs: list, names: list | None = None) -> Instance:
    """Build an Instance from (size, permitted-set) pairs in original order.

    Holds the parser's limits: 1..MAX_MACHINES machines and one distinct
    name per job, since a solve reports its assignment by name.
    """
    if not 1 <= num_machines <= MAX_MACHINES:
        raise ValueError(f"machine count must lie in 1..{MAX_MACHINES}")
    if names is None:
        names = [f"j{k + 1}" for k in range(len(jobs))]
    if len(names) != len(jobs):
        raise ValueError(f"{len(names)} names for {len(jobs)} jobs")
    if len(set(names)) != len(names):
        raise ValueError("duplicate job name")
    for size, perm in jobs:
        if size <= 0:
            raise ValueError("job sizes must be positive")
        if not perm:
            raise ValueError("empty permitted set")
        if any(i < 1 or i > num_machines for i in perm):
            raise ValueError("permitted machine out of range")
    order = sorted(range(len(jobs)), key=lambda k: (jobs[k][0], k))
    sizes = [None] + [jobs[k][0] for k in order]
    gamma = [frozenset()] + [frozenset(jobs[k][1]) for k in order]
    internal_of = [0] * len(jobs)
    for internal, orig in enumerate(order, start=1):
        internal_of[orig] = internal
    return Instance(
        num_machines=num_machines,
        sizes=tuple(sizes),
        gamma=tuple(gamma),
        names=tuple(names),
        orig_of=tuple([0] + order),
        internal_of=tuple(internal_of),
    )


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format.

    Header 'ra 1', then 'machines <m>', then one 'job <name> <n>/<d> :
    <machines>' line per job. '#' starts a comment; blank lines are ignored.
    """
    lines = text.splitlines()
    entries = []  # (lineno, tokens)
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            entries.append((lineno, stripped.split()))
    if not entries:
        raise InstanceFormatError(1, "empty instance file")
    lineno, header = entries[0]
    if header != ["ra", "1"]:
        raise InstanceFormatError(lineno, "expected header 'ra 1'")
    if len(entries) < 2 or entries[1][1][0] != "machines":
        raise InstanceFormatError(entries[1][0] if len(entries) > 1 else lineno,
                                  "expected 'machines <m>' line")
    lineno, mtoks = entries[1]
    if len(mtoks) != 2:
        raise InstanceFormatError(lineno, "expected 'machines <m>' line")
    try:
        num_machines = int(mtoks[1])
    except ValueError:
        raise InstanceFormatError(lineno, f"bad machine count {mtoks[1]!r}") from None
    if num_machines < 1:
        raise InstanceFormatError(lineno, "machine count must be >= 1")
    if num_machines > MAX_MACHINES:
        raise InstanceFormatError(lineno, f"machine count must be <= {MAX_MACHINES}")

    jobs, names, seen = [], [], set()
    for lineno, toks in entries[2:]:
        if toks[0] != "job":
            raise InstanceFormatError(lineno, f"expected 'job' line, got {toks[0]!r}")
        if len(toks) < 4 or ":" not in toks:
            raise InstanceFormatError(lineno, "expected 'job <name> <size> : <machines>'")
        name = toks[1]
        if name in seen:
            raise InstanceFormatError(lineno, f"duplicate job name {name!r}")
        seen.add(name)
        try:
            size = parse_ratio(toks[2])
        except ValueError:
            raise InstanceFormatError(lineno, f"bad size {toks[2]!r}") from None
        if size <= 0:
            raise InstanceFormatError(lineno, f"nonpositive size {toks[2]!r}")
        if toks[3] != ":":
            raise InstanceFormatError(lineno, "expected ':' after size")
        try:
            perm = sorted(int(t) for t in toks[4:])
        except ValueError:
            raise InstanceFormatError(lineno, "bad machine id in permitted set") from None
        if not perm:
            raise InstanceFormatError(lineno, f"empty permitted set for job {name!r}")
        if any(i < 1 or i > num_machines for i in perm):
            raise InstanceFormatError(lineno, f"machine id out of range for job {name!r}")
        jobs.append((size, frozenset(perm)))
        names.append(name)
    return make_instance(num_machines, jobs, names)


def serialize_instance(inst: Instance) -> str:
    """Canonical text form; jobs in original order, machine lists ascending."""
    out = ["ra 1", f"machines {inst.num_machines}"]
    for orig in range(len(inst.names)):
        j = inst.internal_of[orig]
        machs = " ".join(str(i) for i in sorted(inst.gamma[j]))
        out.append(f"job {inst.names[orig]} {ratio_str(inst.sizes[j])} : {machs}")
    return "\n".join(out) + "\n"


@lru_cache(maxsize=64)
def _epsilon_constants(num: int, den: int):
    """(R, 1 + R) for epsilon = num/den, after its range check."""
    epsilon = Frac(num, den)
    if not (0 < epsilon < Frac(1, 12)):
        raise ValueError("epsilon must lie strictly between 0 and 1/12")
    R = FIVE_SIXTHS + 2 * epsilon
    return R, 1 + R


@dataclass(frozen=True)
class ScaledInstance:
    """An instance with sizes divided by the guess T; carries epsilon and R.

    With T = a/b and the base's integer image (L, q), job j's scaled size is
    q_j / (L T): it is small iff 2 b q_j <= L a and huge iff 6 b q_j > 5 L a.
    Since q is nondecreasing in the job id, the small jobs are the ids below
    `small_end` and the huge ones those from `huge_start`. A sum Q of q is a
    scaled load Q / (L T), so it is at most 1 + R, R or 1 exactly when Q is
    at most `cap`, `huge_cap` or `fit`, the floors of (1 + R) L T, R L T and
    L T. The seed's flow reads the unit L a, over which b q_j is job j's
    integer scaled size, and so does a load's rational (`Schedule.load`).
    """

    base: Instance
    guess: object  # positive rational T
    epsilon: object  # rational in (0, 1/12)
    R: object = field(init=False)
    load_cap: object = field(init=False)  # 1 + R, the per-machine load cap
    unit: int = field(init=False)  # L a: scaled size 1 over the common denominator
    cap: int = field(init=False)  # floor((1 + R) L T)
    huge_cap: int = field(init=False)  # floor(R L T): the room beside a huge job
    fit: int = field(init=False)  # floor(L T)
    small_end: int = field(init=False)  # the first job id that is not small
    huge_start: int = field(init=False)  # the first huge job id

    def __post_init__(self):
        R, load_cap = _epsilon_constants(self.epsilon.numerator, self.epsilon.denominator)
        scale, q = self.base.integer_image
        b = self.guess.denominator
        unit = scale * self.guess.numerator
        # the derived fields, set in one step past the frozen __setattr__
        self.__dict__.update(
            R=R, load_cap=load_cap, unit=unit,
            cap=load_cap.numerator * unit // (load_cap.denominator * b),
            huge_cap=R.numerator * unit // (R.denominator * b), fit=unit // b,
            small_end=bisect_right(q, unit // (2 * b), 1),
            huge_start=bisect_right(q, 5 * unit // (6 * b), 1))

    @cached_property
    def size(self):
        """Scaled sizes p_j / T, index 0 unused."""
        return tuple([None] + [self.base.sizes[j] / self.guess for j in self.base.jobs])

    def size_down(self, j):
        return FIVE_SIXTHS if j >= self.huge_start else self.size[j]

    def is_small(self, j) -> bool:
        return j < self.small_end

    def is_huge(self, j) -> bool:
        return j >= self.huge_start

    def huge_jobs(self):
        return list(range(self.huge_start, self.base.num_jobs + 1))

    @property
    def engine_image(self):
        """(cap, huge_cap, small_end, huge_start): everything through which
        the insertion search (`rasched.engine`) reads the guess, besides
        job and machine ids, counts and the instance's q. Two guesses of one
        instance and epsilon with equal images run the same search from the
        same schedule."""
        return self.cap, self.huge_cap, self.small_end, self.huge_start


def scale_instance(inst: Instance, guess, epsilon) -> ScaledInstance:
    """Divide all sizes by the guess T exactly; the base is never mutated."""
    if not isinstance(guess, Frac):
        guess = frac(guess)
    if guess <= 0:
        raise ValueError("guess must be positive")
    if not isinstance(epsilon, Frac):
        epsilon = frac(epsilon)
    return ScaledInstance(base=inst, guess=guess, epsilon=epsilon)


UNASSIGNED = None


class Schedule:
    """Total map job -> machine-or-unassigned with incremental load accounting.

    Loads are sums of the instance's integer sizes q, which the scaled
    instance's caps bound. `plain_load[i]` is the load of machine i's small
    and medium jobs, the part the search compares with the caps; `int_load`
    adds the machine's huge job, and `load` reads that as the scaled
    rational."""

    def __init__(self, scaled: ScaledInstance):
        self.scaled = scaled
        self._q = scaled.base.integer_image[1]
        n = scaled.base.num_jobs
        m = scaled.base.num_machines
        self.assignment = [UNASSIGNED] * (n + 1)
        self.on_machine = [set() for _ in range(m + 1)]
        self.mediums = [set() for _ in range(m + 1)]
        self.huges = [set() for _ in range(m + 1)]
        self.plain_load = [0] * (m + 1)

    def machine_of(self, j: int):
        return self.assignment[j]

    def assign(self, j: int, i: int):
        """Set sigma(j) <- i (j must currently be unassigned)."""
        assert self.assignment[j] is UNASSIGNED
        sc = self.scaled
        self.assignment[j] = i
        self.on_machine[i].add(j)
        if j >= sc.huge_start:
            self.huges[i].add(j)
        else:
            if j >= sc.small_end:
                self.mediums[i].add(j)
            self.plain_load[i] += self._q[j]

    def unassign(self, j: int):
        i = self.assignment[j]
        assert i is not UNASSIGNED
        sc = self.scaled
        self.assignment[j] = UNASSIGNED
        self.on_machine[i].discard(j)
        self.mediums[i].discard(j)
        self.huges[i].discard(j)
        if j < sc.huge_start:
            self.plain_load[i] -= self._q[j]

    def move(self, j: int, i: int):
        if self.assignment[j] is not UNASSIGNED:
            self.unassign(j)
        self.assign(j, i)

    def int_load(self, i: int) -> int:
        """The load of machine i, a sum of the instance's q."""
        return self.plain_load[i] + sum(self._q[j] for j in self.huges[i])

    def load(self, i: int):
        sc = self.scaled
        return Frac(sc.guess.denominator * self.int_load(i), sc.unit)

    def min_medium(self, i: int):
        """Smallest-id medium job on machine i, or None."""
        return min(self.mediums[i]) if self.mediums[i] else None


def validate_partial_schedule(schedule: Schedule) -> list:
    """Return violation strings; empty iff the schedule is a valid partial one."""
    sc = schedule.scaled
    violations = []
    for j in sc.base.jobs:
        i = schedule.assignment[j]
        if i is not UNASSIGNED and i not in sc.base.gamma[j]:
            violations.append(f"job {j} assigned to machine {i} outside its permitted set")
    for i in sc.base.machines:
        if schedule.int_load(i) > sc.cap:
            violations.append(f"machine {i} load {ratio_str(schedule.load(i))}"
                              f" exceeds cap {ratio_str(sc.load_cap)}")
        if len(schedule.huges[i]) > 1:
            violations.append(f"machine {i} carries {len(schedule.huges[i])} huge jobs")
    return violations
