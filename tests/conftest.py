import contextlib
import random
import signal

import pytest

from rasched.rational import Frac
from rasched.model import Schedule, make_instance, scale_instance

EPS = Frac(1, 24)  # load cap 1 + R = 23/12 throughout the fixed-epsilon tests
CAP = Frac(23, 12)


def scaled_of(jobs, machines, *, guess=1, eps=EPS):
    """Build a ScaledInstance from (size, permitted) pairs in original order."""
    inst = make_instance(machines, [(Frac(s) if not hasattr(s, "numerator") else s, set(g))
                                    for s, g in jobs])
    return scale_instance(inst, guess, eps)


def schedule_of(scaled, assignment):
    sched = Schedule(scaled)
    for j, i in assignment.items():
        sched.assign(j, i)
    return sched


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


def lp_bound_instance(rng, machines, jobs, huge):
    """The benchmark's lp_bound shape: `huge` sizes in 51/60..1 and the rest
    in 1/60..50/60, each job permitted on exactly three machines."""
    nums = [rng.randint(51, 60) for _ in range(huge)]
    nums += [rng.randint(1, 50) for _ in range(jobs - huge)]
    rng.shuffle(nums)
    return make_instance(machines, [(Frac(x, 60), set(rng.sample(range(1, machines + 1), 3)))
                                    for x in nums])
