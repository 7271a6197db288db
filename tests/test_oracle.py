import itertools
import random
from functools import cmp_to_key

import pytest

from rasched.rational import Frac, ZERO, integer_image
from rasched.model import make_instance
from rasched.oracle import (KnapsackQuery, knapsack_max_value, KNAPSACK_FRONT_CAP,
                            exact_optimal_makespan, CapExceededError)
from rasched.seed import solve_assignment_lp
from rasched.model import scale_instance
from rasched.generator import GenSpec, generate_instance

from conftest import EPS, job_sum
from reference import enumerate_configurations, exact_config_lp_feasible


def brute_knapsack(items, capacity):
    best = ZERO
    for r in range(len(items) + 1):
        for combo in itertools.combinations(range(len(items)), r):
            w = sum((items[k][0] for k in combo), ZERO)
            if w <= capacity:
                v = sum((items[k][1] for k in combo), ZERO)
                best = max(best, v)
    return best


def brute_makespan(inst):
    best = None
    choices = [sorted(inst.gamma[j]) for j in inst.jobs]
    for combo in itertools.product(*choices):
        loads = {}
        for j, i in zip(inst.jobs, combo):
            loads[i] = loads.get(i, ZERO) + inst.sizes[j]
        worst = max(loads.values())
        best = worst if best is None or worst < best else best
    return best


def integer_query(items, capacity, weight_factor=1, value_factor=1):
    """The integer image of rational (weight, value) items and a capacity:
    weights and capacity times the lcm of their denominators and
    `weight_factor`, values times the lcm of theirs and `value_factor`.
    Returns the query and the value scale."""
    _, (cap, *weights) = integer_image([Frac(capacity), *(w for w, _ in items)])
    scale, values = integer_image(v for _, v in items)
    weights = [w * weight_factor for w in weights]
    values = [v * value_factor for v in values]
    return KnapsackQuery(tuple(zip(weights, values)), cap * weight_factor), scale * value_factor


class TestKnapsack:
    def test_degenerate_capacity_zero(self):
        assert knapsack_max_value(KnapsackQuery(((1, 3),), 0)) == (0, ())

    def test_three_halves(self):
        q = KnapsackQuery(((1, 3), (1, 4), (1, 5)), 2)
        value, subset = knapsack_max_value(q)
        assert value == 9 and subset == (1, 2)

    def test_single_item_too_heavy(self):
        assert knapsack_max_value(KnapsackQuery(((3, 10),), 2)) == (0, ())

    def test_cap_enforced(self):
        # items 2^k for k < K and the capacity 2^K - 1: every subset has its
        # own weight and value, so the front grows to 2^K pairs, within the
        # budget of 2^16 at K = 16 and over it at K = 17
        assert KNAPSACK_FRONT_CAP == 1 << 16
        items = tuple((1 << k, 1 << k) for k in range(17))
        assert knapsack_max_value(KnapsackQuery(items[:16], (1 << 16) - 1)) \
            == ((1 << 16) - 1, tuple(range(16)))
        with pytest.raises(CapExceededError, match="knapsack front limited to 65536 pairs"):
            knapsack_max_value(KnapsackQuery(items, (1 << 17) - 1))

    def test_more_than_30_items_are_answered(self):
        items = tuple((1, 1) for _ in range(40))
        assert knapsack_max_value(KnapsackQuery(items, 35)) == (35, tuple(range(35)))

    @pytest.mark.parametrize("items,capacity", [
        (((Frac(1, 2), 1),), 1), (((1, Frac(1, 2)),), 1), (((1, 1),), Frac(1)),
        (((1.0, 1),), 1), (((1, 1),), True)])
    def test_rational_or_float_data_is_refused(self, items, capacity):
        with pytest.raises(TypeError):
            KnapsackQuery(items, capacity)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        items = tuple((Frac(rng.randint(1, 30), 30), Frac(rng.randint(0, 20), 7))
                      for _ in range(n))
        cap = Frac(rng.randint(1, 45), 30)
        query, scale = integer_query(items, cap)
        best, subset = knapsack_max_value(query)
        value = Frac(best, scale)
        assert value == brute_knapsack(items, cap)
        assert sum((items[k][0] for k in subset), ZERO) <= cap
        assert sum((items[k][1] for k in subset), ZERO) == value


def branch_and_bound_knapsack(query):
    """The integer branch and bound the Pareto-front DP replaced, without
    its item cap: density order, the fractional relaxation as the bound,
    and the first optimum in take-before-skip order."""
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


def tie_rule_knapsack(query):
    """The DP's stated answer by enumeration: the largest value, then the
    least weight, then the least sum of 2^index. Returns it and the number
    of subsets of that value and weight."""
    n = len(query.items)
    keys = []
    for mask in range(1 << n):
        chosen = [k for k in range(n) if mask >> k & 1]
        weight = sum(query.items[k][0] for k in chosen)
        if weight <= query.capacity:
            keys.append((-sum(query.items[k][1] for k in chosen), weight, mask))
    value, weight, mask = min(keys)
    ties = sum(key[:2] == (value, weight) for key in keys)
    return (-value, tuple(k for k in range(n) if mask >> k & 1)), ties


def random_integer_query(rng, n):
    """n items with weights 1..30 and values 0..30, drawn from 4 or from 30
    (weight, value) pairs, so that in half the queries equal pairs and equal
    densities are common, and a capacity up to half their total weight."""
    pairs = [(rng.randint(1, 30), rng.randint(0, 30)) for _ in range(rng.choice((4, 30)))]
    items = tuple(rng.choice(pairs) for _ in range(n))
    return KnapsackQuery(items, rng.randint(0, sum(w for w, _ in items) // 2))


class TestKnapsackFront:
    """The Pareto-front DP against the branch and bound it replaced and
    against enumeration."""

    def test_values_match_branch_and_bound_and_enumeration(self):
        for seed in range(300):
            rng = random.Random(seed)
            query = random_integer_query(rng, rng.randint(0, 30))
            value, subset = knapsack_max_value(query)
            assert value == branch_and_bound_knapsack(query)[0], seed
            if len(query.items) <= 12:
                assert value == brute_knapsack(query.items, query.capacity), seed
            assert sum(query.items[k][0] for k in subset) <= query.capacity
            assert sum(query.items[k][1] for k in subset) == value
            assert list(subset) == sorted(set(subset))

    def test_the_tie_rule_holds_on_enumerated_queries(self):
        tied = 0  # queries with more than one optimal subset of least weight
        for seed in range(300):
            rng = random.Random(seed)
            query = random_integer_query(rng, rng.randint(0, 10))
            answer, ties = tie_rule_knapsack(query)
            assert knapsack_max_value(query) == answer, seed
            tied += ties > 1
        assert tied >= 50


def reference_knapsack_max_value(items, capacity):
    """The Fraction branch and bound the integer kernel replaced."""
    cap = Frac(capacity)
    usable = [
        (w, v, idx) for idx, (w, v) in enumerate(items) if w <= cap and v > 0
    ]
    usable.sort(key=lambda t: (-(t[1] / t[0]), t[2]))
    n = len(usable)

    suffix_value = [ZERO] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix_value[k] = suffix_value[k + 1] + usable[k][1]

    best_value = ZERO
    best_set: tuple = ()
    chosen = []

    def fractional_bound(k, room):
        total = ZERO
        while k < n and room > 0:
            w, v, _ = usable[k]
            if w <= room:
                total += v
                room -= w
            else:
                return total + v * room / w
            k += 1
        return total

    def descend(k, room, value):
        nonlocal best_value, best_set
        if value > best_value:
            best_value = value
            best_set = tuple(sorted(idx for _, _, idx in chosen))
        if k == n or value + suffix_value[k] <= best_value:
            return
        if value + fractional_bound(k, room) <= best_value:
            return
        w, v, idx = usable[k]
        if w <= room:
            chosen.append(usable[k])
            descend(k + 1, room - w, value + v)
            chosen.pop()
        descend(k + 1, room, value)

    descend(0, cap, ZERO)
    return best_value, best_set


def random_rational_knapsack(rng):
    """(items, capacity): mixed denominators, repeated densities, zero values,
    heavy items."""
    dens = rng.sample([1, 2, 3, 4, 5, 6, 7, 9, 10, 12], 3)
    n = rng.randint(0, 14)
    items = []
    for _ in range(n):
        shape = rng.random()
        if items and shape < 0.25:  # the density of an earlier item
            w0, v0 = rng.choice(items)
            f = Frac(rng.randint(1, 6), rng.choice(dens))
            items.append((w0 * f, v0 * f))
        elif shape < 0.35:
            items.append((Frac(rng.randint(1, 30), rng.choice(dens)), ZERO))
        else:
            items.append((Frac(rng.randint(1, 30), rng.choice(dens)),
                          Frac(rng.randint(0, 40), rng.choice(dens))))
    cap = Frac(rng.randint(0, 40), rng.choice(dens))
    if rng.random() < 0.5 and items:  # at least one item heavier than the cap
        items[rng.randrange(len(items))] = (cap + Frac(1, rng.choice(dens)),
                                             Frac(rng.randint(1, 50)))
    return tuple(items), cap


class TestKnapsackMatchesRational:
    """The integer search on an integer image, scaled further by positive
    factors as callers do, returns the Fraction search's value times the
    value scale, and a subset of that value that fits."""

    def test_random_queries_return_identical_value(self):
        ties = 0
        for seed in range(600):
            rng = random.Random(seed)
            items, cap = random_rational_knapsack(rng)
            query, scale = integer_query(items, cap, rng.randint(1, 7), rng.randint(1, 7))
            ref_value, _ = reference_knapsack_max_value(items, cap)
            value, subset = knapsack_max_value(query)
            assert value == ref_value * scale
            assert sum((items[k][0] for k in subset), ZERO) <= cap
            assert sum((items[k][1] for k in subset), ZERO) == ref_value
            densities = [v / w for w, v in items if v > 0 and w <= cap]
            ties += len(densities) != len(set(densities))
        assert ties >= 50

    def test_equal_pairs_keep_the_subset_without_the_later_item(self):
        # {0, 2}, {0, 1, 3} and {1, 2, 3} all weigh 6 for value 6; the front
        # keeps {0, 2}, the least sum of 2^index, where the branch and bound
        # took the density order's first optimum {0, 1, 3}
        items = ((Frac(1, 2), Frac(1)), (Frac(1, 3), Frac(2, 3)),
                 (Frac(1, 2), Frac(1)), (Frac(1, 6), Frac(1, 3)))
        query, scale = integer_query(items, 1)
        assert query == KnapsackQuery(((3, 3), (2, 2), (3, 3), (1, 1)), 6) and scale == 3
        assert knapsack_max_value(query) == (6, (0, 2))
        assert branch_and_bound_knapsack(query) == (6, (0, 1, 3))
        assert reference_knapsack_max_value(items, 1) == (2, (0, 1, 3))


class TestMakespan:
    def test_single_job(self):
        inst = make_instance(1, [(Frac(7, 5), {1})])
        assert exact_optimal_makespan(inst) == Frac(7, 5)

    def test_two_unit_jobs_split(self):
        inst = make_instance(2, [(Frac(1), {1, 2}), (Frac(1), {1, 2})])
        assert exact_optimal_makespan(inst) == 1

    def test_cap_enforced(self):
        inst = make_instance(1, [(Frac(1), {1})] * 13)
        with pytest.raises(CapExceededError):
            exact_optimal_makespan(inst)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_full_enumeration(self, seed):
        inst = generate_instance(GenSpec(machines=3, jobs=8, seed=seed,
                                         density=Frac(2, 3)))
        assert exact_optimal_makespan(inst) == brute_makespan(inst)


class TestConfigLP:
    def test_single_machine_needs_total(self):
        inst = make_instance(1, [(Frac(3, 4), {1}), (Frac(1), {1})])
        assert not exact_config_lp_feasible(inst, Frac(7, 4) - Frac(1, 100))
        assert exact_config_lp_feasible(inst, Frac(7, 4))

    def test_two_machines_two_units(self):
        inst = make_instance(2, [(Frac(1), {1, 2}), (Frac(1), {1, 2})])
        assert exact_config_lp_feasible(inst, 1)
        assert not exact_config_lp_feasible(inst, Frac(99, 100))

    def test_uncoverable_job_infeasible(self):
        inst = make_instance(2, [(Frac(1), {1}), (Frac(1, 3), {2})])
        assert not exact_config_lp_feasible(inst, Frac(9, 10))

    def test_relaxations_order_on_private_halves_instance(self):
        # private half jobs plus a shared unit job: the assignment LP over all
        # three jobs is feasible strictly below the integral optimum 3/2,
        # while the covering LP threshold coincides with the optimum.
        inst = make_instance(2, [(Frac(1, 2), {1}), (Frac(1, 2), {2}),
                                 (Frac(1), {1, 2})])
        assert exact_optimal_makespan(inst) == Frac(3, 2)
        assert not exact_config_lp_feasible(inst, Frac(3, 2) - Frac(1, 60))
        assert exact_config_lp_feasible(inst, Frac(3, 2))
        # the job-splitting relaxation is feasible at T=13/10 < 3/2 (the unit
        # job is medium at that scale and may split across both machines)
        sc = scale_instance(inst, Frac(13, 10), EPS)
        fa = solve_assignment_lp(sc)
        assert job_sum(fa, 3) == 1
        assert not exact_config_lp_feasible(inst, Frac(13, 10))

    def test_integral_optimum_is_lp_feasible(self):
        for seed in range(8):
            inst = generate_instance(GenSpec(machines=3, jobs=7, seed=seed))
            assert exact_config_lp_feasible(inst, exact_optimal_makespan(inst))

    @pytest.mark.parametrize("seed", range(8))
    def test_maximal_equals_all_enumeration(self, seed):
        inst = generate_instance(GenSpec(machines=2, jobs=6, seed=seed,
                                         preset="huge_heavy"))
        for T in (inst.max_size(), (inst.max_size() + sum(inst.sizes[1:])) / 2,
                  sum(inst.sizes[1:])):
            assert (exact_config_lp_feasible(inst, T, configs="maximal")
                    == exact_config_lp_feasible(inst, T, configs="all"))

    @pytest.mark.parametrize("seed", range(6))
    def test_feasibility_monotone_in_threshold(self, seed):
        inst = generate_instance(GenSpec(machines=3, jobs=6, seed=seed,
                                         preset="collision"))
        lo, hi = inst.max_size(), sum(inst.sizes[1:])
        grid = [lo + (hi - lo) * Frac(k, 6) for k in range(7)]
        flags = [exact_config_lp_feasible(inst, T) for T in grid]
        assert flags == sorted(flags)  # False... then True...

    def test_maximal_configurations_subset_of_all(self):
        inst = make_instance(1, [(Frac(1, 3), {1}), (Frac(1, 2), {1}),
                                 (Frac(2, 3), {1})])
        allc = set(enumerate_configurations(inst, 1, Frac(5, 6)))
        maxc = set(enumerate_configurations(inst, 1, Frac(5, 6), maximal_only=True))
        assert maxc <= allc
        for c in allc:
            assert any(c <= m for m in maxc)

    def test_job_cap_enforced(self):
        inst = make_instance(1, [(Frac(1, 2), {1})] * 16)
        with pytest.raises(CapExceededError):
            exact_config_lp_feasible(inst, 10)
