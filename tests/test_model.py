import math

import pytest
from hypothesis import example, given, strategies as st

from rasched.rational import Frac, integer_image, ratio_str, parse_ratio
from rasched.model import (validate_partial_schedule, parse_instance,
                           serialize_instance, make_instance, scale_instance,
                           Schedule, InstanceFormatError, MAX_MACHINES)
from rasched.generator import GenSpec, generate_instance

from conftest import (EPS, CAP, JobClass, classify_job, load_from_scratch, scaled_of,
                      schedule_of, small_jobs)

rationals = st.builds(Frac, st.integers(1, 240), st.integers(1, 120))


class TestPermittedOn:
    @pytest.mark.parametrize("preset", ["uniform", "huge_heavy", "collision", "small_only"])
    def test_lists_each_machines_jobs_in_id_order(self, preset):
        for seed in range(8):
            inst = generate_instance(GenSpec(machines=2 + seed % 4, jobs=4 + 2 * seed,
                                             preset=preset, seed=seed))
            on = inst.permitted_on
            assert len(on) == inst.num_machines + 1 and on[0] == ()
            for i in inst.machines:
                assert on[i] == tuple(j for j in inst.jobs if i in inst.gamma[j])


class TestClassify:
    def test_half_is_small(self):
        assert classify_job(Frac(1, 2)) is JobClass.SMALL

    def test_five_sixths_is_medium(self):
        assert classify_job(Frac(5, 6)) is JobClass.MEDIUM

    def test_nine_tenths_is_huge(self):
        assert classify_job(Frac(9, 10)) is JobClass.HUGE

    def test_just_above_half_is_medium(self):
        assert classify_job(Frac(1, 2) + Frac(1, 1000)) is JobClass.MEDIUM

    @given(rationals)
    def test_agrees_with_rounding(self, p):
        sc = scaled_of([(p, {1})], 1)
        down = sc.size_down(1)
        assert (down != p) == (classify_job(p) is JobClass.HUGE) == sc.is_huge(1)
        assert down <= p
        if classify_job(p) is JobClass.HUGE:
            assert down == Frac(5, 6)


def rounded(p):
    """(up, down) for one job of size p: the engine counts a huge job as 1,
    the certificate reads `size_down`."""
    sc = scaled_of([(p, {1})], 1)
    return (Frac(1) if sc.is_huge(1) else sc.size[1]), sc.size_down(1)


class TestRoundedSizes:
    def test_huge_rounds_both_ways(self):
        assert rounded(Frac(9, 10)) == (Frac(1), Frac(5, 6))

    def test_small_identity(self):
        assert rounded(Frac(1, 3)) == (Frac(1, 3), Frac(1, 3))

    def test_boundary_is_not_huge(self):
        assert rounded(Frac(5, 6)) == (Frac(5, 6), Frac(5, 6))


class TestLoads:
    def test_empty_machine_all_systems(self):
        sc = scaled_of([(Frac(1, 3), {1})], 2)
        sched = Schedule(sc)
        assert sched.load(1) == 0 and not sched.huges[1]
        assert sched.load(2) == 0 and not sched.huges[2]

    def test_mixed_loads_exact(self):
        sc = scaled_of([(Frac(1, 3), {1}), (Frac(9, 10), {1})], 1)
        sched = schedule_of(sc, {1: 1, 2: 1})
        assert sched.load(1) == Frac(37, 30)
        assert sched.huges[1] == {2}
        # huge jobs rounded up to 1, as the engine's validity test counts them
        huge = sum(sc.size[h] for h in sched.huges[1])
        assert sched.load(1) - huge + len(sched.huges[1]) == Frac(4, 3)
        # and down to 5/6, as the certificate counts them
        assert sum(sc.size_down(j) for j in sched.on_machine[1]) == Frac(7, 6)

    def test_move_drops_load_by_exact_size(self):
        sc = scaled_of([(Frac(1, 3), {1, 2}), (Frac(9, 10), {1, 2})], 2)
        sched = schedule_of(sc, {1: 1, 2: 1})
        before = sched.load(1)
        sched.move(2, 2)
        assert before - sched.load(1) == sc.size[2]
        assert sched.load(2) == sc.size[2]
        assert sched.huges[1] == set() and sched.huges[2] == {2}

    def test_incremental_matches_scratch_random_walk(self, rng):
        jobs = [(Frac(rng.randint(1, 60), 60), {1, 2, 3}) for _ in range(8)]
        sc = scaled_of(jobs, 3)
        sched = Schedule(sc)
        for _ in range(10_000):
            j = rng.randint(1, 8)
            if sched.machine_of(j) is None:
                sched.assign(j, rng.randint(1, 3))
            elif rng.random() < 0.5:
                sched.unassign(j)
            else:
                sched.move(j, rng.randint(1, 3))
        for i in (1, 2, 3):
            assert sched.load(i) == load_from_scratch(sched, i)


class TestValidate:
    def test_all_unassigned_is_valid(self):
        sc = scaled_of([(Frac(9, 10), {1}), (Frac(1, 2), {1})], 1)
        assert validate_partial_schedule(Schedule(sc)) == []

    def test_two_huge_jobs_flagged(self):
        sc = scaled_of([(Frac(9, 10), {1}), (Frac(19, 20), {1})], 1)
        sched = schedule_of(sc, {1: 1, 2: 1})
        msgs = validate_partial_schedule(sched)
        assert any("huge" in m for m in msgs)

    def test_overload_just_above_cap_flagged(self):
        # mediums 5/6 + 5/6 plus small 4/15 sum to (1+R) + 1/60 at eps=1/24
        sc = scaled_of([(Frac(4, 15), {1}), (Frac(5, 6), {1}), (Frac(5, 6), {1})], 1)
        sched = schedule_of(sc, {1: 1, 2: 1, 3: 1})
        assert sched.load(1) == CAP + Frac(1, 60)
        msgs = validate_partial_schedule(sched)
        assert len(msgs) == 1 and "exceeds cap" in msgs[0]

    def test_outside_permitted_set_flagged(self):
        sc = scaled_of([(Frac(1, 2), {1})], 2)
        sched = Schedule(sc)
        sched.assignment[1] = 2  # bypass assign() on purpose
        sched.on_machine[2].add(1)
        msgs = validate_partial_schedule(sched)
        assert any("permitted" in m for m in msgs)


class TestParsing:
    def test_two_job_round_trip(self):
        text = "ra 1\nmachines 2\njob a 1/2 : 1\njob b 1/1 : 1 2\n"
        inst = parse_instance(text)
        assert inst.num_jobs == 2 and inst.num_machines == 2
        assert inst.sizes[1] == Frac(1, 2) and inst.sizes[2] == 1
        assert serialize_instance(inst) == text

    def test_jobs_resorted_by_size_with_stable_ties(self):
        inst = parse_instance(
            "ra 1\nmachines 1\njob big 3/4 : 1\njob tie1 1/2 : 1\njob tie2 1/2 : 1\n")
        assert [inst.name_of(j) for j in inst.jobs] == ["tie1", "tie2", "big"]
        assert serialize_instance(inst).splitlines()[2].startswith("job big")

    def test_empty_permitted_set_reports_line(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance("ra 1\nmachines 2\njob a 1/2 :\n")
        assert "empty permitted set" in str(err.value) and "line 3" in str(err.value)

    def test_nonpositive_size_reports_line(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance("ra 1\nmachines 1\n# fine\njob a 0/5 : 1\n")
        assert "line 4" in str(err.value)

    def test_bad_header(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("ra 2\nmachines 1\n")

    def test_machine_out_of_range(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance("ra 1\nmachines 2\njob a 1/2 : 3\n")
        assert "out of range" in str(err.value)

    def test_machine_count_is_capped(self):
        job = "job a 1/2 : 1\n"
        inst = parse_instance(f"ra 1\nmachines {MAX_MACHINES}\n{job}")
        assert inst.num_machines == MAX_MACHINES
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(f"ra 1\nmachines {MAX_MACHINES + 1}\n{job}")
        assert str(err.value) == f"line 2: machine count must be <= {MAX_MACHINES}"

    def test_duplicate_name_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("ra 1\nmachines 1\njob a 1/2 : 1\njob a 1/3 : 1\n")

    def test_comments_and_blank_lines_ignored(self):
        inst = parse_instance("# top\nra 1\n\nmachines 1\njob a 1/2 : 1 # tail\n")
        assert inst.num_jobs == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_parse_serialize_parse_identity_on_generated(self, seed):
        inst = generate_instance(GenSpec(machines=4, jobs=100, seed=seed))
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert serialize_instance(again) == text
        assert again == inst


TWO_JOBS = [(Frac(1), {1}), (Frac(1, 2), {2})]


@pytest.mark.parametrize("machines, jobs, names, message", [
    (2, TWO_JOBS, ["a"], "1 names for 2 jobs"),
    (2, TWO_JOBS, ["a", "b", "c"], "3 names for 2 jobs"),
    (2, TWO_JOBS, ["a", "a"], "duplicate job name"),
    (0, [], None, "machine count"),
    (MAX_MACHINES + 1, [(Frac(1), {1})], None, "machine count"),
], ids=["names-short", "names-long", "name-repeated", "no-machines", "machines-over-cap"])
def test_make_instance_holds_the_parsers_limits(machines, jobs, names, message):
    """The public constructor rejects what `parse_instance` rejects: a name
    list of another length, a repeated name (a solve keys its assignment by
    name) and a machine count outside 1..MAX_MACHINES."""
    with pytest.raises(ValueError, match=message):
        make_instance(machines, jobs, names)
    assert make_instance(2, TWO_JOBS, ["a", "b"]).names == ("a", "b")


class TestScaling:
    def test_integer_image_scales_by_the_lcm(self):
        assert integer_image([]) == (1, [])
        assert integer_image([Frac(1, 4), Frac(5, 6), Frac(2)]) == (12, [3, 10, 24])

    def test_instance_keeps_one_integer_image(self):
        inst = make_instance(2, [(Frac(5, 6), {1}), (Frac(1, 4), {2}), (Frac(2), {1, 2})])
        assert inst.integer_image == (12, (0, 3, 10, 24))
        assert inst.integer_image is inst.integer_image

    @given(st.lists(rationals, min_size=1, max_size=8), rationals)
    @example([Frac(1)], Frac(12))  # the cap (1 + R) L T = 23 is an integer
    @example([Frac(1)], Frac(1))  # the cap (1 + R) L T = 23/12 is not
    def test_integer_classes_match_the_rational_ones(self, sizes, guess):
        inst = make_instance(1, [(p, {1}) for p in sizes])
        L, q = inst.integer_image
        # the guesses at which some job sits exactly on a class boundary
        for T in (guess, 2 * inst.sizes[1], Frac(6, 5) * inst.sizes[-1]):
            sc = scale_instance(inst, T, EPS)
            for j in inst.jobs:
                p = inst.sizes[j] / T
                assert sc.is_small(j) == (classify_job(p) is JobClass.SMALL) == (p <= Frac(1, 2))
                assert sc.is_huge(j) == (classify_job(p) is JobClass.HUGE) == (p > Frac(5, 6))
                assert Frac(T.denominator * q[j], sc.unit) == p == sc.size[j]
            assert small_jobs(sc) == [j for j in inst.jobs if sc.is_small(j)]
            assert sc.huge_jobs() == [j for j in inst.jobs if sc.is_huge(j)]
            # sums of q one grain below, at and above (1 + R) L T, R L T and
            # L T: each cap admits exactly the loads Q / (L T) within its bound
            for cap, bound in ((sc.cap, sc.load_cap), (sc.huge_cap, sc.R), (sc.fit, 1)):
                exact = bound * L * T
                for load in range(math.floor(exact) - 1, math.ceil(exact) + 2):
                    assert (load <= cap) == (Frac(load, L) / T <= bound)

    def test_r_and_scaled_sizes_exact(self):
        inst = make_instance(2, [(Frac(3, 4), {1, 2})])
        sc = scale_instance(inst, Frac(3, 2), EPS)
        assert sc.R == Frac(5, 6) + 2 * EPS
        assert sc.size[1] == Frac(1, 2)
        assert inst.sizes[1] == Frac(3, 4)  # base untouched

    def test_epsilon_range_enforced(self):
        inst = make_instance(1, [(Frac(1, 2), {1})])
        with pytest.raises(ValueError):
            scale_instance(inst, 1, Frac(1, 12))
        with pytest.raises(ValueError):
            scale_instance(inst, 0, EPS)

    @given(st.integers(1, 50), st.integers(1, 50))
    def test_comparisons_stable_under_rescaling(self, num, den):
        # re-deriving operands from scratch yields identical truth values
        p = Frac(num, den)
        t = Frac(den, num + den)
        assert (p / t <= Frac(1, 2)) == (2 * num * (num + den) <= den * den)

    def test_ratio_str_round_trip(self):
        q = Frac(-38025, 19942)
        assert parse_ratio(ratio_str(q)) == q
