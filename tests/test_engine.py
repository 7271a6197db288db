import hashlib
import json
import random
from collections import Counter
from itertools import groupby

import pytest

from rasched.rational import Frac
from rasched.model import Schedule, scale_instance, validate_partial_schedule
from rasched.engine import (BlockerType, Blocker, BlockerTree, InsertionEngine,
                            EngineInvariantError, layer_cap)
from rasched import driver
from rasched import engine as engine_module
from rasched.driver import solve
from rasched.flow import AssignmentNetwork
from rasched.generator import GenSpec, generate_instance
from rasched.seed import SeedInfeasible

from conftest import (EPS, CAP, aggressive_stuck_states, assigned_jobs, insert_huge_job,
                      rounded_seed, scaled_load, scaled_of, schedule_of, two_value_instance)


def blocked_smalls(engine, prefix=None, on=None):
    """The small jobs whose blocking layer (`blocking_layers`) is at most
    `prefix` (any, when None); with `on`, those among machine `on`'s small
    jobs, the set the engine's load conditions sum."""
    small_end = engine.scaled.small_end
    smalls = range(1, small_end) if on is None else \
        [j for j in engine.schedule.on_machine[on] if j < small_end]
    return {j for j, k in engine.blocking_layers(smalls).items()
            if prefix is None or k <= prefix}


def plant(engine, job, machine, btype, layer, parent=None):
    """Push a blocker directly; unit-test scaffolding for derived-set ops."""
    b = Blocker(job, machine, btype, layer, engine.tree.next_stamp(), parent)
    engine.tree.push(b)
    return b


class TestLayerCap:
    def test_reference_value(self):
        assert layer_cap(10, Frac(1, 24)) == 192

    def test_single_machine(self):
        assert layer_cap(1, Frac(1, 24)) == 48

    def test_halving_epsilon_doubles_it(self):
        assert layer_cap(10, Frac(1, 48)) == 2 * layer_cap(10, Frac(1, 24))

    def test_sublayers_and_priorities(self):
        assert [t.sublayer for t in (BlockerType.BB, BlockerType.BS, BlockerType.MS,
                                     BlockerType.S, BlockerType.M, BlockerType.MM)] \
            == [1, 2, 2, 3, 4, 5]
        assert [t.priority for t in (BlockerType.BB, BlockerType.S, BlockerType.MS,
                                     BlockerType.BS, BlockerType.M, BlockerType.MM)] \
            == [5, 4, 3, 3, 2, 1]
        assert [t for t in BlockerType if t.all_undesirable] \
            == [BlockerType.BS, BlockerType.MS, BlockerType.S]
        assert [t.code for t in BlockerType] == ["bb", "bs", "ms", "s", "m", "mm"]


def engine_with(jobs, machines, assignment, j_new, **kw):
    sc = scaled_of(jobs, machines)
    sched = schedule_of(sc, assignment)
    return InsertionEngine(sched, j_new, **kw)


class TestBlockedAndActive:
    def test_trivially_blocked_small(self):
        # small with no alternative machine is blocked under the empty tree
        eng = engine_with([(Frac(1, 3), {1}), (Frac(9, 10), {1, 2})], 2, {1: 1}, 2)
        assert blocked_smalls(eng) == {1}
        assert eng.value_layers()[1] == 1

    def test_small_with_covered_alternative(self):
        eng = engine_with([(Frac(1, 3), {1, 2}), (Frac(1, 3), {2}),
                           (Frac(9, 10), {1})], 2, {1: 1, 2: 2}, 3)
        assert blocked_smalls(eng) == {2}  # job 2 has no alternative
        plant(eng, 2, 2, BlockerType.S, 1)
        assert blocked_smalls(eng, prefix=1) == {1, 2}
        assert blocked_smalls(eng, prefix=1, on=1) == {1}

    def test_big_jobs_never_blocked(self):
        eng = engine_with([(Frac(3, 5), {1}), (Frac(9, 10), {1})], 1, {1: 1}, 2)
        assert blocked_smalls(eng) == set()

    def test_blocked_small_value_layer_below_its_head(self):
        # machine 2 is covered in layer 1 and machine 1 in layer 2: jobs 1
        # and 3 on machine 1 head to layer 3 under their S activator, but
        # the layer-1 prefix already blocks them
        eng = engine_with([(Frac(1, 3), {1, 2})] * 3 + [(Frac(9, 10), {1, 2})],
                          2, {1: 1, 2: 2, 3: 1}, 4)
        plant(eng, 3, 2, BlockerType.S, 1)
        plant(eng, 2, 1, BlockerType.S, 2)
        assert eng.heads() == {4: 1, 1: 3, 3: 3, 2: 2}
        assert eng.value_layers() == {4: 1, 1: 1, 3: 1, 2: 2}
        assert all(eng.value_layers()[j] == reference_value_layer(eng, j)
                   for j in range(1, 5))

    def test_blocking_layer_is_the_deepest_cover_of_the_other_machines(self):
        # job 1's other machines 2 and 3 are covered in layers 1 and 2
        eng = engine_with([(Frac(1, 3), {1, 2, 3})] + [(Frac(1, 3), {2, 3})] * 2
                          + [(Frac(9, 10), {1, 2, 3})], 3, {1: 1, 2: 2, 3: 3}, 4)
        plant(eng, 3, 2, BlockerType.S, 1)
        plant(eng, 2, 3, BlockerType.S, 2)
        assert eng.blocking_layers(range(1, 4)) == {1: 2, 2: 2, 3: 1}
        assert blocked_smalls(eng, prefix=1) == {3}
        assert blocked_smalls(eng, prefix=1, on=1) == set()
        assert blocked_smalls(eng, prefix=2, on=1) == {1}
        assert eng.value_layers() == {4: 1, 1: 2, 2: 2, 3: 1}
        assert check_against_the_reference_table(eng)

    def test_huge_on_bb_machine_is_active(self):
        eng = engine_with([(Frac(9, 10), {1, 2}), (Frac(19, 20), {1, 2})],
                          2, {1: 1}, 2)
        planted = plant(eng, 2, 1, BlockerType.BB, 1)
        assert 1 in eng.value_layers()
        assert eng.activator_of(1) is planted
        # BB children stay in the activator's layer
        assert eng.head_layer_from(planted, 1) == 1

    def test_min_medium_rule_for_m_blockers(self):
        eng = engine_with([(Frac(3, 5), {1, 2}), (Frac(7, 10), {1, 2}),
                           (Frac(9, 10), {1, 2})], 2, {1: 1, 2: 1}, 3)
        plant(eng, 3, 1, BlockerType.M, 1)
        active = eng.value_layers()
        assert 1 in active and 2 not in active  # only the smallest medium

    def test_undesirable_table(self):
        eng = engine_with([(Frac(1, 3), {1, 2}), (Frac(3, 5), {1, 2}),
                           (Frac(7, 10), {1, 2}), (Frac(9, 10), {1, 2})],
                          2, {2: 1, 3: 1}, 4)
        plant(eng, 4, 1, BlockerType.BB, 1)
        assert not eng.undesirable_on(1, 1, prefix=1)  # small vs BB: fine
        assert eng.undesirable_on(4, 1, prefix=1)  # huge vs BB
        plant(eng, 1, 2, BlockerType.S, 1)
        assert eng.undesirable_on(1, 2, 1) and eng.undesirable_on(4, 2, 1)  # S: all
        # M blocker marks mediums up to the current smallest medium
        eng2 = engine_with([(Frac(3, 5), {1, 2}), (Frac(7, 10), {1, 2}),
                            (Frac(9, 10), {1, 2})], 2, {1: 1, 2: 1}, 3)
        plant(eng2, 3, 1, BlockerType.M, 1)
        assert eng2.undesirable_on(1, 1, prefix=1)
        assert not eng2.undesirable_on(2, 1, prefix=1)


class TestClassification:
    def test_huge_onto_single_medium_is_bb(self):
        eng = engine_with([(Frac(3, 5), {1, 2}), (Frac(7, 8), {1, 2})],
                          2, {1: 1}, 2)
        assert eng.classify_potential_move(2, 1, 1) is BlockerType.BB

    def test_huge_partition_picks_mm(self):
        # blocked small mass 3/10 on the target plus mediums {11/20, 3/5}
        eng = engine_with([(Frac(3, 10), {1, 3}), (Frac(11, 20), {1, 2}),
                           (Frac(3, 5), {1, 2}), (Frac(9, 10), {1, 2})],
                          3, {1: 1, 2: 1, 3: 1}, 4)
        plant(eng, 1, 3, BlockerType.S, 1)  # covers the small's alternative
        assert blocked_smalls(eng, prefix=1, on=1) == {1}
        assert eng.classify_potential_move(4, 1, 1) is BlockerType.MM

    def test_small_mover_is_s_without_conditions(self):
        eng = engine_with([(Frac(1, 3), {1, 2}), (Frac(9, 10), {1})],
                          2, {1: 1}, 2)
        assert eng.classify_potential_move(1, 2, 1) is BlockerType.S

    def test_medium_overload_is_ms(self):
        # target holds smalls summing 7/5; medium mover 3/5: 2 > 23/12
        eng = engine_with([(Frac(1, 2), {1}), (Frac(1, 2), {1}), (Frac(2, 5), {1}),
                           (Frac(3, 5), {1, 2}), (Frac(9, 10), {2})],
                          2, {1: 1, 2: 1, 3: 1, 4: 2}, 5)
        assert eng.classify_potential_move(4, 1, 1) is BlockerType.MS

    def test_move_already_in_tree_is_refused(self):
        eng = engine_with([(Frac(1, 3), {1, 2}), (Frac(9, 10), {1})],
                          2, {1: 1}, 2)
        plant(eng, 1, 2, BlockerType.S, 1)
        assert eng.classify_potential_move(1, 2, 1) is None

    def test_overloaded_small_prefix_gives_no_huge_type(self):
        eng = engine_with([(Frac(7, 20), {1}), (Frac(7, 20), {1}), (Frac(7, 20), {1}),
                           (Frac(9, 10), {1})], 1, {1: 1, 2: 1, 3: 1}, 4)
        assert eng.classify_potential_move(4, 1, 1) is None


class TestSelectionAndValidity:
    def test_priority_s_beats_bs(self):
        # machine 1 overloaded with smalls; inserting huge job adds a BS move,
        # then the activated smalls offer S moves of higher priority
        eng = engine_with([(Frac(2, 5), {1}), (Frac(1, 2), {1, 2}), (Frac(1, 2), {1, 3}),
                           (Frac(9, 10), {1})], 3, {1: 1, 2: 1, 3: 1}, 4)
        sel = eng.select_addition()
        assert sel == (4, 1, BlockerType.BS, 1)
        eng.add_blocker(*sel)
        sel2 = eng.select_addition()
        assert sel2 == (2, 2, BlockerType.S, 1)  # P4 beats the exhausted BS

    def test_valid_move_weak_inequality_boundary(self):
        # up-rounded load exactly cap - p_j: still valid (weak inequality)
        eng = engine_with([(Frac(5, 6), {2}), (Frac(11, 60), {2}), (Frac(9, 10), {1, 2})],
                          2, {1: 2, 2: 2}, 3)
        # no huge job on machine 2, so its up-rounded load is its plain load
        assert not eng.schedule.huges[2]
        assert scaled_load(eng.schedule, 2) + Frac(9, 10) == CAP
        assert eng.move_is_valid(3, 2)
        # one grain over the cap: invalid
        eng2 = engine_with([(Frac(5, 6), {2}), (Frac(12, 60), {2}), (Frac(9, 10), {1, 2})],
                           2, {1: 2, 2: 2}, 3)
        assert not eng2.move_is_valid(3, 2)

    def test_huge_collision_invalidates(self):
        eng = engine_with([(Frac(9, 10), {1, 2}), (Frac(19, 20), {1})],
                          2, {1: 1}, 2)
        assert not eng.move_is_valid(2, 1)

    def test_empty_machine_is_valid_target(self):
        eng = engine_with([(Frac(9, 10), {1})], 1, {}, 1)
        assert eng.move_is_valid(1, 1)


class TestRunScenarios:
    def test_immediate_success_on_free_machine(self):
        sc = scaled_of([(Frac(1, 3), {1}), (Frac(9, 10), {1, 2})], 2)
        sched = schedule_of(sc, {1: 1})
        result, eng = insert_huge_job(sched, 2)
        assert result is sched and sched.machine_of(2) == 1  # lowest BB target
        assert eng.adds == 1 and eng.moves == 1
        assert validate_partial_schedule(sched) == []

    def test_immediate_success_on_empty_only_machine(self):
        sc = scaled_of([(Frac(9, 10), {1})], 1)
        result, eng = insert_huge_job(Schedule(sc), 1)
        assert result.machine_of(1) == 1
        assert eng.adds == 1 and eng.moves == 1

    def test_three_smalls_stuck_with_reason(self):
        sc = scaled_of([(Frac(7, 20), {1}), (Frac(7, 20), {1}), (Frac(7, 20), {1}),
                        (Frac(9, 10), {1})], 1)
        sched = schedule_of(sc, {1: 1, 2: 1, 3: 1})
        result, eng = insert_huge_job(sched, 4, audit=True)
        assert isinstance(result, InsertionEngine)
        assert result.stuck_reason == "no-potential-move"
        assert eng.K == 48
        assert eng.tree.blockers() == []

    def test_bs_starred_failure_checkpoint_chain(self):
        """A small job escapes a BS blocker's machine, the starred condition
        fails, the sublayer dies, and the re-added move becomes BB in a
        strictly smaller sublayer. Checkpoints must increase throughout, with
        the run-end value measured before the activator prune (afterwards the
        tree is empty and the signature would dip below the last add)."""
        sc = scaled_of([(Frac(2, 5), {1}), (Frac(1, 2), {1, 2}), (Frac(1, 2), {1, 3}),
                        (Frac(9, 10), {1})], 3)
        sched = schedule_of(sc, {1: 1, 2: 1, 3: 1})
        result, eng = insert_huge_job(sched, 4, audit=True, log_events=True)
        assert result is sched and sched.machine_of(4) == 1
        assert sched.machine_of(2) == 2  # the escaped small
        assert eng.checkpoints == [
            ("add", ((0, 1, 0, 0, 0),)),      # BS blocker for the new job
            ("add", ((0, 1, 4, 0, 0),)),      # S move of the blocked small
            ("run-end", ((0, 2, 0, 0, 0),)),  # measured pre-prune
            ("add", ((4, 0, 0, 0, 0),)),      # re-added as BB after the prune
        ]
        assert eng.signature_dips == []
        kinds = [(e["event"], e["type"]) for e in eng.events]
        assert ("delete", "bs") in kinds  # starred prune of the BS sublayer

    def test_bb_activator_keeps_sublayer_on_move(self):
        # a huge job parked on a BB machine escapes; the BB sublayer survives
        # (no starred conditions) and the parent move turns valid
        sc = scaled_of([(Frac(1, 10), {2}), (Frac(9, 10), {1, 2}), (Frac(19, 20), {1})], 2)
        sched = schedule_of(sc, {1: 2, 2: 1})
        result, eng = insert_huge_job(sched, 3, log_events=True)
        assert result is sched
        assert sched.machine_of(3) == 1 and sched.machine_of(2) == 2
        moves = [e for e in eng.events if e["event"] == "move"]
        assert [ (e["job"], e["machine"]) for e in moves ] == [(2, 2), (3, 1)]
        deletes = [e for e in eng.events if e["event"] == "delete"]
        assert deletes == []  # BB has no starred conditions

    def test_roaming_huge_pigeonhole_sticks(self):
        m = 3
        jobs = [(Frac(1), {i + 1}) for i in range(m)] + [(Frac(59, 60), set(range(1, m + 1)))]
        sc = scaled_of(jobs, m, guess=Frac(11, 10))
        sched = Schedule(sc)
        for j in sorted(sc.huge_jobs(), reverse=True):
            result, eng = insert_huge_job(sched, j, audit=True)
            if isinstance(result, InsertionEngine):
                assert j == min(sc.huge_jobs())
                assert result.stuck_reason == "no-potential-move"
                return
        pytest.fail("expected the roaming huge job to get stuck")

    def test_min_medium_collapse_dips_at_run_end_only(self):
        """When the final move of a run empties its activator's medium set,
        the measured run-end potential legitimately drops below the previous
        add checkpoint (the min-medium term collapses just before the starred
        prune removes the sublayer). The dip is recorded, never fatal, and
        the following add lands in a strictly smaller sublayer, restoring
        strict growth across add checkpoints."""
        sc = scaled_of([(Frac(3, 20), {1, 2}), (Frac(1, 3), {1, 2}),
                        (Frac(29, 60), {1}), (Frac(31, 60), {1, 2}),
                        (Frac(59, 60), {1, 2}), (Frac(19, 20), {2})],
                       2, guess=Frac(767, 750))
        sched = schedule_of(sc, {1: 1, 2: 1, 3: 1, 4: 1, 6: 2})
        result, eng = insert_huge_job(sched, 5, audit=True, log_events=True)
        assert result is sched and validate_partial_schedule(sched) == []
        assert eng.signature_dips == [
            (((5, 0, 0, 4, 0), (5, 0, 0, 0, 0)), ((5, 0, 0, 0, 0),))
        ]
        adds = [sig for kind, sig in eng.checkpoints if kind == "add"]
        for a, b in zip(adds, adds[1:]):
            assert InsertionEngine.signature_lt(a, b)
        assert adds[-1] == ((11, 0, 0, 0, 0),)  # re-add in a smaller sublayer

    def test_determinism_identical_event_streams(self):
        inst = generate_instance(GenSpec(machines=3, jobs=8, preset="collision",
                                         density=Frac(1, 2), seed=7))
        guess = max(inst.sizes[1:]) * Frac(21, 20)
        runs = []
        for _ in range(2):
            sc = scale_instance(inst, guess, EPS)
            try:
                sched = rounded_seed(sc)
            except SeedInfeasible:
                pytest.skip("seed infeasible at this guess")
            events = []
            for j in sorted(sc.huge_jobs(), reverse=True):
                result, eng = insert_huge_job(sched, j, log_events=True)
                events.extend(eng.events)
                if isinstance(result, InsertionEngine):
                    break
            runs.append(events)
        assert runs[0] == runs[1]

    def test_layer_overflow_reported_when_cap_too_low(self):
        eng = engine_with([(Frac(1, 3), {1}), (Frac(9, 10), {1, 2})], 2, {1: 1}, 2)
        assert 2 in eng.value_layers() and eng.select_addition()[3] == 1
        eng.K = 0  # shrink the cap below the head layer of the new job
        assert eng.select_addition() == "layer-overflow"

    def test_active_set_on_empty_tree(self):
        # the new job plus trivially blocked smalls, nothing else
        eng = engine_with([(Frac(1, 4), {1}), (Frac(1, 4), {1, 2}),
                           (Frac(9, 10), {1, 2})], 2, {1: 1, 2: 1}, 3)
        assert set(eng.value_layers()) == {1, 3}

    def test_watchdog_trips(self, monkeypatch):
        sc = scaled_of([(Frac(9, 10), {1, 2}), (Frac(1, 3), {1})], 2)
        sched = schedule_of(sc, {1: 1})
        monkeypatch.setattr(engine_module, "WATCHDOG", 0)
        with pytest.raises(EngineInvariantError):
            InsertionEngine(sched, 2).run()

    def test_insertion_preconditions(self):
        sc = scaled_of([(Frac(1, 3), {1}), (Frac(9, 10), {1})], 1)
        sched = schedule_of(sc, {1: 1})
        with pytest.raises(ValueError):
            InsertionEngine(sched, 1)  # not huge
        sched2 = schedule_of(sc, {2: 1})
        with pytest.raises(ValueError):
            InsertionEngine(sched2, 2)  # already assigned


class TestSignature:
    def test_empty_tree_empty_vector(self):
        eng = engine_with([(Frac(9, 10), {1})], 1, {}, 1)
        assert eng.signature_vector() == ()

    def test_bb_component_value(self):
        eng = engine_with([(Frac(1, 3), {1, 2}), (Frac(1, 3), {1, 2}),
                           (Frac(1, 3), {1, 2}), (Frac(9, 10), {1, 2}),
                           (Frac(19, 20), {1, 2})], 2, {1: 1, 2: 1, 3: 1, 4: 2}, 5)
        plant(eng, 5, 2, BlockerType.BB, 1)
        assert eng.signature_vector() == ((4, 0, 0, 0, 0),)  # |J|-|H_2| = 5-1

    def test_m_component_is_min_medium_id(self):
        eng = engine_with([(Frac(1, 4), {1}), (Frac(1, 4), {1}), (Frac(3, 5), {1, 2}),
                           (Frac(7, 10), {1, 2}), (Frac(9, 10), {1, 2})],
                          2, {3: 1, 4: 1}, 5)
        plant(eng, 5, 1, BlockerType.M, 2)
        assert eng.signature_vector() == ((0, 0, 0, 0, 0), (0, 0, 0, 3, 0))

    def test_lex_padding_rules(self):
        lt = InsertionEngine.signature_lt
        assert not lt(((1, 2, 0, 0, 0),), ((1, 2, 0, 0, 0),))
        assert not lt(((1, 2, 0, 0, 0), (0, 0, 0, 0, 0)), ((1, 2, 0, 0, 0),))
        assert lt((), ((0, 0, 1, 0, 0),))
        assert lt(((1, 0, 0, 0, 0),), ((1, 0, 0, 0, 1),))


class TestAuditSuite:
    def test_clean_after_each_add(self):
        eng = engine_with([(Frac(2, 5), {1}), (Frac(1, 2), {1, 2}), (Frac(1, 2), {1, 3}),
                           (Frac(9, 10), {1})], 3, {1: 1, 2: 1, 3: 1}, 4)
        sel = eng.select_addition()
        eng.add_blocker(*sel)
        assert eng.check_invariants() == []

    def test_corrupted_bb_condition_reported(self):
        eng = engine_with([(Frac(5, 6), {1}), (Frac(5, 6), {1}), (Frac(19, 20), {1, 2}),
                           (Frac(9, 10), {2})], 2, {1: 1, 2: 1, 3: 1}, 4)
        # machine 1 load 5/3 and mover 19/20: 5/3 + 19/20 > 23/12 breaks BB
        plant(eng, 3, 1, BlockerType.BB, 1)
        msgs = eng.check_invariants()
        assert any("huge-target load condition" in m for m in msgs)

    @pytest.mark.parametrize("counter,message", [
        ("plain_load", "small and medium load drifted")])
    def test_drifted_load_counters_reported(self, counter, message):
        eng = engine_with([(Frac(2, 5), {1}), (Frac(1, 2), {1, 2}), (Frac(9, 10), {1})],
                          2, {1: 1, 2: 2}, 3)
        assert eng.check_invariants() == []
        getattr(eng.schedule, counter)[2] += 1
        assert [m for m in eng.check_invariants() if "drifted" in m] == [
            f"machine 2 {message}"]

    @pytest.mark.parametrize("older", [False, True])
    def test_a_blocker_older_than_the_one_before_it_is_reported(self, older):
        # `activator_of` takes the first marking blocker on a machine, which
        # is the earliest-stamped one only while stamps increase along the tree
        eng = engine_with([(Frac(2, 5), {1}), (Frac(1, 2), {1, 2}), (Frac(1, 2), {1, 3}),
                           (Frac(9, 10), {1})], 3, {1: 1, 2: 1, 3: 1}, 4)
        first = eng.add_blocker(*eng.select_addition())
        j, i, btype, layer = eng.select_addition()
        stamp = first.stamp - 1 if older else eng.tree.next_stamp()
        eng.tree.push(Blocker(j, i, btype, layer, stamp, first))
        assert eng.check_invariants() == (
            ["Blocker(j2->m2 s L1.3 #0) is not newer than the blocker before it"]
            if older else [])

    def test_a_second_all_undesirable_blocker_on_a_machine_is_reported(self):
        # `cover` maps each machine to its one all-undesirable blocker
        eng = engine_with([(Frac(1, 3), {1, 2}), (Frac(1, 3), {1, 2}), (Frac(9, 10), {1, 2})],
                          2, {1: 1, 2: 1}, 3)
        plant(eng, 1, 2, BlockerType.S, 1)
        assert not any("two all-undesirable" in m for m in eng.check_invariants())
        plant(eng, 2, 2, BlockerType.S, 2)
        assert [m for m in eng.check_invariants() if "two all-undesirable" in m] == [
            "machine 2 in two all-undesirable blockers"]

    def test_mm_needs_two_mediums(self):
        eng = engine_with([(Frac(3, 5), {1, 2}), (Frac(9, 10), {1, 2})],
                          2, {1: 1}, 2)
        plant(eng, 2, 1, BlockerType.MM, 1)
        msgs = eng.check_invariants()
        assert any("fewer than two medium" in m for m in msgs)

    @pytest.mark.parametrize("seed", range(40))
    def test_randomized_runs_stay_clean(self, seed):
        rng = random.Random(seed)
        m = 2 + seed % 3
        inst = generate_instance(GenSpec(
            machines=m, jobs=m + 2 + seed % 5,
            preset=("uniform", "huge_heavy", "collision")[seed % 3],
            density=Frac(2, 3), seed=seed))
        guess = max(inst.sizes[1:]) * Frac(rng.randint(100, 125), 100)
        sc = scale_instance(inst, guess, EPS)
        try:
            sched = rounded_seed(sc)
        except SeedInfeasible:
            return
        for j in sorted(sc.huge_jobs(), reverse=True):
            result, eng = insert_huge_job(sched, j, audit=True)
            if isinstance(result, InsertionEngine):
                break
        assert validate_partial_schedule(sched) == []


class LayeredTree:
    """Reference model: five insertion-ordered lists per layer, with the
    suffix wipes the engine performs spelled out sublayer by sublayer."""

    def __init__(self):
        self.layers = {}

    def append(self, b):
        self.layers.setdefault(b.layer, [[], [], [], [], []])[b.sublayer - 1].append(b)

    def delete_after_sublayer(self, layer, sub):
        removed = 0
        for k, subs in self.layers.items():
            for s in range(1, 6):
                if (k, s) > (layer, sub):
                    removed += len(subs[s - 1])
                    subs[s - 1] = []
        return removed

    def delete_sublayer(self, layer, sub):
        subs = self.layers.get(layer)
        if not subs:
            return 0
        removed = len(subs[sub - 1])
        subs[sub - 1] = []
        return removed

    def live(self):
        return [b for k in sorted(self.layers) for sub in self.layers[k] for b in sub]


class TestBlockerIndex:
    """The stack must always equal a scan of the layered reference tree."""

    @pytest.mark.parametrize("seed", range(10))
    def test_index_tracks_appends_and_deletions(self, seed):
        rng = random.Random(seed)
        tree, model = BlockerTree(), LayeredTree()
        dropped = set()
        for _ in range(120):
            op = rng.random()
            if op < 0.6:
                live_moves = {(b.job, b.machine) for b in model.live()}
                job, machine = rng.randint(1, 8), rng.randint(1, 4)
                if (job, machine) in live_moves:
                    continue  # the engine never repeats a live move
                b = Blocker(job, machine, rng.choice(list(BlockerType)),
                            rng.randint(1, 4), tree.next_stamp(), None)
                before = model.live()
                model.append(b)
                removed = model.delete_after_sublayer(b.layer, b.sublayer)
                assert tree.push(b) == removed
            else:
                layer, sub = rng.randint(1, 4), rng.randint(1, 5)
                inclusive = op >= 0.85
                before = model.live()
                removed = model.delete_after_sublayer(layer, sub)
                if inclusive:
                    removed += model.delete_sublayer(layer, sub)
                assert tree.truncate(layer, sub, inclusive=inclusive) == removed
            live = model.live()
            dropped |= set(before) - set(live)
            assert tree.blockers() == live
            assert all(a.stamp < b.stamp for a, b in zip(live, live[1:]))
            assert all(b.alive for b in live)
            assert not any(b.alive for b in dropped)
            assert set(tree.machines()) == {b.machine for b in live}
            for i in range(1, 5):
                on = list(tree.blockers_on(i))
                assert on == [b for b in live if b.machine == i]
                assert all(a.stamp < b.stamp for a, b in zip(on, on[1:]))
                for j in range(1, 9):
                    assert tree.contains_move(j, i) == any(
                        b.job == j and b.machine == i for b in live)

    def test_push_rejects_a_live_move(self):
        tree = BlockerTree()
        tree.push(Blocker(1, 2, BlockerType.S, 1, tree.next_stamp(), None))
        with pytest.raises(EngineInvariantError):
            tree.push(Blocker(1, 2, BlockerType.BB, 1, tree.next_stamp(), None))
        # once the move is popped it may come back
        assert tree.truncate(1, 3, inclusive=True) == 1
        tree.push(Blocker(1, 2, BlockerType.BB, 1, tree.next_stamp(), None))
        assert tree.contains_move(1, 2)

    @pytest.mark.parametrize("seed", range(24))
    def test_activators_match_a_full_scan(self, seed):
        inst = generate_instance(GenSpec(
            machines=3 + seed % 4, jobs=10 + seed % 7,
            preset=("uniform", "huge_heavy", "collision")[seed % 3],
            density=Frac(2, 3), seed=seed))
        sc = scale_instance(inst, max(inst.sizes[1:]) * Frac(100 + seed, 100), EPS)
        try:
            sched = rounded_seed(sc)
        except SeedInfeasible:
            return
        for j_new in sorted(sc.huge_jobs(), reverse=True):
            result, eng = insert_huge_job(sched, j_new)
            for j in assigned_jobs(sched):
                home = sched.machine_of(j)
                marking = [b for b in eng.tree.blockers()
                           if b.machine == home and eng.marks_undesirable(b, j)]
                expected = min(marking, key=lambda b: b.stamp, default=None)
                assert eng.activator_of(j) is expected
            if isinstance(result, InsertionEngine):
                break


#: computed with the layered tree (five lists per layer) before the stack
PINNED_TRACE_DIGEST = "c94e4a91745ed318b3bb4a959653022938675ad2e95120c4121f52c62860897d"


def digest_instances():
    """24 two-value and 24 collision/huge_heavy instances."""
    instances = [two_value_instance(random.Random(300 + k), 10 + k % 13) for k in range(24)]
    instances += [generate_instance(GenSpec(
        machines=3 + k % 4, jobs=8 + k % 7, preset=("collision", "huge_heavy")[k % 2],
        density=Frac(1 + k % 3, 4), seed=k)) for k in range(24)]
    return instances


def trace_digest():
    """sha256 over the report text, every engine event and every final tree
    snapshot of the `digest_instances` solves; every fourth solve runs with
    the audit on."""
    h = hashlib.sha256()
    for k, inst in enumerate(digest_instances()):
        rep = solve(inst, EPS, Frac(1, 100), log_events=True, audit=k % 4 == 0)
        h.update(rep.to_text().encode())
        for guess, run in rep.run_logs:
            h.update(json.dumps([str(guess), run.j_new, run.outcome, run.events,
                                 run.snapshot], sort_keys=True).encode())
    return h.hexdigest()


def test_traces_match_the_pinned_digest():
    """Reports, event logs and tree snapshots are those of the layered tree
    that the stack replaced."""
    assert trace_digest() == PINNED_TRACE_DIGEST


def reference_blocked_small_table(engine):
    """The cumulative table that `InsertionEngine.cover` and the blocking
    layers replaced, kept as their reference: rows (boundary layer, covered
    machines, blocked small jobs), row 0 for the empty prefix and one more
    at each occupied layer whose all-undesirable blockers cover a new
    machine."""
    assignment, gamma = engine.schedule.assignment, engine.scaled.base.gamma
    smalls = range(1, engine.scaled.small_end)

    def blocked(covered):
        # every permitted machine other than the job's own is covered
        return frozenset(j for j in smalls
                         if all(i in covered or i == assignment[j] for i in gamma[j]))

    rows = [(0, frozenset(), blocked(()))]
    covered = set()
    for k, layer in groupby(engine.tree.blockers(), key=lambda b: b.layer):
        adds = {b.machine for b in layer if b.btype.all_undesirable}
        if adds - covered:
            covered |= adds
            rows.append((k, frozenset(covered), blocked(covered)))
    return rows


def reference_prefix_row(rows, prefix):
    """The table row of the blockers in layers <= prefix (all when None)."""
    return [row for row in rows if prefix is None or row[0] <= prefix][-1]


def reference_value_layer(engine, j):
    """The per-job value layer that `InsertionEngine.value_layers` replaced,
    kept as its reference: 1 for the inserted job, else the smaller of the
    head layer under j's activator and, for a blocked small job, the first
    prefix of the blocked-small table that blocks it (at least 1)."""
    if j == engine.j_new:
        return 1
    options = []
    parent = engine.activator_of(j)
    if parent is not None:
        options.append(engine.head_layer_from(parent, j))
    rows = reference_blocked_small_table(engine)
    if engine.scaled.is_small(j) and j in rows[-1][2]:
        options.append(next(max(1, layer) for layer, _, blocked in rows if j in blocked))
    assert options, f"job {j} is not active"
    return min(options)


def test_value_layers_match_the_per_job_reference(monkeypatch):
    """On every stuck state of probes at twelve guesses from the largest
    size up, on each digest instance, `value_layers` gives every active job
    the layer of the per-job derivation."""
    engines = []
    build = driver.build_dual_certificate

    def recording(engine, scaled):
        layers = engine.value_layers()
        assert layers == {j: reference_value_layer(engine, j) for j in layers}
        assert set(layers) == set(engine.heads()) | blocked_smalls(engine)
        engines.append(engine)
        return build(engine, scaled)

    monkeypatch.setattr(driver, "build_dual_certificate", recording)
    for inst in digest_instances():
        network = AssignmentNetwork(inst)
        densest = driver.max_density(inst, network)
        for k in range(12):
            driver._probe(inst, max(inst.sizes[1:]) * Frac(20 + k, 20), EPS, audit=False,
                          log_events=False, run_logs=[], counters=Counter(),
                          network=network, densest=densest, memo={})
    assert len(engines) >= 90
    # blocked small jobs without an activator get their value layer from the table
    assert sum(len(blocked_smalls(e) - set(e.heads())) for e in engines) >= 10


def test_final_move_signature_is_computed_only_for_the_log(monkeypatch):
    """The inserted job's own move ends its run, and its signature only goes
    to the event log: without events, that signature is not computed. Only
    the runs that execute count: a run that a repeated engine image replays
    computes no signature."""
    calls, executed = [], []
    original, run = InsertionEngine.signature_vector, InsertionEngine.run

    def counting(self):
        calls.append(None)
        return original(self)

    def recording(self):
        executed.append(self)
        return run(self)

    monkeypatch.setattr(InsertionEngine, "signature_vector", counting)
    monkeypatch.setattr(InsertionEngine, "run", recording)
    inst = two_value_instance(random.Random(305), 16)
    quiet = solve(inst, EPS, Frac(1, 100))
    quiet_calls = len(calls)
    executed.clear()
    logged = solve(inst, EPS, Frac(1, 100), log_events=True)
    final_moves = sum(1 for engine in executed for ev in engine.events
                      if ev["event"] == "move" and ev["job"] == engine.j_new)
    assert quiet.to_text() == logged.to_text()
    assert final_moves >= 10
    assert len(calls) - quiet_calls == quiet_calls + final_moves


def test_blocking_layers_match_the_reference_table(monkeypatch):
    """At every `select_addition` of the insertion runs of
    `aggressive_stuck_states` on seeds 0..3999 and of the `digest_instances`
    solves, the blocked small jobs, each machine's, the covered machines and
    the value layers equal the reference table's, at every prefix from 0 to
    one past the top layer and at None. A cover blocks a small job outside
    the table's row 0 in few states: 19 of 8,324."""
    tally = Counter()
    select = InsertionEngine.select_addition

    def checking(engine):
        tally["states"] += 1
        tally["beyond row 0"] += check_against_the_reference_table(engine)
        return select(engine)

    monkeypatch.setattr(InsertionEngine, "select_addition", checking)
    for _ in aggressive_stuck_states(range(4000)):
        pass
    for inst in digest_instances():
        solve(inst, EPS, Frac(1, 100))
    assert tally["states"] >= 8000
    assert tally["beyond row 0"] >= 16


def check_against_the_reference_table(engine):
    """Compare the engine's derived sets, and the blocked small load its
    load conditions read, with the reference table's; True when a cover
    blocks a small job outside row 0."""
    rows = reference_blocked_small_table(engine)
    cover = engine.cover()
    q = engine.scaled.base.integer_image[1]
    top = max((b.layer for b in engine.tree.blockers()), default=0)
    for prefix in [*range(top + 2), None]:
        _, covered, blocked = reference_prefix_row(rows, prefix)
        assert blocked_smalls(engine, prefix) == blocked
        assert {i for i, b in cover.items() if prefix is None or b.layer <= prefix} == covered
        for i in engine.scaled.base.machines:
            on_i = {j for j in blocked if engine.schedule.machine_of(j) == i}
            assert blocked_smalls(engine, prefix, on=i) == on_i
            if prefix is not None:
                assert engine._small_and_min_medium(i, prefix)[0] == sum(q[j] for j in on_i)
    layers = engine.value_layers()
    assert set(layers) == set(engine.heads()) | rows[-1][2]
    assert layers == {j: reference_value_layer(engine, j) for j in layers}
    return rows[-1][2] != rows[0][2]
