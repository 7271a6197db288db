import dataclasses
import hashlib
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from rasched.rational import Frac, ZERO, integer_image, parse_ratio
from rasched.model import parse_instance, make_instance, scale_instance
from rasched.engine import BlockerType, InsertionEngine
from rasched.flow import AssignmentNetwork
from rasched.seed import hall_bound, max_density
from rasched.certificate import (_active_on, best_configuration,
                                 build_dual_certificate, verify_certificate,
                                 check_bs_s_machine_counts,
                                 check_covered_machine_margin,
                                 check_big_job_value_bound,
                                 certificate_to_text, certificate_from_text,
                                 recheck_certificate, config_lp_feasible_cg,
                                 config_lp_lower_bound,
                                 CertificateError, CertificateFormatError)
from rasched.generator import GenSpec, generate_instance

from conftest import (EPS, aggressive_stuck_states, deadline, insert_huge_job,
                      lp_bound_instance, reference_dual_certificate, reference_verify,
                      rounded_seed, scaled_of, schedule_of, two_value_instance)
from reference import exact_config_lp_feasible

DELTA = 1 - EPS  # 23/24

# engine-produced stuck state with BB, BS and S blockers alive (frozen run)
RICH_TEXT = """ra 1
machines 3
job j1 3/20 : 1
job j2 1/1 : 2 3
job j3 1/5 : 2 3
job j4 4/5 : 3
job j5 23/60 : 1 2
job j6 1/10 : 1
job j7 17/20 : 2
job j8 1/1 : 3
job j9 59/60 : 1 3
"""
RICH_GUESS = Frac(26, 25)


def three_smalls_stuck():
    sc = scaled_of([(Frac(7, 20), {1}), (Frac(7, 20), {1}), (Frac(7, 20), {1}),
                    (Frac(9, 10), {1})], 1)
    sched = schedule_of(sc, {1: 1, 2: 1, 3: 1})
    result, _ = insert_huge_job(sched, 4, audit=True)
    assert isinstance(result, InsertionEngine)
    return result, sc


def rich_stuck():
    inst = parse_instance(RICH_TEXT)
    sc = scale_instance(inst, RICH_GUESS, EPS)
    sched = rounded_seed(sc)
    for j in sorted(sc.huge_jobs(), reverse=True):
        result, _ = insert_huge_job(sched, j, audit=True)
        if isinstance(result, InsertionEngine):
            return result, sc
    pytest.fail("frozen fixture no longer reaches a stuck state")


def test_a_certificate_too_long_to_print_is_over_a_cap():
    """At epsilon = 1/1000 on four machines, K = 6000, so the grid d^t has
    more than 18,000 digits, past what Python prints (4300 by default): the
    build refuses it before any integer is printed, naming epsilon and the
    digit count. At 1/200 the same stuck probe's certificate is built,
    printed and verified."""
    import sys
    from rasched.driver import solve
    from rasched.oracle import CapExceededError
    inst = make_instance(4, [(Frac(1), {1}), (Frac(1), {2}), (Frac(1), {3}), (Frac(1), {4}),
                             (Frac(59, 60), {1, 2, 3, 4})])
    assert sys.get_int_max_str_digits() == 4300
    with pytest.raises(CapExceededError, match="at epsilon 1/1000 .* 180[0-9]{2} digits"):
        solve(inst, Frac(1, 1000))
    report = solve(inst, Frac(1, 200))
    assert report.certificates and report.lower_bound_kind == "stuck-certificate"
    for _, cert in report.certificates:
        text = certificate_to_text(cert, inst)
        assert recheck_certificate(certificate_from_text(text, inst), inst)


class TestBuild:
    def test_new_job_value_and_inactives(self):
        stuck, sc = three_smalls_stuck()
        cert = build_dual_certificate(stuck, sc)
        assert cert.K == 48 and cert.delta == DELTA
        assert cert.z[4] == DELTA * Frac(5, 6) == Frac(115, 144)
        for j in (1, 2, 3):  # trivially blocked smalls at layer 1
            assert cert.z[j] == DELTA * Frac(7, 20) == Frac(161, 480)
        assert cert.y[1] - DELTA ** 48 == sum((cert.z[j] for j in (1, 2, 3)), ZERO)

    def test_inactive_job_gets_zero(self):
        stuck, sc = rich_stuck()
        cert = build_dual_certificate(stuck, sc)
        unassigned_huge = [j for j in sc.base.jobs
                           if stuck.schedule.machine_of(j) is None and j != stuck.j_new]
        assert unassigned_huge and all(cert.z[j] == 0 for j in unassigned_huge)

    def test_w_corrections_on_bs_and_s_machines(self):
        stuck, sc = rich_stuck()
        eng = stuck
        types = {b.btype for b in eng.tree.blockers()}
        assert {BlockerType.BB, BlockerType.BS, BlockerType.S} <= types
        cert = build_dual_certificate(stuck, sc)
        w = {i: cert.y[i] - DELTA ** cert.K for i in sc.base.machines}
        active_on = _active_on(eng, eng.value_layers())
        for b in eng.tree.blockers():
            base = sum((cert.z[j] for j in active_on[b.machine]), ZERO)
            if b.btype is BlockerType.BS:
                assert w[b.machine] == base + DELTA ** b.layer / 6
            elif b.btype is BlockerType.S:
                assert w[b.machine] == base - DELTA ** b.layer / 6
        plain = [i for i in sc.base.machines
                 if all(b.machine != i or b.btype not in (BlockerType.BS, BlockerType.S)
                        for b in eng.tree.blockers())]
        for i in plain:
            assert w[i] == sum((cert.z[j] for j in active_on[i]), ZERO)


class TestVerify:
    def test_three_smalls_certificate_verifies(self):
        stuck, sc = three_smalls_stuck()
        cert = build_dual_certificate(stuck, sc)
        assert verify_certificate(cert, sc)
        assert all(line.endswith(" PASS") for line in cert.transcript)
        assert len(cert.transcript) == 1 + sc.base.num_machines

    def test_rich_certificate_verifies(self):
        stuck, sc = rich_stuck()
        cert = build_dual_certificate(stuck, sc)
        assert verify_certificate(cert, sc)

    def test_scaling_homogeneity(self):
        stuck, sc = rich_stuck()
        cert = build_dual_certificate(stuck, sc)
        for alpha in (Frac(3, 2), Frac(1, 7), Frac(12)):
            scaled_cert = dataclasses.replace(
                cert, transcript=[],
                z={j: v * alpha for j, v in cert.z.items()},
                y={i: v * alpha for i, v in cert.y.items()})
            assert verify_certificate(scaled_cert, sc)

    def test_corrupted_z_is_caught_with_witness(self):
        stuck, sc = three_smalls_stuck()
        cert = build_dual_certificate(stuck, sc)
        cert.z[4] *= 2
        assert not verify_certificate(cert, sc)
        machine, value, bound = failed_machines(cert.transcript)[0]
        assert machine == 1 and value > bound
        # the best configuration on machine 1 holds the corrupted job
        scale, ints = integer_image(cert.z.values())
        _, config = best_configuration(sc.base.permitted_on[1], sc.base.integer_image[1],
                                       dict(zip(cert.z, ints)), sc.fit)
        assert 4 in config

    def test_claim_checks_on_stuck_states(self):
        for stuck, sc in (three_smalls_stuck(), rich_stuck()):
            cert = build_dual_certificate(stuck, sc)
            ok, counts = check_bs_s_machine_counts(stuck)
            assert ok
            assert check_covered_machine_margin(stuck, cert) == []
            assert check_big_job_value_bound(stuck, cert) == []

    def test_rich_counts_include_balanced_layer(self):
        stuck, _ = rich_stuck()
        _, counts = check_bs_s_machine_counts(stuck)
        assert counts == {1: (1, 1)}


class TestSerialization:
    def test_round_trip_and_recheck(self):
        stuck, sc = rich_stuck()
        cert = build_dual_certificate(stuck, sc)
        verify_certificate(cert, sc)
        inst = sc.base
        text = certificate_to_text(cert, inst)
        again = certificate_from_text(text, inst)
        assert again.z == cert.z and again.y == cert.y
        assert again.K == cert.K and again.guess == cert.guess
        assert recheck_certificate(again, inst)
        assert certificate_to_text(again, inst).splitlines()[:6] == text.splitlines()[:6]

    def test_tampered_text_fails_recheck(self):
        stuck, sc = three_smalls_stuck()
        cert = build_dual_certificate(stuck, sc)
        inst = sc.base
        text = certificate_to_text(cert, inst)
        tampered = text.replace("guess 1/1", "guess 2/1")
        again = certificate_from_text(tampered, inst)
        assert not recheck_certificate(again, inst)

    def test_margin_audit_reads_a_round_trip_like_the_built_certificate(self):
        """The covered-machine margin reads only what the text keeps."""
        states = [rich_stuck()[0]] + [
            stuck for stuck in aggressive_stuck_states(range(400))
            if any(b.btype.all_undesirable for b in stuck.tree.blockers())]
        assert len(states) > 1
        for stuck in states:
            cert = build_dual_certificate(stuck, stuck.scaled)
            inst = stuck.scaled.base
            again = certificate_from_text(certificate_to_text(cert, inst), inst)
            assert (check_covered_machine_margin(stuck, again)
                    == check_covered_machine_margin(stuck, cert))


class TestCertificateFormat:
    @pytest.mark.parametrize("edit,line,message", [
        (lambda t: t.replace("machines 1\n", "machines 1\nmachines 1\n"), 7,
         "repeated 'machines' line"),
        (lambda t: t.replace("machines 1\n", "machines 2\n"), 6,
         "certificate has 2 machines, the instance 1"),
        (lambda t: t.replace("guess 1/1", "guess 0/1"), 2, "guess must be positive"),
        (lambda t: t.replace("K ", "Kay "), 5, "unknown certificate line"),
        (lambda t: t.replace("delta 23/24", "delta 23/24 1"), 4, "wrong number of fields"),
        (lambda t: t.replace("epsilon 1/24", "epsilon 1/0"), 3, "bad number"),
        (lambda t: t.replace("epsilon 1/24", "epsilon 0/1"), 3,
         "epsilon must lie strictly between 0 and 1/12"),
        (lambda t: t.replace("epsilon 1/24", "epsilon 1/12"), 3,
         "epsilon must lie strictly between 0 and 1/12"),
        (lambda t: t.replace("delta 23/24", "delta 1/7"), 4, "delta must be 1 - epsilon = 23/24"),
        (lambda t: t.replace("K 48", "K 1"), 5, "K must be the layer cap 48"),
        (lambda t: t + "y 2 0/1\n", None, "no machine 2 in the instance"),
        (lambda t: t + "y 1 0/1\n", None, "repeated 'y 1' line"),
        (lambda t: t.replace("ra-certificate 1\n", ""), 1, "expected header 'ra-certificate 1'"),
        (lambda t: t.replace("ra-certificate 1", "ra-certificate 2"), 1,
         "expected header 'ra-certificate 1'"),
        (lambda t: t + "ra-certificate 1\n", None, "unknown certificate line"),
    ])
    def test_malformed_text_names_its_line(self, edit, line, message):
        stuck, sc = three_smalls_stuck()
        text = certificate_to_text(build_dual_certificate(stuck, sc), sc.base)
        bad = edit(text)
        assert bad != text
        with pytest.raises(CertificateFormatError) as info:
            certificate_from_text(bad, sc.base)
        expected = line if line is not None else len(bad.splitlines())
        assert info.value.line == expected
        assert str(info.value).startswith(f"line {expected}: {message}")


class TestBestConfiguration:
    def test_matches_the_best_subset(self):
        rng = random.Random(19)
        for _ in range(200):
            jobs = sorted(rng.sample(range(1, 16), rng.randint(0, 12)))
            sizes = [rng.randint(1, 12) for _ in range(16)]
            values = [rng.randint(0, 9) for _ in range(16)]
            room = rng.randint(0, 30)
            value, config = best_configuration(jobs, sizes, values, room)
            assert value == max(
                sum(values[j] for j in subset)
                for r in range(len(jobs) + 1) for subset in itertools.combinations(jobs, r)
                if sum(sizes[j] for j in subset) <= room)
            assert list(config) == sorted(set(config)) and set(config) <= set(jobs)
            assert all(values[j] > 0 for j in config)
            assert sum(sizes[j] for j in config) <= room
            assert sum(values[j] for j in config) == value

    @given(st.lists(st.tuples(st.integers(1, 12), st.integers(0, 9)), max_size=12),
           st.integers(1, 7), st.integers(0, 120))
    def test_sizes_times_b_give_the_answer_of_the_floored_capacity(self, items, b, room):
        """Weights b q against a capacity C give the value and job tuple of
        weights q against floor(C / b). The floored fractional bound prunes
        differently, so this holds only since the first optimum in
        take-before-skip order is kept."""
        jobs = range(1, len(items) + 1)
        q, values = [0] + [w for w, _ in items], [0] + [v for _, v in items]
        assert (best_configuration(jobs, [b * x for x in q], values, room)
                == best_configuration(jobs, q, values, room // b))

    def test_nothing_that_fits_gives_the_empty_configuration(self):
        sizes, values = (0, 5, 1, 7), (0, 4, 0, 2)
        assert best_configuration((1, 2, 3), sizes, values, 4) == (0, ())
        assert best_configuration((), sizes, values, 9) == (0, ())


TAU = Frac(1, 100)


def solve_facts(inst):
    """The keyword facts that `solve(..., lp_bound=True)` hands the config-LP
    bound: its reported schedule and the Hall bound on the instance's
    network, stopped once it reaches that schedule's makespan."""
    from rasched.driver import solve
    report = solve(inst, tau=TAU)
    makespan = report.makespan * inst.integer_image[0]
    assert makespan.denominator == 1
    network = AssignmentNetwork(inst)
    hall = hall_bound(inst, network, max_density(inst, network), makespan.numerator)
    return {"assignment": {j: report.assignment[inst.name_of(j)] for j in inst.jobs},
            "infeasible_below": hall}


def solved_bound(inst, tolerance):
    return config_lp_lower_bound(inst, tolerance, **solve_facts(inst))


def grid_floor(inst, infeasible_below):
    """ceil(max(largest size, H) L) / L: where the bound's search starts."""
    L = inst.integer_image[0]
    return Frac(math.ceil(max(*inst.sizes[1:], infeasible_below) * L), L)


def schedule_makespan(inst, assignment):
    return max(sum((inst.sizes[j] for j, i in assignment.items() if i == machine), ZERO)
               for machine in inst.machines)


class TestConfigLPBounds:
    def test_single_machine_exact_total(self):
        inst = make_instance(1, [(Frac(3, 4), {1}), (Frac(1), {1})])
        bound = solved_bound(inst, Frac(1, 100))
        assert (bound.lower, bound.probes) == (Frac(7, 4), 0)
        assert exact_config_lp_feasible(inst, bound.lower)
        assert not exact_config_lp_feasible(inst, Frac(3, 2))  # one grid step below

    def test_perfect_split_found_at_trivial_bound(self):
        inst = make_instance(2, [(Frac(1), {1, 2}), (Frac(1), {1, 2})])
        bound = solved_bound(inst, Frac(1, 100))
        assert (bound.lower, bound.probes) == (1, 0)  # the search starts closed

    def test_feasible_run_produces_covering_weights(self):
        inst = make_instance(2, [(Frac(1, 2), {1}), (Frac(1, 2), {2}), (Frac(1), {1, 2})])
        run = config_lp_feasible_cg(inst, Frac(3, 2), pool={})
        assert run.status == "feasible"
        cover = {j: ZERO for j in inst.jobs}
        used = {i: ZERO for i in inst.machines}
        for (i, conf), wgt in run.weights.items():
            assert wgt > 0
            assert sum((inst.sizes[j] for j in conf), ZERO) <= Frac(3, 2)
            used[i] += wgt
            for j in conf:
                assert i in inst.gamma[j]
                cover[j] += wgt
        assert all(v <= 1 for v in used.values())
        assert all(cover[j] >= 1 for j in inst.jobs)

    def test_infeasible_run_produces_knapsack_checked_ray(self):
        inst = make_instance(2, [(Frac(1, 2), {1}), (Frac(1, 2), {2}), (Frac(1), {1, 2})])
        run = config_lp_feasible_cg(inst, Frac(13, 10), pool={})
        assert run.status == "infeasible"
        assert_ray_is_knapsack_checked(inst, run)

    def test_job_larger_than_T_is_never_covered(self):
        inst = make_instance(2, [(Frac(1), {1, 2}), (Frac(1, 4), {1})])
        assert config_lp_feasible_cg(inst, Frac(3, 4), pool={}).status == "infeasible"
        assert config_lp_feasible_cg(inst, Frac(1), pool={}).status == "feasible"

    @pytest.mark.parametrize("seed", range(6))
    def test_bracket_contains_enumeration_threshold(self, seed):
        """The LP is feasible within the tolerance above the bound and, once
        a run raised the bound above its floor, infeasible one grid step
        below it."""
        inst = generate_instance(GenSpec(machines=2, jobs=5, seed=seed,
                                         preset="collision"))
        facts = solve_facts(inst)
        bound = config_lp_lower_bound(inst, Frac(1, 50), **facts)
        assert exact_config_lp_feasible(inst, bound.lower * Frac(51, 50))
        if bound.lower > grid_floor(inst, facts["infeasible_below"]):
            assert not exact_config_lp_feasible(inst, bound.lower - Frac(1, inst.integer_image[0]))

    def test_a_schedule_below_its_floor_or_off_its_machines_is_refused(self):
        # internal ids by size: job 1 (1/2) on machine 1, job 2 (1) on both
        inst = make_instance(2, [(Frac(1), {1, 2}), (Frac(1, 2), {1})])
        with pytest.raises(CertificateError, match="cannot be infeasible"):
            config_lp_lower_bound(inst, TAU, assignment={1: 1, 2: 2},
                                  infeasible_below=Frac(3, 2))
        with pytest.raises(CertificateError, match="job 1 is not on a permitted machine"):
            config_lp_lower_bound(inst, TAU, assignment={1: 2, 2: 1}, infeasible_below=1)

    def test_agreement_with_stuck_guesses(self):
        stuck, sc = rich_stuck()
        assert not exact_config_lp_feasible(sc.base, sc.guess)
        run = config_lp_feasible_cg(sc.base, sc.guess, pool={})
        assert run.status == "infeasible"

    def test_an_unresolved_run_stops_the_search(self, monkeypatch):
        import rasched.certificate as cm
        # two machines, a schedule with every job on machine 1 (makespan
        # 11/10, L = 10) and the floor 1/2, below the Hall bound 3/5: the
        # run there is infeasible in one round, and a run from 3/5 on needs
        # a second round to price the two-job configuration {2, 3} until the
        # pool holds it
        inst = make_instance(2, [(Frac(1, 2), {1, 2}), (Frac(3, 10), {1, 2}),
                                 (Frac(3, 10), {1, 2})])
        facts = {"assignment": {j: 1 for j in inst.jobs}, "infeasible_below": Frac(1, 2)}
        bound, runs = bound_with_runs(
            monkeypatch, lambda: config_lp_lower_bound(inst, ZERO, **facts))
        assert [(run.T, run.status, run.rounds) for run in runs] == [
            (Frac(1, 2), "infeasible", 1), (Frac(4, 5), "feasible", 2),
            (Frac(7, 10), "feasible", 1), (Frac(3, 5), "feasible", 1)]
        assert (bound.lower, bound.probes) == (Frac(3, 5), 4)
        # the unresolved run at 4/5 ends the search with the bound it has
        monkeypatch.setattr(cm, "_MAX_CG_ROUNDS", 1)
        bound, runs = bound_with_runs(
            monkeypatch, lambda: config_lp_lower_bound(inst, ZERO, **facts))
        assert [(run.T, run.status, run.rounds) for run in runs] == [
            (Frac(1, 2), "infeasible", 1), (Frac(4, 5), "unresolved", 1)]
        assert (bound.lower, bound.probes) == (Frac(3, 5), 2)


def fresh_search(inst, tolerance, assignment, infeasible_below):
    """The bound's search with a fresh pool per run: (bound, [(T, status)
    of every run])."""
    L = inst.integer_image[0]
    lo = int(grid_floor(inst, infeasible_below) * L)
    hi = int(schedule_makespan(inst, assignment) * L)
    runs, t = [], lo
    while hi > lo * (1 + tolerance):
        run = config_lp_feasible_cg(inst, Frac(t, L), pool={})
        runs.append((Frac(t, L), run.status))
        if run.status == "feasible":
            hi = t
        elif run.status == "infeasible":
            lo = t + 1
        else:
            break
        t = (lo + hi) // 2
    return Frac(lo, L), runs


def assert_ray_is_knapsack_checked(inst, run):
    """sum z > sum y, and on every machine no configuration that fits in T
    has z(C) > y_i: integer knapsacks on the weights b q_j against L a
    (T = a/b, p_j = q_j/L) and one integer image of z."""
    from rasched.oracle import KnapsackQuery, knapsack_max_value
    assert sum(run.dual_z.values(), ZERO) > sum(run.dual_y.values(), ZERO)
    L, q = inst.integer_image
    b, cap = run.T.denominator, L * run.T.numerator
    z_scale, z = integer_image(run.dual_z[j] for j in inst.jobs)
    for i in inst.machines:
        items = [(b * q[j], z[j - 1]) for j in inst.jobs
                 if i in inst.gamma[j] and b * q[j] <= cap and z[j - 1] > 0]
        best = knapsack_max_value(KnapsackQuery(tuple(items), cap))[0] if items else 0
        assert Frac(best, z_scale) <= run.dual_y[i]


POOLED_CASES = [(preset, seed) for preset in ("collision", "huge_heavy") for seed in range(22)]


class TestPooledBisection:
    @pytest.mark.parametrize("preset,seed", POOLED_CASES)
    def test_pool_matches_cold_bisection(self, preset, seed, monkeypatch):
        """The search on the shared pool makes the runs, outcomes and bound
        of the same search with a fresh pool per run."""
        import rasched.certificate as cm
        machines = 2 + seed % 3
        inst = generate_instance(GenSpec(machines=machines, jobs=5 + seed % 7,
                                         preset=preset, density=Frac(2, 3), seed=seed))
        tol = Frac(1, 50)
        facts = solve_facts(inst)
        expected, fresh_runs = fresh_search(inst, tol, **facts)

        runs = []
        original = cm.config_lp_feasible_cg

        def recording(*args, **kwargs):
            assert kwargs.get("pool") is not None  # every probe shares the pool
            run = original(*args, **kwargs)
            runs.append(run)
            return run

        monkeypatch.setattr(cm, "config_lp_feasible_cg", recording)
        bound = config_lp_lower_bound(inst, tol, **facts)
        assert bound.lower == expected
        assert [(run.T, run.status) for run in runs] == fresh_runs
        assert len(runs) == bound.probes
        for run in runs:
            assert exact_config_lp_feasible(inst, run.T) == (run.status == "feasible")
            if run.status == "infeasible":
                assert_ray_is_knapsack_checked(inst, run)


def two_value_case(seed):
    """Unit jobs and as many jobs of size 1/5, each permitted on two random
    machines: the two-value regime, at 3 to 6 machines."""
    return two_value_instance(random.Random(seed), 3 + seed % 4)


DECIDED_CASES = ([(preset, seed) for preset in ("collision", "huge_heavy")
                  for seed in range(22)]
                 + [("two_value", seed) for seed in range(16)])


def decided_case(kind, seed):
    if kind == "two_value":
        return two_value_case(seed)
    return generate_instance(GenSpec(machines=2 + seed % 3, jobs=5 + seed % 7, preset=kind,
                                     density=Frac(2, 3), seed=100 + seed))


def assert_covering_weights(inst, weights, T):
    """Configuration weights that fit in T, use each machine at most once in
    total, and cover every job at least once."""
    cover = {j: ZERO for j in inst.jobs}
    used = {i: ZERO for i in inst.machines}
    for (i, conf), wgt in weights.items():
        assert wgt > 0
        assert sum((inst.sizes[j] for j in conf), ZERO) <= T
        used[i] += wgt
        for j in conf:
            assert i in inst.gamma[j]
            cover[j] += wgt
    assert all(v <= 1 for v in used.values())
    assert all(v >= 1 for v in cover.values())


GRID_CASES = [(preset, seed) for preset in ("uniform", "huge_heavy", "collision")
              for seed in range(8)]


@pytest.mark.parametrize("preset,seed", GRID_CASES)
def test_column_generation_agrees_with_the_reference_on_the_grid(preset, seed):
    """At every grid point t/L from the largest size to the solve's
    makespan, column generation is feasible exactly when the enumerated LP
    is, with covering weights when feasible and a knapsack-checked ray when
    not."""
    from rasched.driver import solve
    inst = generate_instance(GenSpec(machines=2 + seed % 2, jobs=5 + seed % 3,
                                     preset=preset, seed=seed))
    L, _ = inst.integer_image
    top = solve(inst, tau=TAU).makespan * L
    assert top.denominator == 1
    for t in range(math.ceil(max(inst.sizes[1:]) * L), top.numerator + 1):
        T = Frac(t, L)
        run = config_lp_feasible_cg(inst, T, pool={})
        assert run.status in ("feasible", "infeasible")
        assert (run.status == "feasible") == exact_config_lp_feasible(inst, T), T
        if run.status == "feasible":
            assert_covering_weights(inst, run.weights, T)
        else:
            assert_ray_is_knapsack_checked(inst, run)


def bound_with_runs(monkeypatch, call):
    """Run `call()` and return its result with every column-generation run
    that the config-LP bound made meanwhile."""
    import rasched.certificate as cm
    runs = []
    original = cm.config_lp_feasible_cg

    def recording(inst, T, *, pool):
        runs.append(original(inst, T, pool=pool))
        return runs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cm, "config_lp_feasible_cg", recording)
        return call(), runs


class TestDecidedProbes:
    """`driver.solve` hands the config-LP bound its schedule and its Hall
    bound, and the bound searches the grid between them on its pool."""

    CASES = (DECIDED_CASES
             + [(preset, seed) for preset in ("collision", "huge_heavy")
                for seed in range(22, 66)]
             + [("two_value", seed) for seed in range(16, 32)])

    def test_driver_hands_the_bound_its_schedule_and_hall_bound(self, monkeypatch):
        import rasched.driver as dm
        from rasched.driver import solve
        statuses = {"feasible": 0, "infeasible": 0}
        for kind, seed in self.CASES:
            inst = decided_case(kind, seed)
            facts = []

            def recording_bound(*args, **kwargs):
                facts.append((kwargs, config_lp_lower_bound(*args, **kwargs)))
                return facts[-1][1]

            with monkeypatch.context() as patch:
                patch.setattr(dm, "config_lp_lower_bound", recording_bound)
                report, runs = bound_with_runs(
                    monkeypatch, lambda: solve(inst, tau=TAU, lp_bound=True))
            ((kwargs, bound),) = facts
            case = (kind, seed)
            # the facts: the reported schedule and the Hall bound
            assert kwargs == solve_facts(inst), case
            placement, hall = kwargs["assignment"], kwargs["infeasible_below"]
            assert {inst.name_of(j): i for j, i in placement.items()} == report.assignment
            assert report.iterations["lp_bound_probes"] == bound.probes == len(runs), case
            assert grid_floor(inst, hall) <= bound.lower <= report.lower_bound, case
            L = inst.integer_image[0]
            for run in runs:
                # on the grid, from the floor to below the makespan, and on
                # the side of the bound that its outcome proves
                assert (run.T * L).denominator == 1, case
                assert grid_floor(inst, hall) <= run.T < report.makespan, case
                if run.status == "infeasible":
                    assert run.T < bound.lower, case
                    assert_ray_is_knapsack_checked(inst, run)
                else:
                    assert run.T >= bound.lower, case
                    assert_covering_weights(inst, run.weights, run.T)
                statuses[run.status] += 1
        assert all(count >= 10 for count in statuses.values()), statuses


def ray_from_master(inst, costs, out):
    """An infeasible run's ray recomputed from its final master's simplex
    outcome: the duals c_B B^-1, read off the warm state A = D B^-1 with the
    master's costs (1 on the job shortfall slacks only)."""
    m, n = inst.num_machines, inst.num_jobs
    A, _, D = out.warm
    y = [ZERO] * (m + n)
    for r, k in enumerate(out.basis):
        if costs[k]:
            y = [acc + Frac(costs[k] * a, D) for acc, a in zip(y, A[r])]
    return {j: y[m - 1 + j] for j in inst.jobs}, {i: -y[i - 1] for i in inst.machines}


def empty_start(original):
    """`original` (a config_lp_feasible_cg) with each bound's pool emptied
    before its first run, so that it starts without the schedule's
    configurations and still collects the priced ones."""
    started = []

    def run(inst, T, *, pool):
        if not any(pool is seen for seen in started):
            started.append(pool)
            pool.clear()
        return original(inst, T, pool=pool)
    return run


class TestSeededPool:
    """The bound's pool starts with the schedule's configurations, which
    shortens runs without changing any outcome."""

    def test_pool_starts_with_the_schedule_configurations(self, monkeypatch):
        import rasched.certificate as cm
        original = cm.config_lp_feasible_cg
        seeded = 0
        for kind, seed in TestDecidedProbes.CASES:
            inst = decided_case(kind, seed)
            facts = solve_facts(inst)
            q = inst.integer_image[1]
            on = {}
            for j, i in sorted(facts["assignment"].items()):
                on.setdefault(i, []).append(j)
            schedule = {(i, tuple(jobs)): sum(q[j] for j in jobs) for i, jobs in on.items()}
            pools = []

            def recording(*args, **kwargs):
                pools.append(dict(kwargs["pool"]))  # as the run finds it
                return original(*args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(cm, "config_lp_feasible_cg", recording)
                config_lp_lower_bound(inst, TAU, **facts)
            if pools:
                assert pools[0] == schedule, (kind, seed)
                assert all(pool.items() >= schedule.items() for pool in pools)
                seeded += 1
        assert seeded >= 40

    def test_seeding_keeps_every_outcome_and_cuts_rounds(self, monkeypatch):
        import rasched.certificate as cm
        rounds = {"seeded": 0, "empty": 0}
        for kind, seed in DECIDED_CASES:
            inst = decided_case(kind, seed)
            facts = solve_facts(inst)
            bound, runs = bound_with_runs(
                monkeypatch, lambda: config_lp_lower_bound(inst, TAU, **facts))
            with monkeypatch.context() as patch:
                patch.setattr(cm, "config_lp_feasible_cg",
                              empty_start(cm.config_lp_feasible_cg))
                empty, empty_runs = bound_with_runs(
                    monkeypatch, lambda: config_lp_lower_bound(inst, TAU, **facts))
            case = (kind, seed)
            assert (bound.lower, bound.probes) == (empty.lower, empty.probes), case
            assert ([(run.T, run.status) for run in runs]
                    == [(run.T, run.status) for run in empty_runs]), case
            for run in runs:
                if run.status == "infeasible":
                    assert_ray_is_knapsack_checked(inst, run)
            rounds["seeded"] += sum(run.rounds for run in runs)
            rounds["empty"] += sum(run.rounds for run in empty_runs)
        assert rounds["seeded"] < rounds["empty"], rounds

    def test_ray_is_built_when_read_from_the_final_master(self, monkeypatch):
        """An infeasible run keeps its final master's integer duals, and
        its ray is built from them when read: the duals c_B B^-1 of that
        master, which the pricing knapsacks check."""
        import rasched.certificate as cm
        original = cm.simplex_min
        rays = 0
        for kind, seed in DECIDED_CASES:
            inst = decided_case(kind, seed)
            facts = solve_facts(inst)
            masters = []  # (costs, outcome) of every master solve, in order

            def recording(num_rows, columns, costs, *args, **kwargs):
                masters.append((list(costs), original(num_rows, columns, costs,
                                                      *args, **kwargs)))
                return masters[-1][1]

            with monkeypatch.context() as patch:
                patch.setattr(cm, "simplex_min", recording)
                _, runs = bound_with_runs(
                    monkeypatch, lambda: config_lp_lower_bound(inst, TAU, **facts))
            # one master solve per round: a run's last one is its final master
            assert len(masters) == sum(run.rounds for run in runs), (kind, seed)
            for run, end in zip(runs, itertools.accumulate(run.rounds for run in runs)):
                if run.status != "infeasible":
                    assert run.dual_z is None and run.dual_y is None
                    continue
                costs, out = masters[end - 1]
                assert run.master_duals == (inst.num_machines, out.Y, out.D), (kind, seed)
                assert "dual_z" not in vars(run) and "dual_y" not in vars(run)
                assert (run.dual_z, run.dual_y) == ray_from_master(inst, costs, out), (
                    kind, seed)
                assert_ray_is_knapsack_checked(inst, run)
                rays += 1
        assert rays >= 50


def integral_only(original, calls):
    """`original` (a simplex_min), asserting first that every coefficient,
    cost and rhs entry it is given is a plain int."""
    def checked(num_rows, columns, costs, rhs, initial_basis, **kwargs):
        assert all(type(v) is int for col in columns for _, v in col)
        assert all(type(v) is int for v in costs)
        assert all(type(v) is int for v in rhs)
        calls.append(len(columns))
        return original(num_rows, columns, costs, rhs, initial_basis, **kwargs)
    return checked


def test_every_lp_handed_to_the_simplex_is_integral(monkeypatch):
    import rasched.certificate as cm
    import rasched.simplex as sm
    from rasched.driver import solve
    master, enumerated = [], []
    monkeypatch.setattr(cm, "simplex_min", integral_only(cm.simplex_min, master))
    monkeypatch.setattr(sm, "simplex_min", integral_only(sm.simplex_min, enumerated))
    for kind, seed in DECIDED_CASES:
        inst = decided_case(kind, seed)
        solve(inst, lp_bound=True)
        # the same search on fresh pools: each run prices from scratch
        fresh_search(inst, TAU, **solve_facts(inst))
    for kind, seed in DECIDED_CASES[::4]:
        inst = decided_case(kind, seed)
        for T in (max(inst.sizes[1:]), sum(inst.sizes[1:]) / 2):
            exact_config_lp_feasible(inst, T)
    assert len(master) >= 200 and len(enumerated) >= 20


#: reports and bounds (lower, probes), computed once the bound searched the
#: grid 1/L from the Hall bound up
PINNED_LP_DIGEST = "45e37c39c557fa9552a584317cc471d45316dde7547e14263f488946067b4f64"
#: each run's T and status on that grid (37 runs; 40 while the bound
#: bisected on rationals between the Hall bound and the makespan, 46 while
#: it replayed the midpoints of [max size, total size], 91 before the Hall
#: bound decided the probes below it)
PINNED_LP_RUNS_DIGEST = "f77ded5c4ee90d06e149e354c834e28c7a4c2e396e2fb454830ecf5ae333e09e"
#: each run's rounds on that grid, every run from the slack basis, and
#: their total, priced under the Pareto-front knapsack's tie rule (142
#: under the branch and bound's, which also read 142 on the rational
#: bracket and 168 on the replayed one)
PINNED_LP_ROUNDS_DIGEST = "d33045f9d5f2381e73a691bae24e0d20b393e47221c8a796a8396a6667303c32"
PINNED_LP_ROUNDS_TOTAL = 151


def lp_path_instance(k):
    return lp_bound_instance(random.Random(900 + k), 4 + k % 3, 8 + k % 5, 3 + k % 4)


def lp_path_solves(monkeypatch):
    """(report, bound, runs) of 24 lp_bound-shaped `solve(..., lp_bound=True)`
    runs: the bound the solve computed and its column-generation runs."""
    import rasched.driver as dm
    from rasched.driver import solve
    for k in range(24):
        inst = lp_path_instance(k)
        bounds = []

        def recording_bound(*args, **kwargs):
            bounds.append(config_lp_lower_bound(*args, **kwargs))
            return bounds[-1]

        with monkeypatch.context() as patch:
            patch.setattr(dm, "config_lp_lower_bound", recording_bound)
            report, runs = bound_with_runs(monkeypatch,
                                           lambda: solve(inst, lp_bound=True))
        (bound,) = bounds
        yield report, bound, runs


def test_lp_path_matches_the_pinned_digest(monkeypatch):
    """Reports and bounds are those of the grid search between the Hall
    bound and the schedule's makespan."""
    h = hashlib.sha256()
    for report, bound, _ in lp_path_solves(monkeypatch):
        h.update(report.to_text().encode())
        h.update(repr((str(bound.lower), bound.probes)).encode())
    assert h.hexdigest() == PINNED_LP_DIGEST


def test_lp_path_runs_match_the_pinned_digest(monkeypatch):
    """The T and status of every column-generation run the solves' bounds
    make, each on the grid from the Hall bound up."""
    h = hashlib.sha256()
    for _, _, runs in lp_path_solves(monkeypatch):
        h.update(repr([(str(run.T), run.status) for run in runs]).encode())
    assert h.hexdigest() == PINNED_LP_RUNS_DIGEST


def test_lp_path_rounds_match_the_pinned_digest(monkeypatch):
    """Each run's rounds once the pool starts with the schedule's
    configurations, the search starts at the Hall bound and every run
    starts from the slack basis."""
    h = hashlib.sha256()
    total = 0
    for _, _, runs in lp_path_solves(monkeypatch):
        h.update(repr([run.rounds for run in runs]).encode())
        total += sum(run.rounds for run in runs)
    assert (h.hexdigest(), total) == (PINNED_LP_ROUNDS_DIGEST, PINNED_LP_ROUNDS_TOTAL)


def test_every_run_starts_from_the_slack_basis(monkeypatch):
    """After an infeasible run at T0 on a shared pool, a run at T >= T0 on
    that pool hands its first master solve no warm state, decides as a run
    on a fresh pool does, and leaves every configuration it priced in the
    pool."""
    import rasched.certificate as cm
    original = cm.simplex_min
    checked = priced = 0
    for k in range(24):
        inst = lp_path_instance(k)
        facts = solve_facts(inst)
        bound = config_lp_lower_bound(inst, TAU, **facts)
        if bound.lower == grid_floor(inst, facts["infeasible_below"]):
            continue  # no run proved a grid point infeasible
        T0 = bound.lower - Frac(1, inst.integer_image[0])
        upper = schedule_makespan(inst, facts["assignment"])
        m, q = inst.num_machines, inst.integer_image[1]
        for T in (T0, (T0 + upper) / 2, upper):
            pool = {}
            assert config_lp_feasible_cg(inst, T0, pool=pool).status == "infeasible"
            before = dict(pool)
            masters = []  # (columns, column count, warm) of every master solve

            def recording(num_rows, columns, *args, warm=None, **kwargs):
                masters.append((columns, len(columns), warm))
                return original(num_rows, columns, *args, warm=warm, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(cm, "simplex_min", recording)
                run = config_lp_feasible_cg(inst, T, pool=pool)
            columns, first_count, warm = masters[0]
            assert warm is None, (k, T)
            assert run.status == config_lp_feasible_cg(inst, T, pool={}).status, (k, T)
            assert pool.items() >= before.items()
            # the columns appended after the first master solve are the priced ones
            for (machine_row, _), *jobs in columns[first_count:]:
                conf = tuple(row - m + 1 for row, _ in jobs)
                assert pool[(machine_row + 1, conf)] == sum(q[j] for j in conf), (k, T)
                priced += 1
        checked += 1
    assert checked >= 10 and priced >= 20, (checked, priced)


@pytest.mark.parametrize("tolerance", [-1])
def test_bound_refuses_a_tolerance_that_never_closes_the_bracket(tolerance):
    inst = lp_path_instance(0)
    facts = solve_facts(inst)
    with deadline(5), pytest.raises(ValueError, match="tolerance must be nonnegative"):
        config_lp_lower_bound(inst, tolerance, **facts)


def test_a_zero_tolerance_finds_the_least_feasible_grid_point():
    """With tolerance 0 the bound is the least grid point from the floor on
    at which the configuration LP is feasible."""
    raised = 0
    for k in range(24):
        inst = lp_path_instance(k)
        facts = solve_facts(inst)
        bound = config_lp_lower_bound(inst, ZERO, **facts)
        assert exact_config_lp_feasible(inst, bound.lower), k
        if bound.lower > grid_floor(inst, facts["infeasible_below"]):
            assert not exact_config_lp_feasible(
                inst, bound.lower - Frac(1, inst.integer_image[0])), k
            raised += 1
    assert raised >= 5, raised


def random_grid_instance(rng):
    """2 to 4 machines and 4 to 10 jobs, with sizes over one denominator of
    6, 7, 12 and 60 and random permitted sets."""
    m, d = rng.randint(2, 4), rng.choice((6, 7, 12, 60))
    return make_instance(m, [(Frac(rng.randint(1, 2 * d), d),
                              set(rng.sample(range(1, m + 1), rng.randint(1, m))))
                             for _ in range(rng.randint(4, 10))])


def test_the_bound_lies_on_the_grid_between_the_floor_and_the_optimum():
    """On acceptance-campaign instances and on random ones over small
    denominators, the bound under the solve's facts lies between the grid
    floor max(largest size, H) and the optimum, and above the floor the
    configuration LP is infeasible one grid step below it."""
    from rasched.oracle import exact_optimal_makespan
    from test_acceptance import CAMPAIGN_SIZE, campaign_instance
    rng = random.Random(31)
    instances = [campaign_instance(k) for k in range(CAMPAIGN_SIZE)]
    instances += [random_grid_instance(rng) for _ in range(200)]
    raised = 0
    for k, inst in enumerate(instances):
        assert inst.num_jobs <= 12
        facts = solve_facts(inst)
        bound = config_lp_lower_bound(inst, TAU, **facts)
        floor = grid_floor(inst, facts["infeasible_below"])
        assert floor <= bound.lower <= exact_optimal_makespan(inst), k
        if bound.lower > floor:
            assert not exact_config_lp_feasible(
                inst, bound.lower - Frac(1, inst.integer_image[0])), k
            raised += 1
    assert raised >= 200, raised


def test_a_bound_on_a_fine_grid_takes_logarithmic_runs():
    """Sizes over the primes 977 to 997 put L near 10^12, yet the search
    ends within ceil(log2(gap L)) + 1 runs, gap the distance from its floor
    to the schedule's makespan, even with tolerance 0."""
    rng = random.Random(977)
    inst = make_instance(6, [(Frac(rng.randint(d // 2, 2 * d), d), set(rng.sample(range(1, 7), 3)))
                             for d in (977, 983, 991, 997) for _ in range(6)])
    L = inst.integer_image[0]
    assert L > 9 * 10 ** 11
    facts = solve_facts(inst)
    gap = (schedule_makespan(inst, facts["assignment"])
           - grid_floor(inst, facts["infeasible_below"])) * L
    for tolerance in (TAU, ZERO):
        with deadline(60):
            bound = config_lp_lower_bound(inst, tolerance, **facts)
        assert 1 <= bound.probes <= (int(gap) - 1).bit_length() + 1, tolerance


def two_value_16(seed):
    """The benchmark's two-value shape at 16 machines; seeds 0, 7, 8 and 14
    of range(24) reach stuck probes (two certificates each)."""
    return two_value_instance(random.Random(seed), 16)


def test_every_knapsack_query_is_integral(monkeypatch):
    """Pricing and both verification knapsacks (the certificate check and
    the audited big-job bound) hand the kernel ints only."""
    import sys
    from collections import Counter
    import rasched.certificate as cm
    from rasched.driver import solve
    callers = Counter()
    original = cm.knapsack_max_value

    def checked(query):
        assert type(query.capacity) is int
        assert all(type(w) is int and type(v) is int for w, v in query.items)
        # every query comes through best_configuration: count its caller
        callers[sys._getframe(2).f_code.co_name] += 1
        return original(query)

    monkeypatch.setattr(cm, "knapsack_max_value", checked)
    for kind, seed in DECIDED_CASES:
        inst = decided_case(kind, seed)
        solve(inst, lp_bound=True)
        # the same search on fresh pools: each run prices from scratch
        fresh_search(inst, TAU, **solve_facts(inst))
    for seed in range(24):
        solve(two_value_16(seed), audit=True)
    # the big-job bound prices a machine only when an active job there fits
    # beside the big job, which no audited solve above reaches
    for stuck in aggressive_stuck_states(range(400)):
        cert = build_dual_certificate(stuck, stuck.scaled)
        assert check_big_job_value_bound(stuck, cert) == []
    assert callers["config_lp_feasible_cg"] >= 1000, callers
    assert callers["verify_certificate"] >= 50, callers
    assert callers["check_big_job_value_bound"] >= 2, callers


#: computed when the verification knapsacks still took the rational scaled
#: sizes and z
PINNED_TRANSCRIPT_DIGEST = "86cd86f3f5591d4b12177bb0880056eac3e77bb77ee5fb033b9ed15d71a73089"


def transcript_digest():
    """(certificates, sha256) over the guess and text (z, y and verification
    transcript) of every stuck certificate of unaudited solves of the
    DECIDED_CASES and of 24 two-value instances at 16 machines."""
    from rasched.driver import solve
    from rasched.rational import ratio_str
    h = hashlib.sha256()
    count = 0
    cases = [decided_case(kind, seed) for kind, seed in DECIDED_CASES]
    cases += [two_value_16(seed) for seed in range(24)]
    for inst in cases:
        for guess, cert in solve(inst).certificates:
            count += 1
            h.update(f"certificate-at {ratio_str(guess)}\n".encode())
            h.update(certificate_to_text(cert, inst).encode())
    return count, h.hexdigest()


def test_verification_transcripts_match_the_pinned_digest():
    """Certificates and their transcripts are those of the rational checks."""
    count, digest = transcript_digest()
    assert count == 10
    assert digest == PINNED_TRANSCRIPT_DIGEST


# ---------- the integer grid against the rational reference ----------

def failed_machines(transcript):
    """(machine, best configuration's z, y_i) of each machine line of a
    verification transcript that failed, in transcript order."""
    out = []
    for line in transcript:
        if line.startswith("machine ") and line.endswith(" FAIL"):
            _, i, _, z, y, _ = line.split()
            out.append((int(i), parse_ratio(z.removeprefix("z=")),
                        parse_ratio(y.removeprefix("y="))))
    return out


def recorded_stuck_states(monkeypatch, instances, eps):
    """(stuck state, the probe's scaled instance) for every stuck probe of
    solving `instances` at `eps`, a replayed stored state included."""
    from rasched import driver
    states, build = [], driver.build_dual_certificate

    def recording(stuck, scaled):
        states.append((stuck, scaled))
        return build(stuck, scaled)

    with monkeypatch.context() as patch:
        patch.setattr(driver, "build_dual_certificate", recording)
        for inst in instances:
            driver.solve(inst, eps, TAU)
    return states


def integer_checks(cert, scaled):
    """(ok, witnesses, transcript) of `verify_certificate`, the witnesses
    read off the transcript's failed machine lines."""
    ok = verify_certificate(cert, scaled)
    return ok, failed_machines(cert.transcript), cert.transcript


def reference_checks(cert, scaled):
    ok, witnesses = reference_verify(cert, scaled)
    return ok, [(i, value, y) for i, _, value, y in witnesses], cert.transcript


def grid_of(stuck, scaled):
    """D = d^t 6 L a, the grid `build_dual_certificate` builds on."""
    engine = stuck
    deepest = [b.layer for b in engine.tree.blockers()
               if b.btype in (BlockerType.BS, BlockerType.S)]
    t = max(engine.K, *engine.value_layers().values(), *deepest)
    return scaled.epsilon.denominator ** t * 6 * scaled.unit


def assert_grid_matches_reference(stuck, scaled):
    """z, y, the transcript and the witnesses of the integer build and
    checks equal the rational reference's, on the certificate, on one y_i
    set to its machine's best configuration, which that machine passes, and
    on two corruptions that both must refuse: that y_i a grain of the grid
    below its best configuration, and sum(y) raised to sum(z). Returns the
    certificate's (ok, witnesses, transcript)."""
    cert, ref = build_dual_certificate(stuck, scaled), reference_dual_certificate(stuck, scaled)
    assert cert == ref
    result = integer_checks(cert, scaled)
    assert result == reference_checks(ref, scaled)

    L_q = scaled.base.integer_image[1]
    scale, z_int = integer_image(ref.z.values())
    best = {i: Frac(best_configuration(scaled.base.permitted_on[i], L_q,
                                       dict(zip(ref.z, z_int)), scaled.fit)[0], scale)
            for i in scaled.base.machines}
    i = max(best, key=best.get)
    tight = {**ref.y, i: best[i]}
    lowered = {**ref.y, i: best[i] - Frac(1, grid_of(stuck, scaled))}
    gap = sum(ref.z.values(), ZERO) - sum(ref.y.values(), ZERO)
    even = {**ref.y, 1: ref.y[1] + gap}
    checked = {}
    for name, y in (("tight", tight), ("lowered", lowered), ("even", even)):
        checked[name] = integer_checks(dataclasses.replace(cert, y=y, transcript=[]), scaled)
        assert checked[name] == reference_checks(dataclasses.replace(ref, y=y, transcript=[]),
                                                 scaled)
    line = checked["tight"][2][i]  # the transcript's line for machine i
    assert line.startswith(f"machine {i} max-config") and line.endswith("PASS")
    assert not checked["lowered"][0] and checked["lowered"][1][0][0] == i
    assert not checked["even"][0] and checked["even"][2][0].endswith("FAIL")
    return result


def test_the_grid_matches_the_reference_on_every_stuck_probe_of_the_pools(monkeypatch):
    """Every stuck probe of the two_value pools at seeds 9, 1 and 101, the
    18 that replay a state stored at another guess among them."""
    from conftest import benchmark_pool
    pools = [inst for pool_seed in (9, 1, 101) for inst in benchmark_pool("two_value", pool_seed)]
    states = recorded_stuck_states(monkeypatch, pools, EPS)
    replayed = [s for s, scaled in states if s.scaled.guess != scaled.guess]
    assert (len(states), len(replayed)) == (119, 18)
    for stuck, scaled in states:
        assert assert_grid_matches_reference(stuck, scaled)[:2] == (True, [])


def test_the_grid_matches_the_reference_on_bs_and_s_blockers():
    """The frozen states and the acceptance campaign's stuck states, among
    them states whose BS and S blockers move their machines' y by
    delta^k/6."""
    states = [rich_stuck(), three_smalls_stuck()]
    states += [(stuck, stuck.scaled) for stuck in aggressive_stuck_states(range(400))]
    kinds = Counter(b.btype for stuck, _ in states for b in stuck.tree.blockers())
    assert kinds[BlockerType.BS] >= 3 and kinds[BlockerType.S] >= 3, kinds
    for stuck, scaled in states:
        assert assert_grid_matches_reference(stuck, scaled)[:2] == (True, [])


def odd_denominator_instance(rng, machines):
    """The two-value shape with sizes over the denominators 977 to 997:
    about 0.85 m jobs just below 1 and as many near 1/5, each on two
    machines."""
    count = round(0.85 * machines)
    sizes = []
    for _ in range(count):
        den = rng.randint(977, 997)
        sizes += [Frac(den - rng.randint(0, 9), den), Frac(den // 5 + rng.randint(-4, 4), den)]
    rng.shuffle(sizes)
    return make_instance(machines, [(p, set(rng.sample(range(1, machines + 1), 2)))
                                    for p in sizes])


@pytest.mark.parametrize("eps", [Frac(1, 13), Frac(1, 24), Frac(1, 100)])
def test_the_grid_matches_the_reference_on_odd_denominators(monkeypatch, eps):
    instances = [odd_denominator_instance(random.Random(seed), 16) for seed in range(30)]
    states = recorded_stuck_states(monkeypatch, instances, eps)
    assert len(states) >= 5, len(states)
    for stuck, scaled in states:
        assert scaled.base.integer_image[0] > 10 ** 12
        assert assert_grid_matches_reference(stuck, scaled)[:2] == (True, [])


def test_the_grid_reaches_past_K_on_a_layer_overflow():
    """A layer cap lowered to 1 overflows with a job at value layer K + 1,
    so the grid's exponent t exceeds K."""
    from conftest import benchmark_pool
    from rasched.seed import decided_seed, seed_small_medium
    inst = benchmark_pool("lp_bound", 9, 1)[0]
    scaled = scale_instance(inst, Frac(59, 60), EPS)
    network = AssignmentNetwork(inst)
    schedule = decided_seed(seed_small_medium(scaled, network, max_density(inst, network)),
                            scaled, network)
    for j in sorted(scaled.huge_jobs(), reverse=True):
        engine = InsertionEngine(schedule, j)
        engine.K = 1
        result = engine.run()
        if isinstance(result, InsertionEngine):
            break
        schedule = result
    assert result.stuck_reason == "layer-overflow"
    assert max(engine.value_layers().values()) == engine.K + 1
    # below the paper's K the dual need not certify: both versions refuse it alike
    assert not assert_grid_matches_reference(result, scaled)[0]


def test_no_rational_is_added_or_subtracted_to_build_or_verify(monkeypatch):
    """Over the stuck probes of the seed-9 two_value pool, building and
    verifying a certificate adds and subtracts integers only."""
    from conftest import benchmark_pool
    states = recorded_stuck_states(monkeypatch, benchmark_pool("two_value", 9), EPS)
    assert len(states) >= 30
    counts = Counter()
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        def counting(a, b, _name=name, _original=getattr(Frac, name)):
            counts[_name] += 1
            return _original(a, b)
        monkeypatch.setattr(Frac, name, counting)
    for stuck, scaled in states:
        assert verify_certificate(build_dual_certificate(stuck, scaled), scaled)
    assert counts == {}
    stuck, scaled = states[0]  # the count is live: the reference sums rationals
    reference_verify(reference_dual_certificate(stuck, scaled), scaled)
    assert counts["__add__"] > 0 and counts["__rsub__"] > 0
