import contextlib
import fractions
import json
import os
import random
import signal
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import rasched
from rasched import bench as bench_module, rational
from rasched.cli import main, EXIT_OK, EXIT_REJECTED, EXIT_INPUT, EXIT_INTERNAL, EXIT_LIMIT
from rasched.driver import solve
from rasched.generator import GenSpec, generate_instance
from rasched.model import parse_instance, serialize_instance
from rasched.oracle import MAKESPAN_JOB_CAP

from conftest import two_value_instance


#: 31 unit jobs on 2 machines, each permitted on both
WIDE_TEXT = "ra 1\nmachines 2\n" + "".join(f"job j{k} 1 : 1 2\n" for k in range(31))
#: 31 jobs on 2 machines, each permitted on both: 9 of size 1/2, 8 of 1 and
#: 14 of 3/2, whose Hall bound 67/4 rounds up on the grid 1/2 to the
#: schedule's makespan 17
GRID_HALL_TEXT = "ra 1\nmachines 2\n" + "".join(
    f"job j{k} {size} : 1 2\n"
    for k, size in enumerate(["1/2"] * 9 + ["1"] * 8 + ["3/2"] * 14))
#: 31 jobs on 2 machines, each permitted on both: 9 of size 1/2, 8 of 1, 13
#: of 3/2 and one of 1/3. The Hall bound 97/6 is half the total size, on
#: the grid 1/6, so covering every job there needs configurations of size
#: exactly 97/6. None has it: each sums to a multiple of 1/2, or to such a
#: multiple plus 1/3. The run there, below the schedule's makespan 49/3,
#: prices all 31 jobs on one machine, with knapsack fronts of more than
#: SMALL_FRONT_CAP pairs
OVER_CAP_TEXT = "ra 1\nmachines 2\n" + "".join(
    f"job j{k} {size} : 1 2\n"
    for k, size in enumerate(["1/2"] * 9 + ["1"] * 8 + ["3/2"] * 13 + ["1/3"]))
#: four private unit jobs plus a roamer: some probe gets stuck
ROAMER_TEXT = ("ra 1\nmachines 4\njob a 1/1 : 1\njob b 1/1 : 2\n"
               "job c 1/1 : 3\njob e 1/1 : 4\njob d 59/60 : 1 2 3 4\n")
#: a knapsack front budget that OVER_CAP_TEXT's pricing exceeds
SMALL_FRONT_CAP = 8


@pytest.fixture
def small_front_cap(monkeypatch):
    monkeypatch.setattr("rasched.oracle.KNAPSACK_FRONT_CAP", SMALL_FRONT_CAP)


@pytest.fixture
def workdir(tmp_path, monkeypatch, capsys):
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@contextlib.contextmanager
def interrupted_after(seconds):
    """Interrupt the body after `seconds` with KeyboardInterrupt, which no
    handler of the CLI catches (a TimeoutError would be an OSError, which
    it reports as an input error), and fail the test."""
    def expire(signum, frame):
        raise KeyboardInterrupt
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except KeyboardInterrupt:
        pytest.fail(f"still running after {seconds} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestHugeCounts:
    """A machine or job count beyond MAX_MACHINES is an input error, found
    before any per-machine list is built."""

    def test_a_huge_machines_header_is_an_input_error_at_once(self, workdir, capsys):
        text = serialize_instance(two_value_instance(random.Random(0), 16))
        lines = text.splitlines()
        assert len(lines) == 2 + 28 and lines[1] == "machines 16"
        lines[1] = "machines 99999999999999999999"
        path = workdir / "huge.ra"
        path.write_text("\n".join(lines) + "\n")
        with interrupted_after(1):
            code, out, err = run_cli(capsys, "solve", str(path))
        assert code == EXIT_INPUT and out == ""
        assert err == "input error: line 2: machine count must be <= 100000\n"

    @pytest.mark.parametrize("option", ["--machines", "--jobs"])
    def test_gen_refuses_a_huge_count_at_once(self, workdir, capsys, option):
        argv = {"--machines": "3", "--jobs": "6", option: "99999999999999999999"}
        with interrupted_after(1):
            code, out, err = run_cli(capsys, "gen", *(w for kv in argv.items() for w in kv))
        assert code == EXIT_INPUT and out == ""
        assert err == "input error: at most 100000 machines and jobs\n"


class TestGen:
    def test_gen_to_stdout_and_file_match(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "gen", "--machines", "3", "--jobs", "6",
                               "--seed", "42")
        assert code == EXIT_OK and out.startswith("ra 1\n")
        path = workdir / "inst.ra"
        code, _, _ = run_cli(capsys, "gen", "--machines", "3", "--jobs", "6",
                             "--seed", "42", "-o", str(path))
        assert code == EXIT_OK and path.read_text() == out

    def test_gen_rejects_bad_preset(self, workdir, capsys):
        code, _, err = run_cli(capsys, "gen", "--machines", "1", "--jobs", "1",
                               "--preset", "bogus")
        assert code == EXIT_INPUT and "input error" in err


class TestSolve:
    def test_solve_writes_report_and_traces(self, workdir, capsys):
        inst = workdir / "i.ra"
        inst.write_text("ra 1\nmachines 2\njob a 1/3 : 1\njob b 9/10 : 1 2\n")
        trace = workdir / "t.jsonl"
        dot = workdir / "t.dot"
        code, out, _ = run_cli(capsys, "solve", str(inst), "--trace", str(trace),
                               "--dot", str(dot), "--audit", "--oracle")
        assert code == EXIT_OK
        assert out.startswith("ra-report 1\n")
        assert "assign a 1" in out and "ratio-bound" in out
        records = [json.loads(ln) for ln in trace.read_text().splitlines()]
        assert records and records[0]["event"] == "add"
        assert dot.read_text().startswith("digraph")

    def test_stale_backend_variable_is_ignored(self, workdir):
        # the rational type is fixed; a leftover RASCHED_RATIONAL selects nothing
        assert rational.BACKEND == "fraction" and rational.Frac is fractions.Fraction
        inst = workdir / "i.ra"
        inst.write_text("ra 1\nmachines 2\njob a 1/3 : 1\njob b 9/10 : 1 2\n")
        src = str(Path(rasched.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "RASCHED_RATIONAL"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def run(**extra):
            return subprocess.run([sys.executable, "-m", "rasched", "solve", str(inst)],
                                  env={**env, **extra}, capture_output=True, text=True,
                                  timeout=60)
        plain, stale = run(), run(RASCHED_RATIONAL="bogus")
        assert plain.returncode == stale.returncode == EXIT_OK
        assert stale.stdout == plain.stdout and stale.stdout.startswith("ra-report 1\n")
        assert stale.stderr == ""

    def test_solve_missing_file_is_input_error(self, workdir, capsys):
        code, _, err = run_cli(capsys, "solve", str(workdir / "absent.ra"))
        assert code == EXIT_INPUT

    def test_solve_malformed_instance_is_input_error(self, workdir, capsys):
        bad = workdir / "bad.ra"
        bad.write_text("ra 1\nmachines 1\njob a 1/2 :\n")
        code, _, err = run_cli(capsys, "solve", str(bad))
        assert code == EXIT_INPUT and "line 3" in err

    def test_epsilon_out_of_range_rejected(self, workdir, capsys):
        inst = workdir / "i.ra"
        inst.write_text("ra 1\nmachines 1\njob a 1/2 : 1\n")
        code, _, err = run_cli(capsys, "solve", str(inst), "--epsilon", "1/2")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("option, value", [("--epsilon", "0.05"), ("--tol", "abc")])
    def test_malformed_rational_option_names_the_text(self, workdir, capsys, option, value):
        inst = workdir / "i.ra"
        inst.write_text("ra 1\nmachines 1\njob a 1/2 : 1\n")
        code, out, err = run_cli(capsys, "solve", str(inst), option, value)
        assert code == EXIT_INPUT and out == ""
        assert err == f"input error: bad rational '{value}' (expected n or n/d)\n"

    def test_lp_bound_over_knapsack_cap_is_limit_exceeded(self, workdir, capsys,
                                                          small_front_cap):
        # 31 pricing items on machines 1 and 2, and a run at the grid Hall
        # bound, below the makespan, whose fronts exceed the lowered budget
        inst = workdir / "big.ra"
        inst.write_text(OVER_CAP_TEXT)
        code, out, err = run_cli(capsys, "solve", str(inst), "--lp-bound")
        assert code == EXIT_LIMIT and out == ""
        assert err == "limit exceeded: knapsack front limited to 8 pairs\n"

    def test_a_certificate_too_long_to_print_is_limit_exceeded(self, workdir, capsys):
        # a valid epsilon whose stuck certificate needs integers of more
        # digits than Python prints: exit 4 with a message naming epsilon,
        # not an input error; a larger epsilon still solves and checks
        inst = workdir / "i.ra"
        inst.write_text(ROAMER_TEXT)
        code, out, err = run_cli(capsys, "solve", str(inst), "--epsilon", "1/1000")
        assert code == EXIT_LIMIT and out == ""
        assert err.startswith("limit exceeded: at epsilon 1/1000 a certificate prints")
        assert "digits" in err and "input error" not in err and "Traceback" not in err
        code, out, err = run_cli(capsys, "solve", str(inst), "--epsilon", "1/200")
        assert code == EXIT_OK and err == "" and "certificate-at" in out

    def test_lp_bound_prices_more_than_30_items(self, workdir, capsys):
        # the same instance within the real front budget: the one run, at
        # the grid Hall bound 97/6, proves the LP infeasible there, so the
        # bound rises one grid step to the schedule's makespan
        inst = workdir / "big.ra"
        inst.write_text(OVER_CAP_TEXT)
        code, out, err = run_cli(capsys, "solve", str(inst), "--lp-bound")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert "makespan 49/3 ~16.333333" in lines
        assert "lower-bound 49/3 kind=config-lp" in lines
        assert "ratio-bound 1/1 ~1.000000" in lines
        assert "iterations lp_bound_probes 1" in lines

    def test_lp_bound_at_the_grid_hall_bound_needs_no_knapsack(self, workdir, capsys):
        # 31 pricing items per machine, but the Hall bound 67/4 rounds up on
        # the grid 1/2 to the schedule's makespan 17, so the search starts
        # closed and the bound prints it
        inst = workdir / "grid.ra"
        inst.write_text(GRID_HALL_TEXT)
        code, out, err = run_cli(capsys, "solve", str(inst), "--lp-bound")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert "makespan 17/1 ~17.000000" in lines
        assert "lower-bound 17/1 kind=config-lp" in lines
        assert "ratio-bound 1/1 ~1.000000" in lines
        assert "iterations lp_bound_probes 0" in lines

    def test_lp_bound_decided_below_the_hall_bound_needs_no_knapsack(self, workdir, capsys):
        # 31 unit jobs on 2 machines: 31 pricing items per machine, but the
        # Hall bound 16 (16 jobs on one machine) is the schedule's makespan,
        # so the search starts closed and the bound prints it
        inst = workdir / "wide.ra"
        inst.write_text(WIDE_TEXT)
        code, out, err = run_cli(capsys, "solve", str(inst), "--lp-bound")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert "makespan 16/1 ~16.000000" in lines
        assert "lower-bound 16/1 kind=config-lp" in lines
        assert "ratio-bound 1/1 ~1.000000" in lines
        assert "iterations lp_bound_probes 0" in lines

    def test_lp_bound_decided_by_the_solve_needs_no_knapsack(self, workdir, capsys):
        # 31 unit jobs on one machine: the Hall bound (31) is the schedule's
        # makespan, so the config-LP bound makes no run and asks no
        # knapsack
        inst = workdir / "big.ra"
        inst.write_text("ra 1\nmachines 1\n"
                        + "".join(f"job j{k} 1/1 : 1\n" for k in range(31)))
        code, out, err = run_cli(capsys, "solve", str(inst), "--lp-bound")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert lines[0] == "ra-report 1"
        assert "makespan 31/1 ~31.000000" in lines
        assert "iterations lp_bound_probes 0" in lines
        assert all(f"assign j{k} 1" in lines for k in range(31))
        assert "lower-bound 31/1 kind=config-lp" in lines

    def test_oracle_above_its_job_cap_is_skipped(self, workdir, capsys):
        # the makespan oracle enumerates at most MAKESPAN_JOB_CAP jobs; above
        # that `--oracle` leaves the report as it is and the exit code 0
        inst = workdir / "i.ra"
        inst.write_text(serialize_instance(generate_instance(GenSpec(
            machines=3, jobs=MAKESPAN_JOB_CAP + 1, seed=1))))
        code, plain, _ = run_cli(capsys, "solve", str(inst))
        assert code == EXIT_OK
        code, out, err = run_cli(capsys, "solve", str(inst), "--oracle")
        assert code == EXIT_OK and err == ""
        assert out == plain and "kind=oracle-optimum" not in out


class TestTraceCommand:
    def test_trace_emits_jsonl_stream(self, workdir, capsys):
        inst = workdir / "i.ra"
        inst.write_text("ra 1\nmachines 2\njob a 1/3 : 1\njob b 9/10 : 1 2\n")
        code, out, _ = run_cli(capsys, "trace", str(inst))
        assert code == EXIT_OK
        assert all(json.loads(ln) for ln in out.splitlines())


class TestCheck:
    def test_check_round_trip(self, workdir, capsys):
        inst = workdir / "i.ra"
        # four private unit jobs plus a roamer: some probe gets stuck
        inst.write_text("ra 1\nmachines 4\njob a 1/1 : 1\njob b 1/1 : 2\n"
                        "job c 1/1 : 3\njob e 1/1 : 4\njob d 59/60 : 1 2 3 4\n")
        code, out, _ = run_cli(capsys, "solve", str(inst))
        assert code == EXIT_OK and "certificate-at" in out
        lines = out.splitlines()
        start = next(k for k, ln in enumerate(lines) if ln.startswith("certificate-at"))
        body = []
        for ln in lines[start + 1:]:
            if not ln.startswith("  "):
                break
            body.append(ln[2:])
        cert_path = workdir / "c.cert"
        cert_path.write_text("\n".join(body) + "\n")
        code, out, _ = run_cli(capsys, "check", str(inst), str(cert_path))
        assert code == EXIT_OK and "certificate OK" in out

    def test_check_rejects_tampered_certificate(self, workdir, capsys):
        inst = workdir / "i.ra"
        inst.write_text("ra 1\nmachines 4\njob a 1/1 : 1\njob b 1/1 : 2\n"
                        "job c 1/1 : 3\njob e 1/1 : 4\njob d 59/60 : 1 2 3 4\n")
        code, out, _ = run_cli(capsys, "solve", str(inst))
        lines = out.splitlines()
        start = next(k for k, ln in enumerate(lines) if ln.startswith("certificate-at"))
        body = []
        for ln in lines[start + 1:]:
            if not ln.startswith("  "):
                break
            body.append(ln[2:])
        text = "\n".join(body) + "\n"
        guess = next(ln for ln in body if ln.startswith("guess "))
        cert_path = workdir / "c.cert"
        cert_path.write_text(text.replace(guess, "guess 3/1"))
        code, _, err = run_cli(capsys, "check", str(inst), str(cert_path))
        assert code == EXIT_REJECTED and "FAILED" in err

    @pytest.mark.parametrize("y, code", [("31/1", EXIT_OK), ("30/1", EXIT_REJECTED)])
    def test_check_a_machine_with_more_than_30_valued_jobs(self, workdir, capsys, y, code):
        # 32 unit jobs on one machine at the guess 31: z = 1 on each job sums
        # to 32 > y, and the best configuration, 31 jobs, has z = 31, which
        # y = 31 covers and y = 30 does not
        inst = workdir / "i.ra"
        inst.write_text("ra 1\nmachines 1\n"
                        + "".join(f"job j{k} 1 : 1\n" for k in range(32)))
        cert_path = workdir / "c.cert"
        cert_path.write_text(
            "ra-certificate 1\nguess 31/1\nepsilon 1/24\ndelta 23/24\nK 48\nmachines 1\n"
            + "".join(f"z j{k} 1/1\n" for k in range(32)) + f"y 1 {y}\n")
        got, out, err = run_cli(capsys, "check", str(inst), str(cert_path))
        assert got == code
        if code == EXIT_OK:
            assert out == "certificate OK: the guess 31/1 is below the optimum\n"
        else:
            assert err == "certificate FAILED verification\n"


class TestBench:
    def test_bench_runs_corpus_and_skips_garbage(self, workdir, capsys):
        corpus = workdir / "corpus"
        corpus.mkdir()
        (corpus / "good.ra").write_text(
            "ra 1\nmachines 2\njob a 1/3 : 1\njob b 9/10 : 1 2\n")
        (corpus / "junk.txt").write_text("not an instance\n")
        rows = workdir / "rows.jsonl"
        code, out, err = run_cli(capsys, "bench", str(corpus),
                                 "--epsilon-list", "1/24,1/30",
                                 "--reps", "2", "--jsonl", str(rows))
        assert code == EXIT_OK
        assert "skipping junk.txt" in err
        assert out.count("good.ra") == 2  # one row per epsilon
        recs = [json.loads(ln) for ln in rows.read_text().splitlines()]
        assert {r["epsilon"] for r in recs} == {"1/24", "1/30"}
        assert all(r["ratio_vs_lp"] for r in recs)
        assert out.splitlines()[0].split()[6] == "lp_s"
        assert all(r["lp_seconds"] >= 0 for r in recs)

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_bench_rejects_fewer_than_one_repetition(self, workdir, capsys, reps):
        corpus = workdir / "corpus"
        corpus.mkdir()
        (corpus / "good.ra").write_text("ra 1\nmachines 1\njob a 1/3 : 1\n")
        code, out, err = run_cli(capsys, "bench", str(corpus), "--reps", reps)
        assert code == EXIT_INPUT
        assert err.startswith("input error:") and "repetitions" in err
        assert out == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bench_rejects_fewer_than_one_worker(self, workdir, capsys, workers):
        corpus = workdir / "corpus"
        corpus.mkdir()
        (corpus / "good.ra").write_text("ra 1\nmachines 1\njob a 1/3 : 1\n")
        code, out, err = run_cli(capsys, "bench", str(corpus), "--workers", workers)
        assert code == EXIT_INPUT
        assert err.startswith("input error:") and "workers" in err
        assert out == ""

    @pytest.mark.parametrize("workers, files, cpus, expected",
                             [(64, 2, 8, 2), (8, 5, 3, 3), (4, 3, None, 1)])
    def test_bench_pool_size_is_capped(self, workdir, capsys, monkeypatch,
                                       workers, files, cpus, expected):
        sizes = []

        class SerialPool:
            """Records the pool size and maps in this process; starts nothing."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("rasched.bench.ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr("rasched.bench.os.cpu_count", lambda: cpus)
        corpus = workdir / "corpus"
        corpus.mkdir()
        for k in range(files):
            (corpus / f"i{k}.ra").write_text(f"ra 1\nmachines 1\njob a{k} 1/3 : 1\n")
        code, out, _ = run_cli(capsys, "bench", str(corpus), "--workers", str(workers))
        assert code == EXIT_OK
        assert len(out.splitlines()) == 2 + files
        assert sizes == ([expected] if expected > 1 else [])

    def test_bench_marks_an_over_cap_bound_refused(self, workdir, capsys, small_front_cap):
        corpus = workdir / "corpus"
        corpus.mkdir()
        (corpus / "good.ra").write_text(
            "ra 1\nmachines 2\njob a 1/3 : 1\njob b 9/10 : 1 2\n")
        (corpus / "wide.ra").write_text(OVER_CAP_TEXT)
        rows = workdir / "rows.jsonl"
        code, out, _ = run_cli(capsys, "bench", str(corpus), "--jsonl", str(rows))
        assert code == EXIT_OK
        lines = {ln.split()[0]: ln.split() for ln in out.splitlines()[2:]}
        assert set(lines) == {"good.ra", "wide.ra"}
        assert lines["wide.ra"][7] == "refused"
        assert lines["good.ra"][7] != "refused"
        recs = {r["instance"]: r for r in map(json.loads, rows.read_text().splitlines())}
        assert recs["wide.ra"]["lp_lower_bound"] is None
        assert recs["wide.ra"]["ratio_vs_lp"] is None
        assert recs["wide.ra"]["makespan"] == "49/3"
        assert recs["good.ra"]["ratio_vs_lp"] is not None

    def test_bench_exits_3_when_a_rows_solves_disagree(self, workdir, capsys, monkeypatch):
        # each solve counts one engine iteration more than the one before
        calls = []

        def drifting_solve(*args, **kwargs):
            report = solve(*args, **kwargs)
            calls.append(None)
            report.iterations["engine_iterations"] = len(calls)
            return report

        corpus = workdir / "corpus"
        corpus.mkdir()
        (corpus / "good.ra").write_text(
            "ra 1\nmachines 2\njob a 1/3 : 1\njob b 9/10 : 1 2\n")
        monkeypatch.setattr(bench_module, "solve", drifting_solve)
        code, out, err = run_cli(capsys, "bench", str(corpus))
        assert code == EXIT_INTERNAL and out == ""
        assert err == "internal invariant violation: nondeterministic iteration count on good.ra\n"

    def test_bench_gives_a_job_less_instance_the_row_solve_reports(self, workdir, capsys):
        corpus = workdir / "corpus"
        corpus.mkdir()
        (corpus / "empty.ra").write_text("ra 1\nmachines 1\n")
        (corpus / "good.ra").write_text(
            "ra 1\nmachines 2\njob a 1/3 : 1\njob b 9/10 : 1 2\n")
        rows = workdir / "rows.jsonl"
        code, out, err = run_cli(capsys, "bench", str(corpus), "--jsonl", str(rows))
        assert code == EXIT_OK, err
        lines = {ln.split()[0]: ln.split() for ln in out.splitlines()[2:]}
        assert set(lines) == {"empty.ra", "good.ra"}
        assert lines["empty.ra"][7] == "1.000000"
        recs = {r["instance"]: r for r in map(json.loads, rows.read_text().splitlines())}
        assert (recs["empty.ra"]["lp_lower_bound"], recs["empty.ra"]["ratio_vs_lp"]) \
            == ("0/1", "1/1")
        code, out, _ = run_cli(capsys, "solve", str(corpus / "empty.ra"))
        assert code == EXIT_OK
        assert "lower-bound 0/1 kind=empty-instance" in out and "ratio-bound 1/1" in out

    def test_bench_times_unlogged_solves(self, workdir, monkeypatch):
        # the event log only feeds max_layer: the timed solves run without
        # it, one more solve, untimed, logs the events, and one with the
        # config-LP bound gives the bound
        flags = []

        def recording_solve(*args, log_events=False, lp_bound=False, **kwargs):
            flags.append((log_events, lp_bound))
            return solve(*args, log_events=log_events, lp_bound=lp_bound, **kwargs)

        text = serialize_instance(two_value_instance(random.Random(0), 16))
        corpus = workdir / "corpus"
        corpus.mkdir()
        (corpus / "tv.ra").write_text(text)
        logged = solve(parse_instance(text), Fraction(1, 24), Fraction(1, 100),
                       log_events=True)
        max_layer = max(ev["layer"] for _, run in logged.run_logs for ev in run.events
                        if ev["layer"])
        monkeypatch.setattr(bench_module, "solve", recording_solve)
        (row,) = bench_module.bench(str(corpus), [Fraction(1, 24)], repetitions=3)
        assert flags == [(False, False)] * 3 + [(True, False), (False, True)]
        assert row.max_layer == max_layer > 0
        assert row.engine_iterations == logged.iterations["engine_iterations"]

    def test_bench_bound_gets_the_solve_facts(self, workdir, capsys, small_front_cap):
        # each row's bound and ratio are the `lower-bound` and `ratio-bound`
        # that `solve --lp-bound` prints, or `refused` where it exits 4: 31
        # unit jobs on one machine, a job-less file and an over-cap file
        # (under the lowered front budget)
        corpus = workdir / "corpus"
        corpus.mkdir()
        (corpus / "one.ra").write_text(
            "ra 1\nmachines 1\n" + "".join(f"job j{k} 1 : 1\n" for k in range(31)))
        (corpus / "empty.ra").write_text("ra 1\nmachines 1\n")
        (corpus / "wide.ra").write_text(OVER_CAP_TEXT)
        rows = workdir / "rows.jsonl"
        code, out, _ = run_cli(capsys, "bench", str(corpus), "--jsonl", str(rows))
        assert code == EXIT_OK
        printed = {ln.split()[0]: ln.split()[7] for ln in out.splitlines()[2:]}
        recs = {r["instance"]: r for r in map(json.loads, rows.read_text().splitlines())}
        assert set(printed) == set(recs) == {"one.ra", "empty.ra", "wide.ra"}
        codes = {}
        for name, rec in recs.items():
            codes[name], out, _ = run_cli(capsys, "solve", str(corpus / name), "--lp-bound")
            if codes[name] == EXIT_LIMIT:
                assert rec["lp_lower_bound"] is None and rec["ratio_vs_lp"] is None
                assert printed[name] == "refused"
                continue
            facts = dict(ln.split()[:2] for ln in out.splitlines()
                         if ln.startswith(("lower-bound ", "ratio-bound ")))
            assert rec["lp_lower_bound"] == facts["lower-bound"], name
            assert rec["ratio_vs_lp"] == facts["ratio-bound"], name
            assert printed[name] == f"{float(Fraction(facts['ratio-bound'])):.6f}"
        assert codes == {"one.ra": EXIT_OK, "empty.ra": EXIT_OK, "wide.ra": EXIT_LIMIT}


def mutated(rng, text):
    """`text` after one random edit: two tokens of one column swapped
    between lines, the text cut at a random character, a line duplicated,
    or a token appended to a line."""
    rows = [ln.split() for ln in text.splitlines()]
    edit = rng.randrange(4)
    if edit == 0:
        c = rng.randrange(max(map(len, rows)))
        r1, r2 = rng.sample([r for r, row in enumerate(rows) if len(row) > c], 2)
        rows[r1][c], rows[r2][c] = rows[r2][c], rows[r1][c]
    elif edit == 1:
        return text[:rng.randrange(len(text))]
    elif edit == 2:
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    else:
        token = rng.choice([rng.choice(rng.choice(rows) or ["x"]),
                            "0", "-1", "1/0", "3/2", "x", ":", "99999", "1e9"])
        rng.choice(rows).append(token)
    return "".join(" ".join(row) + "\n" for row in rows)


class TestMutationFuzz:
    """Mutated inputs end in a documented exit code and never in a
    traceback: a 28-job two-value instance goes through `solve`, plain and
    with `--audit`, `--lp-bound` or `--oracle`, through `trace`, and as the
    one file of a `bench` corpus, and one of its stuck certificates through
    `check`. Exit 3, an internal invariant violation, is a bug here. `bench`
    skips a file it cannot parse and marks an over-cap bound `refused`, so
    it exits 0 on every case."""

    CASES = 280
    COMMANDS = ((), ("--audit",), ("--lp-bound",), ("--oracle",), "check", "trace", "bench")

    def test_mutated_inputs_exit_with_a_documented_code(self, workdir, capsys):
        inst_text = serialize_instance(two_value_instance(random.Random(0), 16))
        inst = workdir / "i.ra"
        inst.write_text(inst_text)
        code, out, _ = run_cli(capsys, "solve", str(inst))
        assert code == EXIT_OK
        lines = out.splitlines()
        start = next(k for k, ln in enumerate(lines) if ln.startswith("certificate-at"))
        cert_text = "".join(ln[2:] + "\n" for ln in lines[start + 1:]
                            if ln.startswith("  "))
        rng = random.Random(2024)
        codes = Counter()
        for case in range(self.CASES):
            command = self.COMMANDS[case % len(self.COMMANDS)]
            path = workdir / f"case{case}"
            if command == "check":
                path.write_text(mutated(rng, cert_text))
                argv = ["check", str(inst), str(path)]
            elif command == "trace":
                path.write_text(mutated(rng, inst_text))
                argv = ["trace", str(path)]
            elif command == "bench":
                path.mkdir()
                (path / "i.ra").write_text(mutated(rng, inst_text))
                argv = ["bench", str(path)]
            else:
                path.write_text(mutated(rng, inst_text))
                argv = ["solve", str(path), *command]
            with interrupted_after(2):
                code, _, err = run_cli(capsys, *argv)
            assert code in (EXIT_OK, EXIT_REJECTED, EXIT_INPUT, EXIT_LIMIT), (argv, err)
            assert code == EXIT_OK or command != "bench", (argv, err)
            assert "Traceback" not in err, (argv, err)
            codes[code] += 1
        # some mutations get past the parsers
        assert codes[EXIT_OK] and codes[EXIT_INPUT], codes


def stuck_certificate_lines(workdir, capsys):
    """Solve an instance with a stuck probe; return its path and certificate lines."""
    inst = workdir / "i.ra"
    inst.write_text("ra 1\nmachines 4\njob a 1/1 : 1\njob b 1/1 : 2\n"
                    "job c 1/1 : 3\njob e 1/1 : 4\njob d 59/60 : 1 2 3 4\n")
    code, out, _ = run_cli(capsys, "solve", str(inst))
    assert code == EXIT_OK
    lines = out.splitlines()
    start = next(k for k, ln in enumerate(lines) if ln.startswith("certificate-at"))
    body = []
    for ln in lines[start + 1:]:
        if not ln.startswith("  "):
            break
        body.append(ln[2:])
    return inst, body


class TestCheckMalformed:
    def check_edited(self, workdir, capsys, edit):
        inst, body = stuck_certificate_lines(workdir, capsys)
        cert_path = workdir / "c.cert"
        cert_path.write_text("\n".join(edit(body)) + "\n")
        return run_cli(capsys, "check", str(inst), str(cert_path))

    def test_unknown_job_name(self, workdir, capsys):
        def rename(body):
            k = next(k for k, ln in enumerate(body) if ln.startswith("z "))
            return body[:k] + ["z nope " + body[k].split()[2]] + body[k + 1:]
        code, out, err = self.check_edited(workdir, capsys, rename)
        assert code == EXIT_INPUT and out == ""
        assert "input error: line 7: unknown job 'nope'" in err

    @pytest.mark.parametrize("field", ["guess", "epsilon", "delta", "K", "machines"])
    def test_missing_header_line(self, workdir, capsys, field):
        def drop(body):
            return [ln for ln in body if not ln.startswith(field + " ")]
        code, out, err = self.check_edited(workdir, capsys, drop)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("input error: line ")
        assert f"missing '{field}' line" in err

    def test_missing_y_row(self, workdir, capsys):
        def drop(body):
            return [ln for ln in body if not ln.startswith("y 2 ")]
        code, out, err = self.check_edited(workdir, capsys, drop)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("input error: line ")
        assert "missing y row for machine 2" in err

    def test_bad_number_names_its_line(self, workdir, capsys):
        def corrupt(body):
            return [("K many" if ln.startswith("K ") else ln) for ln in body]
        code, _, err = self.check_edited(workdir, capsys, corrupt)
        assert code == EXIT_INPUT and "line 5: bad number in 'K many'" in err

    @pytest.mark.parametrize("edited, line, message", [
        ("delta 1/7", 4, "delta must be 1 - epsilon = 23/24"),
        ("K 1", 5, "K must be the layer cap 144 of the instance at this epsilon"),
    ])
    def test_header_that_disagrees_with_its_epsilon_names_its_line(
            self, workdir, capsys, edited, line, message):
        # the checks read only the guess, epsilon, z and y, so a delta or K
        # that nothing checked would pass as the solve's own
        field = edited.split()[0] + " "

        def replace(body):
            return [(edited if ln.startswith(field) else ln) for ln in body]
        code, out, err = self.check_edited(workdir, capsys, replace)
        assert code == EXIT_INPUT and out == ""
        assert err == f"input error: line {line}: {message}\n"
