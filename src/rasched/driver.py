"""End-to-end pipeline: binary search over the guess, seeding, insertions.

Each probe either produces a schedule of makespan <= (1+R) * T or a certified
reason the guess is too small (seed LP infeasible, or a stuck search whose
dual certificate is verified on the spot). A solve lays the seed's flow
network once and finds on it the densest job set J* (`seed.max_density`),
whose density lambda* decides most probes' seed LP without a flow: a probe
at or above lambda* is feasible, and J* proves most below it infeasible.
Every other probe runs its own seed flow. A successful probe without huge
jobs keeps only its scaled guess, since the densest set decided it without
a flow; a solve reads one such schedule, the lowest successful probe's,
through `seed.decided_seed`, which runs that flow and rounds it. A probe
with huge jobs rounds its seed at once, for the engine. Under audit every
successful probe does, and every probe the solve decided without a flow
runs its own flow, which must agree.

The engine reads a guess only through its engine image
(`ScaledInstance.engine_image`: the floor caps on sums of the instance's
integer sizes and the class boundaries), so close guesses often repeat a
search.
Each insertion run leaves one `EngineRun`: its job, outcome, counter
increments and, when events are logged, events and tree snapshot; a
logged run goes into `SolveReport.run_logs` as a (guess, EngineRun) pair.
A solve keeps one memo of its probes' runs and final states, keyed on the
seed's placement and that image: a success's placement, a tuple by job id
validated where the search ran, which its `ProbeResult` holds, or the stuck
engine `InsertionEngine.run` returned. A probe that repeats both takes the
stored runs, and either the stored placement or builds and verifies its
certificate from the stored engine at its own guess, which is the
certificate running it gives (`certificate.build_dual_certificate` reads
the guess only from the probe's scaled instance). One loop counts and logs
a probe's runs, executed or stored, at its guess, so a repeat's report,
trace and DOT output are those of running it. Under audit a repeat runs the
engine again; its runs must equal the record's, and so must its placement,
or its certificate text at the probe's guess.

The bracket starts at [max job size, makespan of a polished restricted
greedy schedule] and shrinks until high/low <= 1 + tau. The lowest
successful probe's schedule, whose integer maximum load must be at most its
guess's `cap`, is polished by the same move/swap descent, and the better of
it and the polished greedy schedule is reported; reports serialize
byte-identically for identical inputs. Both ends of the bracket are
multiples of 1/L, L the scale of the instance's integer image, so the
bisection runs on integer numerators over the common denominator L 2^k and
builds one rational per probe, its guess.
Under `lp_bound` the solve raises lambda* to the Hall bound H on the same
network (`seed.hall_bound`), and the config-LP bound searches the grid 1/L
between H and the reported schedule's makespan, so it never prints below H.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .rational import Frac, ZERO, frac, ratio_str
from .model import (Instance, ScaledInstance, Schedule, scale_instance,
                    validate_partial_schedule, UNASSIGNED)
from .flow import AssignmentNetwork
from . import seed
from .seed import (SeedInfeasible, seed_small_medium, decided_seed, max_density,
                   hall_bound)
from .engine import InsertionEngine, EngineInvariantError
from .certificate import (DualCertificate, build_dual_certificate,
                          verify_certificate, check_bs_s_machine_counts,
                          check_covered_machine_margin, check_big_job_value_bound,
                          certificate_to_text, config_lp_lower_bound,
                          CertificateError)
from .oracle import exact_optimal_makespan, MAKESPAN_JOB_CAP


@dataclass
class ProbeResult:
    """One probe's outcome: "success", "seed-infeasible" or "stuck".

    A success holds its `scaled` guess and, as the memo stores it, its
    `placement`; one without huge jobs outside audit holds none, and the
    solve reads its seed through `seed.decided_seed`.
    """

    guess: object
    outcome: str
    placement: tuple | None = None
    certificate: DualCertificate | None = None
    scaled: ScaledInstance | None = None


def _placement(schedule: Schedule) -> tuple:
    """The machine of each job id (index 0 unused), once `schedule` validates."""
    bad = validate_partial_schedule(schedule)
    if bad:
        raise EngineInvariantError("; ".join(bad))
    return tuple(schedule.assignment)


@dataclass
class SolveReport:
    instance: Instance
    epsilon: object
    tau: object
    assignment: dict  # original job name -> machine id
    makespan: object
    guess_final: object
    lower_bound: object
    lower_bound_kind: str
    ratio_bound: object
    iterations: dict
    probes: list  # (guess, outcome) in probe order
    certificates: list  # (guess, DualCertificate)
    run_logs: list = field(default_factory=list)  # (guess, EngineRun) per logged run
    placement: dict = field(default_factory=dict)  # internal job id -> machine

    def to_text(self) -> str:
        inst = self.instance
        lines = [
            "ra-report 1",
            f"machines {inst.num_machines}",
            f"jobs {inst.num_jobs}",
            f"epsilon {ratio_str(self.epsilon)}",
            f"tau {ratio_str(self.tau)}",
            f"makespan {ratio_str(self.makespan)} ~{float(self.makespan):.6f}",
            f"guess-final {ratio_str(self.guess_final)}",
            f"lower-bound {ratio_str(self.lower_bound)} kind={self.lower_bound_kind}",
            f"ratio-bound {ratio_str(self.ratio_bound)} ~{float(self.ratio_bound):.6f}",
        ]
        for phase in sorted(self.iterations):
            lines.append(f"iterations {phase} {self.iterations[phase]}")
        for guess, outcome in self.probes:
            lines.append(f"probe {ratio_str(guess)} {outcome}")
        for name in inst.names:
            lines.append(f"assign {name} {self.assignment[name]}")
        for guess, cert in self.certificates:
            lines.append(f"certificate-at {ratio_str(guess)}")
            body = certificate_to_text(cert, inst).rstrip("\n")
            lines.extend("  " + ln for ln in body.splitlines())
        return "\n".join(lines) + "\n"


class EngineRun(NamedTuple):
    """One insertion run: the job it inserted, its outcome ("assigned" or
    "stuck"), each counter it adds to with its increment, and its events
    and final tree snapshot when events are logged (else None)."""

    j_new: int
    outcome: str
    counts: tuple
    events: list | None
    snapshot: list | None


def _insert(schedule: Schedule, huge, *, audit, log_events):
    """Inserts the `huge` jobs into `schedule` in turn. Returns the final
    placement, or the engine of the run that got stuck, and every run."""
    runs = []
    for j_new in huge:
        engine = InsertionEngine(schedule, j_new, audit=audit, log_events=log_events)
        result = engine.run()
        stuck = result is engine
        runs.append(EngineRun(
            j_new, "stuck" if stuck else "assigned",
            (("engine_iterations", engine.iterations), ("engine_moves", engine.moves),
             ("engine_adds", engine.adds),
             ("signature_checkpoints", len(engine.checkpoints)),
             ("signature_dips", len(engine.signature_dips))),
            engine.events, _tree_snapshot(engine) if log_events else None))
        if stuck:
            return engine, runs
        schedule = result
    return _placement(schedule), runs


def _decided(final, scaled: ScaledInstance):
    """What a memo record's final state decides at the guess of `scaled`:
    the placement of a success, the certificate text of a stuck engine."""
    if isinstance(final, InsertionEngine):
        return certificate_to_text(build_dual_certificate(final, scaled), scaled.base)
    return final


def _probe(inst: Instance, guess, epsilon, *, audit, log_events, run_logs,
           counters, network, densest, memo) -> ProbeResult:
    scaled = scale_instance(inst, guess, epsilon)
    counters["seed_lps"] += 1
    try:
        fa = seed_small_medium(scaled, network, densest)
    except SeedInfeasible as exc:
        if audit and exc.violator is densest:
            try:
                seed.solve_assignment_lp(scaled, network)
            except SeedInfeasible:
                pass
            else:
                raise EngineInvariantError(
                    f"the densest set refuted the feasible guess {ratio_str(guess)}"
                )
        return ProbeResult(guess, "seed-infeasible")
    huge = sorted(scaled.huge_jobs(), reverse=True)  # decreasing size, det. ties
    if not huge and not audit:
        # below lambda* the densest set refutes a guess without huge jobs,
        # so this one was decided without a flow: fa is None
        return ProbeResult(guess, "success", scaled=scaled)
    schedule = decided_seed(fa, scaled, network)
    # the search reads the guess only through its caps and class boundaries,
    # so a seed and engine image seen before repeat that probe's runs, and a
    # stored stuck engine gives this guess's certificate
    key = (tuple(schedule.assignment), scaled.engine_image)
    stored = memo.get(key)
    if stored is None or audit:
        final, runs = _insert(schedule, huge, audit=audit, log_events=log_events)
        if stored is not None and (runs != stored[1]
                                   or _decided(final, scaled) != _decided(stored[0], scaled)):
            raise EngineInvariantError(
                f"the insertion runs at {ratio_str(guess)} differ from those of an"
                " equal engine image and seed")
        memo[key] = (final, runs)
    else:
        final, runs = stored
    for run in runs:
        for name, increment in run.counts:
            counters[name] += increment
        if log_events:
            run_logs.append((guess, run))
    if not isinstance(final, InsertionEngine):
        return ProbeResult(guess, "success", placement=final, scaled=scaled)
    counters["stuck_events"] += 1
    cert = build_dual_certificate(final, scaled)
    if not verify_certificate(cert, scaled):
        raise CertificateError(
            f"stuck-state certificate failed to verify at guess {ratio_str(guess)}"
        )
    ok_counts, _ = check_bs_s_machine_counts(final)
    counters["bs_s_checks"] += 1
    if not ok_counts:
        raise EngineInvariantError("per-layer BS/S machine count balance broke")
    if audit:
        bad = (check_covered_machine_margin(final, cert)
               + check_big_job_value_bound(final, cert))
        if bad:
            raise EngineInvariantError("; ".join(bad))
    return ProbeResult(guess, "stuck", certificate=cert)


def _greedy(inst: Instance) -> dict:
    """Restricted list scheduling: jobs by decreasing internal id (largest
    first), each on its least-loaded permitted machine, ties to the smallest
    machine id. Returns internal job id -> machine."""
    sizes = inst.integer_image[1]
    loads = [0] * (inst.num_machines + 1)
    placement = {}
    for j in reversed(inst.jobs):
        i = min(inst.gamma[j], key=lambda k: (loads[k], k))
        placement[j] = i
        loads[i] += sizes[j]
    return placement


def _polish(inst: Instance, placement: dict) -> dict:
    """Move/swap descent on a complete schedule, in the original (unscaled)
    sizes, brought to integers by `Instance.integer_image`.

    A step takes a job j off a maximum-load machine i and either moves it to
    a permitted machine k, or swaps it with a smaller job on k that is
    permitted on i, provided k ends strictly below the maximum. The first
    step found is taken: machines by id, jobs on them by decreasing id,
    targets by (load, id), and for a swap the smallest partner that
    qualifies. Each step drops i below the maximum and keeps k below it, so
    the makespan never rises and the sorted load vector falls
    lexicographically, which ends the descent. Each machine's jobs are kept
    in increasing id order across steps. Returns a new placement.
    """
    sizes, gamma = inst.integer_image[1], inst.gamma
    placement = dict(placement)
    loads = [0] * (inst.num_machines + 1)
    on = [[] for _ in range(inst.num_machines + 1)]  # jobs by increasing id
    for j, i in placement.items():
        loads[i] += sizes[j]
        on[i].append(j)
    for jobs in on:
        jobs.sort()

    def step(top):
        for i in inst.machines:
            if loads[i] != top:
                continue
            for j in reversed(on[i]):
                p = sizes[j]
                for k in sorted(gamma[j] - {i}, key=lambda k: (loads[k], k)):
                    # k ends below the top once it sheds a partner larger than this
                    over = loads[k] + p - top
                    if over < 0:
                        return i, j, k, None
                    for j2 in on[k]:  # increasing id: nondecreasing size
                        if sizes[j2] >= p:
                            break
                        if sizes[j2] > over and i in gamma[j2]:
                            return i, j, k, j2
        return None

    while (found := step(max(loads[1:]))) is not None:
        i, j, k, j2 = found
        on[i].remove(j)
        insort(on[k], j)
        placement[j] = k
        delta = sizes[j]
        if j2 is not None:
            on[k].remove(j2)
            insort(on[i], j2)
            placement[j2] = i
            delta -= sizes[j2]
        loads[i] -= delta
        loads[k] += delta
    return placement


def _max_load(inst: Instance, placement: dict) -> int:
    """The maximum machine load of a complete placement, times L."""
    sizes = inst.integer_image[1]
    loads = [0] * (inst.num_machines + 1)
    for j, i in placement.items():
        loads[i] += sizes[j]
    return max(loads[1:])


def _makespan(inst: Instance, placement: dict):
    """The exact maximum machine load of a complete placement."""
    return Frac(_max_load(inst, placement), inst.integer_image[0])


def _tree_snapshot(engine: InsertionEngine) -> list:
    out = []
    for b in engine.tree.blockers():
        out.append({
            "job": b.job, "machine": b.machine, "type": b.btype.code,
            "layer": b.layer, "sublayer": b.sublayer, "stamp": b.stamp,
            "parent_stamp": b.parent.stamp if b.parent else None,
        })
    return out


def solve(inst: Instance, epsilon=Frac(1, 24), tau=Frac(1, 100), *,
          audit: bool = False, log_events: bool = False,
          lp_bound: bool = False, use_oracle: bool = False) -> SolveReport:
    """Binary search for a (1+R)-factor schedule with certified lower bounds.

    The bracket starts at [max job size, makespan of the polished greedy
    schedule]; the probe at the top must succeed, since a schedule meets it.
    The reported schedule is the polished schedule of the lowest successful
    probe, or the polished greedy one if its makespan is strictly smaller.
    """
    epsilon, tau = frac(epsilon), frac(tau)
    if not (0 < epsilon < Frac(1, 12)):
        raise ValueError("epsilon must lie strictly between 0 and 1/12")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if inst.num_jobs == 0:
        return SolveReport(inst, epsilon, tau, {}, ZERO, ZERO, ZERO,
                           "empty-instance", Frac(1), {}, [], [])

    counters = Counter()
    run_logs: list = []
    probes: list = []
    certificates: list = []
    network = AssignmentNetwork(inst)
    densest = max_density(inst, network)
    memo: dict = {}  # (seed placement, engine image) -> (placement or stuck engine, runs)

    def probe(guess) -> ProbeResult:
        res = _probe(inst, guess, epsilon, audit=audit, log_events=log_events,
                     run_logs=run_logs, counters=counters, network=network,
                     densest=densest, memo=memo)
        probes.append((guess, res.outcome))
        return res

    # the bracket [lo, hi] on integers: lo = lo_n / den and hi = hi_n / den
    scale, sizes = inst.integer_image
    greedy = _polish(inst, _greedy(inst))
    lo_n, hi_n, den = max(sizes), _max_load(inst, greedy), scale
    lower_kind = "max-job-size"
    greedy_makespan = Frac(hi_n, den)
    tau_num, tau_den = tau.numerator, tau.denominator

    best = probe(greedy_makespan)
    if best.outcome != "success":
        raise EngineInvariantError(
            "the probe at the greedy makespan cannot fail: a schedule meets it"
        )

    while hi_n * tau_den > lo_n * (tau_den + tau_num):  # hi > lo (1 + tau)
        lo_n, hi_n, den = 2 * lo_n, 2 * hi_n, 2 * den
        mid_n = (lo_n + hi_n) // 2
        res = probe(Frac(mid_n, den))
        if res.outcome == "success":
            hi_n, best = mid_n, res
        elif res.outcome == "seed-infeasible":
            lo_n, lower_kind = mid_n, "seed-lp-infeasible"
        else:
            certificates.append((res.guess, res.certificate))
            lo_n, lower_kind = mid_n, "stuck-certificate"
    counters["probes"] = len(probes)

    machine_of = best.placement or _placement(decided_seed(None, best.scaled, network))
    placement = {j: machine_of[j] for j in inst.jobs}
    for j, i in placement.items():
        if i is UNASSIGNED:
            raise EngineInvariantError(f"job {j} left unassigned by a successful probe")
    if _max_load(inst, placement) > best.scaled.cap:  # above (1 + R) T
        raise EngineInvariantError("final makespan exceeds the probe guarantee")
    # polishing never raises the makespan, so the guarantee carries over
    placement = _polish(inst, placement)
    makespan = _makespan(inst, placement)
    if greedy_makespan < makespan:
        placement, makespan = greedy, greedy_makespan
    assignment = {inst.name_of(j): placement[j] for j in inst.jobs}

    lower = Frac(lo_n, den)
    if lp_bound:
        bound = config_lp_lower_bound(inst, tau, assignment=placement,
                                      infeasible_below=hall_bound(inst, network, densest))
        counters["lp_bound_probes"] = bound.probes
        if bound.lower > lower:
            lower, lower_kind = bound.lower, "config-lp"
    if use_oracle and inst.num_jobs <= MAKESPAN_JOB_CAP:
        opt = exact_optimal_makespan(inst)
        if opt > lower:
            lower, lower_kind = opt, "oracle-optimum"

    return SolveReport(
        instance=inst, epsilon=epsilon, tau=tau, assignment=assignment,
        makespan=makespan, guess_final=best.guess, lower_bound=lower,
        lower_bound_kind=lower_kind, ratio_bound=makespan / lower,
        iterations=dict(counters), probes=probes, certificates=certificates,
        run_logs=run_logs, placement=placement,
    )
