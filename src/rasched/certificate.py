"""Dual certificates of infeasibility and configuration-LP bounds.

The stuck engine `InsertionEngine.run` returns yields an exact dual
assignment (z per job, y per machine) whose objective gap and per-machine
knapsack feasibility are machine-checkable: together they certify that no
fractional schedule of makespan 1 (scaled) exists, i.e. the probed guess is
below the optimum.

A stuck engine's dual is built on one integer grid: with epsilon = n/d, the
guess T = a/b and sizes q_j/L, every z_j and y_i is an integer over
D = d^t 6 L a, t the deepest layer the dual weighs (at least K), and each
becomes a rational once, when stored (`build_dual_certificate`). The
checks and the config-LP pricing ask each machine for its best
configuration (`best_configuration`) on integers: both weigh jobs by the
instance's integer sizes q against a floor cap of the guess. Verification
takes one integer image of z and y, compares integer sums, and values each
machine's configurations by that image of z against its image of y_i; the
column generation values them by the master's integer duals. Rationals are
built for what is printed, stored or returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .rational import Frac, ZERO, frac, integer_image, parse_ratio, ratio_str
from .model import Instance, InstanceFormatError, ScaledInstance, UNASSIGNED, scale_instance
from .engine import BlockerType, InsertionEngine, layer_cap
from .oracle import KnapsackQuery, knapsack_max_value
from .simplex import simplex_min

#: column-generation rounds per covering-LP run before it is "unresolved"
_MAX_CG_ROUNDS = 500


class CertificateError(RuntimeError):
    """A certificate that was required to verify did not."""


class CertificateFormatError(InstanceFormatError):
    """Malformed certificate text; carries a 1-based line number."""


@dataclass
class DualCertificate:
    guess: object
    epsilon: object
    delta: object  # 1 - epsilon
    K: int
    num_machines: int
    z: dict  # internal job id -> nonnegative rational (0 for inactive jobs)
    y: dict  # machine id -> rational
    transcript: list = field(default_factory=list)


def _active_on(engine, active):
    """Machine -> the active jobs assigned to it, for every machine."""
    on = {i: [] for i in engine.scaled.base.machines}
    for j in active:
        i = engine.schedule.machine_of(j)
        if i is not UNASSIGNED:
            on[i].append(j)
    return on


def build_dual_certificate(engine: InsertionEngine, scaled: ScaledInstance) -> DualCertificate:
    """The dual (z, y) of a stuck engine's final tree at the guess T of
    `scaled`: z_j = delta^k p_j/T for an active job of value layer k, with
    5/6 in place of p_j/T for a huge job, 0 for an inactive one, and
    y_i = delta^K + w_i, where w_i, kept only here, is z of the active jobs
    on i, plus delta^k/6 on a machine with a BS blocker at layer k, or less
    delta^k/6 on one with an S blocker at layer k.

    The engine may come from a run at another guess with the same engine
    image and seed, and the dual is still that of running at T:
    - The value layers, the blockers and the placement are decided by the
      run, which reads the guess only through the engine image
      (`ScaledInstance.engine_image`). K depends on m and epsilon alone.
    - With T = a/b and sizes q_j/L, T enters z and y only as the scaled
      size b q_j/(L a) of a job that is not huge, and the constant 5/6 of
      a huge one, which `huge_start`, part of the image, tells apart.

    Everything is built on one integer grid. With epsilon = n/d, so that
    delta = (d - n)/d, let t be the largest of K and every value, BS and S
    layer. Then z and y are integers over D = d^t 6 L a: z_j D is
    (d - n)^k d^(t - k) 6 b q_j, or (d - n)^k d^(t - k) 5 L a for a huge
    job; delta^K D is (d - n)^K d^(t - K) 6 L a, and delta^k/6 D is
    (d - n)^k d^(t - k) L a. Each value becomes a rational once, when
    stored."""
    K = engine.K
    layers = engine.value_layers()
    # the BS and S covers, whose machines' y_i gain or lose delta^k/6
    corrections = {i: blk for i, blk in engine.cover().items()
                   if blk.btype is not BlockerType.MS}

    n, d = scaled.epsilon.numerator, scaled.epsilon.denominator
    used = {K, *layers.values(), *(blk.layer for blk in corrections.values())}
    top = max(used)
    power = {k: (d - n) ** k * d ** (top - k) for k in used}  # delta^k d^t
    unit, b, q = scaled.unit, scaled.guess.denominator, scaled.base.integer_image[1]
    scale = d ** top * 6 * unit
    z_int = {j: power[k] * (5 * unit if scaled.is_huge(j) else 6 * b * q[j])
             for j, k in layers.items()}

    y_int = {}
    base = power[K] * 6 * unit
    active_on = _active_on(engine, layers)
    for i in scaled.base.machines:
        w = sum(z_int[j] for j in active_on[i])
        blk = corrections.get(i)
        if blk is not None:
            w += (1 if blk.btype is BlockerType.BS else -1) * power[blk.layer] * unit
        y_int[i] = base + w
    # one rational per distinct value: most machines share theirs
    rational = {v: Frac(v, scale) for v in {*z_int.values(), *y_int.values()}}
    z = dict.fromkeys(scaled.base.jobs, ZERO)
    z.update((j, rational[v]) for j, v in z_int.items())
    y = {i: rational[v] for i, v in y_int.items()}
    return DualCertificate(
        guess=scaled.guess, epsilon=scaled.epsilon, delta=Frac(d - n, d), K=K,
        num_machines=scaled.base.num_machines, z=z, y=y,
    )


def _image(cert: DualCertificate):
    """(scale, z, y): one integer image of the certificate's z and y, by
    job and by machine."""
    scale, ints = integer_image([*cert.z.values(), *cert.y.values()])
    return scale, dict(zip(cert.z, ints)), dict(zip(cert.y, ints[len(cert.z):]))


def _objective_negative(cert: DualCertificate, image) -> bool:
    scale, z, y = image
    zs, ys = sum(z.values()), sum(y.values())
    ok = zs > ys
    cert.transcript.append(
        f"objective z_total={ratio_str(Frac(zs, scale))} y_total={ratio_str(Frac(ys, scale))} "
        f"{'PASS' if ok else 'FAIL'}"
    )
    return ok


def verify_objective_negative(cert: DualCertificate) -> bool:
    """Exact check that sum(z) exceeds sum(y); both sides go to the transcript."""
    return _objective_negative(cert, _image(cert))


def best_configuration(jobs, sizes, values, room):
    """(value, config): a subset of `jobs` (ids in increasing order) of the
    largest total `values` whose `sizes` sum to at most `room`, all ints and
    indexed by id. The jobs of positive value that fit go to the knapsack."""
    items = [j for j in jobs if values[j] > 0 and sizes[j] <= room]
    if not items:
        return 0, ()
    best, subset = knapsack_max_value(
        KnapsackQuery(tuple((sizes[j], values[j]) for j in items), room))
    return best, tuple(items[t] for t in subset)


def _dual_feasibility(cert: DualCertificate, scaled: ScaledInstance, image):
    scale, z, y = image
    witnesses = []
    ok = True
    permitted_on, q = scaled.base.permitted_on, scaled.base.integer_image[1]
    for i in scaled.base.machines:
        best, config = best_configuration(permitted_on[i], q, z, scaled.fit)
        value = Frac(best, scale)
        passed = best <= y[i]
        cert.transcript.append(
            f"machine {i} max-config z={ratio_str(value)} y={ratio_str(cert.y[i])} "
            f"{'PASS' if passed else 'FAIL'}"
        )
        if not passed:
            ok = False
            witnesses.append((i, config, value, cert.y[i]))
    return ok, witnesses


def verify_dual_feasibility(cert: DualCertificate, scaled: ScaledInstance):
    """For every machine, maximize z over permitted configurations of size <= 1
    by exact knapsack and compare with y. Returns (ok, witnesses).

    The knapsacks run on integers: the weights are the instance's q, against
    the capacity `scaled.fit` = floor(L T), and the values one integer image
    of z and y, over whose scale each best value compares with y_i."""
    return _dual_feasibility(cert, scaled, _image(cert))


def verify_certificate(cert: DualCertificate, scaled: ScaledInstance) -> bool:
    """Both checks on one integer image of z and y: integer sums, and each
    machine's knapsack best against its y_i."""
    image = _image(cert)
    ok1 = _objective_negative(cert, image)
    ok2, _ = _dual_feasibility(cert, scaled, image)
    return ok1 and ok2


def check_bs_s_machine_counts(engine: InsertionEngine):
    """Per layer, machines holding BS blockers never outnumber machines
    holding S blockers. Returns (ok, per-layer counts)."""
    per_layer = {}
    for b in engine.tree.blockers():
        if b.btype in (BlockerType.BS, BlockerType.S):
            entry = per_layer.setdefault(b.layer, [set(), set()])
            entry[0 if b.btype is BlockerType.BS else 1].add(b.machine)
    counts = {k: (len(v[0]), len(v[1])) for k, v in per_layer.items()}
    ok = all(bs <= s for bs, s in counts.values())
    return ok, counts


def check_covered_machine_margin(engine: InsertionEngine, cert: DualCertificate):
    """Audit: on every machine carrying an all-undesirable blocker at layer k,
    w_i = y_i - delta^K >= z(active_i) + delta^k * (1 - delta * p_down(active_i))."""
    sc = engine.scaled
    delta = cert.delta
    violations = []
    active_on = _active_on(engine, engine.active_jobs())
    for b in engine.tree.blockers():
        if not b.btype.all_undesirable:
            continue
        i, k = b.machine, b.layer
        active_i = active_on[i]
        z_active = sum((cert.z[j] for j in active_i), ZERO)
        p_down = sum((sc.size_down(j) for j in active_i), ZERO)
        bound = z_active + delta ** k * (1 - delta * p_down)
        w = cert.y[i] - delta ** cert.K
        if w < bound:
            violations.append(
                f"machine {i} layer {k}: w={ratio_str(w)} < bound={ratio_str(bound)}"
            )
    return violations


def check_big_job_value_bound(engine: InsertionEngine, cert: DualCertificate):
    """Audit: for each big active job j with head layer k and each permitted
    machine i (not all-undesirable within the prefix, sigma(j) != i), the worst
    configuration through i still retains z(active_i^<=k \\ C) >= z_j."""
    sc = engine.scaled
    sched = engine.schedule
    violations = []

    fit, q = sc.fit, sc.base.integer_image[1]
    scale, z_int, _ = _image(cert)
    bigs = [(j, k) for j, k in engine.heads().items()
            if not sc.is_small(j) and q[j] <= fit]
    cover = engine.cover()
    blocking = engine.blocking_layers(range(1, sc.small_end))
    for j, k in bigs:
        home = sched.machine_of(j)
        room = fit - q[j]
        for i in sc.base.gamma[j]:
            if i == home or (i in cover and cover[i].layer <= k):
                continue
            active_prefix = {jj for jj in sched.on_machine[i]
                             if blocking.get(jj, k + 1) <= k
                             or engine.undesirable_on(jj, i, prefix=k)}
            best, _ = best_configuration(
                sorted(jj for jj in active_prefix if i in sc.base.gamma[jj]),
                q, z_int, room)
            retained = sum(z_int[jj] for jj in active_prefix) - best
            if z_int[j] > retained:
                violations.append(
                    f"job {j} head {k} machine {i}: z_j={ratio_str(cert.z[j])} "
                    f"> retained={ratio_str(Frac(retained, scale))}"
                )
    return violations


# ---------- serialization ----------

def certificate_to_text(cert: DualCertificate, inst: Instance) -> str:
    lines = [
        "ra-certificate 1",
        f"guess {ratio_str(cert.guess)}",
        f"epsilon {ratio_str(cert.epsilon)}",
        f"delta {ratio_str(cert.delta)}",
        f"K {cert.K}",
        f"machines {cert.num_machines}",
    ]
    for orig in range(len(inst.names)):
        j = inst.internal_of[orig]
        lines.append(f"z {inst.names[orig]} {ratio_str(cert.z[j])}")
    for i in range(1, cert.num_machines + 1):
        lines.append(f"y {i} {ratio_str(cert.y[i])}")
    for entry in cert.transcript:
        lines.append(f"# {entry}")
    return "\n".join(lines) + "\n"


_HEADER_FIELDS = {"guess": parse_ratio, "epsilon": parse_ratio, "delta": parse_ratio,
                  "K": int, "machines": int}


def certificate_from_text(text: str, inst: Instance) -> DualCertificate:
    """Parse `certificate_to_text` output against its instance.

    Raises CertificateFormatError on a first line (past blanks and comments)
    other than 'ra-certificate 1', an unknown line or job name, a bad or
    repeated entry, a missing header field, a header the instance does not
    give (machines, epsilon in (0, 1/12), delta = 1 - epsilon and K =
    `engine.layer_cap`), or a y row that is missing or names no machine of
    the instance. Jobs without a z row get z = 0.
    """
    name_to_internal = {
        inst.names[orig]: inst.internal_of[orig] for orig in range(len(inst.names))
    }
    fields, z, y = {}, {}, {}
    where = {}  # (kind, key) -> line number
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *args = line.split()
        if not where:
            if [kind, *args] != ["ra-certificate", "1"]:
                raise CertificateFormatError(lineno, "expected header 'ra-certificate 1'")
            where[kind, 1] = lineno
            continue
        if kind not in _HEADER_FIELDS and kind not in ("z", "y"):
            raise CertificateFormatError(lineno, f"unknown certificate line {line!r}")
        if len(args) != (1 if kind in _HEADER_FIELDS else 2):
            raise CertificateFormatError(lineno, f"wrong number of fields in {line!r}")
        try:
            if kind in _HEADER_FIELDS:
                table, key, value = fields, kind, _HEADER_FIELDS[kind](args[0])
            elif kind == "z":
                table, key, value = z, args[0], parse_ratio(args[1])
            else:
                table, key, value = y, int(args[0]), parse_ratio(args[1])
        except ValueError:
            raise CertificateFormatError(lineno, f"bad number in {line!r}") from None
        if kind == "z":
            if key not in name_to_internal:
                raise CertificateFormatError(lineno, f"unknown job {key!r}")
            key = name_to_internal[key]
        if (kind, key) in where:
            label = kind if kind in _HEADER_FIELDS else f"{kind} {args[0]}"
            raise CertificateFormatError(lineno, f"repeated '{label}' line")
        where[kind, key] = lineno
        table[key] = value

    last = max(len(lines), 1)
    if not where:
        raise CertificateFormatError(last, "expected header 'ra-certificate 1'")
    for name in _HEADER_FIELDS:
        if name not in fields:
            raise CertificateFormatError(last, f"missing '{name}' line")
    if fields["guess"] <= 0:
        raise CertificateFormatError(where["guess", "guess"], "guess must be positive")
    if fields["machines"] != inst.num_machines:
        raise CertificateFormatError(
            where["machines", "machines"],
            f"certificate has {fields['machines']} machines, "
            f"the instance {inst.num_machines}")
    epsilon = fields["epsilon"]
    if not 0 < epsilon < Frac(1, 12):  # before layer_cap, which divides by it
        raise CertificateFormatError(where["epsilon", "epsilon"],
                                     "epsilon must lie strictly between 0 and 1/12")
    if fields["delta"] != 1 - epsilon:
        raise CertificateFormatError(where["delta", "delta"],
                                     f"delta must be 1 - epsilon = {ratio_str(1 - epsilon)}")
    K = layer_cap(inst.num_machines, epsilon)
    if fields["K"] != K:
        raise CertificateFormatError(
            where["K", "K"], f"K must be the layer cap {K} of the instance at this epsilon")
    for i in sorted(y):
        if i not in inst.machines:
            raise CertificateFormatError(where["y", i], f"no machine {i} in the instance")
    for i in inst.machines:
        if i not in y:
            raise CertificateFormatError(last, f"missing y row for machine {i}")
    for j in inst.jobs:
        z.setdefault(j, ZERO)
    return DualCertificate(
        guess=fields["guess"], epsilon=fields["epsilon"], delta=fields["delta"],
        K=fields["K"], num_machines=fields["machines"], z=z, y=y,
    )


def recheck_certificate(cert: DualCertificate, inst: Instance) -> bool:
    """Re-verify a deserialized certificate against its instance."""
    scaled = scale_instance(inst, cert.guess, cert.epsilon)
    return verify_certificate(cert, scaled)


# ---------- configuration-LP feasibility and bounds ----------

@dataclass
class ConfigLPRun:
    """One column-generation run at T.

    An infeasible run keeps its final master's integer duals `Y` over the
    scale `D`; its ray (`dual_z` per job, `dual_y` per machine) is built from
    them when first read, and is None for any other status.
    """

    status: str  # "feasible" | "infeasible" | "unresolved"
    T: object
    weights: dict | None = None  # (machine, config tuple) -> weight when feasible
    rounds: int = 0
    master_duals: tuple | None = field(default=None, repr=False)  # (m, Y, D) when infeasible

    @cached_property
    def dual_z(self) -> dict | None:
        if self.master_duals is None:
            return None
        m, Y, D = self.master_duals
        return {j: Frac(Y[m - 1 + j], D) for j in range(1, len(Y) - m + 1)}

    @cached_property
    def dual_y(self) -> dict | None:
        if self.master_duals is None:
            return None
        m, Y, D = self.master_duals
        return {i: -Frac(Y[i - 1], D) for i in range(1, m + 1)}


def config_lp_feasible_cg(inst: Instance, T, *, pool: dict | None = None) -> ConfigLPRun:
    """Column generation on the covering LP at makespan T.

    The restricted master minimizes uncovered job mass; pricing is an exact
    knapsack per machine on the current duals. A zero optimum returns sparse
    configuration weights; otherwise the final duals give an exact improving
    ray (z per job, y per machine) with z(C) <= y_i for every configuration,
    verified by the pricing knapsacks themselves.

    `pool`, shared across the runs of one bound (None: a fresh one), maps
    (machine, sorted job tuple) to the configuration's integer size `sum q_j`
    over the instance's `integer_image`. The master's columns are the single
    jobs (by machine, then job), the pooled configurations that fit in T in
    key order, the slacks, then the configurations priced here, which go
    into the pool too. A run starts from the slack basis; priced columns are
    appended, so the previous optimal basis stays primal feasible and each
    round's simplex resumes from it.

    The run decides on integers from the master to the pricing and back.
    The master is an integer LP (0/+-1 coefficients, 0/1 costs, rhs of
    ones), whose outcome holds its duals as integers `Y` over a scale
    `D > 0`. With sizes q_j/L, a machine's pricing knapsack weighs job j as
    `q_j` against the capacity floor(L T) and values it at its `Y_j`, and a
    configuration prices in when its value plus the machine's `Y_i` is
    positive: every comparison is the rational one times `L` or `D`, the
    capacity's floored since each sum of q is an integer. Only the returned
    weights and ray are rationals. A run still pricing after
    `_MAX_CG_ROUNDS` rounds is "unresolved".
    """
    T = frac(T)
    m, n = inst.num_machines, inst.num_jobs
    if n == 0:
        return ConfigLPRun("feasible", T, weights={})
    if pool is None:
        pool = {}
    # p_j = q_j/L: a sum of q is at most L T iff it is at most floor(L T)
    L, q = inst.integer_image
    cap = L * T.numerator // T.denominator

    keys = [(i, (j,)) for i in inst.machines for j in inst.permitted_on[i] if q[j] <= cap]
    generated = set(keys)
    keys += [key for key in sorted(pool) if pool[key] <= cap and key not in generated]
    generated.update(keys)
    columns = [[(i - 1, 1)] + [(m - 1 + j, 1) for j in conf] for i, conf in keys]
    slack_first = len(keys)
    # slacks, keyed (None, t): machine slacks u_i, then per job the cover
    # shortfall s_j (cost 1), then the surplus e_j
    keys += [(None, t) for t in range(m + 2 * n)]
    columns += [[(r, 1)] for r in range(m + n)] + [[(m + idx, -1)] for idx in range(n)]
    costs = [0] * (slack_first + m) + [1] * n + [0] * n

    rhs = [1] * (m + n)
    basis, warm = list(range(slack_first, slack_first + m + n)), None
    for round_no in range(1, _MAX_CG_ROUNDS + 1):
        costs += [0] * (len(columns) - len(costs))
        out = simplex_min(m + n, columns, costs, rhs, basis, warm=warm)
        if out.status != "optimal":
            raise CertificateError("covering master cannot be unbounded")
        basis, warm = out.basis, out.warm
        if out.objective_num == 0:
            weights = {}
            for k, v in out.values.items():
                if keys[k][0] is not None and v > 0:
                    weights[keys[k]] = v
            return ConfigLPRun("feasible", T, weights=weights, rounds=round_no)
        # the duals times D > 0: machine rows, then job rows
        Y = out.Y
        values = Y[m - 1:]  # job j's dual at index j
        improving = False
        for i in inst.machines:
            value, conf = best_configuration(inst.permitted_on[i], q, values, cap)
            if value + Y[i - 1] > 0:
                key = (i, conf)
                if key in generated:
                    raise CertificateError("pricing regenerated an existing column")
                generated.add(key)
                keys.append(key)
                columns.append([(i - 1, 1)] + [(m - 1 + j, 1) for j in conf])
                pool[key] = sum(q[j] for j in conf)
                improving = True
        if not improving:
            return ConfigLPRun("infeasible", T, rounds=round_no,
                               master_duals=(m, Y, out.D))
    return ConfigLPRun("unresolved", T, rounds=_MAX_CG_ROUNDS)


@dataclass
class ConfigLPBound:
    """A lower bound on the optimum from the configuration LP, on the grid
    1/L of the instance's integer image, and the column-generation runs
    that found it."""

    lower: object
    probes: int


def config_lp_lower_bound(inst: Instance, tolerance, *, assignment: dict,
                          infeasible_below) -> ConfigLPBound:
    """A lower bound on the optimum from the configuration LP, by one binary
    search on the grid 1/L that stops within a relative tolerance.

    Every size is q_j/L, so the optimum is a multiple of 1/L, and a run that
    proves the LP infeasible at t/L proves the optimum at least (t + 1)/L.
    The search runs on numerators over L, from lo = ceil(max(largest size,
    H) L), H = `infeasible_below` a Hall bound (`seed.hall_bound`), to hi/L
    the makespan of `assignment` (internal job id -> machine), an integral
    schedule and so a solution. The first run is at lo, every later one at
    floor((lo + hi)/2): an infeasible run at t sets lo = t + 1 and a
    feasible one hi = t, until hi <= lo (1 + tolerance); an unresolved run
    stops the search. The bound is lo/L: with tolerance 0, the least grid
    point from the floor on at which the LP is feasible, barring an
    unresolved run.

    All runs share one pool of configurations (`config_lp_feasible_cg`). It
    starts with the job set of each machine under `assignment`, so a run
    begins with those that fit in its T, and it collects every priced
    configuration. Outcomes are exact, so the pool changes how many rounds a
    run takes, not its status. Raises ValueError on a negative tolerance,
    with which the search might never end.
    """
    if inst.num_jobs == 0:
        raise ValueError("instance has no jobs")
    tolerance = frac(tolerance)
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    L, q = inst.integer_image
    on_machine = {}
    for j in inst.jobs:
        i = assignment.get(j)
        if i not in inst.gamma[j]:
            raise CertificateError(f"job {j} is not on a permitted machine")
        on_machine.setdefault(i, []).append(j)
    pool = {(i, tuple(jobs)): sum(q[j] for j in jobs) for i, jobs in on_machine.items()}
    hi = max(pool.values())
    H = frac(infeasible_below) * L
    lo = max(max(q), -(-H.numerator // H.denominator))
    if lo > hi:
        raise CertificateError("a schedule's makespan cannot be infeasible")
    tau_num, tau_den = tolerance.numerator, tolerance.denominator
    t, runs = lo, 0
    while hi * tau_den > lo * (tau_den + tau_num):  # hi > lo (1 + tolerance)
        run = config_lp_feasible_cg(inst, Frac(t, L), pool=pool)
        runs += 1
        if run.status == "feasible":
            hi = t
        elif run.status == "infeasible":
            lo = t + 1
        else:  # unresolved pricing: stop rather than overclaim
            break
        t = (lo + hi) // 2
    return ConfigLPBound(Frac(lo, L), runs)
