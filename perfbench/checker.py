"""Independent output checks for solve reports and their certificates.

The schedule checks read the generator's own sizes and permitted sets and use
`fractions.Fraction`, so they share no code with the solver's
`validate_partial_schedule` or its rational backend. Certificates are checked
the way a user checks them: serialized to text, read back, and re-verified
with `recheck_certificate`, which is the `rasched check` path.
"""

from __future__ import annotations

from fractions import Fraction

from rasched import certificate as cm

#: lower-bound kinds whose printed bound can be verified offline
CHECKABLE_KINDS = ("max-job-size", "stuck-certificate")
#: every lower-bound kind a report may carry
KNOWN_KINDS = CHECKABLE_KINDS + ("seed-lp-infeasible", "config-lp", "oracle-optimum")


def exact(q) -> Fraction:
    """Any backend's rational as a Fraction."""
    return Fraction(int(q.numerator), int(q.denominator))


def check_report(gen, report) -> list:
    """Return the problems found in one report; empty when it is correct."""
    problems = []
    if set(report.assignment) != set(gen.jobs):
        return ["the assignment does not cover exactly the instance's jobs"]
    loads = {i: Fraction(0) for i in range(1, gen.machines + 1)}
    for name, machine in report.assignment.items():
        size, perm = gen.jobs[name]
        if machine not in perm:
            problems.append(f"job {name} sits on machine {machine} outside its permitted set")
            continue
        loads[machine] += size
    makespan, guess = exact(report.makespan), exact(report.guess_final)
    lower, eps = exact(report.lower_bound), exact(report.epsilon)
    if max(loads.values()) != makespan:
        problems.append(f"recomputed makespan {max(loads.values())} != reported {makespan}")
    if makespan > (Fraction(11, 6) + 2 * eps) * guess:
        problems.append(f"makespan {makespan} exceeds (11/6 + 2eps) * guess-final {guess}")
    if not 0 < lower <= makespan:
        problems.append(f"lower bound {lower} is not in (0, makespan {makespan}]")
    kind = report.lower_bound_kind
    if kind not in KNOWN_KINDS:
        problems.append(f"unknown lower-bound kind {kind!r}")
    if kind == "max-job-size" and lower != max(size for size, _ in gen.jobs.values()):
        problems.append("a max-job-size bound differs from the largest job")
    if kind == "stuck-certificate" and all(exact(g) != lower for g, _ in report.certificates):
        problems.append("no certificate sits at the stuck-certificate bound")
    return problems


def check_certificate(cert, inst, clock):
    """Round-trip one certificate through text and re-verify it.

    `clock.span(name)` times each step (see `tracing`). Returns (problems,
    check_s), where `check_s` covers reading back and re-verifying, which is
    what `rasched check` does.
    """
    with clock.span("certificate.to_text"):
        text = cm.certificate_to_text(cert, inst)
    with clock.span("certificate.from_text") as from_text:
        back = cm.certificate_from_text(text, inst)
    with clock.span("certificate.recheck") as recheck:
        ok = cm.recheck_certificate(back, inst)
    problems = []
    if (back.guess, back.epsilon, back.K, back.z, back.y) != (
            cert.guess, cert.epsilon, cert.K, cert.z, cert.y):
        problems.append("the certificate changed on its round trip through text")
    if not ok:
        problems.append(f"the certificate at guess {cert.guess} failed recheck_certificate")
    return problems, from_text.elapsed + recheck.elapsed
