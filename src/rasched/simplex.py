"""Exact rational simplex over sparse columns.

Revised simplex with a dense basis inverse; every LP in this package is
formulated as min c.x s.t. Ax = b, x >= 0 with b >= 0 and an initial basis of
identity columns (unit slacks or artificials), so a single phase suffices.
A solve can also resume warm from the optimal basis of an earlier call: after
columns are appended, that basis is still primal feasible, which is how the
config-LP column generation re-optimizes its master between pricing rounds.
The duals are kept up to date across pivots instead of being recomputed.
Dantzig pricing with a permanent switch to Bland's rule after a degenerate
streak guarantees termination; all arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rational import Frac, ZERO

_DEGENERATE_STREAK = 40


class SimplexError(RuntimeError):
    pass


@dataclass
class SimplexOutcome:
    status: str  # "optimal" | "unbounded"
    objective: object
    values: dict  # column index -> value, basic columns only (nonbasic are 0)
    duals: list  # y per row (1 entry per constraint), from c_B B^-1
    basis: list  # column index per basis position
    binv: list | None = None  # final B^-1 rows (optimal only), for warm starts
    x_b: list | None = None  # final basic values (optimal only), for warm starts


def simplex_min(num_rows, columns, costs, rhs, initial_basis, *, max_pivots=200000,
                warm=None):
    """Minimize costs.x subject to (sparse) columns assembled as Ax = rhs, x >= 0.

    `columns[k]` is a list of (row, coeff) pairs; `initial_basis` must name
    columns that form an identity: column initial_basis[r] has the single
    entry (r, 1). All rhs entries must be nonnegative.

    With `warm=(binv, x_b)`, taken from an earlier optimal outcome together
    with its `basis` as `initial_basis`, the solve resumes from that basis
    instead (rhs is then not read). Columns may have been appended since, but
    the basic ones must be unchanged. The arguments are copied, not mutated.
    """
    m = num_rows
    basis = list(initial_basis)
    if warm is None:
        if any(v < 0 for v in rhs):
            raise SimplexError("rhs must be nonnegative")
        for r, k in enumerate(initial_basis):
            col = columns[k]
            if len(col) != 1 or col[0][0] != r or col[0][1] != 1:
                raise SimplexError("initial basis must be identity columns")
        binv = [[Frac(1) if a == b else ZERO for b in range(m)] for a in range(m)]
        x_b = [Frac(v) for v in rhs]
    else:
        binv = [list(row) for row in warm[0]]
        x_b = list(warm[1])
    in_basis = [False] * len(columns)
    for k in basis:
        in_basis[k] = True

    def dual_vector():
        y = [ZERO] * m
        for r in range(m):
            cb = costs[basis[r]]
            if cb:
                row = binv[r]
                for s in range(m):
                    if row[s]:
                        y[s] += cb * row[s]
        return y

    bland = False
    degenerate_streak = 0
    y = dual_vector()
    for _ in range(max_pivots):
        entering = -1
        best = ZERO  # the entering column's reduced cost
        for k, col in enumerate(columns):
            if in_basis[k]:
                continue
            red = costs[k]
            for r, coeff in col:
                red -= y[r] if coeff == 1 else y[r] * coeff
            if red < 0:
                if bland:
                    entering, best = k, red
                    break
                if red < best:
                    best = red
                    entering = k
        if entering < 0:
            values = {basis[r]: x_b[r] for r in range(m)}
            obj = sum((costs[basis[r]] * x_b[r] for r in range(m)), ZERO)
            return SimplexOutcome("optimal", obj, values, y, basis, binv, x_b)

        # direction d = B^-1 A_entering
        d = [ZERO] * m
        for r, coeff in columns[entering]:
            if coeff:
                for s in range(m):
                    if binv[s][r]:
                        d[s] += binv[s][r] * coeff
        leaving = -1
        theta = None
        for r in range(m):
            if d[r] > 0:
                ratio = x_b[r] / d[r]
                if theta is None or ratio < theta or (ratio == theta and basis[r] < basis[leaving]):
                    theta = ratio
                    leaving = r
        if leaving < 0:
            return SimplexOutcome("unbounded", None, {}, [], basis)

        if theta == 0:
            degenerate_streak += 1
            if degenerate_streak >= _DEGENERATE_STREAK:
                bland = True
        else:
            degenerate_streak = 0

        piv = d[leaving]
        in_basis[basis[leaving]] = False
        in_basis[entering] = True
        basis[leaving] = entering
        # eta update of B^-1 and x_b
        lrow = binv[leaving]
        for s in range(m):
            lrow[s] = lrow[s] / piv
        x_b[leaving] = x_b[leaving] / piv
        for r in range(m):
            if r != leaving and d[r]:
                f = d[r]
                row = binv[r]
                for s in range(m):
                    if lrow[s]:
                        row[s] -= f * lrow[s]
                x_b[r] -= f * x_b[leaving]
        # c_B B^-1 changes by the entering reduced cost times the new pivot row
        for s in range(m):
            if lrow[s]:
                y[s] += best * lrow[s]
    raise SimplexError("pivot limit exceeded")


@dataclass
class FeasibilityOutcome:
    feasible: bool
    values: dict | None  # basic values of the real columns when feasible
    farkas: list | None  # row multipliers certifying infeasibility otherwise
    objective: object = None


def solve_equality_feasibility(num_rows, columns, rhs, *, artificial_rows=None):
    """Decide feasibility of Ax = rhs, x >= 0 by minimizing artificial slack.

    Rows listed in `artificial_rows` (default: all) get +1 artificial columns
    of cost 1; the rest must already own an identity column among `columns`
    (cost 0). Returns the basic feasible point or an exact Farkas vector y
    with y.A_k <= 0 for every real column and y.rhs > 0.
    """
    m = num_rows
    n_real = len(columns)
    if artificial_rows is None:
        artificial_rows = range(m)
    artificial_rows = set(artificial_rows)

    cols = list(columns)
    costs = [ZERO] * n_real
    basis = [None] * m
    for k, col in enumerate(columns):
        if len(col) == 1 and col[0][1] == 1:
            r = col[0][0]
            if r not in artificial_rows and basis[r] is None:
                basis[r] = k
    for r in range(m):
        if basis[r] is None:
            basis[r] = len(cols)
            cols.append([(r, Frac(1))])
            costs.append(Frac(1))
    out = simplex_min(m, cols, costs, rhs, basis)
    if out.status != "optimal":
        raise SimplexError("artificial phase cannot be unbounded")
    if out.objective > 0:
        y = out.duals
        for k in range(n_real):
            red = -sum((y[r] * coeff for r, coeff in columns[k]), ZERO)
            if red < 0:
                raise SimplexError("invalid infeasibility certificate")
        return FeasibilityOutcome(False, None, list(y), out.objective)
    values = {k: v for k, v in out.values.items() if k < n_real and v != 0}
    return FeasibilityOutcome(True, values, None, out.objective)
