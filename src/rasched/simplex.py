"""Exact simplex over sparse integer columns, run fraction-free.

Revised simplex with a dense basis inverse; every LP in this package is
formulated as min c.x s.t. Ax = b, x >= 0 with b >= 0 and an initial basis of
identity columns (unit slacks or artificials), so a single phase suffices.
A solve can also resume warm from the optimal basis of an earlier call: after
columns are appended, that basis is still primal feasible, which is how the
config-LP column generation re-optimizes its master between pricing rounds.
A cold start is the warm start from the identity basis.
Dantzig pricing with a permanent switch to Bland's rule after a degenerate
streak guarantees termination; all arithmetic is exact.

The data are plain ints. The one LP a solve runs here is the configuration
covering LP, the column-generation master of
`certificate.config_lp_feasible_cg`: its coefficients are 0/+-1, its costs
0/1 and its rhs all ones. The phase-one `solve_equality_feasibility` has no
caller in a solve; it is kept for the benchmark's `simplex.feas` wrap
point, which resolves it through `rasched.seed`. The arithmetic is
fraction-free (Edmonds 1967; Bareiss 1968): the solver keeps B^-1 = A / D
with an integer matrix A and D = |det B| > 0, the basic values as
X = D x_B and the duals as Y = D c_B B^-1, all plain ints. Every reduced
cost and every ratio carries the same positive scale D, so the pivot
sequence is the one a rational implementation would take, and each update
divides exactly by the old D (Cramer's rule). The duals are kept up to date
across pivots instead of being recomputed. An outcome hands out this integer
state (Y, D and the objective times D), which is what the column generation
prices on; its rational objective, values and duals are built when read.

Most pivots of a covering LP keep the scale (the new |det B| equals D).
There the division is exact term by term, (a D - d_r b) / D = a - d_r b / D,
so the update touches only the positions where the pivot row is nonzero.
A start copies the rows of the state it resumes from, so that state is never
changed: an outcome builds its values from that state when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .rational import Frac, ZERO

_DEGENERATE_STREAK = 40
_MAX_PIVOTS = 200000


class SimplexError(RuntimeError):
    pass


@dataclass
class SimplexOutcome:
    """An optimal or unbounded outcome, in the solver's integer state.

    An optimal outcome carries `Y` = D c_B B^-1 (one int per row), the scale
    D = |det B| and `objective_num` = D c.x; the rational `objective`,
    `values` and `duals` are built from them only when read.
    """

    status: str  # "optimal" | "unbounded"
    basis: list  # column index per basis position
    warm: tuple | None = None  # (A, X, D) of an optimal outcome, for warm starts
    Y: list | None = None  # the duals times D
    objective_num: int | None = None  # the objective times D

    @property
    def D(self) -> int:
        return self.warm[2]

    @cached_property
    def objective(self):
        return None if self.warm is None else Frac(self.objective_num, self.D)

    @cached_property
    def values(self) -> dict:
        """column index -> value, basic columns only (nonbasic are 0)"""
        if self.warm is None:
            return {}
        X, D = self.warm[1], self.D
        return {k: Frac(x, D) for k, x in zip(self.basis, X)}

    @cached_property
    def duals(self) -> list:
        """y per row, from c_B B^-1"""
        return [] if self.Y is None else [Frac(y, self.D) for y in self.Y]


def simplex_min(num_rows, columns, costs, rhs, initial_basis, *, warm=None):
    """Minimize costs.x subject to (sparse) columns assembled as Ax = rhs, x >= 0.

    `columns[k]` is a list of (row, coeff) pairs; `initial_basis` must name
    columns that form an identity: column initial_basis[r] has the single
    entry (r, 1). Coefficients, costs and rhs are ints, and all rhs entries
    must be nonnegative. The outcome holds the integer duals `Y` over the
    scale `D`; its objective, values and duals are exact rationals.

    With `warm=out.warm`, taken from an earlier optimal outcome together with
    its `basis` as `initial_basis`, the solve resumes from that basis instead
    (rhs is then not read). Columns and costs may have been appended since,
    but the basic columns must be unchanged. A cold start is the warm start
    from the identity state (I, rhs, 1). The state (A, X, D) is never
    mutated, because the outcome it came from reads it when its values are
    read: this call works on a copy of its rows. A pivot that keeps the
    scale D changes A and Y only in the columns where the pivot row of A is
    nonzero, and A and X only in the rows where the entering direction is;
    any other pivot rescales every row.
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
        warm = [[int(a == b) for b in range(m)] for a in range(m)], rhs, 1
    A0, X0, D = warm
    A = [list(row) for row in A0]
    X = list(X0)
    in_basis = [False] * len(columns)
    for k in basis:
        in_basis[k] = True

    bland = False
    degenerate_streak = 0
    Y = [0] * m  # D * c_B B^-1
    for r in range(m):
        cb = costs[basis[r]]
        if cb:
            Y = [y + cb * a for y, a in zip(Y, A[r])]
    for _ in range(_MAX_PIVOTS):
        entering = -1
        best = 0  # the entering column's reduced cost, times D
        for k, col in enumerate(columns):
            if in_basis[k]:
                continue
            c = costs[k]
            red = D * c if c else 0
            for r, coeff in col:
                red -= Y[r] if coeff == 1 else Y[r] * coeff
            if red < 0:
                if bland:
                    entering, best = k, red
                    break
                if red < best:
                    best = red
                    entering = k
        if entering < 0:
            obj = sum(costs[basis[r]] * X[r] for r in range(m))
            return SimplexOutcome("optimal", basis, (A, X, D), Y, obj)

        # direction times D: A a_entering
        d = [0] * m
        for r, coeff in columns[entering]:
            for s in range(m):
                a = A[s][r]
                if a:
                    d[s] += a * coeff
        # ratio test X[r]/d[r] by cross-multiplication, ties to the smaller basis index
        leaving = -1
        for r in range(m):
            dr = d[r]
            if dr > 0:
                if leaving < 0:
                    leaving = r
                    continue
                lhs, rhs_ = X[r] * d[leaving], X[leaving] * dr
                if lhs < rhs_ or (lhs == rhs_ and basis[r] < basis[leaving]):
                    leaving = r
        if leaving < 0:
            return SimplexOutcome("unbounded", basis)

        if X[leaving] == 0:
            degenerate_streak += 1
            if degenerate_streak >= _DEGENERATE_STREAK:
                bland = True
        else:
            degenerate_streak = 0

        p = d[leaving]  # D * the pivot, and |det| of the new basis
        in_basis[basis[leaving]] = False
        in_basis[entering] = True
        basis[leaving] = entering
        # fraction-free update; row `leaving` of A and X keeps its values
        lrow = A[leaving]
        xl = X[leaving]
        if p == D:
            # (a D - d_r b) / D is exact, so a - d_r b // D is too: only the
            # pivot row's nonzeros move
            nz = [(s, b) for s, b in enumerate(lrow) if b]
            for r in range(m):
                dr = d[r]
                if dr and r != leaving:
                    row = A[r]
                    for s, b in nz:
                        row[s] -= dr * b // D
                    X[r] -= dr * xl // D
            # c_B B^-1 changes by the entering reduced cost times the pivot row
            for s, b in nz:
                Y[s] += best * b // D
        else:
            for r in range(m):
                if r == leaving:
                    continue
                dr = d[r]
                if dr:
                    A[r] = [(a * p - dr * b) // D for a, b in zip(A[r], lrow)]
                    X[r] = (X[r] * p - dr * xl) // D
                else:
                    A[r] = [a * p // D for a in A[r]]
                    X[r] = X[r] * p // D
            Y = [(p * y + best * b) // D for y, b in zip(Y, lrow)]
            D = p
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
    costs = [0] * n_real
    basis = [None] * m
    for k, col in enumerate(columns):
        if len(col) == 1 and col[0][1] == 1:
            r = col[0][0]
            if r not in artificial_rows and basis[r] is None:
                basis[r] = k
    for r in range(m):
        if basis[r] is None:
            basis[r] = len(cols)
            cols.append([(r, 1)])
            costs.append(1)
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
