import copy
import math
import random
from collections import namedtuple

import pytest

from rasched import simplex
from rasched.rational import Frac, ZERO, integer_image
from rasched.simplex import (simplex_min, solve_equality_feasibility,
                             SimplexError)


def dense_to_columns(rows):
    m, n = len(rows), len(rows[0])
    return [[(r, rows[r][c]) for r in range(m) if rows[r][c] != 0]
            for c in range(n)]


def check_farkas(columns, rhs, y):
    assert sum((y[r] * b for r, b in zip(range(len(rhs)), rhs)), ZERO) > 0
    for col in columns:
        assert sum((y[r] * coeff for r, coeff in col), ZERO) <= 0


# Beale's cycling example, min c.x over three rows whose last three columns
# are slacks. The rational original has the rows (1/4, -8, -1, 9) and
# (1/2, -12, -1/2, 3) and the costs (-3/4, 150, -1/50, 6). Here those rows are
# multiplied by 4 and 2, their slacks rescaled to stay unit columns, and the
# costs multiplied by 100, so the x-values are unchanged and an objective is
# 100 times the original one.
BEALE_ROWS = [[1, -32, -4, 36, 1, 0, 0],
              [1, -24, -1, 6, 0, 1, 0],
              [0, 0, 1, 0, 0, 0, 1]]
BEALE_COSTS = [-75, 15000, -2, 600, 0, 0, 0]
BEALE_COST_SCALE = 100


class TestSimplexMin:
    def test_minimizes_simple_lp(self):
        # min x0 + 2 x1 s.t. x0 + x1 + s = 4, x0 - x1 + a = 1 handled via
        # feasibility helper below; here: min -x0 s.t. x0 + s = 3
        cols = [[(0, 1)], [(0, 1)]]
        out = simplex_min(1, cols, [-1, 0], [3], [1])
        assert out.status == "optimal" and out.objective == -3
        assert out.values[0] == 3

    def test_detects_unbounded(self):
        # min -x0 with x0 - s = 0: x0 can grow forever
        cols = [[(0, 1)], [(0, -1)], [(0, 1)]]
        out = simplex_min(1, cols, [-1, 0, 0], [0], [2])
        assert out.status == "unbounded"

    def test_duals_complementary_on_optimum(self):
        # min -x0 - x1 s.t. x0 + slack1 = 2; x1 + slack2 = 3
        cols = dense_to_columns([[1, 0, 1, 0],
                                 [0, 1, 0, 1]])
        out = simplex_min(2, cols, [-1, -1, 0, 0], [2, 3], [2, 3])
        assert out.objective == -5
        assert out.duals == [Frac(-1), Frac(-1)]  # c_B B^-1 per row

    def test_rejects_negative_rhs(self):
        with pytest.raises(SimplexError):
            simplex_min(1, [[(0, 1)]], [0], [-1], [0])

    def test_rejects_non_identity_basis(self):
        with pytest.raises(SimplexError):
            simplex_min(1, [[(0, 2)]], [0], [1], [0])


class TestFeasibility:
    def test_feasible_system_returns_point(self):
        # x0 + x1 = 1; x0 + 2 x1 <= 3 (slack provided as a real column)
        cols = dense_to_columns([[1, 1, 0],
                                 [1, 2, 1]])
        out = solve_equality_feasibility(2, cols, [1, 3], artificial_rows=[0])
        assert out.feasible
        total = [ZERO, ZERO]
        for k, v in out.values.items():
            assert v >= 0
            for r, coeff in cols[k]:
                total[r] += coeff * v
        assert total == [Frac(1), Frac(3)]

    def test_infeasible_system_yields_verified_farkas(self):
        # x0 = 2 with x0 <= 1
        cols = dense_to_columns([[1, 0], [1, 1]])
        rhs = [2, 1]
        out = solve_equality_feasibility(2, cols, rhs, artificial_rows=[0])
        assert not out.feasible
        check_farkas(cols, rhs, out.farkas)

    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_systems_self_verify(self, seed):
        rng = random.Random(seed)
        m = rng.randint(2, 5)
        n = rng.randint(2, 8)
        cols = []
        for _ in range(n):
            col = [(r, rng.randint(-4, 6)) for r in range(m) if rng.random() < 0.7]
            cols.append([(r, c) for r, c in col if c != 0])
        rhs = [rng.randint(0, 8) for _ in range(m)]
        out = solve_equality_feasibility(m, cols, rhs)
        if out.feasible:
            total = [ZERO] * m
            for k, v in out.values.items():
                assert v >= 0
                for r, coeff in cols[k]:
                    total[r] += coeff * v
            assert total == rhs
        else:
            check_farkas(cols, rhs, out.farkas)

    def test_degenerate_cycling_guard(self):
        # classic degenerate LP; Bland fallback must terminate
        cols = dense_to_columns(BEALE_ROWS)
        out = simplex_min(3, cols, BEALE_COSTS, [0, 0, 1], [4, 5, 6])
        assert out.status == "optimal"
        assert out.objective / BEALE_COST_SCALE == Frac(-77, 100)
        assert out.values[0] == 1 and out.values[2] == 1


def basis_duals_from_scratch(columns, costs, basis):
    """c_B B^-1 by Gauss-Jordan on B^T y = c_B, independent of the solver."""
    m = len(basis)
    aug = [[ZERO] * m + [Frac(costs[basis[r]])] for r in range(m)]
    for r, k in enumerate(basis):  # row r of B^T is column basis[r]
        for row, coeff in columns[k]:
            aug[r][row] = Frac(coeff)
    for c in range(m):
        p = next(r for r in range(c, m) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [v / piv for v in aug[c]]
        for r in range(m):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [aug[r][m] for r in range(m)]


def reduced_cost(col, cost, y):
    return cost - sum((y[r] * coeff for r, coeff in col), ZERO)


def assert_consistent_optimum(m, columns, costs, rhs, out):
    assert out.status == "optimal"
    assert out.duals == basis_duals_from_scratch(columns, costs, out.basis)
    for k, col in enumerate(columns):
        assert reduced_cost(col, costs[k], out.duals) >= 0
    total = [ZERO] * m
    for k, v in out.values.items():
        assert v >= 0
        for r, coeff in columns[k]:
            total[r] += coeff * v
    assert total == list(rhs)


class TestWarmStart:
    def test_appended_improving_column_resumes_to_cold_optimum(self):
        # max x0 + x1 s.t. x0 + 2 x1 <= 4, 3 x0 + x1 <= 6 (slacks are columns 2, 3)
        cols = dense_to_columns([[1, 2, 1, 0],
                                 [3, 1, 0, 1]])
        costs = [-1, -1, 0, 0]
        rhs = [4, 6]
        first = simplex_min(2, cols[:1] + cols[2:], costs[:1] + costs[2:], rhs, [1, 2])
        assert first.objective == -2
        # re-index: column 1 of the small LP is column 2 of the full one, etc.
        small_to_full = [0, 2, 3]
        basis = [small_to_full[k] for k in first.basis]
        y = first.duals
        assert reduced_cost(cols[1], costs[1], y) < 0
        warm = simplex_min(2, cols, costs, rhs, basis, warm=first.warm)
        cold = simplex_min(2, cols, costs, rhs, [2, 3])
        assert warm.objective == cold.objective == Frac(-14, 5)
        assert_consistent_optimum(2, cols, costs, rhs, warm)

    def test_warm_arguments_are_not_mutated(self):
        cols = [[(0, 1)], [(0, 1)], [(0, 2)]]
        costs = [0, -1, -3]
        first = simplex_min(1, cols[:2], costs[:2], [4], [0])
        state = copy.deepcopy(first.warm)
        again = simplex_min(1, cols, costs, [4], first.basis, warm=first.warm)
        assert again.objective == -6
        assert first.warm == state

    @pytest.mark.parametrize("seed", range(25))
    def test_randomized_append_and_resume(self, seed):
        rng = random.Random(seed)
        m = rng.randint(2, 5)
        # rows are <= constraints with nonnegative coefficients: bounded LPs
        cols = [[(r, 1)] for r in range(m)]  # slacks, the cold basis
        costs = [ZERO] * m
        for _ in range(rng.randint(1, 6)):
            col = [(r, rng.randint(1, 5)) for r in range(m) if rng.random() < 0.6]
            cols.append(col or [(rng.randrange(m), 1)])
            costs.append(Frac(rng.randint(-6, 2)))
        rhs = [rng.randint(0, 9) for _ in range(m)]
        # the priced costs below are rational; the solver sees them times the
        # lcm of their denominators, which the warm state (A, X, D) ignores
        scale, icosts = integer_image(costs)
        out = simplex_min(m, cols, icosts, rhs, list(range(m)))
        assert_consistent_optimum(m, cols, icosts, rhs, out)
        for _ in range(3):  # three rounds of column generation
            added = 0
            for _ in range(rng.randint(1, 3)):
                col = [(r, rng.randint(1, 4)) for r in range(m) if rng.random() < 0.6]
                col = col or [(rng.randrange(m), 2)]
                # price the column to reduced cost -1 or -1/3 under the current duals
                drop = Frac(1) if added == 0 else Frac(1, 3)
                cols.append(col)
                costs.append(sum((out.duals[r] * c for r, c in col), ZERO) / scale - drop)
                added += 1
            scale, icosts = integer_image(costs)
            out = simplex_min(m, cols, icosts, rhs, out.basis, warm=out.warm)
            assert_consistent_optimum(m, cols, icosts, rhs, out)
            cold = simplex_min(m, cols, icosts, rhs, list(range(m)))
            assert out.objective == cold.objective

    def test_degenerate_lp_in_bland_mode_keeps_exact_duals(self, monkeypatch):
        # Beale's cycling example; a streak of one switches to Bland's rule at
        # the first degenerate pivot, so the later dual updates run in Bland mode
        monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", 1)
        order = [1, 3, 4, 5, 6, 0, 2]  # x0 and x2 are the appended columns
        cols = [dense_to_columns(BEALE_ROWS)[k] for k in order]
        costs = [BEALE_COSTS[k] for k in order]
        rhs = [0, 0, 1]
        first = simplex_min(3, cols[:5], costs[:5], rhs, [2, 3, 4])
        assert first.objective == 0
        assert all(reduced_cost(cols[k], costs[k], first.duals) < 0 for k in (5, 6))
        # the resumed basis is degenerate (x_b = 0, 0, 1): the first pivot is too
        warm = simplex_min(3, cols, costs, rhs, first.basis, warm=first.warm)
        cold = simplex_min(3, cols, costs, rhs, [2, 3, 4])
        assert warm.objective == cold.objective
        assert warm.objective / BEALE_COST_SCALE == Frac(-77, 100)
        assert_consistent_optimum(3, cols, costs, rhs, warm)


# ---------- differential check against the rational revised simplex ----------

#: the reference's outcome, with the rational fields an integer outcome builds
RationalOutcome = namedtuple("RationalOutcome", "status objective values duals basis")


def reference_simplex_min(num_rows, columns, costs, rhs, initial_basis, *,
                          max_pivots=200000, warm=None, pivots=None):
    """The Fraction revised simplex with a dense B^-1, as the integer solver
    replaced it; warm is (binv, x_b). Returns (outcome, (binv, x_b)). Each
    pivot element is appended to `pivots` when given: a pivot of 1 is one
    the integer solver takes at p == D, keeping its scale."""
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
        best = ZERO
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
            return RationalOutcome("optimal", obj, values, y, basis), (binv, x_b)

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
            return RationalOutcome("unbounded", None, {}, [], basis), None

        if theta == 0:
            degenerate_streak += 1
            if degenerate_streak >= simplex._DEGENERATE_STREAK:
                bland = True
        else:
            degenerate_streak = 0

        piv = d[leaving]
        if pivots is not None:
            pivots.append(piv)
        in_basis[basis[leaving]] = False
        in_basis[entering] = True
        basis[leaving] = entering
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
        for s in range(m):
            if lrow[s]:
                y[s] += best * lrow[s]
    raise SimplexError("pivot limit exceeded")


def assert_same_outcome(got, want):
    assert got.status == want.status
    assert got.basis == want.basis
    assert got.objective == want.objective
    assert got.values == want.values
    assert got.duals == want.duals


def random_column(rng, m, low=-2, high=6):
    """Integer coefficients in low..high; the default -2..6 makes pivots
    above 1, hence D > 1, and 0..1 mostly keeps D, as covering LPs do."""
    col = []
    for r in range(m):
        if rng.random() < 0.6:
            v = rng.randint(low, high)
            if v:
                col.append((r, v))
    return col or [(rng.randrange(m), rng.randint(1, 4))]


def determinant(rows):
    """|det| by Gaussian elimination over the rationals."""
    rows = [[Frac(v) for v in row] for row in rows]
    n = len(rows)
    det = Frac(1)
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if p is None:
            return ZERO
        rows[c], rows[p] = rows[p], rows[c]
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return abs(det)


def assert_adjugate_invariant(m, columns, out):
    """The warm state is A = D B^-1 for the basis B, D = |det B|, with
    X = D x_B, recomputed from scratch by Gauss-Jordan."""
    A, X, D = out.warm
    assert all(type(v) is int for v in [D, *X, *(a for row in A for a in row)])
    basis_matrix = [[ZERO] * m for _ in range(m)]
    for q, k in enumerate(out.basis):
        for r, c in columns[k]:
            basis_matrix[r][q] = c
    assert D == determinant(basis_matrix) > 0
    for q, k in enumerate(out.basis):
        unit = [ZERO] * len(columns)
        unit[k] = Frac(1)
        binv_row = basis_duals_from_scratch(columns, unit, out.basis)
        assert A[q] == [D * v for v in binv_row]
        assert X[q] == D * out.values[k]


def differential_run(seed, pivots=None, coeffs=(-2, 6)):
    """A random integer LP with coefficients in `coeffs`, solved cold, then
    resumed warm over three rounds of new columns, by both solvers; yields
    each pair. The reference's pivot elements go to `pivots` when given."""
    rng = random.Random(seed)
    m = rng.randint(1, 5)
    cols = [[(r, 1)] for r in range(m)]
    costs = [0] * m
    for _ in range(rng.randint(1, 7)):
        cols.append(random_column(rng, m, *coeffs))
        costs.append(rng.randint(-4, 3))
    rhs = [0 if rng.random() < 0.3 else rng.randint(0, 6) for _ in range(m)]
    got = simplex_min(m, cols, costs, rhs, list(range(m)))
    want, ref_warm = reference_simplex_min(m, cols, costs, rhs, list(range(m)),
                                           pivots=pivots)
    yield cols, costs, rhs, got, want
    for _ in range(3):
        if want.status != "optimal":
            return
        for _ in range(rng.randint(1, 3)):
            col = random_column(rng, m, *coeffs)
            cols.append(col)
            if rng.random() < 0.7:  # priced to a negative reduced cost
                price = sum((want.duals[r] * c for r, c in col), ZERO)
                costs.append(math.ceil(price) - rng.randint(1, 3))
            else:
                costs.append(rng.randint(-3, 3))
        got = simplex_min(m, cols, costs, rhs, got.basis, warm=got.warm)
        want, ref_warm = reference_simplex_min(m, cols, costs, rhs, want.basis,
                                               warm=ref_warm, pivots=pivots)
        yield cols, costs, rhs, got, want


class TestIntegerKernelMatchesRational:
    @pytest.mark.parametrize("streak", [40, 1])
    def test_random_lps_with_warm_rounds(self, monkeypatch, streak):
        monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", streak)
        statuses = set()
        warm_rounds = 0
        for seed in range(250):
            for step, (_, _, _, got, want) in enumerate(differential_run(seed)):
                assert_same_outcome(got, want)
                statuses.add(got.status)
                warm_rounds += step > 0
        assert statuses == {"optimal", "unbounded"}
        assert warm_rounds >= 300

    @pytest.mark.parametrize("coeffs,least", [((-2, 6), 100), ((0, 1), 500)])
    def test_scale_keeping_pivots_are_taken_often(self, coeffs, least):
        """A pivot element of 1 keeps the scale D, and the solver then
        updates only the pivot row's nonzeros; other pivots rescale every
        row. Both kinds are common in the differential cases."""
        pivots = []
        for seed in range(250):
            for _, _, _, got, want in differential_run(seed, pivots, coeffs):
                assert_same_outcome(got, want)
        unit = sum(1 for piv in pivots if piv == 1)
        assert unit >= least and len(pivots) - unit >= 50, (unit, len(pivots))

    @pytest.mark.parametrize("coeffs", [(-2, 6), (0, 1)])
    def test_warm_state_is_never_written(self, coeffs):
        """A warm start shares the rows of the state it is given and copies
        a row only when it first changes it: every outcome's (A, X, D) is as
        it was after the later, warm-started calls."""
        resumed = 0
        for seed in range(250):
            kept = []  # (outcome, a deep copy of its warm state)
            for step, (_, _, _, got, _) in enumerate(differential_run(seed, None, coeffs)):
                resumed += step > 0 and got.status == "optimal"
                if got.warm is not None:
                    kept.append((got, copy.deepcopy(got.warm)))
            for out, state in kept:
                assert out.warm == state, seed
        assert resumed >= 300

    def test_adjugate_invariant_after_every_warm_round(self):
        checked = 0
        dets = set()
        for seed in range(250):
            for cols, _, rhs, got, _ in differential_run(seed):
                if got.status == "optimal":
                    assert_adjugate_invariant(len(rhs), cols, got)
                    dets.add(got.warm[2])
                    checked += 1
        assert checked >= 400
        assert max(dets) > 1

    def test_beale_in_bland_mode_matches(self, monkeypatch):
        monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", 1)
        order = [1, 3, 4, 5, 6, 0, 2]
        cols = [dense_to_columns(BEALE_ROWS)[k] for k in order]
        costs = [BEALE_COSTS[k] for k in order]
        rhs = [0, 0, 1]
        first = simplex_min(3, cols[:5], costs[:5], rhs, [2, 3, 4])
        ref_first, ref_warm = reference_simplex_min(3, cols[:5], costs[:5], rhs, [2, 3, 4])
        assert_same_outcome(first, ref_first)
        warm = simplex_min(3, cols, costs, rhs, first.basis, warm=first.warm)
        ref, _ = reference_simplex_min(3, cols, costs, rhs, ref_first.basis, warm=ref_warm)
        assert_same_outcome(warm, ref)
        assert warm.objective / BEALE_COST_SCALE == Frac(-77, 100)
        assert_adjugate_invariant(3, cols, warm)
        cold_cols = dense_to_columns(BEALE_ROWS)
        got = simplex_min(3, cold_cols, BEALE_COSTS, rhs, [4, 5, 6])
        want, _ = reference_simplex_min(3, cold_cols, BEALE_COSTS, rhs, [4, 5, 6])
        assert_same_outcome(got, want)
