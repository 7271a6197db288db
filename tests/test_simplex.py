import random

import pytest

from rasched import simplex
from rasched.rational import Frac, ZERO
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


class TestSimplexMin:
    def test_minimizes_simple_lp(self):
        # min x0 + 2 x1 s.t. x0 + x1 + s = 4, x0 - x1 + a = 1 handled via
        # feasibility helper below; here: min -x0 s.t. x0 + s = 3
        cols = [[(0, Frac(1))], [(0, Frac(1))]]
        out = simplex_min(1, cols, [Frac(-1), ZERO], [Frac(3)], [1])
        assert out.status == "optimal" and out.objective == -3
        assert out.values[0] == 3

    def test_detects_unbounded(self):
        # min -x0 with x0 - s = 0: x0 can grow forever
        cols = [[(0, Frac(1))], [(0, Frac(-1))], [(0, Frac(1))]]
        out = simplex_min(1, cols, [Frac(-1), ZERO, ZERO], [ZERO], [2])
        assert out.status == "unbounded"

    def test_duals_complementary_on_optimum(self):
        # min -x0 - x1 s.t. x0 + slack1 = 2; x1 + slack2 = 3
        cols = dense_to_columns([[Frac(1), ZERO, Frac(1), ZERO],
                                 [ZERO, Frac(1), ZERO, Frac(1)]])
        out = simplex_min(2, cols, [Frac(-1), Frac(-1), ZERO, ZERO],
                          [Frac(2), Frac(3)], [2, 3])
        assert out.objective == -5
        assert out.duals == [Frac(-1), Frac(-1)]  # c_B B^-1 per row

    def test_rejects_negative_rhs(self):
        with pytest.raises(SimplexError):
            simplex_min(1, [[(0, Frac(1))]], [ZERO], [Frac(-1)], [0])

    def test_rejects_non_identity_basis(self):
        with pytest.raises(SimplexError):
            simplex_min(1, [[(0, Frac(2))]], [ZERO], [Frac(1)], [0])


class TestFeasibility:
    def test_feasible_system_returns_point(self):
        # x0 + x1 = 1; x0 + 2 x1 <= 3 (slack provided as a real column)
        cols = dense_to_columns([[Frac(1), Frac(1), ZERO],
                                 [Frac(1), Frac(2), Frac(1)]])
        out = solve_equality_feasibility(2, cols, [Frac(1), Frac(3)],
                                         artificial_rows=[0])
        assert out.feasible
        total = [ZERO, ZERO]
        for k, v in out.values.items():
            assert v >= 0
            for r, coeff in cols[k]:
                total[r] += coeff * v
        assert total == [Frac(1), Frac(3)]

    def test_infeasible_system_yields_verified_farkas(self):
        # x0 = 2 with x0 <= 1
        cols = dense_to_columns([[Frac(1), ZERO], [Frac(1), Frac(1)]])
        rhs = [Frac(2), Frac(1)]
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
            col = [(r, Frac(rng.randint(-4, 6)))
                   for r in range(m) if rng.random() < 0.7]
            cols.append([(r, c) for r, c in col if c != 0])
        rhs = [Frac(rng.randint(0, 8)) for _ in range(m)]
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
        rows = [[Frac(1, 4), Frac(-8), Frac(-1), Frac(9), Frac(1), ZERO, ZERO],
                [Frac(1, 2), Frac(-12), Frac(-1, 2), Frac(3), ZERO, Frac(1), ZERO],
                [ZERO, ZERO, Frac(1), ZERO, ZERO, ZERO, Frac(1)]]
        cols = dense_to_columns(rows)
        costs = [Frac(-3, 4), Frac(150), Frac(-1, 50), Frac(6), ZERO, ZERO, ZERO]
        out = simplex_min(3, cols, costs, [ZERO, ZERO, Frac(1)], [4, 5, 6])
        assert out.status == "optimal" and out.objective == Frac(-77, 100)
        assert out.values[0] == 1 and out.values[2] == 1


def basis_duals_from_scratch(columns, costs, basis):
    """c_B B^-1 by Gauss-Jordan on B^T y = c_B, independent of the solver."""
    m = len(basis)
    aug = [[ZERO] * m + [costs[basis[r]]] for r in range(m)]
    for r, k in enumerate(basis):  # row r of B^T is column basis[r]
        for row, coeff in columns[k]:
            aug[r][row] = coeff
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
        cols = dense_to_columns([[Frac(1), Frac(2), Frac(1), ZERO],
                                 [Frac(3), Frac(1), ZERO, Frac(1)]])
        costs = [Frac(-1), Frac(-1), ZERO, ZERO]
        rhs = [Frac(4), Frac(6)]
        first = simplex_min(2, cols[:1] + cols[2:], costs[:1] + costs[2:], rhs, [1, 2])
        assert first.objective == -2
        # re-index: column 1 of the small LP is column 2 of the full one, etc.
        small_to_full = [0, 2, 3]
        basis = [small_to_full[k] for k in first.basis]
        y = first.duals
        assert reduced_cost(cols[1], costs[1], y) < 0
        warm = simplex_min(2, cols, costs, rhs, basis, warm=(first.binv, first.x_b))
        cold = simplex_min(2, cols, costs, rhs, [2, 3])
        assert warm.objective == cold.objective == Frac(-14, 5)
        assert_consistent_optimum(2, cols, costs, rhs, warm)

    def test_warm_arguments_are_not_mutated(self):
        cols = [[(0, Frac(1))], [(0, Frac(1))], [(0, Frac(2))]]
        costs = [ZERO, Frac(-1), Frac(-3)]
        first = simplex_min(1, cols[:2], costs[:2], [Frac(4)], [0])
        state = ([list(row) for row in first.binv], list(first.x_b))
        again = simplex_min(1, cols, costs, [Frac(4)], first.basis,
                            warm=(first.binv, first.x_b))
        assert again.objective == -6
        assert (first.binv, first.x_b) == state

    @pytest.mark.parametrize("seed", range(25))
    def test_randomized_append_and_resume(self, seed):
        rng = random.Random(seed)
        m = rng.randint(2, 5)
        # rows are <= constraints with nonnegative coefficients: bounded LPs
        cols = [[(r, Frac(1))] for r in range(m)]  # slacks, the cold basis
        costs = [ZERO] * m
        for _ in range(rng.randint(1, 6)):
            col = [(r, Frac(rng.randint(1, 5))) for r in range(m) if rng.random() < 0.6]
            cols.append(col or [(rng.randrange(m), Frac(1))])
            costs.append(Frac(rng.randint(-6, 2)))
        rhs = [Frac(rng.randint(0, 9)) for _ in range(m)]
        out = simplex_min(m, cols, costs, rhs, list(range(m)))
        assert_consistent_optimum(m, cols, costs, rhs, out)
        for _ in range(3):  # three rounds of column generation
            added = 0
            for _ in range(rng.randint(1, 3)):
                col = [(r, Frac(rng.randint(1, 4))) for r in range(m) if rng.random() < 0.6]
                col = col or [(rng.randrange(m), Frac(2))]
                # price the column to reduced cost -1 or -1/3 under the current duals
                drop = Frac(1) if added == 0 else Frac(1, 3)
                cols.append(col)
                costs.append(sum((out.duals[r] * c for r, c in col), ZERO) - drop)
                added += 1
            out = simplex_min(m, cols, costs, rhs, out.basis, warm=(out.binv, out.x_b))
            assert_consistent_optimum(m, cols, costs, rhs, out)
            cold = simplex_min(m, cols, costs, rhs, list(range(m)))
            assert out.objective == cold.objective

    def test_degenerate_lp_in_bland_mode_keeps_exact_duals(self, monkeypatch):
        # Beale's cycling example; a streak of one switches to Bland's rule at
        # the first degenerate pivot, so the later dual updates run in Bland mode
        monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", 1)
        rows = [[Frac(1, 4), Frac(-8), Frac(-1), Frac(9), Frac(1), ZERO, ZERO],
                [Frac(1, 2), Frac(-12), Frac(-1, 2), Frac(3), ZERO, Frac(1), ZERO],
                [ZERO, ZERO, Frac(1), ZERO, ZERO, ZERO, Frac(1)]]
        order = [1, 3, 4, 5, 6, 0, 2]  # x0 and x2 are the appended columns
        cols = [dense_to_columns(rows)[k] for k in order]
        all_costs = [Frac(-3, 4), Frac(150), Frac(-1, 50), Frac(6), ZERO, ZERO, ZERO]
        costs = [all_costs[k] for k in order]
        rhs = [ZERO, ZERO, Frac(1)]
        first = simplex_min(3, cols[:5], costs[:5], rhs, [2, 3, 4])
        assert first.objective == 0
        assert all(reduced_cost(cols[k], costs[k], first.duals) < 0 for k in (5, 6))
        # the resumed basis is degenerate (x_b = 0, 0, 1): the first pivot is too
        warm = simplex_min(3, cols, costs, rhs, first.basis, warm=(first.binv, first.x_b))
        cold = simplex_min(3, cols, costs, rhs, [2, 3, 4])
        assert warm.objective == cold.objective == Frac(-77, 100)
        assert_consistent_optimum(3, cols, costs, rhs, warm)
