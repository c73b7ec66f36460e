"""The exact kernel against its dense reference and against sympy.

The reduced row echelon form is unique for a fixed column order, so the
elimination on nonzeros must reproduce the dense Gauss-Jordan results entry
by entry: pivots, reduced rows, rank, kernel basis, solutions and the
inconsistency certificate (from the dense solve and from solve_rows, which
takes {column: entry} rows), and the quotient maps.
"""

import random
from fractions import Fraction

import pytest

from propcalc import linalg
from helpers import (
    dense_kernel_basis,
    dense_quotient_by_rowspace,
    dense_rank,
    dense_row_echelon,
    dense_solve,
    random_rank_deficient,
)

F = Fraction

# (rows, cols, density): tall, wide and square, from 2 % to 50 % nonzero
SHAPES = [
    (40, 12, 0.5),
    (40, 30, 0.1),
    (40, 60, 0.02),
    (12, 40, 0.5),
    (25, 60, 0.05),
    (30, 30, 0.2),
    (60, 40, 0.02),
    (1, 9, 0.5),
    (9, 1, 0.5),
]


def cases(seed, repeats=3):
    rng = random.Random(seed)
    for rows, cols, density in SHAPES:
        for _ in range(repeats):
            yield random_rank_deficient(rng, rows, cols, density)


def test_generated_matrices_are_rank_deficient_with_zero_rows_and_columns():
    for m in cases(0):
        smaller = min(len(m), len(m[0]))
        if smaller > 1:
            assert dense_rank(m) < smaller
    big = random_rank_deficient(random.Random(1), 40, 60, 0.02)
    assert any(linalg.is_zero_row(row) for row in big)
    assert any(all(row[j] == 0 for row in big) for j in range(60))


def test_row_echelon_matches_dense_reference():
    for m in cases(1):
        ours, ref = linalg.copy(m), linalg.copy(m)
        assert linalg.row_echelon(ours) == dense_row_echelon(ref)
        assert ours == ref
        assert all(type(x) is Fraction for row in ours for x in row)


def test_row_echelon_in_place_on_empty_and_zero_matrices():
    for m in ([], [[]], [[F(0)] * 4 for _ in range(3)], [[0, 0], [0, 3]]):
        ours, ref = linalg.copy(m), linalg.copy(m)
        assert linalg.row_echelon(ours) == dense_row_echelon(ref)
        assert ours == ref


def test_rank_and_kernel_match_dense_reference():
    for m in cases(2):
        assert linalg.rank(m) == dense_rank(m)
        basis = linalg.kernel_basis(m)
        assert basis == dense_kernel_basis(m)
        for v in basis:
            assert all(x == 0 for x in linalg.mat_vec(m, v))


def test_solve_matches_dense_reference_with_certificates():
    rng = random.Random(3)
    inconsistent = 0
    for m in cases(3):
        rows, cols = len(m), len(m[0])
        # a consistent right-hand side (an image) and an arbitrary one
        x0 = [[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(cols)]
        for rhs in (linalg.mat_mul(m, x0), [[F(rng.randint(-3, 3)), F(0)] for _ in range(rows)]):
            ours = linalg.solve(m, rhs)
            assert ours == dense_solve(m, rhs)
            x, cert = ours
            if x is None:
                inconsistent += 1
                i, residual = cert
                assert all(v == 0 for v in residual[:cols]) and any(v != 0 for v in residual[cols:])
            else:
                assert linalg.mat_mul(m, x) == rhs
    assert inconsistent > 0


def test_quotient_by_rowspace_matches_dense_reference():
    for m in cases(4):
        dim = len(m[0])
        proj, sect = linalg.quotient_by_rowspace(m, dim)
        assert (proj, sect) == dense_quotient_by_rowspace(m, dim)
        if proj:
            assert linalg.mat_mul(proj, sect) == linalg.identity(len(proj))


def test_mat_mul_matches_the_definition():
    rng = random.Random(5)
    for rows, cols, density in SHAPES:
        a = random_rank_deficient(rng, rows, cols, density)
        b = random_rank_deficient(rng, cols, rows, density)
        expected = [
            [sum((a[i][k] * b[k][j] for k in range(cols) if a[i][k] and b[k][j]), F(0)) for j in range(rows)]
            for i in range(rows)
        ]
        assert linalg.mat_mul(a, b) == expected


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in cases(6, repeats=2):
        work = linalg.copy(m)
        pivots, _ = linalg.row_echelon(work)
        reduced, sym_pivots = sympy.Matrix(m).rref()
        assert tuple(pivots) == sym_pivots
        expected = [
            [F(int(e.p), int(e.q)) for e in reduced.row(i)] for i in range(reduced.rows)
        ]
        assert work == expected


def dict_rows(m):
    return [dict(linalg.nonzeros(row)) for row in m]


def test_solve_rows_matches_dense_reference_with_certificates():
    # consistent and inconsistent systems, rows with a zero right-hand side and
    # empty rows (some with a nonzero right-hand side, which is inconsistent)
    rng = random.Random(7)
    seen = {"solved": 0, "certificate": 0, "zero rhs": 0, "empty row": 0}
    for m in cases(7):
        rows, cols = len(m), len(m[0])
        x0 = [[F(rng.randint(-2, 2))] for _ in range(cols)]
        arbitrary = [[F(rng.choice([0, 0, 1, -3]), rng.choice([1, 2]))] for _ in range(rows)]
        for rhs in (linalg.mat_mul(m, x0), arbitrary, linalg.zeros(rows, 1)):
            expected = dense_solve(m, rhs)
            sparse = dict_rows(m)
            seen["zero rhs"] += sum(1 for b in rhs if b[0] == 0)
            seen["empty row"] += sum(1 for row in sparse if not row)
            x, cert = linalg.solve_rows(sparse, rhs, cols)
            assert (x, cert) == expected
            assert linalg.solve(m, rhs) == expected
            if x is None:
                seen["certificate"] += 1
                i, residual = cert
                assert len(residual) == cols + 1 and not any(residual[:cols]) and residual[cols]
            else:
                seen["solved"] += 1
                assert all(type(v) is Fraction for row in x for v in row)
                assert linalg.mat_mul(m, x) == rhs
    assert all(seen.values()), seen


def test_solve_rows_without_rows_or_unknowns():
    # no rows: every unknown is free; rows of zero length: only the rhs decides
    assert linalg.solve_rows([], [], 3) == ([[], [], []], None)
    assert linalg.solve_rows([{}, {}], [[F(0)], [F(0)]], 2) == ([[F(0)], [F(0)]], None)
    assert linalg.solve_rows([{}, {}], [[F(0)], [F(2)]], 0) == (None, (0, [F(1)])) == dense_solve([[], []], [[F(0)], [F(2)]])
    assert linalg.solve_rows([{}, {1: F(2)}], [[F(0)], [F(4)]], 2) == ([[F(0)], [F(2)]], None)


def test_solve_rows_matches_sympy_gauss_jordan():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8)
    solved = inconsistent = 0
    for rows, cols, density in ((8, 6, 0.4), (6, 9, 0.3), (10, 10, 0.2)):
        for _ in range(4):
            m = random_rank_deficient(rng, rows, cols, density)
            x0 = [[F(rng.randint(-2, 2))] for _ in range(cols)]
            for rhs in (linalg.mat_mul(m, x0), [[F(rng.randint(-2, 2))] for _ in range(rows)]):
                x, cert = linalg.solve_rows(dict_rows(m), rhs, cols)
                try:
                    sol, params = sympy.Matrix(m).gauss_jordan_solve(sympy.Matrix(rhs))
                except ValueError:  # sympy's "linear system has no solution"
                    assert x is None and cert is not None
                    inconsistent += 1
                    continue
                particular = sol.subs({t: 0 for t in params})
                assert x == [[F(int(e.p), int(e.q))] for e in particular]
                solved += 1
    assert solved and inconsistent
