"""The exact kernel on {column: entry} rows against its dense reference and sympy.

The reduced row echelon form is unique for a fixed column order, so the
elimination on rows must reproduce the dense Gauss-Jordan results of
tests/helpers.py entry by entry: pivots, reduced rows, rank, the kernel basis
(the columns of the inclusion kernel_basis gives), solutions and the
inconsistency certificate, and the quotient maps.  Small integer and mixed
p/q matrices are run again with every entry a Fraction: both runs must agree
with each other and with sympy, and hold an int for every integral entry.
The solve_rows tests run solve on systems of rows with one right-hand column.
"""

import random
from fractions import Fraction

import pytest

from propcalc import linalg
from helpers import (
    copy,
    dense_kernel_basis,
    dense_mul,
    dense_quotient_by_rowspace,
    dense_rank,
    dense_row_echelon,
    dense_solve,
    exact_scalar,
    random_rank_deficient,
    zeros,
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

# dense matrices with their column counts: no rows, no columns, all-zero rows
EDGES = [([], 0), ([], 3), ([[], []], 0), (zeros(3, 4), 4), ([[0, 0], [0, 3]], 2), ([[0, 5, 0]], 3)]


def cases(seed, repeats=3):
    rng = random.Random(seed)
    for rows, cols, density in SHAPES:
        for _ in range(repeats):
            yield random_rank_deficient(rng, rows, cols, density)


def dict_rows(m):
    """The {column: entry} rows of a dense matrix, entries kept as they are."""
    return [dict(linalg.nonzeros(row)) for row in m]


def transpose(vectors, n):
    """The n x len(vectors) dense matrix whose columns are the vectors."""
    return [[v[i] for v in vectors] for i in range(n)]


def test_generated_matrices_are_rank_deficient_with_zero_rows_and_columns():
    for m in cases(0):
        smaller = min(len(m), len(m[0]))
        if smaller > 1:
            assert dense_rank(m) < smaller
    big = random_rank_deficient(random.Random(1), 40, 60, 0.02)
    assert any(not any(row) for row in big)
    assert any(all(row[j] == 0 for row in big) for j in range(60))


def test_row_echelon_matches_dense_reference():
    for m in cases(1):
        ours, ref = dict_rows(m), copy(m)
        assert linalg.row_echelon(ours, len(m[0])) == dense_row_echelon(ref)
        assert linalg.to_dense(ours, len(m[0])) == ref
        assert all(x and exact_scalar(x) for row in ours for x in row.values())


def test_row_echelon_in_place_on_empty_and_zero_matrices():
    for m, cols in EDGES:
        ours, ref = dict_rows(m), copy(m)
        # a dense matrix without rows does not know its columns: all are free
        expected = dense_row_echelon(ref) if m else ([], list(range(cols)))
        assert linalg.row_echelon(ours, cols) == expected
        assert linalg.to_dense(ours, cols) == ref


def test_rank_and_kernel_match_dense_reference():
    for m, cols in [(m, len(m[0])) for m in cases(2)] + EDGES:
        rows = dict_rows(m)
        assert linalg.rank(rows, cols) == dense_rank(m)
        ref = dense_kernel_basis(m) if m else [[int(i == j) for i in range(cols)] for j in range(cols)]
        inclusion = linalg.kernel_basis(rows, cols)
        assert linalg.to_dense(inclusion, len(ref)) == transpose(ref, cols)
        assert rows == dict_rows(m)  # the input is not changed
        assert not any(linalg.mat_mul(rows, inclusion))
    # no rows: the kernel is everything; no columns: it is zero
    assert linalg.kernel_basis([], 2) == linalg.kernel_basis([{}, {}], 2) == [{0: 1}, {1: 1}]
    assert linalg.kernel_basis([{}, {}], 0) == []


def test_solve_matches_dense_reference_with_certificates():
    rng = random.Random(3)
    inconsistent = 0
    for m in cases(3):
        rows, cols = len(m), len(m[0])
        # a consistent right-hand side (an image) and an arbitrary one
        x0 = [[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(cols)]
        for rhs in (dense_mul(m, x0), [[F(rng.randint(-3, 3)), F(0)] for _ in range(rows)]):
            a, b = dict_rows(m), dict_rows(rhs)
            x, cert = linalg.solve(a, b, cols, 2)
            assert (a, b) == (dict_rows(m), dict_rows(rhs))  # the inputs are not changed
            ref_x, ref_cert = dense_solve(m, rhs)
            assert cert == ref_cert
            if x is None:
                inconsistent += 1
                i, residual = cert
                assert all(v == 0 for v in residual[:cols]) and any(v != 0 for v in residual[cols:])
            else:
                assert linalg.to_dense(x, 2) == ref_x
                assert linalg.mat_mul(a, x) == b
    assert inconsistent > 0


def test_quotient_by_rowspace_matches_dense_reference():
    for m, dim in [(m, len(m[0])) for m in cases(4)] + EDGES:
        proj, sect = linalg.quotient_by_rowspace(dict_rows(m), dim)
        ref_proj, ref_sect = dense_quotient_by_rowspace(m, dim)
        assert linalg.to_dense(proj, dim) == ref_proj
        assert linalg.to_dense(sect, len(proj)) == ref_sect
        assert linalg.mat_mul(proj, sect) == [{i: 1} for i in range(len(proj))]
    # no rows: the quotient is everything; a full-rank row space leaves nothing
    assert linalg.quotient_by_rowspace([], 2) == ([{0: 1}, {1: 1}], [{0: 1}, {1: 1}])
    assert linalg.quotient_by_rowspace([], 0) == ([], [])
    assert linalg.quotient_by_rowspace([{1: 2}, {0: 3}], 2) == ([], [{}, {}])


def test_inverse_on_empty_singular_and_non_square_matrices():
    # invertible matrices are checked against sympy with the scalar contract below
    assert linalg.inverse([], 0) == []
    assert linalg.inverse([{1: 2}, {0: F(1, 2)}], 2) == [{1: 2}, {0: F(1, 2)}]
    for singular in ([{}], [{0: 1, 1: 2}, {0: 2, 1: 4}], [{0: 1}, {}]):
        with pytest.raises(ValueError, match="^matrix not invertible$"):
            linalg.inverse(singular, len(singular))
    with pytest.raises(ValueError, match="^not square$"):
        linalg.inverse([{0: 1, 1: 1}], 2)


def test_mat_mul_matches_the_definition():
    rng = random.Random(5)
    for rows, cols, density in SHAPES:
        a = random_rank_deficient(rng, rows, cols, density)
        b = random_rank_deficient(rng, cols, rows, density)
        expected = [
            [sum((a[i][k] * b[k][j] for k in range(cols) if a[i][k] and b[k][j]), F(0)) for j in range(rows)]
            for i in range(rows)
        ]
        product = linalg.mat_mul(linalg.to_rows(a), linalg.to_rows(b))
        assert linalg.to_dense(product, rows) == expected
        assert all(x != 0 and exact_scalar(x) for row in product for x in row.values())


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in cases(6, repeats=2):
        work = dict_rows(m)
        pivots, _ = linalg.row_echelon(work, len(m[0]))
        reduced, sym_pivots = sympy.Matrix(m).rref()
        assert tuple(pivots) == sym_pivots
        expected = [
            [F(int(e.p), int(e.q)) for e in reduced.row(i)] for i in range(reduced.rows)
        ]
        assert linalg.to_dense(work, len(m[0])) == expected


def test_solve_rows_matches_dense_reference_with_certificates():
    # consistent and inconsistent systems, rows with a zero right-hand side and
    # empty rows (some with a nonzero right-hand side, which is inconsistent)
    rng = random.Random(7)
    seen = {"solved": 0, "certificate": 0, "zero rhs": 0, "empty row": 0}
    for m in cases(7):
        rows, cols = len(m), len(m[0])
        x0 = [[F(rng.randint(-2, 2))] for _ in range(cols)]
        arbitrary = [[F(rng.choice([0, 0, 1, -3]), rng.choice([1, 2]))] for _ in range(rows)]
        for rhs in (dense_mul(m, x0), arbitrary, zeros(rows, 1)):
            ref_x, ref_cert = dense_solve(m, rhs)
            sparse = dict_rows(m)
            seen["zero rhs"] += sum(1 for b in rhs if b[0] == 0)
            seen["empty row"] += sum(1 for row in sparse if not row)
            x, cert = linalg.solve(sparse, dict_rows(rhs), cols, 1)
            assert cert == ref_cert
            if x is None:
                seen["certificate"] += 1
                i, residual = cert
                assert len(residual) == cols + 1 and not any(residual[:cols]) and residual[cols]
            else:
                seen["solved"] += 1
                assert linalg.to_dense(x, 1) == ref_x
                assert all(v and exact_scalar(v) for row in x for v in row.values())
                assert dense_mul(m, linalg.to_dense(x, 1)) == rhs
    assert all(seen.values()), seen


def test_solve_rows_without_rows_or_unknowns():
    # no rows: every unknown is free; rows of zero length: only the rhs decides
    assert linalg.solve([], [], 3, 0) == ([{}, {}, {}], None)
    assert linalg.solve([], [], 2, 1) == ([{}, {}], None)
    assert linalg.solve([{}, {}], [{}, {}], 2, 1) == ([{}, {}], None)
    assert linalg.solve([{}, {}], [{}, {0: F(2)}], 0, 1) == (None, (0, [F(1)])) == dense_solve([[], []], [[F(0)], [F(2)]])
    assert linalg.solve([{}, {1: F(2)}], [{}, {0: F(4)}], 2, 1) == ([{}, {0: 2}], None)
    # an all-zero right-hand side: the zero solution, whatever the rank
    assert linalg.solve([{0: 1, 1: 1}, {0: 2, 1: 2}], [{}, {}], 2, 3) == ([{}, {}], None)


def test_solve_rows_matches_sympy_gauss_jordan():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8)
    solved = inconsistent = 0
    for rows, cols, density in ((8, 6, 0.4), (6, 9, 0.3), (10, 10, 0.2)):
        for _ in range(4):
            m = random_rank_deficient(rng, rows, cols, density)
            x0 = [[F(rng.randint(-2, 2))] for _ in range(cols)]
            for rhs in (dense_mul(m, x0), [[F(rng.randint(-2, 2))] for _ in range(rows)]):
                x, cert = linalg.solve(dict_rows(m), dict_rows(rhs), cols, 1)
                try:
                    sol, params = sympy.Matrix(m).gauss_jordan_solve(sympy.Matrix(rhs))
                except ValueError:  # sympy's "linear system has no solution"
                    assert x is None and cert is not None
                    inconsistent += 1
                    continue
                particular = sol.subs({t: 0 for t in params})
                assert linalg.to_dense(x, 1) == [[F(int(e.p), int(e.q))] for e in particular]
                solved += 1
    assert solved and inconsistent


# -- the scalar contract: int entries against Fraction entries and sympy ---------


def small_matrix(rng, rows, cols, mixed):
    """randint(-3, 3) entries, some rows combinations of earlier ones; with
    `mixed`, about a fifth of the entries are p/q instead, an int when integral."""
    m = []
    for _ in range(rows):
        if len(m) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(m, 2)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [rng.randint(-3, 3) for _ in range(cols)]
        if mixed:
            row = [F(x, rng.randint(2, 4)) if rng.random() < 0.2 else x for x in row]
        m.append([x.numerator if type(x) is F and x.denominator == 1 else x for x in row])
    return m


def as_fractions(m):
    return [[F(x) for x in row] for row in m]


def sympy_rows(matrix):
    return [[F(int(e.p), int(e.q)) for e in matrix.row(i)] for i in range(matrix.rows)]


def sympy_quotient(reduced, pivots, dim):
    """proj and sect of quotient_by_rowspace, read off sympy's rref."""
    frees = [j for j in range(dim) if j not in pivots]
    proj = [[F(0)] * dim for _ in frees]
    sect = [[F(0)] * len(frees) for _ in range(dim)]
    for qi, fc in enumerate(frees):
        proj[qi][fc] = F(1)
        sect[fc][qi] = F(1)
        for r, pc in enumerate(pivots):
            proj[qi][pc] = -F(int(reduced[r, fc].p), int(reduced[r, fc].q))
    return proj, sect


def kernel_results(m, rhs):
    """Every kernel entry point on the rows of m, each on a fresh copy, the
    results made dense."""
    rows, cols = dict_rows(m), len(m[0])
    reduced = dict_rows(m)
    pivots, _ = linalg.row_echelon(reduced, cols)
    try:
        inv = linalg.to_dense(linalg.inverse(rows, cols), cols) if len(m) == cols else None
    except ValueError:
        inv = "singular"
    x, cert = linalg.solve(rows, dict_rows(rhs), cols, len(rhs[0]))
    proj, sect = linalg.quotient_by_rowspace(rows, cols)
    inclusion = linalg.kernel_basis(rows, cols)
    return {
        "row_echelon": (pivots, linalg.to_dense(reduced, cols)),
        "kernel_basis": [linalg.densify(dict(col), cols) for col in linalg.columns(inclusion, len(proj))],
        "solve": (x and linalg.to_dense(x, len(rhs[0])), cert),
        "quotient_by_rowspace": (linalg.to_dense(proj, cols), linalg.to_dense(sect, len(proj))),
        "inverse": inv,
    }


def scalars(tree):
    if isinstance(tree, (list, tuple, dict)):
        for part in tree.values() if isinstance(tree, dict) else tree:
            yield from scalars(part)
    elif tree is not None and not isinstance(tree, str):
        yield tree


@pytest.mark.parametrize("mixed", [False, True], ids=["integers", "mixed"])
def test_int_and_fraction_entries_agree_with_each_other_and_with_sympy(mixed, monkeypatch):
    sympy = pytest.importorskip("sympy")
    divisions = {"exact": 0, "inexact": 0}
    quotient = linalg.quotient

    def counted(x, y):
        q = quotient(x, y)
        if type(x) is int and type(y) is int and abs(y) > 1:
            divisions["exact" if type(q) is int else "inexact"] += 1
        return q

    monkeypatch.setattr(linalg, "quotient", counted)
    rng = random.Random(61 + mixed)
    singular = 0
    for rows, cols in [(3, 3), (4, 4), (5, 5), (4, 6), (6, 4), (3, 7), (7, 5), (8, 8)]:
        for _ in range(8):
            m = small_matrix(rng, rows, cols, mixed)
            rhs = [[rng.randint(-3, 3), rng.randint(-1, 1)] for _ in range(rows)]
            ours = kernel_results(m, rhs)
            from_fractions = kernel_results(as_fractions(m), as_fractions(rhs))
            assert ours == from_fractions
            assert all(map(exact_scalar, scalars([ours, from_fractions])))

            reduced, sym_pivots = sympy.Matrix(m).rref()
            assert ours["row_echelon"] == (list(sym_pivots), sympy_rows(reduced))
            assert ours["quotient_by_rowspace"] == sympy_quotient(reduced, sym_pivots, cols)
            assert ours["kernel_basis"] == [sympy_rows(v.T)[0] for v in sympy.Matrix(m).nullspace()]
            try:
                sol, params = sympy.Matrix(m).gauss_jordan_solve(sympy.Matrix(rhs))
                expected = (sympy_rows(sol.subs({t: 0 for t in params})), None)
            except ValueError:  # sympy's "linear system has no solution"
                expected = None
            x, cert = ours["solve"]
            assert (x, cert) == expected if expected else (x is None and cert is not None)
            if rows == cols:
                if ours["inverse"] == "singular":
                    singular += 1
                    assert sympy.Matrix(m).det() == 0
                else:
                    assert ours["inverse"] == sympy_rows(sympy.Matrix(m).inv())
    assert divisions["exact"] and divisions["inexact"] and singular, (divisions, singular)


def test_constructors_and_scalings_never_store_bools_or_floats():
    from propcalc.chains import ChainComplex, ChainMap

    x = ChainComplex({0: 2, 1: 2}, {1: [[True, 0.5], [False, "3/6"]]})
    assert x.d(1) == [{0: 1, 1: F(1, 2)}, {1: F(1, 2)}]
    assert x.d_mat(1) == [[1, F(1, 2)], [0, F(1, 2)]]
    f = ChainMap(x, x, {0: [[3.0, "0/3"], [False, "6/2"]], 1: [["9/3", -0.0], [False, 3]]})
    assert f.mat(0) == f.mat(1) == [[3, 0], [0, 3]]
    scaled = [f.scale(c).mat(0) for c in (True, 0.5, "1/2", F(4, 2))]
    assert scaled == [[[3, 0], [0, 3]], [[F(3, 2), 0], [0, F(3, 2)]], [[F(3, 2), 0], [0, F(3, 2)]], [[6, 0], [0, 6]]]
    assert f.rows == {0: [{0: 3}, {1: 3}], 1: [{0: 3}, {1: 3}]}
    for m in [x.d_mat(1), f.mat(0), f.mat(1)] + scaled:
        assert all(exact_scalar(v) for row in m for v in row), m
    assert [type(linalg.exact(v)) for v in (True, 2.0, -0.0, "8/4", F(6, 3), 2**70)] == [int] * 6
    assert [linalg.quotient(6, -3), linalg.quotient(-3, 6), linalg.quotient(F(1, 2), 2)] == [-2, F(-1, 2), F(1, 4)]
    assert type(linalg.quotient(6, -3)) is int


def test_row_products_sums_and_scalings_make_integral_fractions_ints():
    half = F(1, 2)
    scaled = linalg.mat_scale(half, [{0: 2, 1: 3}])
    product = linalg.mat_mul([{0: half}], [{0: 2}])
    total = linalg.mat_add([{0: half}], [{0: half}])
    assert scaled == [{0: 1, 1: F(3, 2)}] and product == [{0: 1}] and total == [{0: 1}]
    assert [type(x) for row in scaled + product + total for x in row.values()] == [int, F, int, int]
    # entries that cancel are dropped, not stored as zeros
    assert linalg.mat_add([{0: half, 1: 1}], [{0: -half}]) == [{1: 1}]
    assert linalg.mat_mul([{0: 1, 1: 1}], [{0: half}, {0: -half}]) == [{}]
    assert linalg.mat_scale(0, [{0: half}]) == [{}]
