"""Exact dense linear algebra over Q.

Matrices are lists of lists of Fraction, rows = target dimension, columns =
source dimension, acting on column vectors.  Everything here is deterministic:
pivots are chosen first-nonzero, free variables are set to zero, so repeated
runs produce identical output.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list  # list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def shape(m: Matrix) -> tuple:
    return (len(m), len(m[0]) if m else 0)


def copy(m: Matrix) -> Matrix:
    return [row[:] for row in m]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b with a: k x m, b: m x n."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError("matrix shape mismatch: %dx%d @ %dx%d" % (ra, ca, rb, cb))
    out = zeros(ra, cb)
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            x = arow[k]
            if x == 0:
                continue
            brow = b[k]
            for j in range(cb):
                if brow[j] != 0:
                    orow[j] += x * brow[j]
    return out


def mat_vec(a: Matrix, v: list) -> list:
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


def is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if shape(a) != shape(b):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; row index (i,j) flattens to i*rows(b)+j."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    out = zeros(ra * rb, ca * cb)
    for i in range(ra):
        for k in range(ca):
            x = a[i][k]
            if x == 0:
                continue
            for j in range(rb):
                for l in range(cb):
                    if b[j][l] != 0:
                        out[i * rb + j][k * cb + l] = x * b[j][l]
    return out


def row_echelon(m: Matrix):
    """In-place forward elimination.

    Returns (pivot_cols, free_cols).  Pivot choice is the first row with a
    nonzero entry in the current column, rows are normalized to pivot 1.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivot_cols = []
    free_cols = []
    piv_r = 0
    for piv_c in range(n_cols):
        found = -1
        for i_row in range(piv_r, n_rows):
            if m[i_row][piv_c] != 0:
                found = i_row
                break
        if found < 0:
            free_cols.append(piv_c)
            continue
        if found != piv_r:
            m[piv_r], m[found] = m[found], m[piv_r]
        fp = m[piv_r][piv_c]
        if fp != 1:
            m[piv_r] = [x / fp for x in m[piv_r]]
        for r in range(n_rows):
            if r == piv_r:
                continue
            fr = m[r][piv_c]
            if fr == 0:
                continue
            prow = m[piv_r]
            m[r] = [x - fr * p for x, p in zip(m[r], prow)]
        pivot_cols.append(piv_c)
        piv_r += 1
        if piv_r == n_rows:
            free_cols.extend(range(piv_c + 1, n_cols))
            break
    return pivot_cols, free_cols


def rank(m: Matrix) -> int:
    if not m or not m[0]:
        return 0
    work = copy(m)
    pivots, _ = row_echelon(work)
    return len(pivots)


def kernel_basis(m: Matrix) -> list:
    """Column vectors spanning ker(m), free variables set to 1 one at a time."""
    r, c = shape(m)
    if c == 0:
        return []
    if r == 0:
        return [[ONE if i == j else ZERO for i in range(c)] for j in range(c)]
    work = copy(m)
    pivots, frees = row_echelon(work)
    basis = []
    for fc in frees:
        v = [ZERO] * c
        v[fc] = ONE
        # pivot rows are normalized; back-substitute
        for r_i, pc in enumerate(pivots):
            v[pc] = -work[r_i][fc]
        basis.append(v)
    return basis


def solve(a: Matrix, rhs: Matrix):
    """Solve a @ x = rhs for x (rhs may have several columns).

    Returns (x, None) with free variables set to 0, or (None, certificate)
    where certificate = (row_index, residual_row) exhibits an inconsistent
    reduced row 0 = nonzero.
    """
    r, c = shape(a)
    rhs_r, rhs_c = shape(rhs) if rhs else (0, 0)
    aug = [a[i][:] + list(rhs[i]) for i in range(r)]
    pivots, _ = row_echelon(aug)
    # rows whose pivot lives in the rhs block are inconsistent
    n_piv_in_a = sum(1 for p in pivots if p < c)
    for i in range(n_piv_in_a, len(pivots)):
        return None, (i, aug[i])
    x = zeros(c, rhs_c)
    for r_i in range(n_piv_in_a):
        pc = pivots[r_i]
        for j in range(rhs_c):
            x[pc][j] = aug[r_i][c + j]
    return x, None


def inverse(a: Matrix):
    n, m = shape(a)
    if n != m:
        raise ValueError("not square")
    x, cert = solve(a, identity(n))
    if cert is not None or rank(a) != n:
        raise ValueError("matrix not invertible")
    return x


def quotient_by_rowspace(rows: Matrix, dim: int):
    """Quotient of Q^dim by the span of the given row vectors.

    Returns (proj, sect): proj is (q x dim) mapping a vector to coordinates in
    the quotient basis (the non-pivot coordinates), sect is (dim x q) picking
    the canonical representative with pivot coordinates eliminated.
    proj @ sect = identity on the quotient.
    """
    if dim == 0:
        return zeros(0, 0), zeros(0, 0)
    work = [row[:] for row in rows if any(x != 0 for x in row)]
    if not work:
        return identity(dim), identity(dim)
    pivots, frees = row_echelon(work)
    q = len(frees)
    proj = zeros(q, dim)
    # class of e_j: if j free, coordinate j; if j pivot, e_j = -sum over frees
    # of the reduced row entries.
    for qi, fc in enumerate(frees):
        proj[qi][fc] = ONE
    for r_i, pc in enumerate(pivots):
        for qi, fc in enumerate(frees):
            if work[r_i][fc] != 0:
                proj[qi][pc] = -work[r_i][fc]
    sect = zeros(dim, q)
    for qi, fc in enumerate(frees):
        sect[fc][qi] = ONE
    return proj, sect
