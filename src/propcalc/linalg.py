"""Exact linear algebra over Q: sparse rows for products, dense for elimination.

A matrix acts on column vectors, rows = target dimension, columns = source
dimension.  Products take it as a list of rows, each a {column: entry} dict
holding only the nonzero entries: mat_mul, mat_add and mat_scale work on that
form and give it back, and the chain complexes and maps of chains store it.
The elimination routines (row_echelon, rank, kernel_basis, solve, inverse,
quotient_by_rowspace) take and give dense lists of lists; to_rows and
to_dense convert between the two.  A scalar is an int when integral and a
Fraction when not, never a float or a bool: exact() coerces inputs so, ints
and Fractions mix exactly, the one division, _eliminate's pivot
normalisation, gives an int when both operands are ints and it is exact, and
the row product, sum and scale turn an integral Fraction result into an int.
Elimination also runs on dict rows, with a column-to-rows index.  One
solving routine, solve_rows, takes such rows directly (the lift solver builds
its systems that way); solve is its dense wrapper.  The pivots are the ones
dense Gauss-Jordan elimination picks, and since the reduced row echelon form
is unique for a fixed column order, so are the results.  Everything here is
deterministic: pivots are chosen first-nonzero, free variables are set to
zero, so repeated runs produce identical output.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list  # list[list[int | Fraction]]

# small ints are shared objects, so `x is ZERO` and `c is ONE` test by identity
ZERO = 0
ONE = 1
MINUS_ONE = -1
_INT_ONLY = frozenset([int])


def exact(x):
    """x as an exact scalar: an int when x is integral, else a Fraction."""
    x = x if type(x) is int else Fraction(x)
    return x.numerator if x.denominator == 1 else x


def nonzeros(row) -> list:
    """(column, entry) for each nonzero entry of a dense row, in column order."""
    # the shared ZERO is skipped by identity, without a comparison
    return [(j, x) for j, x in enumerate(row) if x is not ZERO and x]


def is_zero_row(row) -> bool:
    # list.count compares by identity first, and every int zero is the shared ZERO
    return row.count(ZERO) == len(row)


def to_rows(m: Matrix) -> list:
    """The {column: entry} rows of a dense matrix, its entries made exact."""
    out = []
    for row in m:
        if not _INT_ONLY.issuperset(map(type, row)):
            row = list(map(exact, row))
        out.append({j: x for j, x in enumerate(row) if x})
    return out


def to_dense(rows, n_cols: int) -> Matrix:
    return [densify(row, n_cols) for row in rows]


def densify(row: dict, n_cols: int) -> list:
    out = [ZERO] * n_cols
    for j, x in row.items():
        out[j] = x
    return out


def columns(rows, n_cols: int) -> list:
    """The nonzero (row, entry) pairs of each column, rows ascending."""
    cols = [[] for _ in range(n_cols)]
    for r, row in enumerate(rows):
        for j, x in row.items():
            cols[j].append((r, x))
    return cols


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


def _tidy(acc: dict) -> dict:
    """acc without its zero entries, an integral Fraction made an int."""
    if _INT_ONLY.issuperset(map(type, acc.values())):
        return {j: x for j, x in acc.items() if x}
    return {j: x.numerator if x.denominator == 1 else x for j, x in acc.items() if x}


def mat_add(a, b) -> list:
    """a + b for {column: entry} rows of equal shape."""
    out = []
    for arow, brow in zip(a, b):
        acc = dict(arow)
        for j, y in brow.items():
            acc[j] = acc[j] + y if j in acc else y
        out.append(_tidy(acc))
    return out


def mat_scale(c, a) -> list:
    """c * a for {column: entry} rows."""
    c = exact(c)
    if not c:
        return [{} for _ in a]
    return [_tidy({j: c * x for j, x in row.items()}) for row in a]


def mat_mul(a, b) -> list:
    """a @ b for {column: entry} rows: the columns of a index the rows of b.

    A row of a that is one entry 1 at k gives row k of b itself, not a copy:
    rows are never changed once built.
    """
    out = []
    for arow in a:
        if len(arow) == 1:
            ((k, x),) = arow.items()
            out.append(b[k] if x is ONE else _tidy({j: x * y for j, y in b[k].items()}))
            continue
        acc = {}
        for k, x in arow.items():
            for j, y in b[k].items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        out.append(_tidy(acc))
    return out


def mat_vec(a, v: list) -> list:
    """a @ v for {column: entry} rows and a dense vector."""
    return [sum((x * v[j] for j, x in row.items()), ZERO) for row in a]


def row_echelon(m: Matrix):
    """In-place forward elimination.

    Returns (pivot_cols, free_cols).  Pivot choice is the first row with a
    nonzero entry in the current column, rows are normalized to pivot 1.
    The elimination runs on {column: entry} rows; the reduced rows are
    written back into m densely.
    """
    n_cols = len(m[0]) if m else 0
    rows = [dict(nonzeros(row)) for row in m]
    pivots = _eliminate(rows, n_cols)
    m[:] = [densify(row, n_cols) for row in rows]
    return pivots


def _eliminate(rows, n_cols):
    """Gauss-Jordan elimination of dict rows in place; returns (pivot_cols, free_cols)."""
    n_rows = len(rows)
    holders = {}  # column -> indices of the rows with a nonzero entry there
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    pivot_cols = []
    free_cols = []
    piv_r = 0
    for piv_c in range(n_cols):
        column = holders.get(piv_c, ())
        found = min((i for i in column if i >= piv_r), default=-1)
        if found < 0:
            free_cols.append(piv_c)
            continue
        if found != piv_r:
            _swap(rows, holders, piv_r, found)
        prow = rows[piv_r]
        fp = prow[piv_c]
        if fp != 1:
            for j, x in prow.items():
                prow[j] = quotient(x, fp)
        for r in list(column):
            if r == piv_r:
                continue
            row = rows[r]
            fr = row[piv_c]
            for j, p in prow.items():
                if j in row:
                    x = row[j] - fr * p
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        holders[j].discard(r)
                else:
                    row[j] = -fr * p
                    holders.setdefault(j, set()).add(r)
        pivot_cols.append(piv_c)
        piv_r += 1
        if piv_r == n_rows:
            free_cols.extend(range(piv_c + 1, n_cols))
            break
    for row in rows:  # rational input may leave integral Fractions: make them ints
        if not _INT_ONLY.issuperset(map(type, row.values())):
            row.update({j: exact(x) for j, x in row.items()})
    return pivot_cols, free_cols


def quotient(x, y):
    """x / y exactly: an int when both are ints and y divides x."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return x / y


def _swap(rows, holders, a: int, b: int):
    for i in (a, b):
        for j in rows[i]:
            holders[j].discard(i)
    rows[a], rows[b] = rows[b], rows[a]
    for i in (a, b):
        for j in rows[i]:
            holders[j].add(i)


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
    basis = [[ZERO] * c for _ in frees]
    by_free = dict(zip(frees, basis))
    for fc, v in by_free.items():
        v[fc] = ONE
    # pivot rows are normalized; back-substitute
    for r_i, pc in enumerate(pivots):
        for fc, x in nonzeros(work[r_i]):
            if fc in by_free:
                by_free[fc][pc] = -x
    return basis


def solve(a: Matrix, rhs: Matrix):
    """Solve a @ x = rhs for x (rhs may have several columns).

    Returns (x, None) with free variables set to 0, or (None, certificate)
    where certificate = (row_index, residual_row) exhibits an inconsistent
    reduced row 0 = nonzero.
    """
    return solve_rows([dict(nonzeros(row)) for row in a], rhs, shape(a)[1])


def solve_rows(rows, rhs, n_cols: int):
    """solve() for {column: entry} rows over n_cols unknowns, holding no zero
    entries, and their dense right-hand-side rows: the same x or certificate,
    whose residual row is dense (unknowns, then rhs).  Reduces rows in place.
    """
    for row, b in zip(rows, rhs):
        for j, y in enumerate(b):
            if y is not ZERO and y:
                row[n_cols + j] = y
    rhs_c = len(rhs[0]) if rhs else 0
    pivots, _ = _eliminate(rows, n_cols + rhs_c)
    # rows whose pivot lives in the rhs block are inconsistent
    n_piv_in_a = sum(1 for p in pivots if p < n_cols)
    if n_piv_in_a < len(pivots):
        return None, (n_piv_in_a, densify(rows[n_piv_in_a], n_cols + rhs_c))
    x = zeros(n_cols, rhs_c)
    for row, pc in zip(rows, pivots):
        for j in range(rhs_c):
            x[pc][j] = row.get(n_cols + j, ZERO)
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
    work = [row[:] for row in rows if not is_zero_row(row)]
    if not work:
        return identity(dim), identity(dim)
    pivots, frees = row_echelon(work)
    q = len(frees)
    proj = zeros(q, dim)
    # class of e_j: if j free, coordinate j; if j pivot, e_j = -sum over frees
    # of the reduced row entries.
    for qi, fc in enumerate(frees):
        proj[qi][fc] = ONE
    free_index = {fc: qi for qi, fc in enumerate(frees)}
    for r_i, pc in enumerate(pivots):
        for fc, x in nonzeros(work[r_i]):
            if fc in free_index:
                proj[free_index[fc]][pc] = -x
    sect = zeros(dim, q)
    for qi, fc in enumerate(frees):
        sect[fc][qi] = ONE
    return proj, sect
