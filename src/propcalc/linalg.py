"""Exact linear algebra over Q on sparse rows.

A matrix acts on column vectors, rows = target dimension, columns = source
dimension.  It is a list of rows, each a {column: entry} dict holding only
the nonzero entries; where a routine needs the column count it takes it as
an argument.  Every routine here takes and gives that form: the products
mat_mul, mat_add and mat_scale, and the elimination routines row_echelon,
rank, kernel_basis (the kernel as its inclusion map), solve, inverse and
quotient_by_rowspace.  The chain complexes and maps of chains store it.
Dense lists of lists are only read and written at the boundary: to_rows and
to_dense convert a matrix, nonzeros reads a dense coordinate vector and
mat_vec applies rows to one.  A scalar is an int when integral and a
Fraction when not, never a float or a bool: exact() coerces inputs so, ints
and Fractions mix exactly, the one division, row_echelon's pivot
normalisation, gives an int when both operands are ints and it is exact, and
the row product, sum and scale turn an integral Fraction result into an int.
row_echelon is the one elimination, Gauss-Jordan with a column-to-rows index,
and solve the one solving routine.  The pivots are the ones dense
Gauss-Jordan elimination picks, and since the reduced row echelon form is
unique for a fixed column order, so are the results.  Everything here is
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


def row_echelon(rows, n_cols: int):
    """Gauss-Jordan elimination of {column: entry} rows over n_cols columns, in
    place; returns (pivot_cols, free_cols).

    The rows hold no zero entries, and n_cols bounds their column indices.
    Pivot choice is the first row with a nonzero entry in the current column,
    pivot rows are normalized to 1 and come first, in pivot order; the other
    rows end empty.  A column-to-rows index finds the rows to clear.
    """
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


def rank(rows, n_cols: int) -> int:
    """The rank of {column: entry} rows over n_cols columns."""
    return len(row_echelon([dict(row) for row in rows], n_cols)[0])


def kernel_basis(rows, n_cols: int) -> list:
    """ker(rows) as its inclusion: n_cols rows over one column per free
    variable, column k the kernel vector whose k-th free variable is 1 and
    whose other free variables are 0.  The kernel is the dual of the quotient
    by the row space, so the inclusion is quotient_by_rowspace's proj
    transposed."""
    proj, _ = quotient_by_rowspace(rows, n_cols)
    return [dict(col) for col in columns(proj, n_cols)]


def solve(a, b, n_cols: int, b_cols: int):
    """Solve a @ x = b for {column: entry} rows: a over n_cols unknowns, b
    with as many rows over b_cols columns.

    Returns (x, None), x as n_cols rows over b_cols columns with free
    variables set to 0, or (None, certificate) where certificate =
    (row_index, residual_row) exhibits an inconsistent reduced row 0 =
    nonzero; the residual row is dense, the unknowns, then b.  Neither a nor
    b is changed.
    """
    aug = []
    for row, brow in zip(a, b):
        row = dict(row)
        for j, y in brow.items():
            row[n_cols + j] = y
        aug.append(row)
    pivots, _ = row_echelon(aug, n_cols + b_cols)
    # rows whose pivot lives in the b block are inconsistent
    n_piv_in_a = sum(1 for p in pivots if p < n_cols)
    if n_piv_in_a < len(pivots):
        return None, (n_piv_in_a, densify(aug[n_piv_in_a], n_cols + b_cols))
    x = [{} for _ in range(n_cols)]
    for row, pc in zip(aug, pivots):
        x[pc] = {j - n_cols: y for j, y in row.items() if j >= n_cols}
    return x, None


def inverse(rows, n_cols: int) -> list:
    """The inverse of a square matrix of {column: entry} rows, as rows;
    ValueError when it is not square or not invertible."""
    if len(rows) != n_cols:
        raise ValueError("not square")
    x, cert = solve(rows, [{i: ONE} for i in range(n_cols)], n_cols, n_cols)
    if cert is not None:
        raise ValueError("matrix not invertible")
    return x


def quotient_by_rowspace(rows, dim: int):
    """Quotient of Q^dim by the span of {column: entry} rows.

    Returns (proj, sect) as rows: proj (q x dim) maps a vector to coordinates
    in the quotient basis (the non-pivot coordinates), sect (dim x q) picks
    the canonical representative with pivot coordinates eliminated.
    proj @ sect = identity on the quotient.
    """
    work = [dict(row) for row in rows]
    pivots, frees = row_echelon(work, dim)
    # class of e_j: if j free, coordinate j; if j pivot, e_j = -sum over frees
    # of the reduced row entries.
    proj = [{fc: ONE} for fc in frees]
    free_index = {fc: qi for qi, fc in enumerate(frees)}
    for row, pc in zip(work, pivots):
        for fc, x in row.items():
            if fc != pc:
                proj[free_index[fc]][pc] = -x
    sect = [{} for _ in range(dim)]
    for qi, fc in enumerate(frees):
        sect[fc] = {qi: ONE}
    return proj, sect
