"""Bounded non-negatively graded chain complexes over Q, exactly.

Boundary matrices are exact matrices (see linalg) acting on column vectors.  Tensor
products follow the Koszul convention:

    d(x (x) y)      = dx (x) y + (-1)^|x| x (x) dy
    (f (x) g)(x,y)  = (-1)^{|g||x|} f(x) (x) g(y)
    switch(x (x) y) = (-1)^{|x||y|} y (x) x

Multi-factor tensors use one flat basis convention (TensorSpace); every module
builds on it, so multi-factor associativity is the identity on indices.  A
one-factor TensorSpace's complex is its factor itself.  assemble_tensor_map
fills a tensor of maps block by block, one Kronecker product of the groups'
sub-blocks per pair of target and source compositions.

A ChainMap is stored in one of two kinds.  A general map keeps one dense
matrix per degree.  A degree-0 signed permutation keeps, per degree, the
target index and the sign of each source basis vector; identity,
factor_permutation_map, and compose, place_blocks and assemble_tensor_map
on such records make records by index arithmetic, and the dense matrices are
built only when .mats is read.  Nothing tests a dense map for the signed
form except signed_permutation_form, which only the bimodule loader calls.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from propcalc import linalg
from propcalc.linalg import MINUS_ONE, ONE, ZERO


class ChainError(ValueError):
    pass


class ChainComplex:
    """dims: degree -> dimension (finite support, degrees >= 0); boundary[n]: X_n -> X_{n-1}."""

    __slots__ = ("dims", "boundary")

    def __init__(self, dims, boundary=None, check=True):
        clean = {}
        for n, d in dict(dims).items():
            n = int(n)
            d = int(d)
            if n < 0:
                raise ChainError("negative degree %d not allowed" % n)
            if d < 0:
                raise ChainError("negative dimension in degree %d" % n)
            if d:
                clean[n] = d
        self.dims = clean
        bnd = {}
        if boundary:
            for n, mat in dict(boundary).items():
                n = int(n)
                mat = linalg.exact_rows(mat)
                rows = len(mat)
                cols = len(mat[0]) if mat else 0
                expected = (self.dims.get(n - 1, 0), self.dims.get(n, 0))
                if 0 in expected:
                    if not linalg.is_zero(mat):
                        raise ChainError("nonzero boundary on a zero space in degree %d" % n)
                    continue
                if (rows, cols) != expected:
                    raise ChainError(
                        "boundary in degree %d has shape %r, expected %r"
                        % (n, (rows, cols), expected)
                    )
                if not linalg.is_zero(mat):
                    bnd[n] = mat
        self.boundary = bnd
        if check:
            self._check()

    def _check(self):
        if 0 in self.boundary:
            raise ChainError("degree 0 has no outgoing boundary")
        for n in self.boundary:
            if n - 1 in self.boundary:
                comp = linalg.mat_mul(self.boundary[n - 1], self.boundary[n])
                if not linalg.is_zero(comp):
                    raise ChainError("d o d != 0 out of degree %d" % n)

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def d(self, n: int):
        """Boundary X_n -> X_{n-1}, zero matrix when absent."""
        if n in self.boundary:
            return self.boundary[n]
        return linalg.zeros(self.dim(n - 1), self.dim(n))

    @property
    def top_degree(self) -> int:
        return max(self.dims, default=-1)

    def degrees(self):
        return sorted(self.dims)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return not self.dims

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        if self.dims != other.dims:
            return False
        return all(linalg.mat_eq(self.d(n), other.d(n)) for n in self.dims if n >= 1)

    def __repr__(self):
        top = self.top_degree
        if top < 0:
            return "ChainComplex(0)"
        return "ChainComplex(%s)" % ([self.dim(n) for n in range(top + 1)],)


ZERO_COMPLEX = ChainComplex({})


def base_field_complex() -> ChainComplex:
    """Q concentrated in degree 0."""
    return ChainComplex({0: 1})


def disc_complex() -> ChainComplex:
    """Acyclic disc: Q --id--> Q in degrees 1, 0."""
    return ChainComplex({0: 1, 1: 1}, {1: [[ONE]]})


def sum_offsets(complexes):
    """Per-degree first index of each summand inside the direct sum of the complexes."""
    offsets = []
    acc = {}
    for x in complexes:
        offsets.append(dict(acc))
        for n in x.degrees():
            acc[n] = acc.get(n, 0) + x.dim(n)
    return offsets


def _place(m, r0: int, c0: int, block):
    """Write the nonzero entries of block into m with its corner at (r0, c0)."""
    for i, block_row in enumerate(block):
        row = m[r0 + i]
        for j, x in linalg.nonzeros(block_row):
            row[c0 + j] = x


def direct_sum(*complexes) -> ChainComplex:
    """Direct sum, summands in order; sum_offsets gives where each one starts.

    The sum of one complex is that complex itself, not a copy.
    """
    if len(complexes) == 1:
        return complexes[0]
    offsets = sum_offsets(complexes)
    dims = {}
    for x in complexes:
        for n in x.degrees():
            dims[n] = dims.get(n, 0) + x.dim(n)
    bnd = {}
    for x, off in zip(complexes, offsets):
        for n, d in x.boundary.items():
            if n not in bnd:
                bnd[n] = linalg.zeros(dims[n - 1], dims[n])
            _place(bnd[n], off.get(n - 1, 0), off.get(n, 0), d)
    return ChainComplex(dims, bnd)


class ChainMap:
    """Degree-k map of complexes; mats[j]: X_j -> Y_{j+k}.

    Degree-0 maps are validated to commute with the differentials when
    check=True; nonzero-degree data is shape-checked only (it is hom-complex
    data, not necessarily a cycle there).

    perm is None for a general map.  For a signed permutation (built by
    signed_permutation) it maps each degree of the source to (targets, negs):
    source basis vector i goes to target basis vector targets[i], negated
    when negs[i]; mats is then built on first reading.
    """

    __slots__ = ("source", "target", "degree", "perm", "mats")

    def __init__(self, source, target, mats, degree=0, check=True):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.perm = None
        clean = {}
        for j, m in dict(mats).items():
            j = int(j)
            m = linalg.exact_rows(m)
            expected = (target.dim(j + self.degree), source.dim(j))
            if 0 in expected:
                if not linalg.is_zero(m):
                    raise ChainError("nonzero matrix on a zero space in degree %d" % j)
                continue
            rows = len(m)
            cols = len(m[0]) if m else 0
            if (rows, cols) != expected:
                raise ChainError(
                    "map in degree %d has shape %r, expected %r" % (j, (rows, cols), expected)
                )
            if not linalg.is_zero(m):
                clean[j] = m
        self.mats = clean
        if check and self.degree == 0:
            self._check_chain()

    @classmethod
    def signed_permutation(cls, source, target, perm) -> "ChainMap":
        """The degree-0 map of the record perm (see the class docstring), with
        an entry for every degree of source; source and target have equal dims."""
        f = object.__new__(cls)
        f.source = source
        f.target = target
        f.degree = 0
        f.perm = perm
        return f

    def __getattr__(self, name):
        # reached only for an unset slot: the mats of a signed permutation,
        # built on first reading
        if name != "mats" or self.perm is None:
            raise AttributeError(name)
        self.mats = _signed_mats(self.source, self.target, self.perm)
        return self.mats

    def _check_chain(self):
        for j in self.source.degrees():
            if j == 0:
                continue
            rows = self.target.dim(j - 1)
            cols = self.source.dim(j)
            if rows == 0 or cols == 0:
                continue
            lhs = linalg.zeros(rows, cols)
            if self.target.dim(j):
                lhs = linalg.mat_mul(self.target.d(j), self.mat(j))
            rhs = linalg.zeros(rows, cols)
            if self.source.dim(j - 1):
                rhs = linalg.mat_mul(self.mat(j - 1), self.source.d(j))
            if not linalg.mat_eq(lhs, rhs):
                raise ChainError("not a chain map in degree %d" % j)

    def mat(self, j: int):
        if j in self.mats:
            return self.mats[j]
        return linalg.zeros(self.target.dim(j + self.degree), self.source.dim(j))

    @classmethod
    def identity(cls, x: ChainComplex) -> "ChainMap":
        perm = {n: (list(range(d)), [False] * d) for n, d in x.dims.items()}
        return cls.signed_permutation(x, x, perm)

    @classmethod
    def zero(cls, source, target, degree=0) -> "ChainMap":
        return cls(source, target, {}, degree, check=False)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other; composition of homs carries no Koszul sign.  A signed
        permutation on either side moves rows or columns instead of multiplying."""
        if self.source.dims != other.target.dims:
            raise ChainError("composition shape mismatch")
        a_perm, b_perm = self.perm, other.perm
        if a_perm is not None and b_perm is not None:
            perm = {}
            for n, (ts, negs) in b_perm.items():
                a_ts, a_negs = a_perm[n]
                perm[n] = ([a_ts[t] for t in ts], [a_negs[t] != neg for t, neg in zip(ts, negs)])
            return ChainMap.signed_permutation(other.source, self.target, perm)
        mats = {}
        if a_perm is not None:
            # row i of other's matrix becomes row targets[i]
            for j, b in other.mats.items():
                ts, negs = a_perm[j + other.degree]
                out = [None] * len(b)
                for row, t, neg in zip(b, ts, negs):
                    out[t] = [x if x is ZERO else -x for x in row] if neg else row
                mats[j] = out
        elif b_perm is not None:
            # column targets[i] of self's matrix becomes column i
            for j, (ts, negs) in b_perm.items():
                a = self.mats.get(j)
                if a is not None:
                    mats[j] = [
                        [row[t] if not neg or row[t] is ZERO else -row[t] for t, neg in zip(ts, negs)]
                        for row in a
                    ]
        else:
            for j in other.source.degrees():
                a = self.mat(j + other.degree)
                b = other.mat(j)
                if a and b and a[0] and b[0]:
                    mats[j] = linalg.mat_mul(a, b)
        return ChainMap(other.source, self.target, mats, self.degree + other.degree, check=False)

    def add(self, other: "ChainMap") -> "ChainMap":
        if self.degree != other.degree:
            raise ChainError("degree mismatch")
        mats = {}
        for j in set(self.mats) | set(other.mats):
            mats[j] = linalg.mat_add(self.mat(j), other.mat(j))
        return ChainMap(self.source, self.target, mats, self.degree, check=False)

    def scale(self, c) -> "ChainMap":
        return ChainMap(
            self.source,
            self.target,
            {j: linalg.mat_scale(c, m) for j, m in self.mats.items()},
            self.degree,
            check=False,
        )

    def sub(self, other: "ChainMap") -> "ChainMap":
        return self.add(other.scale(-1))

    def columns(self, j: int):
        """The nonzero (row, entry) pairs of each column of the degree-j matrix."""
        if self.perm is None:
            return _columns(self.mat(j))
        return [[(t, MINUS_ONE if neg else ONE)] for t, neg in zip(*self.perm[j])]

    def is_zero(self) -> bool:
        return all(linalg.is_zero(m) for m in self.mats.values())

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.perm is not None and other.perm is not None:
            return self.perm == other.perm
        if self.degree != other.degree:
            return False
        for j in set(self.mats) | set(other.mats):
            if not linalg.mat_eq(self.mat(j), other.mat(j)):
                return False
        return True

    def __repr__(self):
        return "ChainMap(degree=%d, degrees=%s)" % (self.degree, sorted(self.mats))


def signed_permutation_form(f: ChainMap) -> ChainMap:
    """f as a signed-permutation record when it is one, else f itself.

    It is one when it has degree 0, source and target have equal dims, and
    in every degree each row and each column holds exactly one nonzero entry,
    which is 1 or -1.
    """
    if f.degree or f.source.dims != f.target.dims or len(f.mats) != len(f.source.dims):
        return f
    perm = {}
    for n, m in f.mats.items():
        targets = [None] * len(m)
        negs = [False] * len(m)
        for r, row in enumerate(m):
            entries = linalg.nonzeros(row)
            if len(entries) != 1:
                return f
            c, x = entries[0]
            if targets[c] is not None or (x != ONE and x != MINUS_ONE):
                return f
            targets[c] = r
            negs[c] = x < 0
        perm[n] = (targets, negs)
    return ChainMap.signed_permutation(f.source, f.target, perm)


def place_blocks(source: ChainComplex, target: ChainComplex, blocks) -> ChainMap:
    """Degree-0 map source -> target assembled from blocks (f, row_offsets, col_offsets).

    In degree n the matrix of f sits at rows row_offsets[n] and columns
    col_offsets[n] (offsets as from sum_offsets; a missing degree starts at
    0).  The blocks must not overlap; they are read once, so a generator
    keeps only one block alive at a time.  Signed-permutation blocks that
    cover every column make a signed permutation.
    """
    mats = {}
    # the record of the signed-permutation blocks
    perm = {n: ([None] * d, [False] * d) for n, d in source.dims.items()}
    signed = source.dims == target.dims
    for f, rows, cols in blocks:
        if f.perm is None:
            signed = False
            for n, m in f.mats.items():
                if n not in mats:
                    mats[n] = linalg.zeros(target.dim(n), source.dim(n))
                _place(mats[n], rows.get(n, 0), cols.get(n, 0), m)
            continue
        for n, (ts, negs) in f.perm.items():
            r0, c0 = rows.get(n, 0), cols.get(n, 0)
            targets, signs = perm[n]
            targets[c0 : c0 + len(ts)] = [r0 + t for t in ts]
            signs[c0 : c0 + len(ts)] = negs
    if signed and all(None not in targets for targets, _ in perm.values()):
        return ChainMap.signed_permutation(source, target, perm)
    for n, m in _signed_mats(source, target, perm).items():
        if n not in mats:
            mats[n] = m
        else:
            _place(mats[n], 0, 0, m)
    return ChainMap(source, target, mats, check=False)


def _signed_mats(source, target, perm):
    """The dense matrices of a signed-permutation record; a target of None
    marks a zero column."""
    mats = {}
    for n, (targets, negs) in perm.items():
        if any(t is not None for t in targets):
            m = linalg.zeros(target.dim(n), source.dim(n))
            for i, (t, neg) in enumerate(zip(targets, negs)):
                if t is not None:
                    m[t][i] = MINUS_ONE if neg else ONE
            mats[n] = m
    return mats


def boundary_of_map(f: ChainMap) -> ChainMap:
    """Hom-complex differential D(f) = d o f - (-1)^{|f|} f o d."""
    k = f.degree
    sign = -ONE if k % 2 else ONE
    mats = {}
    for j in f.source.degrees():
        rows = f.target.dim(j + k - 1)
        cols = f.source.dim(j)
        if rows == 0 or cols == 0:
            continue
        left = linalg.zeros(rows, cols)
        if f.target.dim(j + k):
            left = linalg.mat_mul(f.target.d(j + k), f.mat(j))
        right = linalg.zeros(rows, cols)
        if f.source.dim(j - 1):
            right = linalg.mat_mul(f.mat(j - 1), f.source.d(j))
        mats[j] = linalg.mat_sub(left, linalg.mat_scale(sign, right))
    return ChainMap(f.source, f.target, mats, k - 1, check=False)


# ---------------------------------------------------------------------------
# tensor products


class TensorSpace:
    """Flat tensor product of several complexes with one global basis convention.

    Degree-n basis: for each composition (n_1..n_k) of n with nonzero blocks
    (tuple-lex ascending), all index tuples (i_1..i_k) row-major.  A
    one-factor space has its factor's basis, so its complex is the factor
    itself, not a copy.  A product of several factors builds its complex once,
    as sparse boundary rows, and checks d o d = 0 on them.
    """

    __slots__ = ("factors", "complex", "_comp_cache", "_off_cache")

    def __init__(self, factors):
        self.factors = list(factors)
        self._comp_cache = {}
        self._off_cache = {}
        self.complex = self.factors[0] if len(self.factors) == 1 else self._build()

    def compositions(self, n: int):
        if n in self._comp_cache:
            return self._comp_cache[n]
        out = []

        def rec(i, remaining, acc):
            if i == len(self.factors):
                if remaining == 0:
                    out.append(tuple(acc))
                return
            top = self.factors[i].top_degree
            for v in range(0, min(remaining, top) + 1):
                if self.factors[i].dim(v) == 0:
                    continue
                acc.append(v)
                rec(i + 1, remaining - v, acc)
                acc.pop()

        if n >= 0 and not any(f.is_zero() for f in self.factors):
            rec(0, n, [])
        out.sort()
        self._comp_cache[n] = out
        return out

    def block_dim(self, comp) -> int:
        d = 1
        for f, n in zip(self.factors, comp):
            d *= f.dim(n)
        return d

    def dim(self, n: int) -> int:
        return sum(self.block_dim(c) for c in self.compositions(n))

    def offsets(self, n: int):
        if n in self._off_cache:
            return self._off_cache[n]
        off = {}
        pos = 0
        for c in self.compositions(n):
            off[c] = pos
            pos += self.block_dim(c)
        self._off_cache[n] = off
        return off

    def flat_index(self, comp, idxs) -> int:
        comp = tuple(comp)
        off = self.offsets(sum(comp))[comp]
        pos = 0
        for f, n, i in zip(self.factors, comp, idxs):
            pos = pos * f.dim(n) + i
        return off + pos

    def unflatten(self, n: int, flat: int):
        off_map = self.offsets(n)
        for c in self.compositions(n):
            b = self.block_dim(c)
            off = off_map[c]
            if off <= flat < off + b:
                rem = flat - off
                idxs = []
                for f, v in zip(reversed(self.factors), reversed(c)):
                    idxs.append(rem % f.dim(v))
                    rem //= f.dim(v)
                return c, tuple(reversed(idxs))
        raise IndexError("flat index %d out of range in degree %d" % (flat, n))

    def basis(self, n: int):
        out = []
        for c in self.compositions(n):
            ranges = [range(f.dim(v)) for f, v in zip(self.factors, c)]
            for idxs in itertools.product(*ranges):
                out.append((c, idxs))
        return out

    def _build(self) -> ChainComplex:
        if any(f.is_zero() for f in self.factors):
            return ChainComplex({})
        top = sum(f.top_degree for f in self.factors)
        dims = {}
        for n in range(top + 1):
            d = self.dim(n)
            if d:
                dims[n] = d
        if top == 0:
            return ChainComplex(dims)
        # per factor and degree: the nonzero (row, entry) pairs of each boundary column
        columns = [{v: _columns(d) for v, d in f.boundary.items()} for f in self.factors]
        if not any(columns):
            return ChainComplex(dims)
        # degree -> {row: {column: entry}}, nonzero entries only
        bnd = {}
        for n in range(1, top + 1):
            if not dims.get(n) or not dims.get(n - 1):
                continue
            rows = {}
            src_off = self.offsets(n)
            tgt_off = self.offsets(n - 1)
            for comp in self.compositions(n):
                sizes = [f.dim(v) for f, v in zip(self.factors, comp)]
                for slot, factor in enumerate(self.factors):
                    v = comp[slot]
                    if v not in columns[slot]:
                        continue
                    lower = comp[:slot] + (v - 1,) + comp[slot + 1 :]
                    odd = sum(comp[:slot]) % 2
                    # the block is 1_outer (x) d_v (x) 1_inner
                    outer = math.prod(sizes[:slot])
                    inner = math.prod(sizes[slot + 1 :])
                    n_src = sizes[slot]
                    n_tgt = factor.dim(v - 1)
                    c0 = src_off[comp]
                    r0 = tgt_off[lower]
                    for i, entries in enumerate(columns[slot][v]):
                        for t, val in entries:
                            x = -val if odd else val
                            for p in range(outer):
                                col = c0 + (p * n_src + i) * inner
                                row = r0 + (p * n_tgt + t) * inner
                                for s in range(inner):
                                    if row + s in rows:
                                        rows[row + s][col + s] = x
                                    else:
                                        rows[row + s] = {col + s: x}
            if rows:
                bnd[n] = rows
        for n in bnd:
            if n - 1 in bnd and not _sparse_product_is_zero(bnd[n - 1], bnd[n]):
                raise ChainError("d o d != 0 out of degree %d" % n)
        # fresh rows of exact scalars, no zero block: no copy or rescan in __init__
        out = object.__new__(ChainComplex)
        out.dims = dims
        out.boundary = {
            n: [linalg.densify(rows.get(r, {}), dims[n]) for r in range(dims[n - 1])]
            for n, rows in bnd.items()
        }
        return out


def _sparse_product_is_zero(a, b) -> bool:
    """Is a @ b zero, for matrices given as {row: {column: entry}}?"""
    for row in a.values():
        acc = {}
        for k, x in row.items():
            for j, y in b.get(k, {}).items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        if any(acc.values()):
            return False
    return True


def _columns(m):
    """The nonzero (row, entry) pairs of each column of m."""
    cols = [[] for _ in range(len(m[0]) if m else 0)]
    for r, row in enumerate(m):
        for j, x in linalg.nonzeros(row):
            cols[j].append((r, x))
    return cols


def tensor(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    return TensorSpace([x, y]).complex


def _block_entries(gsrc: TensorSpace, gtgt: TensorSpace, f: ChainMap):
    """f cut into the blocks of the two spaces' compositions.

    Source composition -> [(target composition, its block dimension, the
    nonzero (row, column, entry) of the block, indices local to the block)].
    """
    out = {}
    for deg, m in f.mats.items():
        cols = [(p, i) for p in gsrc.compositions(deg) for i in range(gsrc.block_dim(p))]
        by_source = {}
        for q, r0 in gtgt.offsets(deg + f.degree).items():
            for r in range(r0, r0 + gtgt.block_dim(q)):
                for c, x in linalg.nonzeros(m[r]):
                    p, i = cols[c]
                    by_target = by_source.setdefault(p, {})
                    if q in by_target:
                        by_target[q].append((r - r0, i, x))
                    else:
                        by_target[q] = [(r - r0, i, x)]
        for p, by_target in by_source.items():
            out[p] = [(q, gtgt.block_dim(q), entries) for q, entries in by_target.items()]
    return out


def assemble_tensor_map(src_space: TensorSpace, tgt_space: TensorSpace, groups) -> ChainMap:
    """Tensor of maps acting on grouped runs of factors, with Koszul signs.

    groups: list of (gsrc, gtgt, f) where gsrc/gtgt are TensorSpaces over
    consecutive runs of src_space/tgt_space factors (in order, covering all
    factors) and f: gsrc.complex -> gtgt.complex is a ChainMap.  On a basis
    vector whose i-th group carries total degree n_i the assembled map gets
    the sign (-1)^{sum_{i<j} |f_j| n_i}.

    The map is filled block by block: the block at a (target composition,
    source composition) pair is the signed Kronecker product of the groups'
    nonzero sub-blocks, row-major with the first group outermost, so the
    strides are the groups' block dimensions.  When every group is one factor
    carrying a signed permutation, so is the result, built by index arithmetic.
    """
    widths_src = [len(g[0].factors) for g in groups]
    widths_tgt = [len(g[1].factors) for g in groups]
    if sum(widths_src) != len(src_space.factors) or sum(widths_tgt) != len(tgt_space.factors):
        raise ChainError("group widths do not cover the tensor factors")
    if all(w == 1 for w in widths_src + widths_tgt) and all(g[2].perm is not None for g in groups):
        return _assemble_signed(src_space, tgt_space, [f.perm for _, _, f in groups])
    total_deg = sum(g[2].degree for g in groups)
    blocks = [_block_entries(gsrc, gtgt, f) for gsrc, gtgt, f in groups]
    odd = [f.degree % 2 for _, _, f in groups]
    mats = {}
    for n in src_space.complex.degrees():
        rows = tgt_space.dim(n + total_deg)
        if rows == 0:
            continue
        tgt_off = tgt_space.offsets(n + total_deg)
        big = None
        for comp, c0 in src_space.offsets(n).items():
            # the Kronecker product of the groups' sub-blocks, one group at a time
            terms = None
            negative = False
            before = 0
            pos = 0
            for g, width in enumerate(widths_src):
                piece = comp[pos : pos + width]
                pos += width
                sub = blocks[g].get(piece)
                if not sub:
                    terms = []
                    break
                if odd[g] and before % 2:
                    negative = not negative
                before += sum(piece)
                if terms is None:
                    terms = [(q, entries) for q, _, entries in sub]
                    continue
                stride = groups[g][0].block_dim(piece)
                terms = [
                    (
                        acc_comp + q,
                        [
                            (r * q_dim + sr, c * stride + sc, x * sx)
                            for r, c, x in acc
                            for sr, sc, sx in entries
                        ],
                    )
                    for acc_comp, acc in terms
                    for q, q_dim, entries in sub
                ]
            if terms is None:
                # no groups: the identity of the ground field
                terms = [((), [(0, 0, ONE)])]
            for tcomp, entries in terms:
                if big is None:
                    big = linalg.zeros(rows, src_space.dim(n))
                r0 = tgt_off[tcomp]
                for r, c, x in entries:
                    big[r0 + r][c0 + c] = -x if negative else x
        if big is not None:
            mats[n] = big
    return ChainMap(src_space.complex, tgt_space.complex, mats, total_deg, check=False)


def _assemble_signed(src_space: TensorSpace, tgt_space: TensorSpace, perms) -> ChainMap:
    """The tensor of one signed permutation per factor: degree 0, so no Koszul
    sign, and each composition block maps onto the same composition's block."""
    perm = {}
    for n in src_space.complex.degrees():
        tgt_off = tgt_space.offsets(n)
        targets = []
        negs = []
        for comp in src_space.compositions(n):
            ts, signs = [0], [False]
            for factor_perm, v in zip(perms, comp):
                f_ts, f_negs = factor_perm[v]
                size = len(f_ts)
                ts = [t * size + u for t in ts for u in f_ts]
                signs = [x != y for x in signs for y in f_negs]
            off = tgt_off[comp]
            targets += [off + t for t in ts]
            negs += signs
        perm[n] = (targets, negs)
    return ChainMap.signed_permutation(src_space.complex, tgt_space.complex, perm)


def tensor_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """f (x) g with the Koszul sign (-1)^{|g| |x|}."""
    src = TensorSpace([f.source, g.source])
    tgt = TensorSpace([f.target, g.target])
    gs1, gt1 = TensorSpace([f.source]), TensorSpace([f.target])
    gs2, gt2 = TensorSpace([g.source]), TensorSpace([g.target])
    return assemble_tensor_map(src, tgt, [(gs1, gt1, f), (gs2, gt2, g)])


def factor_permutation_map(factors, perm, src_space=None, tgt_space=None) -> ChainMap:
    """Signed permutation of tensor factors: slot i moves to slot perm(i).

    Sign: Koszul, (-1) for every inversion of odd-degree letters.  perm is a
    Permutation on 1..k.  The result is a signed-permutation record.
    """
    k = len(factors)
    images = [perm(i + 1) - 1 for i in range(k)]
    if src_space is None:
        src_space = TensorSpace(list(factors))
    if tgt_space is None:
        permuted = [None] * k
        for i in range(k):
            permuted[images[i]] = factors[i]
        tgt_space = TensorSpace(permuted)
    record = {}
    for n in src_space.complex.degrees():
        tgt_off = tgt_space.offsets(n)
        targets = []
        negs = []
        for comp in src_space.compositions(n):
            tcomp = [0] * k
            sizes = [0] * k
            for i in range(k):
                tcomp[images[i]] = comp[i]
                sizes[images[i]] = factors[i].dim(comp[i])
            # factor i's index steps by the row-major stride of its target slot
            flat = [tgt_off[tuple(tcomp)]]
            for i in range(k):
                step = math.prod(sizes[images[i] + 1 :])
                flat = [a + x * step for a in flat for x in range(sizes[images[i]])]
            odd = [images[i] for i in range(k) if comp[i] % 2]
            inversions = sum(1 for a, s in enumerate(odd) for t in odd[a + 1 :] if s > t)
            targets += flat
            negs += [inversions % 2 == 1] * len(flat)
        record[n] = (targets, negs)
    return ChainMap.signed_permutation(src_space.complex, tgt_space.complex, record)


# ---------------------------------------------------------------------------
# homology and map classification


def cycle_space_basis(x: ChainComplex, n: int):
    if x.dim(n) == 0:
        return []
    if n == 0 or x.dim(n - 1) == 0:
        return [[ONE if i == j else ZERO for i in range(x.dim(n))] for j in range(x.dim(n))]
    return linalg.kernel_basis(x.d(n))


def homology_dims(x: ChainComplex):
    """Exact Betti numbers per degree via rank-nullity."""
    out = {}
    for n in x.degrees():
        dn_rank = linalg.rank(x.d(n)) if n >= 1 and x.dim(n - 1) else 0
        dnp_rank = linalg.rank(x.d(n + 1)) if x.dim(n + 1) else 0
        h = x.dim(n) - dn_rank - dnp_rank
        if h:
            out[n] = h
    return out


def _homology_data(x: ChainComplex, n: int):
    """(cycle basis columns, image relation rows) for H_n."""
    cycles = cycle_space_basis(x, n)
    img_rows = []
    if x.dim(n + 1):
        d = x.d(n + 1)
        for j in range(x.dim(n + 1)):
            img_rows.append([d[i][j] for i in range(x.dim(n))])
    return cycles, img_rows


def induced_homology_iso(f: ChainMap) -> bool:
    """True iff the degree-0 chain map f induces isomorphisms on all homology."""
    if f.degree != 0:
        raise ChainError("homology comparison needs a degree-0 map")
    degrees = set(f.source.dims) | set(f.target.dims)
    for n in sorted(degrees):
        cyc_s, img_s = _homology_data(f.source, n)
        cyc_t, img_t = _homology_data(f.target, n)
        proj_t, _ = linalg.quotient_by_rowspace(
            [list(r) for r in img_t], f.target.dim(n)
        )
        # matrix of H_n(f): columns = classes of f(cycle basis), rows = quotient coords
        h_s = f.source.dim(n) - linalg.rank(f.source.d(n)) - (
            linalg.rank(f.source.d(n + 1)) if f.source.dim(n + 1) else 0
        ) if f.source.dim(n) else 0
        h_t = f.target.dim(n) - linalg.rank(f.target.d(n)) - (
            linalg.rank(f.target.d(n + 1)) if f.target.dim(n + 1) else 0
        ) if f.target.dim(n) else 0
        if h_s != h_t:
            return False
        if h_s == 0:
            continue
        cols = []
        fm = f.mat(n)
        for v in cyc_s:
            fv = linalg.mat_vec(fm, v)
            cols.append(linalg.mat_vec(proj_t, fv))
        # quotient coords of source cycles modulo source boundaries: build the
        # matrix of H(f) on a homology basis of the source
        proj_s, _ = linalg.quotient_by_rowspace(
            [list(r) for r in img_s], f.source.dim(n)
        )
        src_classes = [linalg.mat_vec(proj_s, v) for v in cyc_s]
        # pick a basis of the source homology among the cycle classes
        span = []
        chosen = []
        for i, cls in enumerate(src_classes):
            test = span + [cls]
            m = [list(r) for r in test]
            if linalg.rank(m) > len(span):
                span.append(cls)
                chosen.append(i)
        hf = [[cols[i][r] for i in chosen] for r in range(len(cols[0]) if cols else 0)]
        if linalg.rank(hf) != h_s:
            return False
    return True


def classify_map(f: ChainMap):
    """Model-structure flags for a degree-0 chain map.

    fibration: surjective in degrees > 0; cofibration: injective everywhere;
    acyclic fibration: quasi-iso and surjective in every degree (including 0);
    acyclic cofibration: quasi-iso and injective.
    """
    if f.degree != 0:
        raise ChainError("classify_map needs a degree-0 chain map")
    degrees = sorted(set(f.source.dims) | set(f.target.dims))
    surj_pos = True
    surj_all = True
    inj = True
    for n in degrees:
        m = f.mat(n)
        r = linalg.rank(m)
        if r < f.target.dim(n):
            surj_all = False
            if n > 0:
                surj_pos = False
        if r < f.source.dim(n):
            inj = False
    qiso = induced_homology_iso(f)
    return {
        "quasiIso": qiso,
        "fibration": surj_pos,
        "cofibration": inj,
        "acyclicFibration": qiso and surj_all,
        "acyclicCofibration": qiso and inj,
    }


# ---------------------------------------------------------------------------
# path object


def path_object(x: ChainComplex):
    """Path object P with X --s--> P --(d0,d1)--> X x X.

    P_n = X_n + X_n + X_{n+1} for n >= 1 with d(a, b, z) = (da, db, a - b - dz),
    and P_0 is the subspace of X_0 + X_0 + X_1 cut out by a - b - dz = 0 (the
    degree-0 correction that keeps s a quasi-isomorphism; without it H_0 would
    double).  s(a) = (a, a, 0); d0, d1 are the projections.

    Contract: d0 o s = d1 o s = id; s is a degreewise-injective
    quasi-isomorphism (acyclic cofibration); (d0, d1) is surjective in every
    positive degree (fibration).  Full degree-0 surjectivity is unattainable:
    boundaries of P must die under both projections, so the degree-0 image of
    (d0, d1) has rank at most dim H_0(X) + rank(d1) < 2 dim X_0 in general.
    """
    if x.is_zero():
        z = ZERO_COMPLEX
        zid = ChainMap.zero(z, z)
        return z, zid, zid, zid

    def full_dim(n):
        return 2 * x.dim(n) + x.dim(n + 1)

    # degree-0 subspace: kernel of [I, -I, -d_1] inside X_0 + X_0 + X_1
    n0, n1 = x.dim(0), x.dim(1)
    if n0 == 0:
        kernel_cols = [
            [ONE if i == j else ZERO for i in range(full_dim(0))] for j in range(full_dim(0))
        ]
    else:
        cut = linalg.zeros(n0, full_dim(0))
        for i in range(n0):
            cut[i][i] = ONE
            cut[i][n0 + i] = -ONE
        d1x = x.d(1)
        for i in range(n0):
            for j in range(n1):
                cut[i][2 * n0 + j] = -d1x[i][j]
        kernel_cols = linalg.kernel_basis(cut)  # vectors in the full degree-0 space
    k0 = len(kernel_cols)
    # embed: (k0 -> full), coords: solve embed @ c = v
    embed0 = [[kernel_cols[j][i] for j in range(k0)] for i in range(full_dim(0))]

    def coords0(vec):
        sol, cert = linalg.solve(embed0, [[v] for v in vec])
        if sol is None:
            raise ChainError("vector not in the degree-0 path subspace")
        return [row[0] for row in sol]

    dims = {}
    if k0:
        dims[0] = k0
    top = x.top_degree
    for n in range(1, top + 1):
        d = full_dim(n)
        if d:
            dims[n] = d

    def full_boundary(n, a, b, z):
        """(a, b, z) in degree n >= 1 -> full coordinates of the boundary."""
        da = linalg.mat_vec(x.d(n), a) if x.dim(n - 1) else []
        db = linalg.mat_vec(x.d(n), b) if x.dim(n - 1) else []
        dz = linalg.mat_vec(x.d(n + 1), z) if x.dim(n + 1) and x.dim(n) else [ZERO] * x.dim(n)
        third = [ai - bi - dzi for ai, bi, dzi in zip(a, b, dz)] if x.dim(n) else []
        return da + db + third

    boundary = {}
    for n in range(1, top + 2):
        if not dims.get(n) or not dims.get(n - 1):
            continue
        cols = []
        for j in range(full_dim(n)):
            a = [ONE if j == i else ZERO for i in range(x.dim(n))]
            b = [ONE if j == x.dim(n) + i else ZERO for i in range(x.dim(n))]
            z = [ONE if j == 2 * x.dim(n) + i else ZERO for i in range(x.dim(n + 1))]
            vec = full_boundary(n, a, b, z)
            cols.append(coords0(vec) if n == 1 else vec)
        boundary[n] = [[cols[j][i] for j in range(len(cols))] for i in range(dims[n - 1])]
    p = ChainComplex(dims, boundary)

    s_mats = {}
    d0_mats = {}
    d1_mats = {}
    for n in x.degrees():
        dim_x = x.dim(n)
        if n == 0:
            s_cols = [coords0([ONE if i == j else ZERO for i in range(n0)] +
                              [ONE if i == j else ZERO for i in range(n0)] +
                              [ZERO] * n1) for j in range(n0)]
            s_mats[0] = [[s_cols[j][i] for j in range(n0)] for i in range(k0)]
            d0_mats[0] = [[embed0[i][j] for j in range(k0)] for i in range(n0)]
            d1_mats[0] = [[embed0[n0 + i][j] for j in range(k0)] for i in range(n0)]
        else:
            dim_p = dims.get(n, 0)
            s_m = linalg.zeros(dim_p, dim_x)
            d0_m = linalg.zeros(dim_x, dim_p)
            d1_m = linalg.zeros(dim_x, dim_p)
            for i in range(dim_x):
                s_m[i][i] = ONE
                s_m[dim_x + i][i] = ONE
                d0_m[i][i] = ONE
                d1_m[i][dim_x + i] = ONE
            s_mats[n] = s_m
            d0_mats[n] = d0_m
            d1_mats[n] = d1_m
    s = ChainMap(x, p, s_mats)
    d0 = ChainMap(p, x, d0_mats)
    d1 = ChainMap(p, x, d1_mats)
    return p, s, d0, d1


# ---------------------------------------------------------------------------
# constrained lifting solver


class Unsolvable(Exception):
    """Inconsistent linear system; carries a certificate row (0 = nonzero)."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class LiftProblem:
    """Affine constraints on one unknown degree-k map phi: A -> B.

    Each constraint is sum_t coeff_t * L_t o phi_{j + shift_t} o R_t = RHS, one
    equation block per degree j of a declared probe complex.  Constraints are
    entered in the already-instantiated per-degree matrix form through
    add_equation.
    """

    def __init__(self, source: ChainComplex, target: ChainComplex, degree: int):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.equations = []  # (terms, rhs_matrix, rows, cols); terms = (coeff, L, j, R)

    def var_blocks(self):
        """Degrees j carrying unknown entries, with shapes."""
        out = []
        for j in self.source.degrees():
            rows = self.target.dim(j + self.degree)
            cols = self.source.dim(j)
            if rows and cols:
                out.append((j, rows, cols))
        return out

    def add_equation(self, terms, rhs):
        """terms: list of (coeff, L, j, R); equation sum coeff * L @ phi_j @ R = rhs."""
        rows = len(rhs)
        cols = len(rhs[0]) if rhs else 0
        if rows == 0 or cols == 0:
            return
        self.equations.append((terms, rhs, rows, cols))

    def solve(self) -> ChainMap:
        blocks = self.var_blocks()
        offsets = {}
        nvars = 0
        for j, r, c in blocks:
            offsets[j] = (nvars, r, c)
            nvars += r * c
        rows = []
        rhs_col = []
        for terms, rhs, er, ec in self.equations:
            # per term: the nonzero (p, L[a][p]) of each row a of L and (q, R[q][b])
            # of each column b of R; None stands for an identity, whose entries
            # are the shared ONE, which is never multiplied; an entry whose terms
            # cancel is dropped, as solve_rows takes no zero entries
            sparse_terms = []
            for coeff, L, j, R in terms:
                if j not in offsets:
                    continue
                base, vr, vc = offsets[j]
                if L is None:
                    l_rows = [[(a, ONE)] if a < vr else [] for a in range(er)]
                else:
                    l_rows = [linalg.nonzeros(L[a][:vr]) for a in range(er)]
                if R is None:
                    r_cols = [[(b, ONE)] if b < vc else [] for b in range(ec)]
                else:
                    r_cols = _columns([row[:ec] for row in R[:vc]])
                sparse_terms.append((coeff, base, vc, l_rows, r_cols))
            for a in range(er):
                for b in range(ec):
                    row = {}
                    for coeff, base, vc, l_rows, r_cols in sparse_terms:
                        for p, lv in l_rows[a]:
                            c_lv = lv if coeff is ONE else coeff if lv is ONE else coeff * lv
                            for qcol, rv in r_cols[b]:
                                y = c_lv if rv is ONE else rv if c_lv is ONE else c_lv * rv
                                k = base + p * vc + qcol
                                if k in row:
                                    y += row.pop(k)
                                if y:
                                    row[k] = y
                    rowrhs = rhs[a][b]
                    if row or rowrhs:
                        rows.append(row)
                        rhs_col.append([rowrhs])
        if not rows:
            return ChainMap(self.source, self.target, {}, self.degree, check=False)
        x, cert = linalg.solve_rows(rows, rhs_col, nvars)
        if x is None:
            raise Unsolvable("constraint system inconsistent", certificate=cert)
        x = [entry for entry, in x]
        mats = {}
        for j, (base, r, c) in offsets.items():
            mats[j] = [x[base + p * c : base + (p + 1) * c] for p in range(r)]
        return ChainMap(self.source, self.target, mats, self.degree, check=False)


def solve_constrained_lift(source, target, degree, equations) -> ChainMap:
    """Solve for an unknown degree-`degree` map subject to affine constraints.

    equations: list of (terms, rhs) as in LiftProblem.add_equation.  Raises
    Unsolvable with an inconsistency certificate when no solution exists; free
    variables are set to 0 for determinism.
    """
    prob = LiftProblem(source, target, degree)
    for terms, rhs in equations:
        prob.add_equation(terms, rhs)
    return prob.solve()


def equivariant_average(f: ChainMap, group_action_pairs) -> ChainMap:
    """(1/|G|) sum_g  rho_target(g) o f o rho_source(g)^-1.

    group_action_pairs: list of (src_map, tgt_map) ChainMaps for every group
    element (the identity included).  The output commutes with the action and
    is f itself when f was already equivariant.
    """
    n = len(group_action_pairs)
    if n == 0:
        raise ChainError("empty group")
    total = None
    for src_g, tgt_g in group_action_pairs:
        inv_mats = {}
        for j in src_g.source.degrees():
            m = src_g.mat(j)
            if m and m[0]:
                inv_mats[j] = linalg.inverse(m)
        inv = ChainMap(src_g.source, src_g.source, inv_mats, check=False)
        term = tgt_g.compose(f).compose(inv)
        total = term if total is None else total.add(term)
    return total.scale(Fraction(1, n))
