"""Bounded non-negatively graded chain complexes over Q, exactly.

Boundaries and maps act on column vectors.  Tensor products follow the Koszul
convention:

    d(x (x) y)      = dx (x) y + (-1)^|x| x (x) dy
    (f (x) g)(x,y)  = (-1)^{|g||x|} f(x) (x) g(y)
    switch(x (x) y) = (-1)^{|x||y|} y (x) x

Multi-factor tensors use one flat basis convention (TensorSpace); every module
builds on it, so multi-factor associativity is the identity on indices.  A
TensorSpace indexes every degree in one walk when it is built and refers to
nothing that refers back to it, so reference counting frees it, and its
factors with it.  Each composition's (offset, row-major strides) pair is
built the first time the composition is indexed and kept on the space;
flat_index, unflatten and factor_permutation_map all read indices through
it.  A one-factor TensorSpace's complex is its factor itself.
assemble_tensor_map fills a tensor of maps block by block, one Kronecker
product of the groups' sub-blocks per pair of target and source
compositions.

A complex's boundary and a map's matrices have one form: per degree, a
list with one {column: entry} dict per row, holding only the nonzero exact
scalars, in the row form of linalg; a degree whose matrix is zero is not
stored.  The constructors take that form and keep the rows they are given,
which are not copied and never changed afterwards; they do not check shapes,
as every matrix read from a file is read and shape-checked in formats.
Composition is linalg.mat_mul on the rows, and homology, classification and
the lift solver hand them to linalg's elimination as they are.  A signed
permutation (an identity, factor_permutation_map, a bimodule action) is an
ordinary map with one entry of 1 or -1 per row, so composing, placing and
tensoring it touch only those entries.

A matrix handed over as dense lists of scalars, rows that are lists rather
than dicts, is still read as the rows of its nonzero entries (_nonzero): the
benchmark's input generators (perfbench/inputs.py) build their complexes and
maps that way.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from propcalc import linalg
from propcalc.linalg import MINUS_ONE, ONE


class ChainError(ValueError):
    pass


def _nonzero(blocks):
    """The per-degree matrices of blocks without the zero ones.  A matrix
    given as dense lists of scalars is read as the rows of its nonzero
    entries, made exact; it is not shape-checked."""
    out = {}
    for n, rows in blocks.items():
        if rows and type(rows[0]) is not dict:
            rows = [{j: x for j, x in enumerate(map(linalg.exact, row)) if x} for row in rows]
        if any(rows):
            out[n] = rows
    return out


class ChainComplex:
    """dims: degree -> dimension (finite support, degrees >= 0); boundary[n]: X_n -> X_{n-1},
    as rows (see the module docstring)."""

    __slots__ = ("dims", "boundary", "_key")

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
        self.boundary = _nonzero(boundary) if boundary else {}
        self._key = None  # value_key's tuple, built on first use
        if check:
            self._check()

    def _check(self):
        if 0 in self.boundary:
            raise ChainError("degree 0 has no outgoing boundary")
        for n in self.boundary:
            if n - 1 in self.boundary:
                if any(linalg.mat_mul(self.boundary[n - 1], self.boundary[n])):
                    raise ChainError("d o d != 0 out of degree %d" % n)

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def value_key(self):
        """A hashable value of the complex, its dims and boundary entries:
        equal for equal complexes.  Built once, as a complex is never changed."""
        if self._key is None:
            self._key = (
                tuple(sorted(self.dims.items())),
                tuple(
                    (n, tuple(tuple(sorted(row.items())) for row in rows))
                    for n, rows in sorted(self.boundary.items())
                ),
            )
        return self._key

    def d(self, n: int):
        """Boundary X_n -> X_{n-1} as rows, empty rows when absent."""
        if n in self.boundary:
            return self.boundary[n]
        return [{} for _ in range(self.dim(n - 1))]

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
        return self.dims == other.dims and self.boundary == other.boundary

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
    return ChainComplex({0: 1, 1: 1}, {1: [{0: ONE}]})


def sum_offsets(complexes):
    """Per-degree first index of each summand inside the direct sum of the complexes."""
    offsets = []
    acc = {}
    for x in complexes:
        offsets.append(dict(acc))
        for n in x.degrees():
            acc[n] = acc.get(n, 0) + x.dim(n)
    return offsets


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
    # block diagonal: the rows of each summand in turn, columns shifted
    bnd = {
        n: [
            {off.get(n, 0) + j: v for j, v in row.items()}
            for x, off in zip(complexes, offsets)
            for row in x.d(n)
        ]
        for n in dims
        if n - 1 in dims
    }
    return ChainComplex(dims, bnd)


class ChainMap:
    """Degree-k map of complexes; rows[j]: X_j -> Y_{j+k}, as rows (see the
    module docstring), only for the degrees where it is nonzero.

    Degree-0 maps are validated to commute with the differentials when
    check=True; nonzero-degree data is not checked (it is hom-complex data,
    not necessarily a cycle there).
    """

    __slots__ = ("source", "target", "degree", "rows")

    def __init__(self, source, target, mats, degree=0, check=True):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.rows = _nonzero(mats)
        if check and self.degree == 0:
            self._check_chain()

    def _check_chain(self):
        for j in self.source.degrees():
            if j and self.target.dim(j - 1):
                lhs = linalg.mat_mul(self.target.d(j), self.block(j))
                rhs = linalg.mat_mul(self.block(j - 1), self.source.d(j))
                if lhs != rhs:
                    raise ChainError("not a chain map in degree %d" % j)

    def block(self, j: int):
        """The degree-j rows, empty rows when the block is zero."""
        if j in self.rows:
            return self.rows[j]
        return [{} for _ in range(self.target.dim(j + self.degree))]

    @classmethod
    def identity(cls, x: ChainComplex) -> "ChainMap":
        rows = {n: [{i: ONE} for i in range(d)] for n, d in x.dims.items()}
        return cls(x, x, rows, check=False)

    @classmethod
    def zero(cls, source, target, degree=0) -> "ChainMap":
        return cls(source, target, {}, degree, check=False)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other; composition of homs carries no Koszul sign."""
        if self.source.dims != other.target.dims:
            raise ChainError("composition shape mismatch")
        mats = {}
        for j, b in other.rows.items():
            a = self.rows.get(j + other.degree)
            if a is not None:
                mats[j] = linalg.mat_mul(a, b)
        degree = self.degree + other.degree
        return ChainMap(other.source, self.target, mats, degree, check=False)

    def add(self, other: "ChainMap") -> "ChainMap":
        if self.degree != other.degree:
            raise ChainError("degree mismatch")
        mats = dict(self.rows)
        for j, b in other.rows.items():
            mats[j] = linalg.mat_add(mats[j], b) if j in mats else b
        return ChainMap(self.source, self.target, mats, self.degree, check=False)

    def scale(self, c) -> "ChainMap":
        mats = {j: linalg.mat_scale(c, m) for j, m in self.rows.items()}
        return ChainMap(self.source, self.target, mats, self.degree, check=False)

    def sub(self, other: "ChainMap") -> "ChainMap":
        return self.add(other.scale(MINUS_ONE))

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.rows == other.rows
            and all(self.source.dim(j) == other.source.dim(j) for j in self.rows)
        )

    def __repr__(self):
        return "ChainMap(degree=%d, degrees=%s)" % (self.degree, sorted(self.rows))


def place_blocks(source: ChainComplex, target: ChainComplex, blocks) -> ChainMap:
    """Degree-0 map source -> target assembled from blocks (f, row_offsets, col_offsets).

    In degree n the matrix of f sits at rows row_offsets[n] and columns
    col_offsets[n] (offsets as from sum_offsets; a missing degree starts at
    0).  No two blocks may hold an entry at the same place, though their
    rows or columns may overlap; they are read once, so a generator keeps
    only one block alive at a time.
    """
    mats = {}
    for f, row_offsets, col_offsets in blocks:
        for n, block in f.rows.items():
            out = mats.get(n)
            if out is None:
                out = mats[n] = [None] * target.dim(n)
            r0, c0 = row_offsets.get(n, 0), col_offsets.get(n, 0)
            for i, row in enumerate(block, r0):
                if not row:
                    continue
                if c0:
                    shifted = {}
                    for j, x in row.items():
                        shifted[c0 + j] = x
                    row = shifted
                # a block's row is shared, never updated in place
                out[i] = row if out[i] is None else {**out[i], **row}
    mats = {n: [{} if row is None else row for row in rows] for n, rows in mats.items()}
    return ChainMap(source, target, mats, check=False)


def boundary_of_map(f: ChainMap) -> ChainMap:
    """Hom-complex differential D(f) = d o f - (-1)^{|f|} f o d."""
    k = f.degree
    mats = {}
    for j in f.source.degrees():
        if f.target.dim(j + k - 1):
            left = linalg.mat_mul(f.target.d(j + k), f.block(j))
            right = linalg.mat_mul(f.block(j - 1), f.source.d(j))
            mats[j] = linalg.mat_add(left, right if k % 2 else linalg.mat_scale(MINUS_ONE, right))
    return ChainMap(f.source, f.target, mats, k - 1, check=False)


# ---------------------------------------------------------------------------
# tensor products


class TensorSpace:
    """Flat tensor product of several complexes with one global basis convention.

    Degree-n basis: for each composition (n_1..n_k) of n with nonzero blocks
    (tuple-lex ascending), all index tuples (i_1..i_k) row-major.  The whole
    index is built in one walk at construction: the product of the factors'
    ascending degrees yields the compositions in tuple-lex order, and
    grouping them by total degree gives each degree's block offsets and
    dimension.  A composition's (offset, row-major strides) pair is built on
    first use (strides) and kept: flat_index, unflatten and
    factor_permutation_map read every index through it, and a space that is
    never indexed builds none.  A one-factor space has its factor's basis,
    so its complex is the factor itself, not a copy.  A product of several
    factors builds its complex once, as boundary rows, and checks d o d = 0
    on them.  A space holds no reference to itself, so reference counting
    frees it.
    """

    __slots__ = ("factors", "complex", "_offsets", "_positions", "_strides")

    def __init__(self, factors):
        self.factors = list(factors)
        self._offsets = {}  # degree -> {composition: offset of its block}, in basis order
        self._positions = {}
        self._strides = {}  # composition -> (offset, row-major strides), on first use
        dims = {}
        for comp in itertools.product(*[f.degrees() for f in self.factors]):
            n = sum(comp)
            blocks = self._offsets.setdefault(n, {})
            blocks[comp] = dims.get(n, 0)
            dims[n] = blocks[comp] + self.block_dim(comp)
        self.complex = self.factors[0] if len(self.factors) == 1 else self._build(dict(sorted(dims.items())))

    def offsets(self, n: int):
        """{composition: offset of its block} of degree n, in basis order."""
        return self._offsets.get(n, {})

    def block_dim(self, comp) -> int:
        d = 1
        for f, n in zip(self.factors, comp):
            d *= f.dim(n)
        return d

    def strides(self, comp: tuple):
        """(offset, strides) of the block of composition comp: the flat index
        of (i_1..i_k) is offset + sum of stride_m * i_m.  KeyError for a
        composition the space lacks."""
        pair = self._strides.get(comp)
        if pair is None:
            offset = self._offsets[sum(comp)][comp]
            steps = [1] * len(comp)
            for m in range(len(comp) - 1, 0, -1):
                steps[m - 1] = steps[m] * self.factors[m].dim(comp[m])
            pair = self._strides[comp] = (offset, tuple(steps))
        return pair

    def flat_index(self, comp, idxs) -> int:
        offset, steps = self.strides(tuple(comp))
        return offset + sum(map(operator.mul, steps, idxs))

    def positions(self, n: int):
        """(composition, index inside its block) of every degree-n basis vector."""
        if n not in self._positions:
            self._positions[n] = [(c, i) for c in self.offsets(n) for i in range(self.block_dim(c))]
        return self._positions[n]

    def unflatten(self, n: int, flat: int):
        positions = self.positions(n)
        if not 0 <= flat < len(positions):
            raise IndexError("flat index %d out of range in degree %d" % (flat, n))
        c, rem = positions[flat]
        idxs = []
        for step in self.strides(c)[1]:
            i, rem = divmod(rem, step)
            idxs.append(i)
        return c, tuple(idxs)

    def basis(self, n: int):
        out = []
        for c in self.offsets(n):
            ranges = [range(f.dim(v)) for f, v in zip(self.factors, c)]
            for idxs in itertools.product(*ranges):
                out.append((c, idxs))
        return out

    def _build(self, dims) -> ChainComplex:
        """The complex of a product of several factors, with the given dims."""
        if not dims:
            return ZERO_COMPLEX
        # per factor and degree: the nonzero (row, entry) pairs of each boundary column
        columns = [
            {v: linalg.columns(d, f.dim(v)) for v, d in f.boundary.items()} for f in self.factors
        ]
        if not any(columns):
            return ChainComplex(dims)
        bnd = {}
        for n in dims:
            if n - 1 not in dims:
                continue
            rows = [{} for _ in range(dims[n - 1])]
            tgt_off = self._offsets[n - 1]
            for comp, c0 in self._offsets[n].items():
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
                    r0 = tgt_off[lower]
                    for i, entries in enumerate(columns[slot][v]):
                        for t, val in entries:
                            x = -val if odd else val
                            for p in range(outer):
                                col = c0 + (p * n_src + i) * inner
                                row = r0 + (p * n_tgt + t) * inner
                                for s in range(inner):
                                    rows[row + s][col + s] = x
            bnd[n] = rows
        # the constructor checks d o d = 0 through linalg.mat_mul
        return ChainComplex(dims, bnd)


def tensor(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    return TensorSpace([x, y]).complex


def shared_space(spaces: dict, factors) -> TensorSpace:
    """The TensorSpace of the factors, kept in `spaces`, a table its caller
    owns and keys by the factors' values (ChainComplex.value_key): factors
    equal in dims and boundary entries share one space, with its offset and
    position caches, whether or not they are the same objects."""
    key = tuple(f.value_key() for f in factors)
    space = spaces.get(key)
    if space is None:
        space = spaces[key] = TensorSpace(factors)
    return space


def _block_entries(gsrc: TensorSpace, gtgt: TensorSpace, f: ChainMap):
    """f cut into the blocks of the two spaces' compositions.

    Source composition -> [(target composition, its block dimension, the
    nonzero (row, column, entry) of the block, indices local to the block)].
    """
    out = {}
    for deg, m in f.rows.items():
        cols = gsrc.positions(deg)
        by_source = {}
        for row, (q, r) in zip(m, gtgt.positions(deg + f.degree)):
            for c, x in row.items():
                p, i = cols[c]
                by_target = by_source.get(p)
                if by_target is None:
                    by_source[p] = {q: [(r, i, x)]}
                elif q in by_target:
                    by_target[q].append((r, i, x))
                else:
                    by_target[q] = [(r, i, x)]
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
    strides are the groups' block dimensions.
    """
    widths_src = [len(g[0].factors) for g in groups]
    widths_tgt = [len(g[1].factors) for g in groups]
    if sum(widths_src) != len(src_space.factors) or sum(widths_tgt) != len(tgt_space.factors):
        raise ChainError("group widths do not cover the tensor factors")
    total_deg = sum(g[2].degree for g in groups)
    blocks = [_block_entries(gsrc, gtgt, f) for gsrc, gtgt, f in groups]
    odd = [f.degree % 2 for _, _, f in groups]
    mats = {}
    for n in src_space.complex.degrees():
        rows = tgt_space.complex.dim(n + total_deg)
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
                    big = [{} for _ in range(rows)]
                r0 = tgt_off[tcomp]
                for r, c, x in entries:
                    big[r0 + r][c0 + c] = -x if negative else x
        if big is not None:
            mats[n] = big
    return ChainMap(src_space.complex, tgt_space.complex, mats, total_deg, check=False)


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
    Permutation on 1..k.  Each row of the result holds one entry, 1 or -1.
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
    mats = {}
    for n, dim in src_space.complex.dims.items():
        rows = [None] * dim
        col = 0
        for comp in src_space.offsets(n):
            tcomp = [0] * k
            for i in range(k):
                tcomp[images[i]] = comp[i]
            # factor i's index steps by the row-major stride of its target slot
            offset, steps = tgt_space.strides(tuple(tcomp))
            flat = [offset]
            for i in range(k):
                step = steps[images[i]]
                flat = [a + x * step for a in flat for x in range(factors[i].dim(comp[i]))]
            odd = [images[i] for i in range(k) if comp[i] % 2]
            inversions = sum(1 for a, s in enumerate(odd) for t in odd[a + 1 :] if s > t)
            sign = MINUS_ONE if inversions % 2 else ONE
            for t in flat:
                rows[t] = {col: sign}
                col += 1
        mats[n] = rows
    return ChainMap(src_space.complex, tgt_space.complex, mats, check=False)


# ---------------------------------------------------------------------------
# homology and map classification


def cycle_space_basis(x: ChainComplex, n: int):
    """The cycles Z_n as their inclusion into X_n: X_n rows over one column per
    basis cycle (see linalg.kernel_basis)."""
    return linalg.kernel_basis(x.d(n), x.dim(n))


def homology_dims(x: ChainComplex):
    """Exact Betti numbers per degree via rank-nullity."""
    ranks = {n: linalg.rank(rows, x.dim(n)) for n, rows in x.boundary.items()}
    out = {}
    for n in x.degrees():
        h = x.dim(n) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        if h:
            out[n] = h
    return out


def induced_homology_iso(f: ChainMap) -> bool:
    """True iff the degree-0 chain map f induces isomorphisms on all homology.

    That holds exactly when the Betti numbers agree and in each degree n the
    classes of f(Z_n) in Y_n / B_n span H_n(Y): proj . f . Z_n has rank h_n,
    with proj the quotient of Y_n by the boundaries.
    """
    if f.degree != 0:
        raise ChainError("homology comparison needs a degree-0 map")
    betti = homology_dims(f.source)
    if betti != homology_dims(f.target):
        return False
    for n, h in betti.items():
        # the boundaries B_n are the columns of d_{n+1}
        columns = linalg.columns(f.target.d(n + 1), f.target.dim(n + 1))
        proj, _ = linalg.quotient_by_rowspace([dict(col) for col in columns], f.target.dim(n))
        images = linalg.mat_mul(proj, linalg.mat_mul(f.block(n), cycle_space_basis(f.source, n)))
        # the cycles, the columns of images, number at most dim X_n
        if linalg.rank(images, f.source.dim(n)) != h:
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
        r = linalg.rank(f.block(n), f.source.dim(n))
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
    double).  s(a) = (a, a, 0); d0, d1 are the projections.  On P_0, a = b + dz,
    so (b, z) are its coordinates: P_0 = X_0 + X_1, d1 reads b and d0 reads
    b + dz.

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

    dims = {0: x.dim(0) + x.dim(1)}
    boundary = {}
    # P_n is zero unless X_n or X_{n+1} is not, so only those degrees are built
    for n in sorted({n for m in x.dims for n in (m - 1, m) if n >= 1}):
        dims[n] = 2 * x.dim(n) + x.dim(n + 1)
        # (a, b, z) -> (da, db, a - b - dz), of which P_0 keeps (db, a - b - dz)
        dim, d = x.dim(n), x.d(n)
        rows = [] if n == 1 else list(d)
        rows += [{dim + j: v for j, v in row.items()} for row in d]
        for i, row in enumerate(x.d(n + 1)):
            third = {i: ONE, dim + i: MINUS_ONE}
            third.update((2 * dim + j, -v) for j, v in row.items())
            rows.append(third)
        boundary[n] = rows
    p = ChainComplex(dims, boundary)

    s_mats, d0_mats, d1_mats = {}, {}, {}
    for n, dim in x.dims.items():
        ident = [{i: ONE} for i in range(dim)]
        b = 0 if n == 0 else dim  # where the b block starts
        s_mats[n] = ([] if n == 0 else ident) + ident + [{} for _ in range(x.dim(n + 1))]
        d1_mats[n] = [{b + i: ONE} for i in range(dim)]
        if n:
            d0_mats[n] = ident
        else:
            d0_mats[0] = [{i: ONE, **{dim + j: v for j, v in row.items()}} for i, row in enumerate(x.d(1))]
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
    entered in the already-instantiated per-degree form through add_equation,
    every matrix as rows (see the module docstring).
    """

    def __init__(self, source: ChainComplex, target: ChainComplex, degree: int):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.equations = []  # (terms, rhs_rows, rows, cols); terms = (coeff, L, j, R)

    def var_blocks(self):
        """Degrees j carrying unknown entries, with shapes."""
        out = []
        for j in self.source.degrees():
            rows = self.target.dim(j + self.degree)
            cols = self.source.dim(j)
            if rows and cols:
                out.append((j, rows, cols))
        return out

    def add_equation(self, terms, rhs, cols):
        """terms: list of (coeff, L, j, R); equation sum coeff * L @ phi_j @ R = rhs.

        L, R and rhs are rows, L or R None for an identity; L has as many
        columns as phi_j has rows, R as many rows as phi_j has columns, and
        R and rhs have cols columns.
        """
        if len(rhs) and cols:
            self.equations.append((terms, rhs, len(rhs), cols))

    def solve(self) -> ChainMap:
        """The map phi, with its free variables set to 0 for determinism;
        raises Unsolvable with an inconsistency certificate when none exists."""
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
            # cancel is dropped, as solve takes no zero entries
            sparse_terms = []
            for coeff, L, j, R in terms:
                if j not in offsets:
                    continue
                base, vr, vc = offsets[j]
                if L is None:
                    l_rows = [[(a, ONE)] if a < vr else [] for a in range(er)]
                else:
                    l_rows = [list(row.items()) for row in L]
                if R is None:
                    r_cols = [[(b, ONE)] if b < vc else [] for b in range(ec)]
                else:
                    r_cols = linalg.columns(R, ec)
                sparse_terms.append((coeff, base, vc, l_rows, r_cols))
            for a in range(er):
                rhs_row = rhs[a]
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
                    if row or b in rhs_row:
                        rows.append(row)
                        rhs_col.append({0: rhs_row[b]} if b in rhs_row else {})
        if not rows:
            return ChainMap.zero(self.source, self.target, self.degree)
        x, cert = linalg.solve(rows, rhs_col, nvars, 1)
        if x is None:
            raise Unsolvable("constraint system inconsistent", certificate=cert)
        mats = {}
        for j, (base, r, c) in offsets.items():
            mats[j] = [
                {q: v[0] for q, v in enumerate(x[base + p * c : base + (p + 1) * c]) if v}
                for p in range(r)
            ]
        return ChainMap(self.source, self.target, mats, self.degree, check=False)


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
        inv_mats = {j: linalg.inverse(src_g.block(j), d) for j, d in src_g.source.dims.items()}
        inv = ChainMap(src_g.source, src_g.source, inv_mats, check=False)
        term = tgt_g.compose(f).compose(inv)
        total = term if total is None else total.add(term)
    return total.scale(Fraction(1, n))
