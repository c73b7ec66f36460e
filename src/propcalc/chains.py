"""Bounded non-negatively graded chain complexes over Q, exactly.

Boundary matrices are Fraction matrices acting on column vectors.  Tensor
products follow the Koszul convention:

    d(x (x) y)      = dx (x) y + (-1)^|x| x (x) dy
    (f (x) g)(x,y)  = (-1)^{|g||x|} f(x) (x) g(y)
    switch(x (x) y) = (-1)^{|x||y|} y (x) x

Multi-factor tensors use one flat basis convention (TensorSpace); every module
builds on it, so multi-factor associativity is the identity on indices.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from propcalc import linalg
from propcalc.linalg import ZERO, ONE


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
                mat = [[Fraction(x) for x in row] for row in mat]
                rows = len(mat)
                cols = len(mat[0]) if mat else 0
                expected = (self.dims.get(n - 1, 0), self.dims.get(n, 0))
                if 0 in expected:
                    if any(x != 0 for row in mat for x in row):
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
        for j, x in enumerate(block_row):
            if x != 0:
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
    """

    __slots__ = ("source", "target", "degree", "mats")

    def __init__(self, source, target, mats, degree=0, check=True):
        self.source = source
        self.target = target
        self.degree = int(degree)
        clean = {}
        for j, m in dict(mats).items():
            j = int(j)
            m = [[Fraction(x) for x in row] for row in m]
            expected = (target.dim(j + self.degree), source.dim(j))
            if 0 in expected:
                if any(x != 0 for row in m for x in row):
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
        return cls(x, x, {n: linalg.identity(x.dim(n)) for n in x.dims}, check=False)

    @classmethod
    def zero(cls, source, target, degree=0) -> "ChainMap":
        return cls(source, target, {}, degree, check=False)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other; composition of homs carries no Koszul sign."""
        if self.source.dims != other.target.dims:
            raise ChainError("composition shape mismatch")
        mats = {}
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

    def is_zero(self) -> bool:
        return all(linalg.is_zero(m) for m in self.mats.values())

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.degree != other.degree:
            return False
        for j in set(self.mats) | set(other.mats):
            if not linalg.mat_eq(self.mat(j), other.mat(j)):
                return False
        return True

    def __repr__(self):
        return "ChainMap(degree=%d, degrees=%s)" % (self.degree, sorted(self.mats))


def place_blocks(source: ChainComplex, target: ChainComplex, blocks) -> ChainMap:
    """Degree-0 map source -> target assembled from blocks (f, row_offsets, col_offsets).

    In degree n the matrix of f sits at rows row_offsets[n] and columns
    col_offsets[n] (offsets as from sum_offsets; a missing degree starts at
    0).  The blocks must not overlap; they are read once, so a generator
    keeps only one block alive at a time.
    """
    mats = {}
    for f, rows, cols in blocks:
        for n, m in f.mats.items():
            if n not in mats:
                mats[n] = linalg.zeros(target.dim(n), source.dim(n))
            _place(mats[n], rows.get(n, 0), cols.get(n, 0), m)
    return ChainMap(source, target, mats, check=False)


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
    (tuple-lex ascending), all index tuples (i_1..i_k) row-major.
    """

    __slots__ = ("factors", "complex", "_comp_cache", "_off_cache")

    def __init__(self, factors):
        self.factors = list(factors)
        self._comp_cache = {}
        self._off_cache = {}
        self.complex = self._build()

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
        bnd = {}
        for n in range(1, top + 1):
            if not dims.get(n) or not dims.get(n - 1):
                continue
            m = linalg.zeros(dims[n - 1], dims[n])
            for comp in self.compositions(n):
                for slot, factor in enumerate(self.factors):
                    if comp[slot] == 0 or factor.dim(comp[slot] - 1) == 0:
                        continue
                    lower = list(comp)
                    lower[slot] -= 1
                    lower = tuple(lower)
                    sign = ONE if sum(comp[:slot]) % 2 == 0 else -ONE
                    dmat = factor.d(comp[slot])
                    ranges = [range(f.dim(v)) for f, v in zip(self.factors, comp)]
                    for idxs in itertools.product(*ranges):
                        col = self.flat_index(comp, idxs)
                        i_src = idxs[slot]
                        for i_tgt in range(factor.dim(comp[slot] - 1)):
                            val = dmat[i_tgt][i_src]
                            if val == 0:
                                continue
                            tidx = list(idxs)
                            tidx[slot] = i_tgt
                            m[self.flat_index(lower, tuple(tidx))][col] += sign * val
            if not linalg.is_zero(m):
                bnd[n] = m
        return ChainComplex(dims, bnd)


def tensor(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    return TensorSpace([x, y]).complex


def assemble_tensor_map(src_space: TensorSpace, tgt_space: TensorSpace, groups) -> ChainMap:
    """Tensor of maps acting on grouped runs of factors, with Koszul signs.

    groups: list of (gsrc, gtgt, f) where gsrc/gtgt are TensorSpaces over
    consecutive runs of src_space/tgt_space factors (in order, covering all
    factors) and f: gsrc.complex -> gtgt.complex is a ChainMap.  On a basis
    vector whose i-th group carries total degree n_i the assembled map gets
    the sign (-1)^{sum_{i<j} |f_j| n_i}.
    """
    widths_src = [len(g[0].factors) for g in groups]
    widths_tgt = [len(g[1].factors) for g in groups]
    if sum(widths_src) != len(src_space.factors) or sum(widths_tgt) != len(tgt_space.factors):
        raise ChainError("group widths do not cover the tensor factors")
    total_deg = sum(g[2].degree for g in groups)
    mats = {}
    for n in src_space.complex.degrees():
        rows = tgt_space.dim(n + total_deg)
        cols = src_space.dim(n)
        if rows == 0 or cols == 0:
            continue
        big = linalg.zeros(rows, cols)
        for comp, idxs in src_space.basis(n):
            col = src_space.flat_index(comp, idxs)
            # cut into groups
            pieces = []
            pos = 0
            for w in widths_src:
                pieces.append((comp[pos : pos + w], idxs[pos : pos + w]))
                pos += w
            sign = 1
            for j, (gsrc, gtgt, f) in enumerate(groups):
                if f.degree % 2:
                    before = sum(sum(pieces[i][0]) for i in range(j))
                    if before % 2:
                        sign = -sign
            terms = [(tuple(), tuple(), Fraction(sign))]
            for (sub_comp, sub_idx), (gsrc, gtgt, f) in zip(pieces, groups):
                sub_deg = sum(sub_comp)
                fmat = f.mat(sub_deg)
                if not fmat or not fmat[0]:
                    terms = []
                    break
                src_flat = gsrc.flat_index(sub_comp, sub_idx)
                col_entries = [
                    (r, fmat[r][src_flat]) for r in range(len(fmat)) if fmat[r][src_flat] != 0
                ]
                if not col_entries:
                    terms = []
                    break
                tdeg = sub_deg + f.degree
                nxt = []
                for r, val in col_entries:
                    tcomp, tidx = gtgt.unflatten(tdeg, r)
                    for acc_comp, acc_idx, coeff in terms:
                        nxt.append((acc_comp + tcomp, acc_idx + tidx, coeff * val))
                terms = nxt
            for acc_comp, acc_idx, coeff in terms:
                big[tgt_space.flat_index(acc_comp, acc_idx)][col] += coeff
        if not linalg.is_zero(big):
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
    Permutation on 1..k.
    """
    k = len(factors)
    if src_space is None:
        src_space = TensorSpace(list(factors))
    permuted = [None] * k
    for i in range(k):
        permuted[perm(i + 1) - 1] = factors[i]
    if tgt_space is None:
        tgt_space = TensorSpace(permuted)
    mats = {}
    for n in src_space.complex.degrees():
        if src_space.dim(n) == 0:
            continue
        big = linalg.zeros(tgt_space.dim(n), src_space.dim(n))
        for comp, idxs in src_space.basis(n):
            col = src_space.flat_index(comp, idxs)
            tcomp = [0] * k
            tidx = [0] * k
            for i in range(k):
                tcomp[perm(i + 1) - 1] = comp[i]
                tidx[perm(i + 1) - 1] = idxs[i]
            sign = 1
            for i in range(k):
                for j in range(i + 1, k):
                    if perm(i + 1) > perm(j + 1) and comp[i] % 2 and comp[j] % 2:
                        sign = -sign
            big[tgt_space.flat_index(tuple(tcomp), tuple(tidx))][col] = Fraction(sign)
        mats[n] = big
    return ChainMap(src_space.complex, tgt_space.complex, mats, 0, check=False)


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
            offsets[j] = nvars
            nvars += r * c
        rows = []
        rhs_col = []
        for terms, rhs, er, ec in self.equations:
            for a in range(er):
                for b in range(ec):
                    row = [ZERO] * nvars
                    nonzero = False
                    for coeff, L, j, R in terms:
                        if j not in offsets:
                            continue
                        _, vr, vc = next(bl for bl in blocks if bl[0] == j)
                        base = offsets[j]
                        for p in range(vr):
                            lv = L[a][p] if L is not None else (ONE if a == p else ZERO)
                            if lv == 0:
                                continue
                            for qcol in range(vc):
                                rv = R[qcol][b] if R is not None else (ONE if qcol == b else ZERO)
                                if rv == 0:
                                    continue
                                row[base + p * vc + qcol] += coeff * lv * rv
                                nonzero = True
                    rowrhs = rhs[a][b]
                    if nonzero or rowrhs != 0:
                        rows.append(row)
                        rhs_col.append([rowrhs])
        if not rows:
            return ChainMap(self.source, self.target, {}, self.degree, check=False)
        x, cert = linalg.solve(rows, rhs_col)
        if x is None:
            raise Unsolvable("constraint system inconsistent", certificate=cert)
        mats = {}
        for j, r, c in blocks:
            base = offsets[j]
            mats[j] = [[x[base + p * c + qcol][0] for qcol in range(c)] for p in range(r)]
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
