"""Shared random generators for the test suites (seeded, deterministic)."""

import itertools
import math
import random
from fractions import Fraction

from propcalc import linalg
from propcalc.bimodules import (
    InducedLayout,
    _moved_placement,
    _twists,
    box_dot_many,
    merge_keys,
    placements,
)
from propcalc.chains import ZERO_COMPLEX, ChainError, TensorSpace, place_blocks
from propcalc.graphs import (
    Generator,
    GraphError,
    PropGraph,
    Signature,
    _is_acyclic,
    _leg_assignments,
    _wirings,
)
from propcalc.linalg import ONE, ZERO
from propcalc.exprs import (
    GenExpr,
    HCompExpr,
    LeftActExpr,
    RightActExpr,
    VCompExpr,
)
from propcalc.operads import OperadElement, compose_elements
from propcalc.profiles import (
    OrbitKey,
    Palette,
    Permutation,
    Profile,
    apply_permutation,
    canonicalize_profile,
    stabilizer_elements,
    stabilizer_generators,
    stabilizer_order,
    word_in_block_transpositions,
)

F = Fraction


# -- dense matrices: fixtures are written dense and read back dense -----------


def matrix_rows(m):
    """The {column: entry} rows of a dense matrix, its entries made exact."""
    return [{j: x for j, x in enumerate(map(linalg.exact, row)) if x} for row in m]


def rows_of(mats):
    """Dense matrices by degree as the rows ChainComplex and ChainMap take."""
    return {n: matrix_rows(m) for n, m in mats.items()}


def dense(rows, n_cols):
    """The dense matrix of {column: entry} rows over n_cols columns."""
    return [linalg.densify(row, n_cols) for row in rows]


def dense_mat(f, j):
    """The degree-j matrix of a map, dense."""
    return dense(f.block(j), f.source.dim(j))


def dense_mats(f):
    """The dense matrix of every degree where a map is nonzero."""
    return {j: dense(rows, f.source.dim(j)) for j, rows in f.rows.items()}


def dense_d(x, n):
    """The boundary X_n -> X_{n-1} of a complex, dense."""
    return dense(x.d(n), x.dim(n))


def exact_scalar(x) -> bool:
    """The scalar contract: an int when x is integral, a Fraction when it is
    not, and never a bool or a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def assert_checked(sigma):
    """sigma is what the validating constructor builds from its images: a
    permutation of 1..n, stored as a tuple of ints."""
    assert type(sigma.images) is tuple and all(type(x) is int for x in sigma.images), sigma
    assert sigma == Permutation(list(sigma.images))


def young_keys(rng, palette, count, max_length=6, max_block=4):
    """count seeded orbit keys of length up to max_length whose colour blocks
    have at most max_block entries."""
    keys = []
    while len(keys) < count:
        colors = [rng.choice(palette.colors) for _ in range(rng.randint(1, max_length))]
        key, _ = canonicalize_profile(Profile(palette, colors))
        if max(key.block_sizes) <= max_block:
            keys.append(key)
    return keys


def orbit_object_count(key: OrbitKey) -> int:
    """Number of distinct profiles in the orbit: n! / prod(block sizes!)."""
    return math.factorial(key.length) // stabilizer_order(key)


def random_signature(rng, max_colors=3, max_generators=4, max_arity=3, with_unaries=True):
    """Random signature; always includes a unary generator per color so that
    expressions with any prescribed output profile exist."""
    n_colors = rng.randint(1, max_colors)
    palette = Palette(["c%d" % i for i in range(n_colors)])
    gens = []
    if with_unaries:
        for c in palette.colors:
            gens.append(
                Generator("u_%s" % c, Profile(palette, [c]), Profile(palette, [c]), 0)
            )
    n_extra = rng.randint(1, max_generators)
    for k in range(n_extra):
        n_out = rng.randint(1, 2)
        n_in = rng.randint(1, max_arity)
        out_p = Profile(palette, [rng.choice(palette.colors) for _ in range(n_out)])
        in_p = Profile(palette, [rng.choice(palette.colors) for _ in range(n_in)])
        gens.append(Generator("g%d" % k, out_p, in_p, 0))
    return Signature(palette, gens)


def unary_chain(sig, profile):
    """(x)_i u_{c_i}: expression with out = in = profile."""
    expr = None
    for c in profile.entries:
        g = GenExpr(sig, "u_%s" % c)
        expr = g if expr is None else HCompExpr(expr, g)
    return expr


def random_permutation(rng, n):
    imgs = list(range(1, n + 1))
    rng.shuffle(imgs)
    return Permutation(imgs)


def random_expression_with_out(sig, rng, out_profile, depth=2):
    """Random expression with the given output profile (depth-bounded)."""
    candidates = [
        name
        for name, g in sig.generators.items()
        if g.out_profile == out_profile
    ]
    if candidates and rng.random() < 0.5:
        expr = GenExpr(sig, rng.choice(candidates))
    else:
        expr = unary_chain(sig, out_profile)
    while depth > 0 and rng.random() < 0.6:
        depth -= 1
        lower = random_expression_with_out(sig, rng, expr.in_profile, depth)
        expr = VCompExpr(expr, lower)
    if rng.random() < 0.4:
        tau = random_permutation(rng, len(expr.in_profile))
        expr = RightActExpr(expr, tau)
    return expr


def random_expression(sig, rng, depth=2):
    names = sorted(sig.generators)
    expr = GenExpr(sig, rng.choice(names))
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.35:
            other = GenExpr(sig, rng.choice(names))
            expr = HCompExpr(expr, other) if rng.random() < 0.5 else HCompExpr(other, expr)
        elif roll < 0.7:
            lower = random_expression_with_out(sig, rng, expr.in_profile, 1)
            expr = VCompExpr(expr, lower)
        elif roll < 0.85:
            expr = LeftActExpr(random_permutation(rng, len(expr.out_profile)), expr)
        else:
            expr = RightActExpr(expr, random_permutation(rng, len(expr.in_profile)))
    return expr


def interchange_quadruple(sig, rng, depth=1):
    """(e1, e2, e3, e4) with e1 o e3, e2 o e4 composable: the interchange inputs."""
    e1 = random_expression(sig, rng, depth)
    e2 = random_expression(sig, rng, depth)
    e3 = random_expression_with_out(sig, rng, e1.in_profile, depth)
    e4 = random_expression_with_out(sig, rng, e2.in_profile, depth)
    return e1, e2, e3, e4


# -- associative-up-to-homotopy setup (one color) -----------------------------

from propcalc.chains import (
    ChainComplex,
    ChainMap,
    base_field_complex,
    direct_sum,
    disc_complex,
    factor_permutation_map,
)
from propcalc.endo import (
    ColoredFamily,
    EndoElement,
    FamilyMap,
    endo_horizontal,
    endo_permute,
    endo_vertical,
    hom_coordinates,
)
from propcalc.exprs import PropPresentation, parse


def homotopy_assoc_presentation():
    """mu2, iota degree 0; mu3 degree 1 with d(mu3) = the associator."""
    palette = Palette(["c"])
    c = lambda *xs: Profile(palette, xs)
    sig = Signature(
        palette,
        [
            Generator("mu2", c("c"), c("c", "c"), 0),
            Generator("iota", c("c"), c("c"), 0),
            Generator("mu3", c("c"), c("c", "c", "c"), 1),
        ],
    )
    d3 = [
        (F(1), parse("mu2 o (mu2 * iota)", sig)),
        (F(-1), parse("mu2 o (iota * mu2)", sig)),
    ]
    return PropPresentation(sig, {"mu3": d3})


def ground_field_structure(presentation):
    """The strictly associative structure on Q[0]: mu2 = multiplication."""
    palette = presentation.signature.palette
    fam = ColoredFamily(palette, {"c": base_field_complex()})
    sig = presentation.signature
    assignment = {
        "mu2": EndoElement.from_mats(
            fam, sig["mu2"].out_profile, sig["mu2"].in_profile, 0, rows_of({0: [[F(1)]]})
        ),
        "iota": EndoElement.from_mats(
            fam, sig["iota"].out_profile, sig["iota"].in_profile, 0, rows_of({0: [[F(1)]]})
        ),
        "mu3": EndoElement.zero(
            fam, sig["mu3"].out_profile, sig["mu3"].in_profile, 1
        ),
    }
    from propcalc.algebras import AlgebraStructure

    return AlgebraStructure(presentation, fam, assignment)


def field_plus_disc_family(palette):
    return ColoredFamily(palette, {"c": direct_sum(base_field_complex(), disc_complex())})


def projection_to_field(palette):
    """X = Q[0] + D --> Q[0], an entrywise acyclic fibration."""
    fam_x = field_plus_disc_family(palette)
    fam_y = ColoredFamily(palette, {"c": base_field_complex()})
    proj = ChainMap(fam_x.complexes["c"], fam_y.complexes["c"], rows_of({0: [[1, 0]]}))
    return FamilyMap(fam_x, fam_y, {"c": proj})


def inclusion_from_field(palette):
    """Q[0] --> Q[0] + D, an entrywise acyclic cofibration."""
    fam_x = ColoredFamily(palette, {"c": base_field_complex()})
    fam_y = field_plus_disc_family(palette)
    inc = ChainMap(fam_x.complexes["c"], fam_y.complexes["c"], rows_of({0: [[1], [0]]}))
    return FamilyMap(fam_x, fam_y, {"c": inc})


def kron(a, b):
    """Kronecker product of dense matrices; row index (i,j) flattens to i*rows(b)+j."""
    rb, cb = len(b), len(b[0]) if b else 0
    out = [[F(0)] * ((len(a[0]) if a else 0) * cb) for _ in range(len(a) * rb)]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if x == 0:
                continue
            for j in range(rb):
                for l in range(cb):
                    if b[j][l] != 0:
                        out[i * rb + j][k * cb + l] = x * b[j][l]
    return out


def dense_mul(a, b):
    """a @ b for dense matrices, by the definition."""
    cols = len(b[0]) if b else 0
    return [[sum((x * b[k][j] for k, x in enumerate(row) if x), F(0)) for j in range(cols)] for row in a]


def dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scale(c, a):
    return [[c * x for x in row] for row in a]


def dense_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), F(0)) for row in a]


def dense_is_zero(m):
    return all(x == 0 for row in m for x in row)


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def copy(m):
    return [row[:] for row in m]


# -- dense references for the exact kernel ------------------------------------
# The dense Gauss-Jordan algorithms that propcalc's linalg and TensorSpace used
# before they worked on nonzeros only; the kernel tests hold the sparse code to
# them entry by entry.


def dense_row_echelon(m):
    """In-place dense Gauss-Jordan; returns (pivot_cols, free_cols)."""
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
            m[r] = [x - fr * p if p else x for x, p in zip(m[r], prow)]
        pivot_cols.append(piv_c)
        piv_r += 1
        if piv_r == n_rows:
            free_cols.extend(range(piv_c + 1, n_cols))
            break
    return pivot_cols, free_cols


def dense_rank(m):
    if not m or not m[0]:
        return 0
    pivots, _ = dense_row_echelon([row[:] for row in m])
    return len(pivots)


def dense_kernel_basis(m):
    c = len(m[0]) if m else 0
    if c == 0:
        return []
    if not m:
        return [[F(int(i == j)) for i in range(c)] for j in range(c)]
    work = [row[:] for row in m]
    pivots, frees = dense_row_echelon(work)
    basis = []
    for fc in frees:
        v = [F(0)] * c
        v[fc] = F(1)
        for r_i, pc in enumerate(pivots):
            v[pc] = -work[r_i][fc]
        basis.append(v)
    return basis


def dense_solve(a, rhs):
    c = len(a[0]) if a else 0
    rhs_c = len(rhs[0]) if rhs else 0
    aug = [a[i][:] + list(rhs[i]) for i in range(len(a))]
    pivots, _ = dense_row_echelon(aug)
    n_piv_in_a = sum(1 for p in pivots if p < c)
    for i in range(n_piv_in_a, len(pivots)):
        return None, (i, aug[i])
    x = [[F(0)] * rhs_c for _ in range(c)]
    for r_i in range(n_piv_in_a):
        for j in range(rhs_c):
            x[pivots[r_i]][j] = aug[r_i][c + j]
    return x, None


def dense_quotient_by_rowspace(rows, dim):
    if dim == 0:
        return [], []
    identity = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
    work = [row[:] for row in rows if any(x != 0 for x in row)]
    if not work:
        return identity, [row[:] for row in identity]
    pivots, frees = dense_row_echelon(work)
    proj = [[F(0)] * dim for _ in frees]
    for qi, fc in enumerate(frees):
        proj[qi][fc] = F(1)
    for r_i, pc in enumerate(pivots):
        for qi, fc in enumerate(frees):
            if work[r_i][fc] != 0:
                proj[qi][pc] = -work[r_i][fc]
    sect = [[F(0)] * len(frees) for _ in range(dim)]
    for qi, fc in enumerate(frees):
        sect[fc][qi] = F(1)
    return proj, sect


def reference_coinvariant_quotient(space, relation_maps):
    """bimodules.coinvariant_quotient as it was before its relation rows were
    built from nonzeros: each row negates every entry of a column of m."""
    projs, sects, dims = {}, {}, {}
    for n in space.degrees():
        dim = space.dim(n)
        rows = []
        for m in relation_maps:
            mat = dense_mat(m, n)
            for j in range(dim):
                row = [-mat[i][j] for i in range(dim)]
                row[j] += F(1)
                if any(x != 0 for x in row):
                    rows.append(row)
        projs[n], sects[n] = dense_quotient_by_rowspace(rows, dim)
        if projs[n]:
            dims[n] = len(projs[n])
    boundary = {}
    for n in sorted(dims):
        if dims.get(n - 1):
            boundary[n] = dense_mul(projs[n - 1], dense_mul(dense_d(space, n), sects[n]))
    quotient = ChainComplex(dims, rows_of(boundary))
    proj = ChainMap(space, quotient, rows_of({n: projs[n] for n in dims}), check=False)
    sect = ChainMap(quotient, space, rows_of({n: sects[n] for n in dims}), check=False)
    return quotient, proj, sect


def reference_path_object(x):
    """chains.path_object as it was before it built its maps as rows: the
    degree-0 subspace by a dense kernel basis, coordinates by dense solves.

    Path object P with X --s--> P --(d0,d1)--> X x X.

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
        cut = zeros(n0, full_dim(0))
        for i in range(n0):
            cut[i][i] = ONE
            cut[i][n0 + i] = -ONE
        d1x = dense_d(x, 1)
        for i in range(n0):
            for j in range(n1):
                cut[i][2 * n0 + j] = -d1x[i][j]
        kernel_cols = dense_kernel_basis(cut)  # vectors in the full degree-0 space
    k0 = len(kernel_cols)
    # embed: (k0 -> full), coords: solve embed @ c = v
    embed0 = [[kernel_cols[j][i] for j in range(k0)] for i in range(full_dim(0))]

    def coords0(vec):
        sol, cert = dense_solve(embed0, [[v] for v in vec])
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
        da = dense_vec(dense_d(x, n), a) if x.dim(n - 1) else []
        db = dense_vec(dense_d(x, n), b) if x.dim(n - 1) else []
        dz = dense_vec(dense_d(x, n + 1), z) if x.dim(n + 1) and x.dim(n) else [ZERO] * x.dim(n)
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
    p = ChainComplex(dims, rows_of(boundary))

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
            s_m = zeros(dim_p, dim_x)
            d0_m = zeros(dim_x, dim_p)
            d1_m = zeros(dim_x, dim_p)
            for i in range(dim_x):
                s_m[i][i] = ONE
                s_m[dim_x + i][i] = ONE
                d0_m[i][i] = ONE
                d1_m[i][dim_x + i] = ONE
            s_mats[n] = s_m
            d0_mats[n] = d0_m
            d1_mats[n] = d1_m
    s = ChainMap(x, p, rows_of(s_mats))
    d0 = ChainMap(p, x, rows_of(d0_mats))
    d1 = ChainMap(p, x, rows_of(d1_mats))
    return p, s, d0, d1


def dense_tensor_boundary(space):
    """Boundary matrices of a TensorSpace's complex, built densely from its
    basis convention: d(x_1 .. x_k) = sum_s (-1)^{|x_1|+..+|x_{s-1}|} x_1 .. dx_s .. x_k."""
    out = {}
    for n in range(1, sum(f.top_degree for f in space.factors) + 1):
        rows, cols = space.dim(n - 1), space.dim(n)
        if not rows or not cols:
            continue
        m = [[F(0)] * cols for _ in range(rows)]
        for col, (comp, idxs) in enumerate(space.basis(n)):
            for slot, factor in enumerate(space.factors):
                if comp[slot] == 0 or factor.dim(comp[slot] - 1) == 0:
                    continue
                lower = comp[:slot] + (comp[slot] - 1,) + comp[slot + 1 :]
                sign = -1 if sum(comp[:slot]) % 2 else 1
                dmat = dense_d(factor, comp[slot])
                for i_tgt in range(factor.dim(comp[slot] - 1)):
                    val = dmat[i_tgt][idxs[slot]]
                    if val != 0:
                        tidx = idxs[:slot] + (i_tgt,) + idxs[slot + 1 :]
                        m[space.flat_index(lower, tidx)][col] += sign * val
        if any(x != 0 for row in m for x in row):
            out[n] = m
    return out


def reference_assemble_tensor_map(src_space, tgt_space, groups):
    """assemble_tensor_map as propcalc built it before it worked block by
    block: every source basis vector is cut into the groups' pieces, each
    piece's image is read off its group's map through flat_index and
    unflatten, and the images are multiplied out with the Koszul sign."""
    widths_src = [len(g[0].factors) for g in groups]
    widths_tgt = [len(g[1].factors) for g in groups]
    if sum(widths_src) != len(src_space.factors) or sum(widths_tgt) != len(tgt_space.factors):
        raise ChainError("group widths do not cover the tensor factors")
    total_deg = sum(g[2].degree for g in groups)
    images = []
    for gsrc, gtgt, f in groups:
        by_degree = {}
        for deg, fmat in dense_mats(f).items():
            tdeg = deg + f.degree
            cols = [[] for _ in range(len(fmat[0]))]
            for r, row in enumerate(fmat):
                for c, x in enumerate(row):
                    if x != 0:
                        cols[c].append(gtgt.unflatten(tdeg, r) + (x,))
            by_degree[deg] = cols
        images.append(by_degree)
    mats = {}
    for n in src_space.complex.degrees():
        rows = tgt_space.dim(n + total_deg)
        cols = src_space.dim(n)
        if rows == 0 or cols == 0:
            continue
        big = zeros(rows, cols)
        for col, (comp, idxs) in enumerate(src_space.basis(n)):
            pieces = []
            pos = 0
            for w in widths_src:
                pieces.append((comp[pos : pos + w], idxs[pos : pos + w]))
                pos += w
            sign = 1
            for j, (gsrc, gtgt, f) in enumerate(groups):
                if f.degree % 2 and sum(sum(pieces[i][0]) for i in range(j)) % 2:
                    sign = -sign
            terms = [((), (), F(sign))]
            for (sub_comp, sub_idx), (gsrc, gtgt, f), by_degree in zip(pieces, groups, images):
                image = by_degree.get(sum(sub_comp))
                col_entries = image[gsrc.flat_index(sub_comp, sub_idx)] if image else ()
                if not col_entries:
                    terms = []
                    break
                terms = [
                    (acc_comp + tcomp, acc_idx + tidx, coeff * val)
                    for tcomp, tidx, val in col_entries
                    for acc_comp, acc_idx, coeff in terms
                ]
            for acc_comp, acc_idx, coeff in terms:
                big[tgt_space.flat_index(acc_comp, acc_idx)][col] = coeff
        if not dense_is_zero(big):
            mats[n] = big
    return ChainMap(src_space.complex, tgt_space.complex, rows_of(mats), total_deg, check=False)


def reference_factor_permutation_map(factors, perm):
    """factor_permutation_map as propcalc built it before signed-permutation
    records: a dense matrix filled one source basis vector at a time through
    flat_index, with the Koszul sign counted pair by pair."""
    k = len(factors)
    src_space = TensorSpace(list(factors))
    permuted = [None] * k
    for i in range(k):
        permuted[perm(i + 1) - 1] = factors[i]
    tgt_space = TensorSpace(permuted)
    mats = {}
    for n in src_space.complex.degrees():
        big = zeros(tgt_space.dim(n), src_space.dim(n))
        for col, (comp, idxs) in enumerate(src_space.basis(n)):
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
            big[tgt_space.flat_index(tuple(tcomp), tuple(tidx))][col] = F(sign)
        mats[n] = big
    return ChainMap(src_space.complex, tgt_space.complex, rows_of(mats), 0, check=False)


def is_signed_permutation(f):
    """Is f a degree-0 map between complexes of equal dims whose every row and
    every column holds exactly one nonzero entry, 1 or -1?"""
    if f.degree or f.source.dims != f.target.dims:
        return False
    for n, d in f.source.dims.items():
        m = dense_mat(f, n)
        if sorted(c for row in m for c, x in enumerate(row) if x != 0) != list(range(d)):
            return False
        if any(sorted(abs(x) for x in row if x != 0) != [1] for row in m):
            return False
    return True


def reference_compose(f, g):
    """f o g as dense matrix products, degree by degree."""
    mats = {}
    for j in g.source.degrees():
        if f.target.dim(j + g.degree + f.degree):
            prod = dense_mul(dense_mat(f, j + g.degree), dense_mat(g, j))
            if not dense_is_zero(prod):
                mats[j] = prod
    return ChainMap(g.source, f.target, rows_of(mats), f.degree + g.degree, check=False)


def reference_place_blocks(source, target, blocks):
    """place_blocks filled entry by entry into dense zero matrices."""
    mats = {n: [[F(0)] * source.dim(n) for _ in range(target.dim(n))] for n in source.degrees()}
    for f, rows, cols in blocks:
        for n in f.source.degrees():
            for i, row in enumerate(dense_mat(f, n)):
                for j, x in enumerate(row):
                    if x != 0:
                        mats[n][rows.get(n, 0) + i][cols.get(n, 0) + j] = x
    mats = {n: m for n, m in mats.items() if not dense_is_zero(m)}
    return ChainMap(source, target, rows_of(mats), check=False)


def random_rank_deficient(rng, rows, cols, density):
    """A rows x cols rational matrix of rank below min(rows, cols), with about
    the given share of nonzero entries, some zero rows and some zero columns.

    Its rows are combinations of a few sparse random rows, so the rank is at
    most that number."""
    k = max(1, min(rows, cols) // 2 - 1)
    dead_cols = set(rng.sample(range(cols), cols // 8))
    live = [j for j in range(cols) if j not in dead_cols]
    per_row = max(1, round(density * cols))

    def entry():
        return F(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3, 7]))

    seeds = []
    for _ in range(k):
        row = [F(0)] * cols
        for j in rng.sample(live, min(len(live), per_row)):
            row[j] = entry()
        seeds.append(row)
    m = []
    for _ in range(rows):
        row = [F(0)] * cols
        if rng.random() > 0.15:
            for s in rng.sample(seeds, min(len(seeds), rng.choice([1, 1, 2]))):
                c = entry()
                row = [x + c * y for x, y in zip(row, s)]
        m.append(row)
    return m


# -- dense reference for operad composition ------------------------------------


def dense_coords(el):
    """The coordinates of an operad element as a dense list over its
    component's basis in its degree (empty where there is no component)."""
    comp = el.operad.component(el.d, el.in_key)
    return linalg.densify(el.coords, comp.carrier.dim(el.degree) if comp else 0)


def sparse_element(operad, d, in_key, degree, coords):
    """The operad element with the nonzero entries of a dense coordinate list,
    made exact."""
    return OperadElement(operad, d, in_key, degree, {i: linalg.exact(x) for i, x in enumerate(coords) if x})


def dense_compose_elements(p, q_els):
    """gamma(p; q_1..q_n) as propcalc's operads computed it before it worked on
    nonzeros: the dense tensor vector over every coordinate combination, then
    the whole gamma matrix applied to it."""
    operad = p.operad
    b_keys = tuple(q.in_key for q in q_els)
    gm = operad.gamma_map(p.d, p.in_key, b_keys)
    space = TensorSpace(
        [operad.component(p.d, p.in_key).carrier]
        + [operad.component(q.d, q.in_key).carrier for q in q_els]
    )
    total_deg = p.degree + sum(q.degree for q in q_els)
    vec = [F(0)] * space.dim(total_deg)
    comp_tuple = tuple([p.degree] + [q.degree for q in q_els])
    all_coords = [dense_coords(p)] + [dense_coords(q) for q in q_els]
    for idxs in itertools.product(*[range(len(c)) for c in all_coords]):
        coeff = F(1)
        for c_list, i in zip(all_coords, idxs):
            coeff *= c_list[i]
        if coeff == 0:
            continue
        vec[space.flat_index(comp_tuple, idxs)] += coeff
    mat = dense_mat(gm, total_deg)
    merged = merge_keys(operad.palette, b_keys)
    target = operad.component(p.d, merged)
    tdim = target.carrier.dim(total_deg) if target else 0
    if not mat or not mat[0]:
        out = [F(0)] * tdim
    else:
        out = [sum((x * v for x, v in zip(row, vec)), F(0)) for row in mat]
    return sparse_element(operad, p.d, merged, total_deg, out)


def reference_compose_elements(p, q_els):
    """gamma(p; q_1..q_n) as propcalc's operads computed it before the operad
    kept per-key column plans: the merged key canonicalized afresh, gamma and
    the tensor space looked up by key, and every dense row of gamma scanned for
    each nonzero term."""
    operad = p.operad
    b_keys = tuple(q.in_key for q in q_els)
    total_deg = p.degree + sum(q.degree for q in q_els)
    merged = merge_keys(operad.palette, b_keys)
    target = operad.component(p.d, merged)
    out = [linalg.ZERO] * (target.carrier.dim(total_deg) if target else 0)
    mat = dense_mats(operad.gamma_map(p.d, p.in_key, b_keys)).get(total_deg)
    if mat is None:
        return sparse_element(operad, p.d, merged, total_deg, out)
    space = operad.space(p.d, p.in_key, b_keys)
    comp_tuple = (p.degree,) + tuple(q.degree for q in q_els)
    factors = [sorted(p.coords.items())] + [sorted(q.coords.items()) for q in q_els]
    for terms in itertools.product(*factors):
        coeff = linalg.ONE
        for _, x in terms:
            coeff *= x
        col = space.flat_index(comp_tuple, [i for i, _ in terms])
        for r, row in enumerate(mat):
            x = row[col]
            if x is not linalg.ZERO and x:
                out[r] += coeff * x
    return sparse_element(operad, p.d, merged, total_deg, out)


# -- per-tuple reference for the endomorphism PROP -----------------------------


def unit_element(family, d, in_key, bases, k, flat):
    return EndoElement.unit(family, Profile(family.palette, [d]), in_key.rep, k, *bases[k][flat])


def reference_in_gens(data, d, in_key):
    """The stabilizer actions of EndoPropData.component(d, in_key) as propcalc
    built them before it matched basis triples: each unit is permuted with
    endo_permute and read back in coordinates."""
    comp = data.component(d, in_key)
    in_gens = {}
    for s in stabilizer_generators(in_key):
        mats = {}
        for k in comp.carrier.degrees():
            basis = comp.bases[k]
            read = hom_coordinates(basis)
            cols = [
                read(endo_permute(Permutation.identity(1), s, unit_element(data.family, d, in_key, comp.bases, k, i)).chain)
                for i in range(len(basis))
            ]
            mats[k] = [[cols[j].get(i, ZERO) for j in range(len(cols))] for i in range(len(basis))]
        in_gens[s.images] = ChainMap(comp.carrier, comp.carrier, rows_of(mats), check=False)
    return in_gens


def reference_rho(data, d, in_key, b_keys):
    """EndoPropData.rho as propcalc built it before it matched basis triples:
    every tensor basis tuple composed as EndoElements with endo_horizontal,
    endo_vertical and endo_permute, and read back in coordinates."""
    fam = data.family
    p_comp = data.component(d, in_key)
    q_comps = [data.component(c, bk) for c, bk in zip(in_key.rep.entries, b_keys)]
    if p_comp is None or any(q is None for q in q_comps):
        return None
    merged = merge_keys(fam.palette, b_keys)
    target = data.component(d, merged)
    if target is None:
        return None
    space = TensorSpace([p_comp.carrier] + [q.carrier for q in q_comps])
    concat_entries = [c for bk in b_keys for c in bk.rep.entries]
    _, transport = canonicalize_profile(Profile(fam.palette, concat_entries))
    mats = {}
    for n in space.complex.degrees():
        rows = target.carrier.dim(n)
        cols = space.dim(n)
        if rows == 0 or cols == 0:
            continue
        big = [[F(0)] * cols for _ in range(rows)]
        read = hom_coordinates(target.bases[n])
        for comp_tuple, idxs in space.basis(n):
            col = space.flat_index(comp_tuple, idxs)
            p_el = unit_element(fam, d, in_key, p_comp.bases, comp_tuple[0], idxs[0])
            q_els = [
                unit_element(fam, qc, bk, q.bases, comp_tuple[i + 1], idxs[i + 1])
                for i, (qc, bk, q) in enumerate(zip(in_key.rep.entries, b_keys, q_comps))
            ]
            h = q_els[0]
            for q in q_els[1:]:
                h = endo_horizontal(h, q)
            normalized = endo_permute(Permutation.identity(1), transport, endo_vertical(p_el, h))
            for r, val in read(normalized.chain).items():
                big[r][col] = val
        mats[n] = big
    return ChainMap(space.complex, target.carrier, rows_of(mats), check=False)


# -- oracles for graphs and induced products -----------------------------------


def graphs_isomorphic_brute_force(g1, g2) -> bool:
    """Exhaustive isomorphism oracle over all vertex bijections."""
    if len(g1.vertices) != len(g2.vertices):
        return False
    base = g2.certificate_for_order(list(range(len(g2.vertices))))
    for order in itertools.permutations(range(len(g1.vertices))):
        if g1.certificate_for_order(list(order)) == base:
            return True
    return False


def induced_dim_law(palette, factors) -> bool:
    """[G:H] prod dims by explicit coset enumeration equals the built dimension."""
    comp = box_dot_many(palette, factors)
    index = coset_count(palette, [f.out_key for f in factors], comp.out_key) * coset_count(
        palette, [f.in_key for f in factors], comp.in_key
    )
    prod = 1
    for f in factors:
        prod *= f.carrier.total_dim()
    return comp.carrier.total_dim() == index * prod


def coset_count(palette, keys, merged) -> int:
    """#G / #H by enumerating the subgroup embedding through a transport."""
    concat = Profile(palette, [c for k in keys for c in k.rep.entries])
    _, transport = canonicalize_profile(concat)
    h_embedded = set()
    for combo in itertools.product(*[stabilizer_elements(k) for k in keys]):
        acc = None
        for piece in combo:
            acc = piece if acc is None else acc.block_sum(piece)
        h_embedded.add((transport.inverse() * acc * transport).images)
    seen = set()
    count = 0
    for g in stabilizer_elements(merged):
        if g.images in seen:
            continue
        count += 1
        for h in h_embedded:
            seen.add((g * Permutation(h)).images)
    return count


def reference_canonical(g):
    """PropGraph.canonical as propcalc ran it while refinement nested whole
    colour tuples and scanned every edge once per vertex in each round."""
    n_v = len(g.vertices)
    in_leg_by_vertex = {}
    for (v, q), label in g.in_legs.items():
        in_leg_by_vertex.setdefault(v, []).append((q, label))
    out_leg_by_vertex = {}
    for (v, p), label in g.out_legs.items():
        out_leg_by_vertex.setdefault(v, []).append((p, label))
    colors = {}
    for v in range(n_v):
        colors[v] = (
            g.vertices[v],
            tuple(sorted(in_leg_by_vertex.get(v, []))),
            tuple(sorted(out_leg_by_vertex.get(v, []))),
        )
    while True:
        new_colors = {}
        for v in range(n_v):
            nbrs = []
            for (u, p), (w, q) in g.edges:
                if u == v:
                    nbrs.append(("out", p, colors[w], q))
                if w == v:
                    nbrs.append(("in", q, colors[u], p))
            new_colors[v] = (colors[v], tuple(sorted(nbrs)))
        ranking = {c: i for i, c in enumerate(sorted(set(new_colors.values())))}
        compressed = {v: (ranking[new_colors[v]],) for v in range(n_v)}
        if len(set(compressed.values())) == len(set(colors.values())):
            break
        colors = {v: (compressed[v][0], new_colors[v]) for v in range(n_v)}
    order = sorted(range(n_v), key=lambda v: repr(colors[v]))
    for v, w in zip(order, order[1:]):
        if colors[v] == colors[w]:
            raise GraphError("partition refinement left vertices %d and %d in one cell" % (v, w))
    return g.certificate_for_order(order), order


def reference_enumerate_graphs(signature, out_profile, in_profile, max_vertices, work_cap=2_000_000):
    """enumerate_graphs as propcalc ran it while it still checked each wiring
    for port reuse and each leg assignment with PropGraph._validate, and
    canonicalized every labelled copy (with reference_canonical)."""
    if max_vertices < 1:
        raise GraphError("max_vertices must be >= 1")
    n_in = len(in_profile)
    n_out = len(out_profile)
    found = {}
    work = [0]

    names = signature.names()
    for count in range(1, max_vertices + 1):
        for combo in itertools.combinations_with_replacement(names, count):
            gens = [signature[name] for name in combo]
            total_in = sum(len(g.in_profile) for g in gens)
            total_out = sum(len(g.out_profile) for g in gens)
            n_edges = total_in - n_in
            if n_edges < 0 or total_out - n_out != n_edges:
                continue
            in_ports = [
                (v, q, gens[v].in_profile[q - 1])
                for v in range(count)
                for q in range(1, len(gens[v].in_profile) + 1)
            ]
            out_ports = [
                (v, p, gens[v].out_profile[p - 1])
                for v in range(count)
                for p in range(1, len(gens[v].out_profile) + 1)
            ]
            for wiring in _wirings(in_ports, out_ports, n_edges, work, work_cap):
                edges = [((u, p), (v, q)) for (u, p), (v, q) in wiring]
                try:
                    _reference_legless_check(signature, combo, edges)
                except GraphError:
                    continue
                free_in = [ip for ip in in_ports if (ip[0], ip[1]) not in {e[1] for e in edges}]
                free_out = [op for op in out_ports if (op[0], op[1]) not in {e[0] for e in edges}]
                for in_legs in _leg_assignments(free_in, in_profile, work, work_cap):
                    for out_legs in _leg_assignments(free_out, out_profile, work, work_cap):
                        g = PropGraph(signature, combo, edges, in_legs, out_legs, check=False)
                        try:
                            g._validate()
                        except GraphError:
                            continue
                        cert, _ = reference_canonical(g)
                        if cert not in found:
                            found[cert] = g
    return [found[c] for c in sorted(found)]


def labelled_objects(signature, out_profile, in_profile, max_vertices):
    """Every (combination, wiring, in-legs, out-legs) enumerate_graphs walks,
    with no work cap and no isomorph rejection; wirings with a cycle are left out."""
    n_in = len(in_profile)
    n_out = len(out_profile)
    for count in range(1, max_vertices + 1):
        for combo in itertools.combinations_with_replacement(signature.names(), count):
            gens = [signature[name] for name in combo]
            n_edges = sum(len(g.in_profile) for g in gens) - n_in
            if n_edges < 0 or sum(len(g.out_profile) for g in gens) - n_out != n_edges:
                continue
            in_ports = [(v, q, c) for v, g in enumerate(gens) for q, c in enumerate(g.in_profile.entries, 1)]
            out_ports = [(v, p, c) for v, g in enumerate(gens) for p, c in enumerate(g.out_profile.entries, 1)]
            for wiring in _wirings(in_ports, out_ports, n_edges, [0], math.inf):
                if not _is_acyclic(count, wiring):
                    continue
                free_in = [ip for ip in in_ports if ip[:2] not in {e[1] for e in wiring}]
                free_out = [op for op in out_ports if op[:2] not in {e[0] for e in wiring}]
                for in_legs in _leg_assignments(free_in, in_profile, [0], math.inf):
                    for out_legs in _leg_assignments(free_out, out_profile, [0], math.inf):
                        yield combo, wiring, in_legs, out_legs


def _reference_legless_check(signature, combo, edges):
    # quick structural sanity before assigning legs: port reuse and cycles
    used_out = set()
    used_in = set()
    for (u, p), (v, q) in edges:
        if (u, p) in used_out or (v, q) in used_in:
            raise GraphError("port reuse")
        used_out.add((u, p))
        used_in.add((v, q))
    if not _is_acyclic(len(combo), edges):
        raise GraphError("cycle")
    return True


# -- references for the Young actions of a bimodule component -----------------


def reference_rho_out(comp, sigma):
    """BimoduleComponent.rho_out as propcalc computed it before actions folded
    from the first generator: a dense identity composed with every generator
    map of the word."""
    m = ChainMap.identity(comp.carrier)
    for s in word_in_block_transpositions(comp.out_key, sigma):
        m = m.compose(comp.out_gens[s.images])
    return m


def reference_rho_in(comp, tau):
    """BimoduleComponent.rho_in as propcalc computed it before actions folded
    from the first generator."""
    m = ChainMap.identity(comp.carrier)
    for s in word_in_block_transpositions(comp.in_key, tau):
        m = comp.in_gens[s.images].compose(m)
    return m


def reference_validate_component(comp):
    """The failures of BimoduleComponent.validate as propcalc found them
    before it built each action once per call: every table pair rebuilds its
    three actions, and out/in commutation is tested only on the first 8
    elements of each stabilizer in lex order, appending its message once per
    failing out element."""
    failures = []
    for mats in (comp.out_gens, comp.in_gens):
        for images, m in mats.items():
            for n in comp.carrier.degrees():
                if n == 0:
                    continue
                lhs = dense_mul(dense_d(comp.carrier, n), dense_mat(m, n))
                rhs = dense_mul(dense_mat(m, n - 1), dense_d(comp.carrier, n))
                if lhs != rhs:
                    failures.append("action %r does not commute with the differential" % (images,))
                    break
    out_elems = stabilizer_elements(comp.out_key)
    in_elems = stabilizer_elements(comp.in_key)

    def pairs(elems):
        if len(elems) <= 48:
            return itertools.product(elems, elems)
        rng = random.Random(0)
        return [(rng.choice(elems), rng.choice(elems)) for _ in range(20)]

    for g, h in pairs(out_elems):
        lhs = reference_rho_out(comp, g).compose(reference_rho_out(comp, h))
        if lhs != reference_rho_out(comp, g * h):
            failures.append("out-action group law fails at %r, %r" % (g.images, h.images))
            break
    for g, h in pairs(in_elems):
        lhs = reference_rho_in(comp, h).compose(reference_rho_in(comp, g))
        if lhs != reference_rho_in(comp, g * h):
            failures.append("in-action group law fails at %r, %r" % (g.images, h.images))
            break
    for g in out_elems[:8]:
        for h in in_elems[:8]:
            a, b = reference_rho_out(comp, g), reference_rho_in(comp, h)
            if a.compose(b) != b.compose(a):
                failures.append("out/in actions do not commute")
                break
    return failures


def reference_box_dot_gens(palette, factors):
    """The generator actions (out_gens, in_gens) of box_dot_many(palette,
    factors) as propcalc built them before decorations were shared: the
    twists and the decoration are rebuilt for every (out placement, in
    placement) pair, from reference_rho_out, reference_rho_in and
    reference_assemble_tensor_map, identity twists included."""
    out_keys = [f.out_key for f in factors]
    in_keys = [f.in_key for f in factors]
    merged_out = merge_keys(palette, out_keys)
    merged_in = merge_keys(palette, in_keys)
    layout = InducedLayout.of(
        factors,
        placements(palette, out_keys, merged_out),
        placements(palette, in_keys, merged_in),
        TensorSpace([f.carrier for f in factors]),
    )
    carrier = direct_sum(*[layout.tensor.complex] * len(layout.index))
    factor_spaces = [TensorSpace([f.carrier]) for f in factors]

    def decorated(maps):
        return reference_assemble_tensor_map(
            layout.tensor, layout.tensor, [(fs, fs, m) for fs, m in zip(factor_spaces, maps)]
        )

    def action_blocks(side, sigma):
        perm_positions = (
            [sigma(i + 1) - 1 for i in range(sigma.n)]
            if side == "out"
            else [sigma.inverse()(i + 1) - 1 for i in range(sigma.n)]
        )
        for (ao, ai), src in layout.index.items():
            if side == "out":
                new_a = _moved_placement(ao, perm_positions)
                tw = _twists(ao, new_a, perm_positions, len(factors))
                tgt = layout.index[(new_a, ai)]
                dec = decorated([reference_rho_out(f, t) for f, t in zip(factors, tw)])
            else:
                new_a = _moved_placement(ai, perm_positions)
                tw = _twists(ai, new_a, perm_positions, len(factors))
                tgt = layout.index[(ao, new_a)]
                dec = decorated([reference_rho_in(f, t.inverse()) for f, t in zip(factors, tw)])
            yield dec, layout.copy_offsets(tgt), layout.copy_offsets(src)

    out_gens = {
        s.images: place_blocks(carrier, carrier, action_blocks("out", s))
        for s in stabilizer_generators(merged_out)
    }
    in_gens = {
        s.images: place_blocks(carrier, carrier, action_blocks("in", s))
        for s in stabilizer_generators(merged_in)
    }
    return out_gens, in_gens


# -- per-instance references for the operad checks -----------------------------


def reference_validate_equivariance(operad):
    """The equivariance failures of ColoredOperad.validate as propcalc found
    them before the checks shared first units: the first unit of each input
    is taken from a fresh basis_elements list for every basis element p."""
    failures = []
    for (d, in_key, b_keys) in sorted(operad.gamma, key=repr):
        comp = operad.component(d, in_key)
        if comp is None:
            continue
        n = in_key.length
        sizes = [k.length for k in b_keys]
        starts = [0] * n
        acc = 0
        for j, s in enumerate(sizes):
            starts[j] = acc
            acc += s
        total = acc
        concat_w = []
        for bk in b_keys:
            concat_w.extend(bk.rep.entries)
        _, t_w = canonicalize_profile(Profile(operad.palette, concat_w))
        for tau in stabilizer_elements(in_key):
            if tau.is_identity():
                continue
            images = [0] * total
            pos = 0
            for i in range(1, n + 1):
                src_block = tau(i)
                for l in range(1, sizes[src_block - 1] + 1):
                    images[pos] = starts[src_block - 1] + l
                    pos += 1
            delta = Permutation(images)
            concat_wp = []
            for i in range(1, n + 1):
                concat_wp.extend(b_keys[tau(i) - 1].rep.entries)
            _, t_wp = canonicalize_profile(Profile(operad.palette, concat_wp))
            u = t_w.inverse() * delta * t_wp
            for p_el in operad.basis_elements(d, in_key):
                q_els = []
                ok = True
                for c, bk in zip(in_key.rep.entries, b_keys):
                    basis = operad.basis_elements(c, bk)
                    if not basis:
                        ok = False
                        break
                    q_els.append(basis[0])
                if not ok:
                    continue
                lhs = compose_elements(
                    p_el.act_right(tau),
                    [q_els[tau(i) - 1] for i in range(1, n + 1)],
                )
                rhs = compose_elements(p_el, q_els).act_right(u)
                if lhs != rhs:
                    failures.append(
                        "gamma not equivariant at %r" % ((d, in_key, b_keys, tau.images),)
                    )
                    break
    return failures



def reference_validate_associativity(operad):
    """The associativity failures of ColoredOperad.validate as propcalc found
    them before instances shared their factors: each instance builds its basis
    elements and all of its compositions afresh."""
    failures = []
    for (d, in_key) in operad.support():
        for b_keys in operad._aligned_tuples(in_key):
            merged = merge_keys(operad.palette, b_keys)
            for r_choice in operad._aligned_tuples(merged):
                if sum(k.length for k in r_choice) > operad.max_arity:
                    continue
                fail = _reference_assoc_instance(operad, d, in_key, b_keys, r_choice)
                if fail:
                    failures.append(fail)
    return failures


def _reference_assoc_instance(operad, d, in_key, b_keys, r_choice):
    p_candidates = operad.basis_elements(d, in_key)[:1]
    if not p_candidates:
        return None
    p = p_candidates[0]
    q_els = []
    for c, bk in zip(in_key.rep.entries, b_keys):
        basis = operad.basis_elements(c, bk)
        if not basis:
            return None
        q_els.append(basis[0])
    merged = merge_keys(operad.palette, b_keys)
    r_els = []
    for c, rk in zip(merged.rep.entries, r_choice):
        basis = operad.basis_elements(c, rk)
        if not basis:
            return None
        r_els.append(basis[0])
    route1 = compose_elements(compose_elements(p, q_els), r_els)
    concat_entries = []
    for bk in b_keys:
        concat_entries.extend(bk.rep.entries)
    _, t = canonicalize_profile(Profile(operad.palette, concat_entries))
    owner = []
    for i, bk in enumerate(b_keys):
        owner.extend([i] * bk.length)
    blocks = [[] for _ in b_keys]
    for j in range(1, merged.length + 1):
        blocks[owner[t(j) - 1]].append(r_els[j - 1])
    inner = [compose_elements(q_el, block) for q_el, block in zip(q_els, blocks)]
    route2 = compose_elements(p, inner)
    if route1 != route2:
        return "gamma not associative at %r" % ((d, in_key, b_keys, r_choice),)
    return None


def reference_value(alg, element):
    """OperadAlgebra.value as propcalc computed it before it read the stored
    values directly: a zero element plus one scaled value per nonzero
    coordinate."""
    comp = alg.operad.component(element.d, element.in_key)
    out_profile = Profile(alg.family.palette, [element.d])
    total = EndoElement.zero(alg.family, out_profile, element.in_key.rep, element.degree)
    basis = alg.values[(element.d, element.in_key)]
    offset = 0
    coords = dense_coords(element)
    for k in comp.carrier.degrees():
        for i in range(comp.carrier.dim(k)):
            if k == element.degree and coords[i] != 0:
                total = total.add(basis[offset].scale(coords[i]))
            offset += 1
    return total


def reference_endo_permute(sigma, tau, f):
    """endo_permute as propcalc computed it before the family cached its
    shuffles: both Koszul shuffles built afresh and composed, identities
    included."""
    fam = f.family
    out_p = apply_permutation(sigma, f.out_profile, "left")
    in_p = apply_permutation(tau, f.in_profile, "right")
    l_sigma = factor_permutation_map([fam.complexes[c] for c in f.out_profile.entries], sigma)
    l_tau = factor_permutation_map([fam.complexes[c] for c in in_p.entries], tau)
    return EndoElement(fam, out_p, in_p, l_sigma.compose(f.chain).compose(l_tau))


# -- references for the memoized orbit keys, the algebra check and the lift solve


def reference_canonicalize_profile(p):
    """canonicalize_profile as propcalc computed it before it memoized per
    palette: a fresh key and permutation on every call."""
    order = p.palette.order
    rep_entries = tuple(sorted(p.entries, key=order))
    rep = Profile(p.palette, rep_entries)
    positions = {}
    for i, c in enumerate(p.entries, start=1):
        positions.setdefault(c, []).append(i)
    taken = {c: 0 for c in positions}
    images = []
    for c in rep_entries:
        k = taken[c]
        images.append(positions[c][k])
        taken[c] = k + 1
    return OrbitKey(rep), Permutation(images)


def reference_algebra_check(alg):
    """OperadAlgebra.check as propcalc computed it before it built the tensor of
    the q-values and the transport once per gamma key: both per basis element."""
    from propcalc.operads import _first_unit

    failures = []
    operad = alg.operad
    units = {}
    for (d, in_key, b_keys) in sorted(operad.gamma, key=repr):
        q_els = [_first_unit(operad, units, c, bk) for c, bk in zip(in_key.rep.entries, b_keys)]
        if None in q_els:
            continue
        for p_el in operad.basis_elements(d, in_key):
            lhs = alg.value(compose_elements(p_el, q_els))
            h = None
            for q in q_els:
                v = alg.value(q)
                h = v if h is None else endo_horizontal(h, v)
            composite = endo_vertical(alg.value(p_el), h)
            concat_entries = [c for q in q_els for c in q.in_key.rep.entries]
            _, transport = reference_canonicalize_profile(Profile(alg.family.palette, concat_entries))
            rhs = endo_permute(Permutation.identity(1), transport, composite)
            if lhs != rhs:
                failures.append(("gamma", (d, in_key, tuple(b_keys)), lhs.sub(rhs)))
                break
    for (d, in_key) in operad.support():
        for s in stabilizer_generators(in_key):
            for el in operad.basis_elements(d, in_key):
                lhs = alg.value(el.act_right(s))
                rhs = endo_permute(Permutation.identity(1), s, alg.value(el))
                if lhs != rhs:
                    failures.append(("equivariance", (d, in_key, s.images), lhs.sub(rhs)))
                    break
    return failures


def reference_lift_solve(prob):
    """LiftProblem.solve as propcalc computed it before its rows went to the
    sparse solve: each equation's row-form matrices densified, every
    coefficient multiplied, entries read back one at a time, and the system
    solved densely."""
    from propcalc.chains import Unsolvable

    offsets = {}
    nvars = 0
    for j, r, c in prob.var_blocks():
        offsets[j] = (nvars, r, c)
        nvars += r * c
    rows = []
    rhs_col = []
    for terms, rhs, er, ec in prob.equations:
        rhs = dense(rhs, ec)
        dense_terms = []
        for coeff, L, j, R in terms:
            if j not in offsets:
                continue
            base, vr, vc = offsets[j]
            L = [[F(int(a == p)) for p in range(vr)] for a in range(er)] if L is None else dense(L, vr)
            R = [[F(int(q == b)) for b in range(ec)] for q in range(vc)] if R is None else dense(R, ec)
            l_rows = [[(p, x) for p, x in enumerate(L[a]) if x != 0] for a in range(er)]
            r_cols = [[(q, R[q][b]) for q in range(vc) if R[q][b] != 0] for b in range(ec)]
            dense_terms.append((coeff, base, vc, l_rows, r_cols))
        for a in range(er):
            for b in range(ec):
                row = {}
                for coeff, base, vc, l_rows, r_cols in dense_terms:
                    for p, lv in l_rows[a]:
                        for qcol, rv in r_cols[b]:
                            k = base + p * vc + qcol
                            row[k] = row.get(k, F(0)) + coeff * lv * rv
                if any(v != 0 for v in row.values()) or rhs[a][b] != 0:
                    rows.append(row)
                    rhs_col.append([rhs[a][b]])
    if not rows:
        return ChainMap(prob.source, prob.target, {}, prob.degree, check=False)
    x, cert = dense_solve([[row.get(k, F(0)) for k in range(nvars)] for row in rows], rhs_col)
    if x is None:
        raise Unsolvable("constraint system inconsistent", certificate=cert)
    mats = {}
    for j, (base, r, c) in offsets.items():
        mats[j] = [[x[base + p * c + qcol][0] for qcol in range(c)] for p in range(r)]
    return ChainMap(prob.source, prob.target, rows_of(mats), prob.degree, check=False)


# -- transported compositions, entry by entry -----------------------------------

from propcalc.bimodules import HPropData, VPropData, box_h, box_v  # noqa: E402


def _induced_flat(layout, n, out_place, in_place):
    """Degree-n carrier index of the first basis vector of the copy of the
    placement pair in an InducedLayout."""
    return layout.index[(out_place, in_place)] * layout.tensor.complex.dim(n)


def reference_induce_vertical_on_boxh(p_data: VPropData, q_data: VPropData):
    """induce_vertical_on_boxh as propcalc computed it with dense loops: the
    composite of basis elements is zero unless the two middle splittings agree
    (same orbit pair and same placement); otherwise it composes the P and Q
    decorations with the Koszul switch sign, entry by entry.  A triple whose
    target component is zero is skipped.  Returns (module, VPropData).
    """
    p, q = p_data.module, q_data.module
    r = box_h(p, q)
    vcomp = {}
    keys = set(r.components)
    for (kd, kb) in keys:
        for (kb2, kc) in keys:
            if kb2 != kb:
                continue
            upper = r.component(kd, kb)
            lower = r.component(kb, kc)
            target = r.component(kd, kc)
            if target is None:
                continue
            space = TensorSpace([upper.carrier, lower.carrier])
            mats = {
                n: zeros(target.carrier.dim(n), space.complex.dim(n))
                for n in space.complex.degrees()
            }
            _reference_fill_boxh_vertical(
                p_data, q_data, upper, lower, target, space, mats
            )
            vcomp[(kd, kb, kc)] = ChainMap(
                space.complex, target.carrier, rows_of(mats), check=False
            )
    return r, VPropData(r, vcomp)


def _reference_fill_boxh_vertical(p_data, q_data, upper, lower, target, space, mats):
    up, low, tgt = upper.layout, lower.layout, target.layout
    for u_piece, u_off in zip(up.pieces, up.offsets):
        (kd1, kb1), (kd2, kb2) = u_piece.key
        for l_piece, l_off in zip(low.pieces, low.offsets):
            (kb1p, kc1), (kb2p, kc2) = l_piece.key
            if kb1p != kb1 or kb2p != kb2:
                continue
            t = tgt.find(((kd1, kc1), (kd2, kc2)))
            if t is None:
                continue
            vc_p = p_data.compose_map(kd1, kb1, kc1)
            vc_q = q_data.compose_map(kd2, kb2, kc2)
            if vc_p.is_zero() and vc_q.is_zero():
                continue
            _reference_fill_boxh_vertical_piece(
                (u_piece.component.layout, u_off),
                (l_piece.component.layout, l_off),
                (tgt.pieces[t].component.layout, tgt.offsets[t]),
                vc_p,
                vc_q,
                space,
                mats,
            )


def _reference_fill_boxh_vertical_piece(upper, lower, target, vc_p, vc_q, space, mats):
    """Add the composites of one (upper piece, lower piece) pair; each of
    upper, lower, target is (InducedLayout, per-degree offset of the piece)."""
    (ue, u_off), (le, l_off), (te, t_off) = upper, lower, target
    u_tensor = ue.tensor
    l_tensor = le.tensor
    t_tensor = te.tensor
    p1 = u_tensor.factors[0]
    q1 = u_tensor.factors[1]
    p2 = l_tensor.factors[0]
    q2 = l_tensor.factors[1]
    tp_space = TensorSpace([p1, p2])
    tq_space = TensorSpace([q1, q2])
    p_mats, q_mats = dense_mats(vc_p), dense_mats(vc_q)
    for ao_u in ue.outs:
        for mid_a in ue.ins:
            if mid_a not in le.outs:
                continue
            for ai_l in le.ins:
                for du in u_tensor.complex.degrees():
                    u_start = u_off.get(du, 0) + _induced_flat(ue, du, ao_u, mid_a)
                    for dl in l_tensor.complex.degrees():
                        n = du + dl
                        if space.complex.dim(n) == 0:
                            continue
                        l_start = l_off.get(dl, 0) + _induced_flat(le, dl, mid_a, ai_l)
                        t_start = t_off.get(n, 0) + _induced_flat(te, n, ao_u, ai_l)
                        for (cu, iu) in u_tensor.basis(du):
                            u_global = u_start + u_tensor.flat_index(cu, iu)
                            for (cl, il) in l_tensor.basis(dl):
                                l_global = l_start + l_tensor.flat_index(cl, il)
                                col = space.flat_index((du, dl), (u_global, l_global))
                                dx1, dx2 = cu
                                dy1, dy2 = cl
                                i1, i2 = iu
                                j1, j2 = il
                                sign = -1 if (dx2 % 2 and dy1 % 2) else 1
                                pcol = tp_space.flat_index((dx1, dy1), (i1, j1))
                                qcol = tq_space.flat_index((dx2, dy2), (i2, j2))
                                mp = p_mats.get(dx1 + dy1)
                                mq = q_mats.get(dx2 + dy2)
                                if mp is None or mq is None:
                                    continue
                                for rp in range(len(mp)):
                                    a = mp[rp][pcol]
                                    if a == 0:
                                        continue
                                    for rq in range(len(mq)):
                                        b = mq[rq][qcol]
                                        if b == 0:
                                            continue
                                        # rows live in P(kd1,kc1) at degree dx1+dy1, Q part likewise
                                        trow = t_tensor.flat_index((dx1 + dy1, dx2 + dy2), (rp, rq))
                                        mats[n][t_start + trow][col] += sign * a * b


def reference_induce_horizontal_on_boxv(p_data: HPropData, q_data: HPropData, module=None):
    """induce_horizontal_on_boxv as propcalc computed it with dense loops:
    expand each class through the sections, switch, compose in P and Q, and
    project back to the middle coinvariants, entry by entry.  Returns
    (module, HPropData).

    `module` may supply a prebuilt box_v(P, Q); the construction only depends
    on it through projections onto the middle coinvariants, never on the
    choice of sections (section-independence is what makes the map well
    defined on classes).
    """
    p, q = p_data.module, q_data.module
    r = module if module is not None else box_v(p, q)
    hcomp = {}
    keys = sorted(r.components, key=lambda kk: (kk[0], kk[1]))
    for key1 in keys:
        for key2 in keys:
            c1 = r.component(*key1)
            c2 = r.component(*key2)
            merged_out = merge_keys(r.palette, [key1[0], key2[0]])
            merged_in = merge_keys(r.palette, [key1[1], key2[1]])
            target = r.component(merged_out, merged_in)
            if target is None:
                continue
            space = TensorSpace([c1.carrier, c2.carrier])
            mats = {
                n: zeros(target.carrier.dim(n), space.complex.dim(n))
                for n in space.complex.degrees()
            }
            _reference_fill_boxv_horizontal(p_data, q_data, c1, c2, target, space, mats)
            hcomp[(key1, key2)] = ChainMap(space.complex, target.carrier, rows_of(mats), check=False)
    return r, HPropData(r, hcomp)


def _reference_fill_boxv_horizontal(p_data, q_data, c1, c2, target, space, mats):
    lay1, lay2, tgt = c1.layout, c2.layout, target.layout
    for piece1, off1 in zip(lay1.pieces, lay1.offsets):
        for piece2, off2 in zip(lay2.pieces, lay2.offsets):
            t = tgt.find(merge_keys(p_data.module.palette, [piece1.key, piece2.key]))
            if t is None:
                continue
            e1 = piece1.component.layout
            e2 = piece2.component.layout
            h_p = p_data.compose_map(
                (e1.left.out_key, e1.left.in_key), (e2.left.out_key, e2.left.in_key)
            )
            h_q = q_data.compose_map(
                (e1.right.out_key, e1.right.in_key), (e2.right.out_key, e2.right.in_key)
            )
            if h_p.is_zero() or h_q.is_zero():
                continue
            _reference_fill_boxv_piece(
                (piece1.component, off1),
                (piece2.component, off2),
                (tgt.pieces[t].component.layout, tgt.offsets[t]),
                h_p,
                h_q,
                space,
                mats,
            )


def _reference_fill_boxv_piece(first, second, target, h_p, h_q, space, mats):
    """Add the composites of one pair of middle pieces; first and second are
    (piece component, its per-degree offset), target is (CoinvariantLayout,
    per-degree offset)."""
    (c1, off1), (c2, off2), (te, t_off) = first, second, target
    e1, e2 = c1.layout, c2.layout
    sp1 = e1.space  # TensorSpace([x1, y1])
    sp2 = e2.space
    xp_space = TensorSpace([sp1.factors[0], sp2.factors[0]])
    yq_space = TensorSpace([sp1.factors[1], sp2.factors[1]])
    tgt_space = te.space  # TensorSpace([P(kd,mid), Q(mid,kc)])
    sect1, sect2, proj = dense_mats(e1.sect), dense_mats(e2.sect), dense_mats(te.proj)
    p_mats, q_mats = dense_mats(h_p), dense_mats(h_q)
    for d1 in c1.carrier.degrees():
        v1 = sect1.get(d1, ())
        for d2 in c2.carrier.degrees():
            v2 = sect2.get(d2, ())
            n = d1 + d2
            if space.complex.dim(n) == 0:
                continue
            pm = proj.get(n, ())
            for b1 in range(c1.carrier.dim(d1)):
                for b2 in range(c2.carrier.dim(d2)):
                    col = space.flat_index(
                        (d1, d2), (off1.get(d1, 0) + b1, off2.get(d2, 0) + b2)
                    )
                    # expand representatives
                    for r1 in range(len(v1)):
                        a1 = v1[r1][b1]
                        if a1 == 0:
                            continue
                        (dx1, dy1), (i1, j1) = sp1.unflatten(d1, r1)
                        for r2 in range(len(v2)):
                            a2 = v2[r2][b2]
                            if a2 == 0:
                                continue
                            (dx2, dy2), (i2, j2) = sp2.unflatten(d2, r2)
                            sign = -1 if (dy1 % 2 and dx2 % 2) else 1
                            pcol = xp_space.flat_index((dx1, dx2), (i1, i2))
                            qcol = yq_space.flat_index((dy1, dy2), (j1, j2))
                            mp = p_mats.get(dx1 + dx2)
                            mq = q_mats.get(dy1 + dy2)
                            if mp is None or mq is None:
                                continue
                            for rp in range(len(mp)):
                                ap = mp[rp][pcol]
                                if ap == 0:
                                    continue
                                for rq in range(len(mq)):
                                    aq = mq[rq][qcol]
                                    if aq == 0:
                                        continue
                                    traw = tgt_space.flat_index(
                                        (dx1 + dx2, dy1 + dy2), (rp, rq)
                                    )
                                    for rt in range(len(pm)):
                                        c = pm[rt][traw]
                                        if c == 0:
                                            continue
                                        row = t_off.get(n, 0) + rt
                                        mats[n][row][col] += sign * a1 * a2 * ap * aq * c
