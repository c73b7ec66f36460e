import random
from fractions import Fraction

import pytest

from propcalc import linalg
from propcalc.chains import (
    ChainComplex,
    ChainError,
    ChainMap,
    TensorSpace,
    Unsolvable,
    assemble_tensor_map,
    base_field_complex,
    boundary_of_map,
    classify_map,
    direct_sum,
    disc_complex,
    equivariant_average,
    factor_permutation_map,
    homology_dims,
    path_object,
    place_blocks,
    solve_constrained_lift,
    sum_offsets,
    tensor,
    tensor_maps,
)
from propcalc.profiles import Permutation

from helpers import (
    dense_add,
    dense_d,
    dense_is_zero,
    dense_kernel_basis,
    dense_mat,
    dense_mats,
    dense_mul,
    dense_quotient_by_rowspace,
    dense_rank,
    dense_scale,
    dense_tensor_boundary,
    exact_scalar,
    identity,
    is_signed_permutation,
    matrix_rows,
    reference_assemble_tensor_map,
    reference_compose,
    reference_factor_permutation_map,
    reference_lift_solve,
    reference_path_object,
    reference_place_blocks,
    rows_of,
    zeros,
)

F = Fraction


def random_complex(rng, max_deg=3, max_dim=3):
    """Random bounded complex with d^2 = 0 built from a random filtration."""
    dims = {n: rng.randint(0, max_dim) for n in range(max_deg + 1)}
    boundary = {}
    for n in range(1, max_deg + 1):
        if not dims.get(n) or not dims.get(n - 1):
            continue
        # d = A @ B with rank cut so that d^2 = 0 can be arranged degree by degree:
        # start from a random matrix, then project away the part hitting the
        # previous image (exact, so d^2 = 0 precisely).
        m = [[F(rng.randint(-2, 2)) for _ in range(dims[n])] for _ in range(dims[n - 1])]
        if (n - 1) in boundary:
            prev = boundary[n - 1]
            # columns of m must lie in ker(prev): project via solving
            ker = dense_kernel_basis(prev)
            if not ker:
                m = zeros(dims[n - 1], dims[n])
            else:
                coords = [[F(rng.randint(-2, 2)) for _ in range(dims[n])] for _ in range(len(ker))]
                m = dense_mul(
                    [[ker[j][i] for j in range(len(ker))] for i in range(dims[n - 1])], coords
                )
        if not dense_is_zero(m):
            boundary[n] = m
    return ChainComplex({n: d for n, d in dims.items() if d}, rows_of(boundary))


def test_d_squared_checked():
    with pytest.raises(ChainError):
        ChainComplex({0: 1, 1: 1, 2: 1}, rows_of({1: [[1]], 2: [[1]]}))


def test_d_squared_checked_on_fraction_boundaries():
    # rows built from Fractions, made exact by rows_of, are still checked
    with pytest.raises(ChainError):
        ChainComplex({0: 2, 1: 2, 2: 1}, rows_of({1: [[F(1), F(0)], [F(0), F(0)]], 2: [[F(1, 2)], [F(0)]]}))
    ChainComplex({0: 2, 1: 2, 2: 1}, rows_of({1: [[F(1), F(0)], [F(0), F(0)]], 2: [[F(0)], [F(1, 2)]]}))


def test_degree_zero_map_checked_against_differentials():
    x = disc_complex()
    with pytest.raises(ChainError):
        ChainMap(x, x, rows_of({0: [[F(1)]], 1: [[F(2)]]}))
    with pytest.raises(ChainError):
        ChainMap(x, x, rows_of({1: [[F(1)]]}))
    assert dense_mat(ChainMap(x, x, rows_of({0: [[F(2)]], 1: [[F(2)]]})), 1) == [[F(2)]]


def test_constructors_copy_their_matrices():
    # matrices handed over as dense lists, as perfbench/inputs.py builds them,
    # are read into rows of their own
    d = [[F(1), F(-1)]]
    x = ChainComplex({0: 1, 1: 2}, {1: d})
    m = [[F(1), F(0)], [F(0), F(1)]]
    f = ChainMap(x, x, {1: m, 0: [[F(1)]]})
    d[0][0] = F(5)
    d.append([F(7), F(7)])
    m[0][1] = F(3)
    m[1] = [F(9), F(9)]
    assert dense_d(x, 1) == [[F(1), F(-1)]]
    assert dense_mat(f, 1) == [[F(1), F(0)], [F(0), F(1)]]


def test_constructors_coerce_ints_and_strings():
    x = ChainComplex({0: 1, 1: 2}, {1: [[1, "1/2"]]})
    f = ChainMap(x, x, {1: [["1/2", 0], [0, "1/2"]], 0: [["1/2"]]})
    for row in dense_d(x, 1) + dense_mat(f, 1) + dense_mat(f, 0):
        assert all(map(exact_scalar, row))
    assert dense_d(x, 1) == [[F(1), F(1, 2)]]
    assert dense_mat(f, 1) == [[F(1, 2), F(0)], [F(0), F(1, 2)]]
    # a row mixing Fractions and ints is coerced entry by entry: the integral Fraction becomes an int
    y = ChainComplex({0: 1, 1: 2}, {1: [[F(1), 2]]})
    assert [type(v) for v in dense_d(y, 1)[0]] == [int, int]
    # rows given as tuples are read like lists
    z = ChainComplex({0: 1, 1: 2}, {1: [(F(1), F(2))]})
    assert dense_d(z, 1) == [[F(1), F(2)]] and z == y


def test_four_factor_tensor_space_matches_dense_construction():
    rng = random.Random(7)
    for _ in range(2):
        d1 = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(2)] for _ in range(3)]
        x = ChainComplex({0: 3, 1: 2}, rows_of({1: d1}))
        space = TensorSpace([x] * 4)
        assert space.complex.total_dim() == 625
        expected = dense_tensor_boundary(space)
        assert sorted(space.complex.boundary) == sorted(expected)
        for n, m in expected.items():
            assert dense_d(space.complex, n) == m
    # factors of different shapes, with zero spaces in the middle degrees
    y = ChainComplex({0: 1, 2: 2, 3: 1}, rows_of({3: [[F(1)], [F(-2)]]}))
    space = TensorSpace([x, y, disc_complex()])
    for n, m in dense_tensor_boundary(space).items():
        assert dense_d(space.complex, n) == m


def test_degree_zero_no_outgoing():
    with pytest.raises(ChainError):
        ChainComplex({0: 1}, rows_of({0: [[1]]}))


def test_random_complexes_valid():
    rng = random.Random(0)
    for _ in range(50):
        x = random_complex(rng)
        for n in range(1, 5):
            if x.dim(n) and x.dim(n - 2):
                prod = dense_mul(dense_d(x, n - 1), dense_d(x, n))
                assert dense_is_zero(prod)


def test_unit_tensor():
    rng = random.Random(1)
    q = base_field_complex()
    for _ in range(10):
        x = random_complex(rng)
        t = tensor(q, x)
        assert t.dims == x.dims
        for n in x.degrees():
            assert dense_d(t, n) == dense_d(x, n)


def test_tensor_d_squared_random():
    rng = random.Random(2)
    for _ in range(200):
        x = random_complex(rng, max_deg=2, max_dim=2)
        y = random_complex(rng, max_deg=2, max_dim=2)
        t = tensor(x, y)
        for n in range(1, 6):
            if t.dim(n) and t.dim(n - 2):
                assert dense_is_zero(dense_mul(dense_d(t, n - 1), dense_d(t, n)))


def test_symmetry_sign_on_odd_degrees():
    x = ChainComplex({1: 1})
    sw = factor_permutation_map([x, x], Permutation([2, 1]))
    assert dense_mat(sw, 2) == [[F(-1)]]


def test_symmetry_involution():
    rng = random.Random(3)
    for _ in range(20):
        x = random_complex(rng, max_deg=2, max_dim=2)
        y = random_complex(rng, max_deg=2, max_dim=2)
        if TensorSpace([x, y]).complex.is_zero():
            continue
        sw = factor_permutation_map([x, y], Permutation([2, 1]))
        sw_back = factor_permutation_map([y, x], Permutation([2, 1]))
        comp = sw_back.compose(sw)
        for n in comp.source.degrees():
            assert dense_mat(comp, n) == identity(comp.source.dim(n))


def test_tensor_maps_koszul_sign():
    # f = id on Q[1], g = id on Q[1]; (f (x) g) has no sign, but a degree-1 g
    # against a degree-1 source element produces one.
    x0 = base_field_complex()
    x1 = ChainComplex({1: 1})
    # g: x0 -> x1 of degree 1 (the hom-degree-1 element)
    g = ChainMap(x0, x1, rows_of({0: [[1]]}), degree=1, check=False)
    f = ChainMap(x1, x1, rows_of({1: [[1]]}), degree=0, check=False)
    fg = tensor_maps(f, g)
    # source basis in degree 1: x1 (x) x0; sign = (-1)^{|g| * 1} = -1
    assert dense_mat(fg, 1) == [[F(-1)]]


def test_one_factor_tensor_space_is_its_factor():
    rng = random.Random(5)
    for x in [ChainComplex({}), base_field_complex(), disc_complex()] + [random_complex(rng) for _ in range(10)]:
        space = TensorSpace([x])
        assert space.complex is x
        assert [space.dim(n) for n in range(5)] == [x.dim(n) for n in range(5)]


def test_tensor_space_checks_d_squared_of_its_product():
    # y was built unchecked and has d o d != 0 out of degree 2
    y = ChainComplex({0: 1, 1: 1, 2: 1}, rows_of({1: [[1]], 2: [[1]]}), check=False)
    with pytest.raises(ChainError) as own:
        ChainComplex(y.dims, rows_of({n: dense_d(y, n) for n in y.boundary}))
    assert str(own.value) == "d o d != 0 out of degree 2"
    for x, degree in ((base_field_complex(), 2), (ChainComplex({1: 2}), 3), (disc_complex(), 2)):
        for factors in ([x, y], [y, x]):
            with pytest.raises(ChainError) as raised:
                TensorSpace(factors)
            assert str(raised.value) == "d o d != 0 out of degree %d" % degree
    # a zero factor leaves nothing to check
    assert TensorSpace([ChainComplex({}), y]).complex.is_zero()


def test_random_tensor_spaces_match_dense_construction():
    rng = random.Random(8)
    for _ in range(60):
        factors = [random_complex(rng, max_deg=2, max_dim=2) for _ in range(rng.randint(2, 3))]
        space = TensorSpace(factors)
        expected = dense_tensor_boundary(space)
        assert sorted(space.complex.boundary) == sorted(expected)
        for n, m in expected.items():
            assert dense_d(space.complex, n) == m
        assert space.complex.dims == {n: space.dim(n) for n in range(7) if space.dim(n)}


def test_built_tensor_complex_equals_the_checked_construction():
    # TensorSpace hands its complex the boundary rows it built, not coerced;
    # the public constructor must make the same complex from the same
    # matrices given dense
    rng = random.Random(41)
    negative = 0
    for _ in range(40):
        factors = [random_odd_complex(rng, max_dim=2) for _ in range(rng.randint(2, 3))]
        built = TensorSpace(factors).complex
        checked = ChainComplex(built.dims, rows_of({n: dense_d(built, n) for n in built.boundary}))
        assert built == checked and checked == built
        assert (built.dims, built.boundary) == (checked.dims, checked.boundary)
        assert all(type(n) is int and type(d) is int for n, d in built.dims.items())
        entries = [x for m in built.boundary.values() for row in m for x in row.values()]
        assert all(x != 0 and exact_scalar(x) for x in entries)
        assert 0 not in built.boundary and all(map(any, built.boundary.values()))
        negative += any(x == -1 for x in entries)
    assert negative > 0


def random_map(rng, source, target, degree):
    """A degree-`degree` map of random entries, with some zero entries and
    now and then a zero map."""
    if rng.random() < 0.05:
        return ChainMap.zero(source, target, degree)
    mats = {}
    for j in source.degrees():
        rows, cols = target.dim(j + degree), source.dim(j)
        if rows and cols:
            mats[j] = [
                [F(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.7 else F(0) for _ in range(cols)]
                for _ in range(rows)
            ]
    return ChainMap(source, target, rows_of(mats), degree, check=False)


def random_carrier(rng):
    """A nonzero complex in degrees 0-2, now and then the zero complex."""
    if rng.random() < 0.03:
        return ChainComplex({})
    x = ChainComplex({})
    while x.is_zero():
        x = random_complex(rng, max_deg=2, max_dim=2)
    return x


def test_assemble_tensor_map_matches_reference():
    rng = random.Random(12)
    cases = signed = zero_factor = zero_map = 0
    while cases < 300:
        groups = []
        for _ in range(rng.randint(1, 3)):
            src = [random_carrier(rng) for _ in range(rng.randint(1, 2))]
            tgt = [random_carrier(rng) for _ in range(rng.randint(1, 2))]
            gsrc, gtgt = TensorSpace(src), TensorSpace(tgt)
            groups.append((gsrc, gtgt, random_map(rng, gsrc.complex, gtgt.complex, rng.randint(0, 1))))
        src_space = TensorSpace([x for g in groups for x in g[0].factors])
        tgt_space = TensorSpace([x for g in groups for x in g[1].factors])
        if src_space.complex.total_dim() > 120 or tgt_space.complex.total_dim() > 120:
            continue
        cases += 1
        ours = assemble_tensor_map(src_space, tgt_space, groups)
        theirs = reference_assemble_tensor_map(src_space, tgt_space, groups)
        assert ours.degree == theirs.degree == sum(g[2].degree for g in groups)
        assert ours.source is src_space.complex and ours.target is tgt_space.complex
        assert sorted(dense_mats(ours)) == sorted(dense_mats(theirs))
        for n, m in dense_mats(theirs).items():
            assert dense_mats(ours)[n] == m
        zero_factor += any(x.is_zero() for x in src_space.factors + tgt_space.factors)
        zero_map += any(g[2].is_zero() for g in groups)
        # a -1 Koszul sign: an odd map after a group whose source has odd degrees
        signed += not ours.is_zero() and any(
            groups[j][2].degree % 2 and any(n % 2 for g in groups[:j] for n in g[0].complex.degrees())
            for j in range(1, len(groups))
        )
    assert signed >= 15 and zero_factor >= 10 and zero_map >= 20, (signed, zero_factor, zero_map)


def test_assemble_tensor_map_rejects_uncovered_factors():
    x = disc_complex()
    xs = TensorSpace([x])
    identity = ChainMap.identity(x)
    for src, tgt in ((TensorSpace([x, x]), TensorSpace([x])), (TensorSpace([x]), TensorSpace([x, x]))):
        with pytest.raises(ChainError, match="^group widths do not cover the tensor factors$"):
            assemble_tensor_map(src, tgt, [(xs, xs, identity)])


# -- signed permutations against dense maps ----------------------------------------


def random_signed(rng, source, target=None):
    """A random signed permutation from source onto target (equal dims), and
    its matrices written here densely."""
    target = source if target is None else target
    mats = {}
    for n, d in source.dims.items():
        targets = list(range(d))
        rng.shuffle(targets)
        mats[n] = [[F(0)] * d for _ in range(d)]
        for i, t in enumerate(targets):
            mats[n][t][i] = F(-1) if rng.random() < 0.4 else F(1)
    return ChainMap(source, target, rows_of(mats), check=False), mats


def assert_same_entries(ours, theirs):
    assert ours.degree == theirs.degree
    assert sorted(dense_mats(ours)) == sorted(dense_mats(theirs))
    for n, m in dense_mats(theirs).items():
        assert dense_mats(ours)[n] == m
    # the rows hold only nonzero exact scalars
    assert all(x != 0 and exact_scalar(x) for rows in ours.rows.values() for row in rows for x in row.values())


def minus_ones(f):
    return sum(x == -1 for rows in f.rows.values() for row in rows for x in row.values())


def random_odd_complex(rng, max_dim=3):
    """A random complex with a nonzero odd degree, so that signed permutations
    carry -1 entries where they meet Koszul signs."""
    while True:
        x = random_complex(rng, max_deg=3, max_dim=max_dim)
        if any(n % 2 for n in x.dims):
            return x


def test_signed_compose_and_eq_match_dense_maps():
    rng = random.Random(31)
    negative = 0
    for _ in range(250):
        x = random_odd_complex(rng)
        f, f_mats = random_signed(rng, x)
        g, g_mats = random_signed(rng, x)
        assert dense_mats(f) == f_mats and is_signed_permutation(f)
        fg = f.compose(g)
        assert is_signed_permutation(fg)
        assert_same_entries(fg, reference_compose(f, g))
        assert (f == g) == (f_mats == g_mats)
        assert f == ChainMap(x, x, rows_of(f_mats), check=False) and fg == reference_compose(f, g)
        # one sign flipped
        n = rng.choice(sorted(x.dims))
        flipped = dict(f_mats)
        flipped[n] = [[-v if c == 0 else v for c, v in enumerate(row)] for row in f_mats[n]]
        assert f != ChainMap(x, x, rows_of(flipped), check=False)
        negative += minus_ones(fg) > 0
    assert negative >= 200, negative


def test_signed_mixed_compose_matches_dense_maps():
    rng = random.Random(32)
    cases = 0
    while cases < 250:
        x = random_odd_complex(rng)
        y = random_complex(rng, max_deg=3, max_dim=3)
        if y.is_zero():
            continue
        cases += 1
        f, _ = random_signed(rng, x)
        k = rng.randint(0, 1)
        into = random_map(rng, y, x, k)
        out_of = random_map(rng, x, y, k)
        for ours, theirs in ((f.compose(into), reference_compose(f, into)), (out_of.compose(f), reference_compose(out_of, f))):
            assert_same_entries(ours, theirs)
            assert ours == theirs


def test_signed_place_blocks_matches_dense_blocks():
    rng = random.Random(33)
    kinds = {"signed": 0, "general": 0, "partial": 0}
    for case in range(240):
        x = random_odd_complex(rng, max_dim=2)
        count = rng.randint(1, 3)
        total = direct_sum(*[x] * count)
        offsets = sum_offsets([x] * count)
        order = list(range(count))
        rng.shuffle(order)
        maps = [random_signed(rng, x)[0] for _ in range(count)]
        kind = ("signed", "general", "partial")[case % 3] if count > 1 else "signed"
        kinds[kind] += 1
        if kind == "partial":
            order, maps = order[1:], maps[1:]
        if kind == "general":
            maps[0] = maps[0].scale(2)
        blocks = [(f, offsets[t], offsets[i]) for i, (t, f) in enumerate(zip(order, maps))]
        ours = place_blocks(total, total, iter(blocks))
        assert_same_entries(ours, reference_place_blocks(total, total, blocks))
        assert is_signed_permutation(ours) == (kind == "signed")
    assert min(kinds.values()) >= 50, kinds


def test_signed_assemble_tensor_map_matches_reference():
    rng = random.Random(34)
    negative = 0
    for _ in range(220):
        factors = [random_odd_complex(rng, max_dim=2) for _ in range(rng.randint(1, 3))]
        maps = [random_signed(rng, x)[0] for x in factors]
        src_space = TensorSpace(factors)
        tgt_space = TensorSpace(list(factors))
        spaces = [TensorSpace([x]) for x in factors]
        groups = [(s, s, f) for s, f in zip(spaces, maps)]
        ours = assemble_tensor_map(src_space, tgt_space, groups)
        theirs = reference_assemble_tensor_map(src_space, tgt_space, groups)
        assert is_signed_permutation(ours)
        assert ours.source is src_space.complex and ours.target is tgt_space.complex
        assert_same_entries(ours, theirs)
        negative += minus_ones(ours) > 0
    assert negative >= 150, negative


def test_factor_permutation_map_matches_reference():
    rng = random.Random(35)
    koszul = 0
    for _ in range(220):
        factors = [random_odd_complex(rng, max_dim=2) for _ in range(rng.randint(1, 3))]
        images = list(range(1, len(factors) + 1))
        rng.shuffle(images)
        perm = Permutation(images)
        ours = factor_permutation_map(factors, perm)
        theirs = reference_factor_permutation_map(factors, perm)
        assert is_signed_permutation(ours)
        assert_same_entries(ours, theirs)
        koszul += minus_ones(ours) > 0
    assert koszul >= 50, koszul


def test_signed_permutations_through_compose_add_place_and_tensor_match_dense_references():
    """Signed permutations with -1 entries, in several degrees, composed on
    either side of a general map, added to it, placed beside it and tensored
    with it: every result equals its dense reference entry for entry."""
    rng = random.Random(36)
    seen = {"minus one": 0, "degrees": 0, "odd tensor": 0}
    for _ in range(150):
        x = random_odd_complex(rng, max_dim=2)
        y = random_odd_complex(rng, max_dim=2)
        s, _ = random_signed(rng, x)
        t, _ = random_signed(rng, y)
        seen["minus one"] += minus_ones(s) > 0
        seen["degrees"] += len(s.rows) > 1
        k = rng.randint(0, 1)
        g = random_map(rng, x, y, k)
        composite = t.compose(g).compose(s)
        assert_same_entries(composite, reference_compose(reference_compose(t, g), s))
        h = random_map(rng, y, y, 0)
        summed = t.add(h).sub(t.scale(2))
        expected = ChainMap(
            y, y, rows_of({n: dense_add(dense_mat(h, n), dense_scale(-1, dense_mat(t, n))) for n in y.degrees()}), check=False
        )
        assert_same_entries(summed, expected)
        total = direct_sum(x, y, x)
        offsets = sum_offsets([x, y, x])
        blocks = [(s, offsets[2], offsets[0]), (h, offsets[1], offsets[1]), (s.compose(s), offsets[0], offsets[2])]
        assert_same_entries(place_blocks(total, total, iter(blocks)), reference_place_blocks(total, total, blocks))
        for pair in ((s, g), (g, t)):
            src_space = TensorSpace([m.source for m in pair])
            tgt_space = TensorSpace([m.target for m in pair])
            groups = [(TensorSpace([m.source]), TensorSpace([m.target]), m) for m in pair]
            ours = tensor_maps(*pair)
            assert_same_entries(ours, reference_assemble_tensor_map(src_space, tgt_space, groups))
            seen["odd tensor"] += k == 1 and minus_ones(ours) > 0
    assert min(seen.values()) >= 30, seen


def test_identity_builds_no_dense_matrix_until_read(monkeypatch):
    x = ChainComplex({0: 2, 1: 3, 2: 1})
    expected = {n: identity(d) for n, d in x.dims.items()}
    built = []
    real_densify = linalg.densify

    def counting_densify(row, n_cols):
        built.append((1, n_cols))
        return real_densify(row, n_cols)

    monkeypatch.setattr(linalg, "densify", counting_densify)
    ident = ChainMap.identity(x)
    assert ident.compose(ident) == ident and not built
    assert ident.rows == {n: [{i: 1} for i in range(d)] for n, d in x.dims.items()}
    assert dense_mats(ident) == expected
    assert sorted(built) == [(1, 1), (1, 2), (1, 2), (1, 3), (1, 3), (1, 3)]


def test_homology_disc_and_zero():
    assert homology_dims(ChainComplex({})) == {}
    assert homology_dims(disc_complex()) == {}
    assert homology_dims(base_field_complex()) == {0: 1}


def test_homology_against_sympy_rank_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4)
    for _ in range(30):
        x = random_complex(rng)
        ours = homology_dims(x)
        for n in x.degrees():
            dn = dense_d(x, n)
            dn1 = dense_d(x, n + 1)
            r1 = sympy.Matrix(dn).rank() if x.dim(n - 1) and x.dim(n) else 0
            r2 = sympy.Matrix(dn1).rank() if x.dim(n) and x.dim(n + 1) else 0
            expected = x.dim(n) - r1 - r2
            assert ours.get(n, 0) == expected


def test_classify_identity():
    x = disc_complex()
    flags = classify_map(ChainMap.identity(x))
    assert flags == {
        "quasiIso": True,
        "fibration": True,
        "cofibration": True,
        "acyclicFibration": True,
        "acyclicCofibration": True,
    }


def test_classify_projection_and_inclusion():
    x = base_field_complex()
    d = disc_complex()
    xd = direct_sum(x, d)
    # projection xd -> x
    proj = ChainMap(xd, x, rows_of({0: [[1, 0]]}))
    flags = classify_map(proj)
    assert flags["acyclicFibration"] and flags["quasiIso"] and flags["fibration"]
    assert not flags["cofibration"]
    # inclusion x -> xd
    inc = ChainMap(x, xd, rows_of({0: [[1], [0]]}))
    flags = classify_map(inc)
    assert flags["acyclicCofibration"] and flags["quasiIso"] and flags["cofibration"]
    assert not flags["fibration"]  # misses the disc in degree 1
    assert not flags["acyclicFibration"]


def test_classify_non_qiso():
    x = base_field_complex()
    y = ChainComplex({0: 2})
    f = ChainMap(x, y, rows_of({0: [[1], [0]]}))
    flags = classify_map(f)
    assert not flags["quasiIso"]
    assert flags["cofibration"]


def _random_chain_map(sympy, rng, x, y):
    """A random integer combination of a sympy nullspace basis of the
    equations d f_n = f_{n-1} d for degree-0 maps x -> y."""
    slots = [(n, i, j) for n in x.degrees() for i in range(y.dim(n)) for j in range(x.dim(n))]
    index = {slot: k for k, slot in enumerate(slots)}
    equations = []
    for n in x.degrees():
        dy, dx = dense_d(y, n), dense_d(x, n)
        for i in range(y.dim(n - 1) if n else 0):
            for j in range(x.dim(n)):
                row = [0] * len(slots)
                for k in range(y.dim(n)):
                    row[index[(n, k, j)]] += dy[i][k]
                for k in range(x.dim(n - 1)):
                    row[index[(n - 1, i, k)]] -= dx[k][j]
                equations.append(row)
    if equations:
        basis = [list(v) for v in sympy.Matrix(equations).nullspace()]
    else:
        basis = [[int(k == m) for k in range(len(slots))] for m in range(len(slots))]
    # a few basis vectors only, so that many maps lose homology
    picked = [(rng.randint(-2, 2), v) for v in rng.sample(basis, rng.randint(0, len(basis)))]
    values = [sum((c * F(str(v[k])) for c, v in picked), F(0)) for k in range(len(slots))]
    mats = {n: zeros(y.dim(n), x.dim(n)) for n in x.degrees()}
    for (n, i, j), v in zip(slots, values):
        mats[n][i][j] = v
    return ChainMap(x, y, rows_of(mats))


def _cone_is_acyclic(sympy, f):
    """f is a quasi-isomorphism iff its mapping cone, x_{n-1} + y_n with
    D = [[-d, 0], [f, d]], is acyclic: dim = rank D_n + rank D_{n+1}."""
    x, y = f.source, f.target

    def rank(n):
        rows, cols = x.dim(n - 2) + y.dim(n - 1), x.dim(n - 1) + y.dim(n)
        if not rows or not cols or n < 1:
            return 0
        m = sympy.zeros(rows, cols)
        if n >= 2:
            for i, row in enumerate(dense_d(x, n - 1)):
                for j, v in enumerate(row):
                    m[i, j] = -v
        for i, row in enumerate(dense_mat(f, n - 1)):
            for j, v in enumerate(row):
                m[x.dim(n - 2) + i, j] = v
        for i, row in enumerate(dense_d(y, n)):
            for j, v in enumerate(row):
                m[x.dim(n - 2) + i, x.dim(n - 1) + j] = v
        return m.rank()

    top = max(x.top_degree, y.top_degree) + 2
    return all(x.dim(n - 1) + y.dim(n) == rank(n) + rank(n + 1) for n in range(top + 1))


def test_induced_homology_iso_against_a_mapping_cone_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(18)
    counts = {"qiso": 0, "same betti, not qiso": 0, "other betti": 0}
    for case in range(120):
        x = random_complex(rng, max_deg=2, max_dim=3)
        y = x if case % 2 else random_complex(rng, max_deg=2, max_dim=3)
        f = _random_chain_map(sympy, rng, x, y)
        expected = _cone_is_acyclic(sympy, f)
        assert classify_map(f)["quasiIso"] == expected, case
        if expected:
            counts["qiso"] += 1
        elif homology_dims(x) == homology_dims(y):
            counts["same betti, not qiso"] += 1
        else:
            counts["other betti"] += 1
    assert min(counts.values()) >= 10, counts


def test_path_object_zero():
    p, s, d0, d1 = path_object(ChainComplex({}))
    assert p.is_zero()


def test_path_object_costs_nothing_for_empty_degrees():
    """A complex living in degrees N and up has the path object of the same
    complex moved down to degree 1, moved back up by N - 1; at N = 10^7 it is
    built at once, where a loop over every degree below N would stall."""
    n = 10**7

    def shifted(by_degree):
        return {k + n - 1: v for k, v in by_degree.items()}

    for dims, boundary in (({1: 1}, {}), ({1: 1, 2: 1}, {2: [[F(-1, 2)]]})):
        low = path_object(ChainComplex(dims, rows_of(boundary)))
        high = path_object(ChainComplex(shifted(dims), rows_of(shifted(boundary))))
        assert (high[0].dims, high[0].boundary) == (shifted(low[0].dims), shifted(low[0].boundary))
        for f, g in zip(high[1:], low[1:]):
            assert f.rows == shifted(g.rows)


def test_path_object_ground_field():
    x = base_field_complex()
    p, s, d0, d1 = path_object(x)
    assert [p.dim(n) for n in range(3)] == [1, 0, 0]
    assert homology_dims(p) == {0: 1}


def test_path_object_disc():
    x = disc_complex()
    p, s, d0, d1 = path_object(x)
    assert [p.dim(n) for n in range(3)] == [2, 2, 0]
    assert homology_dims(p) == {}


def path_contract(x):
    p, s, d0, d1 = path_object(x)
    idx = ChainMap.identity(x)
    assert d0.compose(s) == idx
    assert d1.compose(s) == idx
    sflags = classify_map(s)
    assert sflags["acyclicCofibration"], "s must be an injective quasi-isomorphism"
    # (d0,d1): P -> X x X surjective in positive degrees
    for n in p.degrees():
        if n == 0:
            continue
        stacked = dense_mat(d0, n) + dense_mat(d1, n)
        assert dense_rank(stacked) == 2 * x.dim(n)
    # cokernel of s is acyclic
    for n in p.degrees():
        rows = []
        sm = dense_mat(s, n)
        for j in range(x.dim(n)):
            rows.append([sm[i][j] for i in range(p.dim(n))])
        proj, _ = dense_quotient_by_rowspace(rows, p.dim(n))
    coker_dims = {}
    coker_bnd = {}
    projs = {}
    for n in p.degrees():
        rows = []
        sm = dense_mat(s, n)
        for j in range(x.dim(n)):
            rows.append([sm[i][j] for i in range(p.dim(n))])
        proj, sect = dense_quotient_by_rowspace(rows, p.dim(n))
        projs[n] = (proj, sect)
        if proj:
            coker_dims[n] = len(proj)
    for n in sorted(coker_dims):
        if n - 1 in coker_dims:
            proj_lo, _ = projs[n - 1]
            _, sect_hi = projs[n]
            coker_bnd[n] = dense_mul(proj_lo, dense_mul(dense_d(p, n), sect_hi))
    coker = ChainComplex(coker_dims, rows_of(coker_bnd), check=False)
    assert homology_dims(coker) == {}


def test_path_object_contract_randomized():
    rng = random.Random(5)
    for _ in range(40):
        x = random_complex(rng)
        path_contract(x)


def test_path_object_matches_the_dense_reference():
    # seeded complexes, each also with every boundary halved, and fixed ones
    # with X_0 = 0, with X_1 = 0 and with d_1 entries of 1/2
    rng = random.Random(19)
    xs = [
        ChainComplex({1: 2, 2: 1}, rows_of({2: [[F(1, 2)], [F(-1)]]})),
        ChainComplex({0: 2, 2: 1, 3: 1}, rows_of({3: [[F(1, 2)]]})),
        ChainComplex({0: 2, 1: 1}, rows_of({1: [[F(1, 2)], [F(-3)]]})),
        ChainComplex({0: 1, 1: 2, 2: 1}, rows_of({1: [[F(1, 2), F(1, 2)]], 2: [[F(1)], [F(-1)]]})),
        ChainComplex({0: 3}),
        ChainComplex({}),
        disc_complex(),
    ]
    for _ in range(60):
        x = random_complex(rng)
        xs += [x, ChainComplex(x.dims, rows_of({n: dense_scale(F(1, 2), dense_d(x, n)) for n in x.boundary}))]
    seen = {"X_0 = 0": 0, "X_1 = 0": 0, "d_1 has 1/2": 0}
    for x in xs:
        ours, ref = path_object(x), reference_path_object(x)
        assert ours[0] == ref[0]
        for f, g in zip(ours[1:], ref[1:]):
            assert (f.source, f.target, f.degree, f.rows) == (g.source, g.target, g.degree, g.rows)
        seen["X_0 = 0"] += not x.is_zero() and not x.dim(0)
        seen["X_1 = 0"] += not x.is_zero() and not x.dim(1)
        seen["d_1 has 1/2"] += any(v == F(1, 2) for row in x.d(1) for v in row.values())
    assert min(seen.values()) >= 3, seen


def test_boundary_of_map_squares_to_zero():
    rng = random.Random(6)
    for _ in range(40):
        x = random_complex(rng, max_deg=2, max_dim=2)
        y = random_complex(rng, max_deg=2, max_dim=2)
        k = rng.randint(0, 2)
        mats = {}
        for j in x.degrees():
            if y.dim(j + k):
                mats[j] = [
                    [F(rng.randint(-2, 2)) for _ in range(x.dim(j))] for _ in range(y.dim(j + k))
                ]
        f = ChainMap(x, y, rows_of(mats), degree=k, check=False)
        ddf = boundary_of_map(boundary_of_map(f))
        assert ddf.is_zero()


def row_terms(terms):
    """Lift terms (coeff, L, j, R) with dense L and R as rows."""
    return [(c, None if L is None else matrix_rows(L), j, None if R is None else matrix_rows(R)) for c, L, j, R in terms]


def dense_lift(source, target, degree, equations):
    """solve_constrained_lift on dense equations (terms, rhs)."""
    return solve_constrained_lift(
        source,
        target,
        degree,
        [(row_terms(terms), matrix_rows(rhs), len(rhs[0]) if rhs else 0) for terms, rhs in equations],
    )


def test_solver_identity_lift():
    x = base_field_complex()
    sol = dense_lift(
        x, x, 0, [([(F(1), identity(1), 0, None)], [[F(1)]])]
    )
    assert dense_mat(sol, 0) == [[F(1)]]


def test_solver_preimage_through_surjection():
    # phi: Q -> Q^2 with pi o phi = id for pi = [1 1]
    x = base_field_complex()
    y = ChainComplex({0: 2})
    pi = [[F(1), F(1)]]
    sol = dense_lift(x, y, 0, [([(F(1), pi, 0, None)], [[F(1)]])])
    got = dense_mul(pi, dense_mat(sol, 0))
    assert got == [[F(1)]]


def test_solver_inconsistent_certificate():
    x = base_field_complex()
    with pytest.raises(Unsolvable) as exc:
        dense_lift(
            x,
            x,
            0,
            [
                ([(F(1), identity(1), 0, None)], [[F(0)]]),
                ([(F(1), identity(1), 0, None)], [[F(1)]]),
            ],
        )
    assert exc.value.certificate is not None


def test_solver_substitution_property():
    rng = random.Random(8)
    for _ in range(20):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        src = ChainComplex({0: cols})
        tgt = ChainComplex({0: rows})
        L = [[F(rng.randint(-2, 2)) for _ in range(rows)] for _ in range(rng.randint(1, 3))]
        phi0 = [[F(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        rhs = dense_mul(L, phi0)
        sol = dense_lift(src, tgt, 0, [([(F(1), L, 0, None)], rhs)])
        assert dense_mul(L, dense_mat(sol, 0)) == rhs


def test_solver_sums_terms_on_the_same_unknown():
    # coeff_1 L_1 phi R_1 + coeff_2 L_2 phi R_2 + coeff_3 phi = rhs, with entries
    # of several terms landing on the same unknown
    rng = random.Random(9)
    for _ in range(20):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        src = ChainComplex({0: cols})
        tgt = ChainComplex({0: rows})
        er, ec = rng.randint(1, 3), rng.randint(1, 3)
        terms = []
        for _ in range(2):
            L = [[F(rng.randint(-2, 2)) for _ in range(rows)] for _ in range(er)]
            R = [[F(rng.randint(-2, 2)) for _ in range(ec)] for _ in range(cols)]
            terms.append((F(rng.choice([-2, 1, 3]), rng.choice([1, 2])), L, 0, R))
        if er <= rows and ec <= cols:
            terms.append((F(1, 2), None, 0, None))

        def apply(phi):
            total = zeros(er, ec)
            for coeff, L, _, R in terms:
                left = L if L is not None else [[F(int(i == p)) for p in range(rows)] for i in range(er)]
                right = R if R is not None else [[F(int(q == b)) for b in range(ec)] for q in range(cols)]
                total = dense_add(total, dense_scale(coeff, dense_mul(dense_mul(left, phi), right)))
            return total

        phi0 = [[F(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        rhs = apply(phi0)
        sol = dense_lift(src, tgt, 0, [(terms, rhs)])
        assert apply(dense_mat(sol, 0)) == rhs


def test_solver_terms_that_cancel_leave_no_zero_entry():
    # L phi + 0 phi - L phi = rhs: every entry cancels.  A zero rhs then constrains
    # nothing, a nonzero one is inconsistent; a zero left in an equation row
    # would be taken as a pivot
    from propcalc.chains import LiftProblem

    x = ChainComplex({0: 2})
    L = [[F(1), F(2)], [F(0), F(1)]]
    cancel = [(F(1), L, 0, None), (F(0), None, 0, None), (F(-1), L, 0, None)]
    target = [[F(1), F(-1)], [F(3), F(1, 2)]]
    sol = dense_lift(x, x, 0, [(cancel, zeros(2, 2)), ([(F(1), None, 0, None)], target)])
    assert dense_mat(sol, 0) == target
    prob = LiftProblem(x, x, 0)
    prob.add_equation(row_terms(cancel), matrix_rows(target), 2)
    with pytest.raises(Unsolvable) as ours:
        prob.solve()
    with pytest.raises(Unsolvable) as reference:
        reference_lift_solve(prob)
    assert ours.value.certificate == reference.value.certificate == (0, [F(0)] * 4 + [F(1)])


def test_equivariant_average_swap():
    v = ChainComplex({0: 2})
    swap = ChainMap(v, v, rows_of({0: [[0, 1], [1, 0]]}))
    ident = ChainMap.identity(v)
    f = ChainMap(v, v, rows_of({0: [[1, 0], [0, 0]]}))
    avg = equivariant_average(f, [(ident, ident), (swap, swap)])
    assert dense_mat(avg, 0) == [[F(1, 2), F(0)], [F(0), F(1, 2)]]
    # averaging is idempotent
    again = equivariant_average(avg, [(ident, ident), (swap, swap)])
    assert again == avg
    # equivariant input unchanged
    eq = ChainMap(v, v, rows_of({0: [[2, 3], [3, 2]]}))
    assert equivariant_average(eq, [(ident, ident), (swap, swap)]) == eq
