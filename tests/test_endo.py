import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    dense_mat,
    dense_mats,
    dense_mul,
    dense_scale,
    hom_coordinates,
    identity,
    kron,
    random_permutation,
    reference_endo_permute,
    rows_of,
)
from propcalc import linalg
from propcalc.chains import ChainComplex, ChainMap, base_field_complex, factor_permutation_map
from propcalc.endo import (
    ColoredFamily,
    EndoElement,
    EndoError,
    FamilyMap,
    endo_component,
    endo_horizontal,
    endo_permute,
    endo_vertical,
    relative_endo_membership,
)
from propcalc.profiles import Palette, Permutation, Profile

F = Fraction
PAL = Palette(["a", "b"])


def prof(*colors):
    return Profile(PAL, colors)


def small_family(rng=None, max_dim=2):
    if rng is None:
        return ColoredFamily(
            PAL, {"a": base_field_complex(), "b": ChainComplex({0: 1, 1: 1})}
        )
    complexes = {}
    for c in PAL.colors:
        dims = {0: rng.randint(1, max_dim)}
        if rng.random() < 0.6:
            dims[1] = rng.randint(1, max_dim)
        bnd = {}
        if dims.get(1):
            bnd[1] = [[F(rng.randint(-1, 1)) for _ in range(dims[1])] for _ in range(dims[0])]
        complexes[c] = ChainComplex(dims, rows_of(bnd))
    return ColoredFamily(PAL, complexes)


def random_element(rng, fam, out_p, in_p, degree=None):
    src = fam.space(in_p).complex
    tgt = fam.space(out_p).complex
    if degree is None:
        degree = rng.randint(0, 1)
    mats = {}
    for j in src.degrees():
        if tgt.dim(j + degree):
            mats[j] = [
                [F(rng.randint(-2, 2)) for _ in range(src.dim(j))]
                for _ in range(tgt.dim(j + degree))
            ]
    return EndoElement.from_mats(fam, out_p, in_p, degree, rows_of(mats))


def test_hom_dims_ground_field():
    fam = ColoredFamily(PAL, {"a": base_field_complex(), "b": base_field_complex()})
    hom, _, _ = endo_component(fam, prof("a"), prof("a"))
    assert hom.dims == {0: 1}


def test_family_rejects_a_complex_outside_its_palette():
    complexes = {"a": base_field_complex(), "b": base_field_complex(), "zz": ChainComplex({0: 3})}
    with pytest.raises(EndoError, match="^family has a complex at color 'zz' outside its palette$"):
        ColoredFamily(PAL, complexes)


def test_hom_dims_two_step():
    fam = ColoredFamily(
        PAL, {"a": ChainComplex({0: 1, 1: 1}), "b": base_field_complex()}
    )
    hom, _, _ = endo_component(fam, prof("a"), prof("a"))
    assert hom.dim(0) == 2
    assert hom.dim(1) == 1
    assert hom.dim(-1) == 0


def test_hom_differential_squares_to_zero():
    rng = random.Random(0)
    for _ in range(20):
        fam = small_family(rng)
        hom, _, _ = endo_component(fam, prof("a", "b"), prof("b"))
        for n in hom.degrees():
            if hom.dim(n) and hom.dim(n - 2):
                assert not any(linalg.mat_mul(hom.d(n - 1), hom.d(n)))


def rational_complex(rng):
    """A small complex with a nonzero boundary carrying a non-integral entry:
    two terms with a random rational d, or three terms with d_1 = [a, b] and
    d_2 = [b, -a]^T, so d o d = 0; shifted up by 0 or 1 degrees."""
    shift = rng.randint(0, 1)
    a = F(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(2, 3))
    if rng.random() < 0.5:
        b = F(rng.randint(-3, 3), rng.randint(1, 3))
        return ChainComplex(
            {shift: 1, shift + 1: 2, shift + 2: 1}, rows_of({shift + 1: [[a, b]], shift + 2: [[b], [-a]]})
        )
    m, n = rng.randint(1, 2), rng.randint(1, 2)
    d = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
    d[0][0] = a
    return ChainComplex({shift: m, shift + 1: n}, rows_of({shift + 1: d}))


def test_hom_differential_entries_are_the_unit_boundaries():
    """Each column of endo_component's differential is D of that unit,
    boundary_of_map's d o f - (-1)^k f o d, read back through the returned
    index, on seeded families with rational boundaries and profiles of length
    1 to 3, at least 60 of them with non-integral entries in the hom
    differential; index[k] inverts bases[k]."""
    rng = random.Random(7)
    fractional = 0
    for _ in range(100):
        fam = ColoredFamily(PAL, {c: rational_complex(rng) for c in PAL.colors})
        out_p = prof(*rng.choices(PAL.colors, k=rng.randint(1, 3)))
        in_p = prof(*rng.choices(PAL.colors, k=rng.randint(1, 3)))
        if fam.space(out_p).complex.total_dim() * fam.space(in_p).complex.total_dim() > 300:
            continue
        hom, bases, index = endo_component(fam, out_p, in_p)
        assert hom.dims == {k: len(basis) for k, basis in bases.items()}
        for k, basis in bases.items():
            assert all(index[k][t] == i for i, t in enumerate(basis)) and len(index[k]) == len(basis)
            if k == 0:
                continue
            columns = linalg.columns(hom.d(k), len(basis))
            for col, (j, r, c) in enumerate(basis):
                unit = EndoElement.unit(fam, out_p, in_p, k, j, r, c).boundary()
                want = hom_coordinates(index[k - 1], unit.chain) if k - 1 in bases else {}
                assert unit.is_zero() or k - 1 in bases
                assert dict(columns[col]) == want
        entries = [x for rows in hom.boundary.values() for row in rows for x in row.values()]
        fractional += any(type(x) is F for x in entries)
    assert fractional >= 60


def test_vertical_identity():
    rng = random.Random(1)
    fam = small_family(rng)
    f = random_element(rng, fam, prof("a"), prof("b", "a"))
    ident = EndoElement.identity(fam, prof("b", "a"))
    assert endo_vertical(f, ident) == f
    ident_out = EndoElement.identity(fam, prof("a"))
    assert endo_vertical(ident_out, f) == f


def test_vertical_is_matrix_product_in_degree_zero():
    fam = ColoredFamily(PAL, {"a": ChainComplex({0: 2}), "b": ChainComplex({0: 2})})
    f = EndoElement.from_mats(fam, prof("a"), prof("b"), 0, rows_of({0: [[1, 2], [3, 4]]}))
    g = EndoElement.from_mats(fam, prof("b"), prof("a"), 0, rows_of({0: [[0, 1], [1, 0]]}))
    fg = endo_vertical(f, g)
    assert dense_mat(fg.chain, 0) == dense_mul(dense_mat(f.chain, 0), dense_mat(g.chain, 0))


def test_vertical_middle_mismatch():
    fam = small_family()
    f = EndoElement.identity(fam, prof("a"))
    g = EndoElement.identity(fam, prof("b"))
    with pytest.raises(EndoError):
        endo_vertical(f, g)


def test_vertical_associativity_random():
    rng = random.Random(2)
    for _ in range(25):
        fam = small_family(rng)
        p1, p2, p3, p4 = prof("a"), prof("b"), prof("a", "b"), prof("b")
        f = random_element(rng, fam, p1, p2)
        g = random_element(rng, fam, p2, p3)
        h = random_element(rng, fam, p3, p4)
        assert endo_vertical(endo_vertical(f, g), h) == endo_vertical(f, endo_vertical(g, h))


def test_horizontal_kronecker_degree_zero():
    fam = ColoredFamily(PAL, {"a": ChainComplex({0: 2}), "b": ChainComplex({0: 2})})
    f = EndoElement.from_mats(fam, prof("a"), prof("a"), 0, rows_of({0: [[1, 2], [3, 4]]}))
    g = EndoElement.from_mats(fam, prof("b"), prof("b"), 0, rows_of({0: [[5, 6], [7, 8]]}))
    fg = endo_horizontal(f, g)
    assert dense_mat(fg.chain, 0) == kron(dense_mat(f.chain, 0), dense_mat(g.chain, 0))


def test_horizontal_koszul_sign_odd_odd():
    fam = ColoredFamily(
        PAL, {"a": ChainComplex({0: 1, 1: 1, 2: 1}), "b": base_field_complex()}
    )
    # f, g of degree 1 on color a, acting in every degree
    f = EndoElement.from_mats(fam, prof("a"), prof("a"), 1, rows_of({0: [[1]], 1: [[1]]}))
    g = EndoElement.from_mats(fam, prof("a"), prof("a"), 1, rows_of({0: [[1]], 1: [[1]]}))
    fg = endo_horizontal(f, g)
    src_space = fam.space(prof("a", "a"))
    # on x_0 (x) x_0 the odd g crosses nothing: coefficient +1
    col = src_space.flat_index((0, 0), (0, 0))
    row = src_space.flat_index((1, 1), (0, 0))
    assert dense_mat(fg.chain, 0)[row][col] == 1
    # on x_1 (x) x_0 the odd g crosses the degree-1 letter: sign -1
    col2 = src_space.flat_index((1, 0), (0, 0))
    row2 = src_space.flat_index((2, 1), (0, 0))
    assert dense_mat(fg.chain, 1)[row2][col2] == F(-1)


def test_interchange_with_prescribed_sign():
    rng = random.Random(3)
    for _ in range(25):
        fam = small_family(rng)
        pa, pb = prof("a"), prof("b")
        f = random_element(rng, fam, pa, pb)
        g = random_element(rng, fam, pb, pa)
        h = random_element(rng, fam, pb, pa)
        k = random_element(rng, fam, pa, pb)
        lhs = endo_vertical(endo_horizontal(f, g), endo_horizontal(h, k))
        sign = F(-1) if (g.degree % 2 and h.degree % 2) else F(1)
        rhs = endo_horizontal(endo_vertical(f, h), endo_vertical(g, k)).scale(sign)
        assert lhs == rhs


def test_permute_identity():
    rng = random.Random(4)
    fam = small_family(rng)
    f = random_element(rng, fam, prof("a", "b"), prof("b", "a"))
    e2 = Permutation.identity(2)
    assert endo_permute(e2, e2, f) == f


def test_permute_swap_degree_zero_blocks():
    fam = ColoredFamily(PAL, {"a": ChainComplex({0: 1}), "b": ChainComplex({0: 1})})
    f = EndoElement.from_mats(fam, prof("a", "b"), prof("a"), 0, rows_of({0: [[F(7)]]}))
    swapped = endo_permute(Permutation([2, 1]), Permutation([1]), f)
    assert swapped.out_profile.entries == ("b", "a")
    assert dense_mat(swapped.chain, 0) == [[F(7)]]


def test_permute_action_law():
    rng = random.Random(5)
    for _ in range(25):
        fam = small_family(rng)
        out_p = prof("a", "b")
        in_p = prof("b", "a", "a")
        f = random_element(rng, fam, out_p, in_p)
        s1 = random_permutation(rng, 2)
        s2 = random_permutation(rng, 2)
        t1 = random_permutation(rng, 3)
        t2 = random_permutation(rng, 3)
        step = endo_permute(s1, t1, f)
        lhs = endo_permute(s2, t2, step)
        rhs = endo_permute(s2 * s1, t1 * t2, f)
        assert lhs == rhs


def test_membership_identity_map():
    rng = random.Random(6)
    fam = small_family(rng)
    ident = FamilyMap.identity(fam)
    f = random_element(rng, fam, prof("a"), prof("b"))
    g = random_element(rng, fam, prof("a"), prof("b"), degree=f.degree)
    ok, _ = relative_endo_membership(ident, f, f)
    assert ok
    if f != g:
        ok2, residual = relative_endo_membership(ident, f, g)
        assert not ok2
        assert not residual.is_zero()


def test_membership_pushforward_through_invertible():
    rng = random.Random(7)
    fam_x = ColoredFamily(PAL, {"a": ChainComplex({0: 2}), "b": ChainComplex({0: 1})})
    inv_mats = {"a": [[1, 1], [0, 1]], "b": [[2]]}
    fam_y = fam_x
    f = FamilyMap(
        fam_x,
        fam_y,
        {
            c: ChainMap(fam_x.complexes[c], fam_y.complexes[c], rows_of({0: inv_mats[c]}))
            for c in PAL.colors
        },
    )
    phi_x = random_element(rng, fam_x, prof("a"), prof("a", "b"), degree=0)
    # phi_y = f o phi_x o f^{-1} on profile tensors
    push = f.profile_map(prof("a")).compose(phi_x.chain)
    f_in = f.profile_map(prof("a", "b"))
    inv = ChainMap(
        f_in.target,
        f_in.source,
        {j: linalg.inverse(rows, f_in.source.dim(j)) for j, rows in f_in.rows.items()},
    )
    phi_y = EndoElement(fam_y, prof("a"), prof("a", "b"), push.compose(inv))
    ok, _ = relative_endo_membership(f, phi_x, phi_y)
    assert ok


def matched_pair(rng, f, out_p, in_p, degree=0):
    """(phi_x, phi_y) in E_f built by conjugating through an invertible f."""
    phi_x = random_element(rng, f.source, out_p, in_p, degree=degree)
    push = f.profile_map(out_p).compose(phi_x.chain)
    f_in = f.profile_map(in_p)
    inv = ChainMap(
        f_in.target,
        f_in.source,
        {j: linalg.inverse(rows, f_in.source.dim(j)) for j, rows in f_in.rows.items()},
        check=False,
    )
    phi_y = EndoElement(f.target, out_p, in_p, push.compose(inv))
    return phi_x, phi_y


def random_invertible_family_map(rng, fam):
    maps = {}
    for c in PAL.colors:
        x = fam.complexes[c]
        # one global scaling per color commutes with the differential and is invertible
        scale = F(rng.choice([1, 2, 3]))
        mats = {j: dense_scale(scale, identity(x.dim(j))) for j in x.degrees()}
        maps[c] = ChainMap(x, x, rows_of(mats))
    return FamilyMap(fam, fam, maps)


def test_relative_membership_closed_under_compositions():
    # pairs in E_f stay in E_f under vertical and horizontal composition
    rng = random.Random(9)
    for _ in range(15):
        fam = small_family(rng)
        f = random_invertible_family_map(rng, fam)
        pa, pb = prof("a"), prof("b")
        phi1x, phi1y = matched_pair(rng, f, pa, pb)
        phi2x, phi2y = matched_pair(rng, f, pb, pa)
        ok1, _ = relative_endo_membership(f, phi1x, phi1y)
        ok2, _ = relative_endo_membership(f, phi2x, phi2y)
        assert ok1 and ok2
        okv, _ = relative_endo_membership(
            f, endo_vertical(phi1x, phi2x), endo_vertical(phi1y, phi2y)
        )
        assert okv
        okh, _ = relative_endo_membership(
            f, endo_horizontal(phi1x, phi2x), endo_horizontal(phi1y, phi2y)
        )
        assert okh


def test_horizontal_associativity_strict_on_flat_bases():
    rng = random.Random(10)
    for _ in range(20):
        fam = small_family(rng)
        f = random_element(rng, fam, prof("a"), prof("b"))
        g = random_element(rng, fam, prof("b"), prof("a"))
        h = random_element(rng, fam, prof("a", "b"), prof("b"))
        left = endo_horizontal(endo_horizontal(f, g), h)
        right = endo_horizontal(f, endo_horizontal(g, h))
        assert left == right


def test_endo_prop_axioms_random_suite():
    # vertical/horizontal associativity, bi-equivariance, interchange signs
    rng = random.Random(11)
    for _ in range(15):
        fam = small_family(rng)
        if sum(x.total_dim() for x in fam.complexes.values()) > 8:
            continue
        f = random_element(rng, fam, prof("a"), prof("b"))
        g = random_element(rng, fam, prof("b"), prof("a"))
        s = Permutation([1])
        t = Permutation([1])
        # bi-equivariance of the horizontal composition
        s1 = Permutation([1])
        fg = endo_horizontal(f, g)
        lhs = endo_permute(Permutation([2, 1]), Permutation([2, 1]), fg)
        rhs = endo_permute(
            Permutation([2, 1]), Permutation([2, 1]), endo_horizontal(f, g)
        )
        assert lhs == rhs
        # block form: (sigma1 x sigma2; tau1 x tau2) o tensor = tensor o pair
        fg2 = endo_horizontal(
            endo_permute(Permutation([1]), Permutation([1]), f),
            endo_permute(Permutation([1]), Permutation([1]), g),
        )
        assert fg2 == fg


def graded_family():
    """Odd-degree classes in both colors, so that Koszul shuffles have -1 entries."""
    return ColoredFamily(
        PAL,
        {"a": ChainComplex({0: 1, 1: 1}, rows_of({1: [[F(1)]]})), "b": ChainComplex({0: 1, 1: 2})},
    )


def test_shuffle_cache_matches_fresh_koszul_map():
    fam = graded_family()
    negative = 0
    for entries in (("a", "a", "a"), ("a", "b", "a"), ("b", "a", "a")):
        profile = prof(*entries)
        for images in itertools.permutations((1, 2, 3)):
            sigma = Permutation(images)
            cached = fam.shuffle(profile, sigma)
            assert fam.shuffle(prof(*entries), Permutation(images)) is cached
            fresh = factor_permutation_map([fam.complexes[c] for c in entries], sigma)
            assert cached.source.dims == fresh.source.dims
            assert cached.target.dims == fresh.target.dims
            assert cached.degree == fresh.degree == 0
            assert dense_mats(cached) == dense_mats(fresh)
            negative += sum(x == -1 for m in dense_mats(cached).values() for row in m for x in row)
    assert negative > 0


def test_endo_permute_matches_fresh_composition_identities_included():
    rng = random.Random(17)
    fam = graded_family()
    out_p = prof("a", "a")
    in_p = prof("a", "b", "a")
    for degree in (0, 1):
        f = random_element(rng, fam, out_p, in_p, degree)
        assert not f.is_zero()
        for s_images in itertools.permutations((1, 2)):
            for t_images in itertools.permutations((1, 2, 3)):
                sigma, tau = Permutation(s_images), Permutation(t_images)
                got = endo_permute(sigma, tau, f)
                want = reference_endo_permute(sigma, tau, f)
                assert got.out_profile == want.out_profile
                assert got.in_profile == want.in_profile
                assert got.chain.degree == want.chain.degree
                assert dense_mats(got.chain) == dense_mats(want.chain)


def test_colors_with_equal_complexes_share_one_tensor_space_per_profile():
    disc = ChainComplex({0: 1, 1: 1}, rows_of({1: [[1]]}))
    fam = ColoredFamily(PAL, {"a": disc, "b": ChainComplex({0: 1, 1: 1}, rows_of({1: [[1]]}))})
    spaces = [fam.space(prof(*entries)) for entries in (("a", "b"), ("a", "a"), ("b", "a"))]
    assert spaces[0] is spaces[1] is spaces[2]
    assert fam.space(prof("b")) is fam.space(prof("a"))
    assert fam.shuffle(prof("a", "b"), Permutation((2, 1))) is fam.shuffle(prof("b", "a"), Permutation((2, 1)))
    # complexes that differ, even only in the differential, keep their own spaces
    for other in (ChainComplex({0: 1, 1: 1}), ChainComplex({0: 2})):
        fam = ColoredFamily(PAL, {"a": disc, "b": other})
        ab, aa, ba = (fam.space(prof(*entries)) for entries in (("a", "b"), ("a", "a"), ("b", "a")))
        assert len({id(ab), id(aa), id(ba)}) == 3
        assert ab.factors[0] is disc and ab.factors[1] is other
