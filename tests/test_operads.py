import itertools
import random
from fractions import Fraction

import pytest

from propcalc import linalg
from propcalc.chains import ChainComplex, ChainMap
from propcalc.endo import ColoredFamily, EndoElement
from propcalc.operads import (
    ColoredOperad,
    EndoPropData,
    OperadAlgebra,
    TruncationExceeded,
    associative_operad,
    check_unit_identity,
    compose_elements,
    endomorphism_operad,
    forget_to_operad,
    merge_in_keys,
    profile_key,
    prop_from_operad,
    tautological_endo_algebra,
    trivial_operad,
)
from propcalc.profiles import Palette, Permutation, Profile, stabilizer_elements

F = Fraction


def test_trivial_operad_valid():
    operad = trivial_operad(3)
    assert operad.validate() == []


def test_associative_operad_valid():
    operad = associative_operad(3)
    assert operad.validate() == []


def test_endo_operad_of_point_is_scalar():
    palette = Palette(["x"])
    fam = ColoredFamily(palette, {"x": ChainComplex({0: 1})})
    operad = endomorphism_operad(fam, 3)
    for (d, k) in operad.support():
        comp = operad.component(d, k)
        assert comp.carrier.dims == {0: 1}
    # gamma is multiplication
    k1 = profile_key(palette, ["x"])
    gm = operad.gamma_map("x", k1, (k1,))
    assert gm.mat(0) == [[F(1)]]
    assert operad.validate() == []


def test_endo_operad_gamma_associative_random():
    rng = random.Random(0)
    palette = Palette(["a", "b"])
    for _ in range(3):
        fam = ColoredFamily(
            palette,
            {
                "a": ChainComplex({0: rng.randint(1, 2)}),
                "b": ChainComplex({0: rng.randint(1, 2)}),
            },
        )
        operad = endomorphism_operad(fam, 2)
        assert operad.validate() == []


def test_prop_from_operad_single_output_identity():
    operad = associative_operad(3)
    opp = prop_from_operad(operad, 1, 3)
    for (d, k) in operad.support():
        comp = opp.component(d, k)
        assert comp is not None
        assert comp.carrier == operad.component(d, k).carrier


def test_oprop_dims_group_algebra():
    # O(n) = Q[Sigma_n]: dim O_prop(2,3) = 24
    operad = associative_operad(3)
    opp = prop_from_operad(operad, 2, 3)
    k2 = profile_key(operad.palette, ["x", "x"])
    k3 = profile_key(operad.palette, ["x", "x", "x"])
    comp = opp.opp_component(k2, k3)
    assert comp.carrier.dim(0) == 24
    # each of the two composition summands has induced dimension 12
    dims = [sub.carrier.dim(0) for _, sub in comp.layout.pieces]
    assert dims == [12, 12]


def test_oprop_dims_trivial():
    operad = trivial_operad(2)
    opp = prop_from_operad(operad, 2, 2)
    k2 = profile_key(operad.palette, ["x", "x"])
    comp = opp.opp_component(k2, k2)
    assert comp.carrier.dim(0) == 4


def brute_force_coset_dim(operad, sizes):
    """Independent dimension count for a one-colored composition tuple."""
    import math

    n = sum(sizes)
    m = len(sizes)
    g_order = math.factorial(m) * math.factorial(n)
    h_order = 1
    for s in sizes:
        h_order *= math.factorial(s)
    prod = 1
    color = operad.palette.colors[0]
    for s in sizes:
        prod *= operad.component(color, profile_key(operad.palette, [color] * s)).carrier.dim(0)
    return (g_order // h_order) * prod


def test_oprop_dims_against_coset_brute_force():
    for operad in (associative_operad(3), trivial_operad(3)):
        opp = prop_from_operad(operad, 3, 3)
        color = operad.palette.colors[0]
        for m in (1, 2, 3):
            for sizes in itertools.product((1, 2), repeat=m):
                n = sum(sizes)
                if n > 3:
                    continue
                out_key = profile_key(operad.palette, [color] * m)
                in_key = profile_key(operad.palette, [color] * n)
                comp = opp.opp_component(out_key, in_key)
                expected = sum(
                    brute_force_coset_dim(operad, tup_sizes)
                    for tup_sizes in itertools.product((1, 2, 3), repeat=m)
                    if sum(tup_sizes) == n
                )
                got = comp.carrier.dim(0) if comp else 0
                assert got == expected


def test_unit_identity_standard_operads():
    assert check_unit_identity(trivial_operad(3))
    assert check_unit_identity(associative_operad(3))


def test_unit_identity_random_two_colored():
    rng = random.Random(1)
    palette = Palette(["a", "b"])
    fam = ColoredFamily(
        palette, {"a": ChainComplex({0: 2}), "b": ChainComplex({0: 1})}
    )
    operad = endomorphism_operad(fam, 2)
    assert check_unit_identity(operad)


def test_truncation_exceeded_is_explicit():
    operad = trivial_operad(2)
    opp = prop_from_operad(operad, 1, 2)
    color = operad.palette.colors[0]
    k1 = profile_key(operad.palette, [color])
    k2 = profile_key(operad.palette, [color, color])
    with pytest.raises(TruncationExceeded):
        opp.rho(color, k2, (k2, k2))


def test_vertical_basis_trivial_operad_places_legs():
    operad = trivial_operad(2)
    opp = prop_from_operad(operad, 2, 2)
    color = "x"
    k2 = profile_key(operad.palette, [color, color])
    comp = opp.opp_component(k2, k2)
    # compose two (2,2) basis elements through the middle
    for u in range(comp.carrier.dim(0)):
        for v in range(comp.carrier.dim(0)):
            image = opp.vertical_basis(k2, k2, k2, u, v, 0, 0)
            assert image is not None
            # trivial operad: every composite is a single basis vector
            assert sum(1 for c in image.values() if c != 0) in (0, 1)
            for c in image.values():
                assert c == 1


def test_vertical_basis_associativity_trivial():
    operad = trivial_operad(3)
    opp = prop_from_operad(operad, 2, 3)
    color = "x"
    k2 = profile_key(operad.palette, [color, color])
    comp = opp.opp_component(k2, k2)
    dim = comp.carrier.dim(0)

    def mat_of_vertical(out_key, mid_key, in_key):
        rows = opp.opp_component(out_key, in_key).carrier.dim(0)
        cols_u = opp.opp_component(out_key, mid_key).carrier.dim(0)
        cols_v = opp.opp_component(mid_key, in_key).carrier.dim(0)
        m = linalg.zeros(rows, cols_u * cols_v)
        for u in range(cols_u):
            for v in range(cols_v):
                image = opp.vertical_basis(out_key, mid_key, in_key, u, v, 0, 0)
                for r, c in image.items():
                    m[r][u * cols_v + v] = c
        return m

    m = mat_of_vertical(k2, k2, k2)
    # associativity: compose three (2,2) elements both ways
    for u in range(dim):
        for v in range(dim):
            uv = opp.vertical_basis(k2, k2, k2, u, v, 0, 0)
            for w in range(dim):
                vw = opp.vertical_basis(k2, k2, k2, v, w, 0, 0)
                lhs = {}
                for r1, c1 in uv.items():
                    img = opp.vertical_basis(k2, k2, k2, r1, w, 0, 0)
                    for r2, c2 in img.items():
                        lhs[r2] = lhs.get(r2, F(0)) + c1 * c2
                rhs = {}
                for r1, c1 in vw.items():
                    img = opp.vertical_basis(k2, k2, k2, u, r1, 0, 0)
                    for r2, c2 in img.items():
                        rhs[r2] = rhs.get(r2, F(0)) + c1 * c2
                lhs = {k: x for k, x in lhs.items() if x}
                rhs = {k: x for k, x in rhs.items() if x}
                assert lhs == rhs


def square_zero_algebra(operad):
    """Q[x]/(x^2) as an algebra over the associative operad."""
    palette = operad.palette
    color = palette.colors[0]
    a = ChainComplex({0: 2})  # basis: 1, x
    fam = ColoredFamily(palette, {color: a})

    def product_indices(indices):
        # multiply basis elements 1 (index 0) and x (index 1)
        xs = sum(indices)
        if xs == 0:
            return 0, F(1)
        if xs == 1:
            return 1, F(1)
        return None, F(0)

    values = {}
    for (d, in_key) in operad.support():
        comp = operad.component(d, in_key)
        n = in_key.length
        vals = []
        elems = stabilizer_elements(in_key)
        space = fam.space(in_key.rep)
        for i in range(comp.carrier.dim(0)):
            sigma = elems[i]
            rows = linalg.zeros(a.dim(0), space.complex.dim(0))
            for comp_tuple, idxs in space.basis(0):
                col = space.flat_index(comp_tuple, idxs)
                ordered = [idxs[sigma(j) - 1] for j in range(1, n + 1)]
                target, coeff = product_indices(ordered)
                if target is not None:
                    rows[target][col] = coeff
            vals.append(
                EndoElement.from_mats(
                    fam, Profile(palette, [color]), in_key.rep, 0, {0: rows}
                )
            )
        values[(d, in_key)] = vals
    return OperadAlgebra(operad, fam, values)


def test_round_trip_ground_field():
    operad = associative_operad(3)
    palette = operad.palette
    fam = ColoredFamily(palette, {"x": ChainComplex({0: 1})})
    values = {}
    for (d, in_key) in operad.support():
        comp = operad.component(d, in_key)
        vals = []
        for i in range(comp.carrier.dim(0)):
            vals.append(
                EndoElement.from_mats(
                    fam, Profile(palette, ["x"]), in_key.rep, 0, {0: [[F(1)] * 1]}
                )
            )
        values[(d, in_key)] = vals
    alg = OperadAlgebra(operad, fam, values)
    from propcalc.operads import algebra_round_trip

    assert algebra_round_trip(operad, alg) == []


def test_round_trip_square_zero():
    operad = associative_operad(3)
    alg = square_zero_algebra(operad)
    from propcalc.operads import algebra_round_trip

    assert alg.check() == []
    assert algebra_round_trip(operad, alg) == []


def test_round_trip_flags_non_algebra():
    operad = associative_operad(3)
    alg = square_zero_algebra(operad)
    # perturb one structure value: gamma compatibility must fail
    key = ("x", profile_key(operad.palette, ["x", "x"]))
    bumped = list(alg.values[key])
    bumped[0] = bumped[0].scale(2)
    alg.values[key] = bumped
    from propcalc.operads import algebra_round_trip

    report = algebra_round_trip(operad, alg)
    assert report
    assert all(kind == "input" for kind, _, _ in report)


def test_round_trip_tautological_two_colored():
    palette = Palette(["a", "b"])
    fam = ColoredFamily(
        palette, {"a": ChainComplex({0: 2}), "b": ChainComplex({0: 1})}
    )
    operad = endomorphism_operad(fam, 2)
    alg = tautological_endo_algebra(operad, fam)
    assert alg.check() == []
    from propcalc.operads import algebra_round_trip

    assert algebra_round_trip(operad, alg) == []


def test_oprop_dims_arity_four_partition_brute_force():
    """Dimension bookkeeping at arity 4: sum over compositions of the coset
    index times the factor dimensions, against the built components."""
    import math
    from propcalc.bimodules import box_dot_many

    operad = associative_operad(4)
    color = "x"
    palette = operad.palette
    for m in (1, 2, 3):
        n = 4
        expected = 0
        built = 0
        for sizes in itertools.product((1, 2, 3, 4), repeat=m):
            if sum(sizes) != n:
                continue
            index = (
                math.factorial(m)
                * math.factorial(n)
                // math.prod(math.factorial(s) for s in sizes)
            )
            dims = math.prod(math.factorial(s) for s in sizes)
            expected += index * dims
            factors = [
                operad.component(color, profile_key(palette, [color] * s))
                for s in sizes
            ]
            built += box_dot_many(palette, factors).carrier.dim(0)
        assert built == expected


def test_unit_identity_compares_nontrivial_gammas():
    palette = Palette(["a", "b"])
    fam = ColoredFamily(
        palette, {"a": ChainComplex({0: 2}), "b": ChainComplex({0: 1})}
    )
    operad = endomorphism_operad(fam, 2)
    # composition data exists and is nontrivial
    assert len(operad.gamma) > 0
    nontrivial = [gm for gm in operad.gamma.values() if not gm.is_zero()]
    assert nontrivial
    assert any(
        any(len(m) > 1 or len(m[0]) > 1 for m in gm.mats.values()) for gm in nontrivial
    )
    from propcalc.operads import forget_to_operad, prop_from_operad

    opp = prop_from_operad(operad, 1, 2)
    back = forget_to_operad(opp, 2)
    assert set(back.gamma) == set(operad.gamma)
