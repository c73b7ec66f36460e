import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from helpers import (
    dense_compose_elements,
    dense_coords,
    dense_d,
    dense_mat,
    dense_mats,
    dense_vec,
    reference_algebra_check,
    reference_compose_elements,
    reference_in_gens,
    reference_rho,
    reference_validate_associativity,
    reference_validate_equivariance,
    reference_value,
    rows_of,
    sparse_element,
    zeros,
)
from propcalc import chains, operads
from propcalc.formats import Workspace, operad_algebra_from_json, operad_from_json
from propcalc.chains import ChainComplex, ChainMap, TensorSpace, shared_space
from propcalc.endo import ColoredFamily, EndoElement, EndoError, endo_horizontal, endo_permute, endo_vertical
from propcalc.operads import (
    ColoredOperad,
    EndoPropData,
    OperadAlgebra,
    OperadError,
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
from propcalc.profiles import Palette, Permutation, Profile, stabilizer_elements, stabilizer_generators

F = Fraction


def test_loaded_gamma_sources_are_the_operads_own_spaces():
    """Each gamma map read from a file has the operad's cached tensor space as
    its source, so compose_elements builds no second, equal space."""
    for name in ("op.json", "ass.json"):
        with open(os.path.join(os.path.dirname(__file__), "golden", "inputs", name), encoding="utf-8") as handle:
            operad = operad_from_json(json.load(handle))
        assert operad.gamma
        for (d, in_key, b_keys), m in operad.gamma.items():
            assert m.source is operad.space(d, in_key, b_keys).complex


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
    assert dense_mat(gm, 0) == [[F(1)]]
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


def _graded_family():
    palette = Palette(["a", "b"])
    return ColoredFamily(
        palette, {"a": ChainComplex({0: 1, 1: 1}), "b": ChainComplex({0: 1})}
    )


def _random_coords(rng, dim, zero):
    """Rational coordinates, about 40 % of them zero; all zero when asked,
    otherwise at least one nonzero."""
    coords = [F(0)] * dim
    if zero or not dim:
        return coords

    def entry():
        return F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))

    for i in range(dim):
        if rng.random() >= 0.4:
            coords[i] = entry()
    if not any(coords):
        coords[rng.randrange(dim)] = entry()
    return coords


def test_compose_elements_matches_dense_reference():
    """Composites on nonzeros equal the dense tensor-vector composition, for
    random coordinates in every degree, all-zero factors, and input keys whose
    gamma is not stored."""
    rng = random.Random(7)
    nonzero = absent = 0
    for operad in (endomorphism_operad(_graded_family(), 2), associative_operad(3)):
        support = operad.support()
        for (d, in_key) in support:
            colors = (d,) + tuple(in_key.rep.entries)
            options = [[k for (c, k) in support if c == e] for e in in_key.rep.entries]
            for b_keys in itertools.product(*options):
                stored = (d, in_key, b_keys) in operad.gamma
                absent += not stored
                keys = (in_key,) + b_keys
                carriers = [operad.component(c, k).carrier for c, k in zip(colors, keys)]
                for degs in itertools.product(*[x.degrees() for x in carriers]):
                    # trial 0 zeroes the first factor, trial 1 the last one
                    for trial in range(5 if stored else 1):
                        zero_at = {0: 0, 1: len(colors) - 1}.get(trial)
                        els = [
                            sparse_element(operad, c, k, deg, _random_coords(rng, x.dim(deg), i == zero_at))
                            for i, (c, k, deg, x) in enumerate(zip(colors, keys, degs, carriers))
                        ]
                        got = compose_elements(els[0], els[1:])
                        assert got == dense_compose_elements(els[0], els[1:])
                        assert all(got.coords.values())
                        nonzero += bool(got.coords)
    assert absent > 0
    assert nonzero >= 200


def _minus_one_columns(operad, key):
    """Per block of factor degrees, the factor indices of each gamma column
    holding a -1 entry."""
    space = operad.space(*key)
    found = {}
    for n, mat in dense_mats(operad.gamma[key]).items():
        for col in range(len(mat[0]) if mat else 0):
            if any(row[col] == -1 for row in mat):
                comp, idxs = space.unflatten(n, col)
                found.setdefault(tuple(comp), []).append(idxs)
    return found


def test_compose_elements_matches_the_reference_entry_for_entry():
    """Composites through the column plans equal the per-row reference on
    seeded elements with several rational coordinates and on units, over
    operads whose gamma has -1 Koszul entries; the composite carries the
    merged component's own key object."""
    rng = random.Random(14)
    operads_ = [associative_operad(3), trivial_operad(3)]
    for dims, arity in (
        ({"a": {0: 1, 1: 1}, "b": {0: 1}}, 2),
        ({"a": {0: 1, 1: 1}, "b": {0: 2, 1: 1}}, 2),
        ({"a": {0: 1, 1: 1, 2: 1}}, 3),
    ):
        palette = Palette(sorted(dims))
        fam = ColoredFamily(palette, {c: ChainComplex(dims[c]) for c in palette.colors})
        operads_.append(endomorphism_operad(fam, arity))
    compared = minus_one = scaled = 0
    for operad in operads_:
        own_keys = {k: k for (_, k) in operad.support()}
        for key in sorted(operad.gamma, key=repr):
            d, in_key, b_keys = key
            keys = (in_key,) + b_keys
            colors = (d,) + tuple(in_key.rep.entries)
            carriers = [operad.component(c, k).carrier for c, k in zip(colors, keys)]
            negative = _minus_one_columns(operad, key)
            for degs in itertools.product(*[x.degrees() for x in carriers]):
                # units, seeded coordinates, and seeded coordinates that are
                # nonzero on a column holding -1
                trials = [None] * 4 + negative.get(degs, [])
                for trial, forced in enumerate(trials):
                    if trial == 0:
                        els = [
                            operad.unit(c, k, deg, rng.randrange(x.dim(deg)))
                            for c, k, deg, x in zip(colors, keys, degs, carriers)
                        ]
                    else:
                        coords = [_random_coords(rng, x.dim(deg), False) for deg, x in zip(degs, carriers)]
                        for i, j in enumerate(forced or ()):
                            coords[i][j] = F(rng.choice([-2, 3, 7]), rng.choice([1, 5]))
                        els = [sparse_element(operad, c, k, deg, xs) for c, k, deg, xs in zip(colors, keys, degs, coords)]
                    got = compose_elements(els[0], els[1:])
                    want = reference_compose_elements(els[0], els[1:])
                    assert (got.d, got.in_key, got.degree) == (want.d, want.in_key, want.degree)
                    assert got.coords == want.coords
                    if operad.component(d, got.in_key) is not None:
                        assert got.in_key is own_keys[got.in_key]
                    compared += 1
                    minus_one += forced is not None
                    scaled += any(x not in (0, 1) for el in els for x in el.coords.values()) and bool(got.coords)
    assert compared >= 2000
    assert minus_one >= 7
    assert scaled >= 600


def test_compose_elements_reads_a_replaced_gamma():
    """A gamma map replaced after a first composition is read by the next one."""
    operad = associative_operad(3)
    one = profile_key(operad.palette, ["x"])
    two = profile_key(operad.palette, ["x", "x"])
    p = operad.unit("x", two, 0, 0)
    q_els = [operad.unit("x", one, 0, 0), operad.unit("x", one, 0, 0)]
    before = compose_elements(p, q_els)
    assert before.coords == {0: 1}
    corrupt_inner_gamma(operad)
    after = compose_elements(p, q_els)
    assert after.coords == {1: 1}
    assert after == reference_compose_elements(p, q_els)


def test_composite_entries_that_cancel_are_dropped():
    """gamma replaced by a map with two equal columns, applied to p = e_0 - e_1,
    gives the zero element: no coordinates, equal to the element read from a
    dense list of zeros."""
    operad = associative_operad(3)
    one = profile_key(operad.palette, ["x"])
    two = profile_key(operad.palette, ["x", "x"])
    key = ("x", two, (one, one))
    gm = operad.gamma[key]
    assert gm.source.dims == gm.target.dims == {0: 2}
    operad.gamma[key] = ChainMap(gm.source, gm.target, rows_of({0: [[1, 1], [2, 2]]}))
    q_els = [operad.unit("x", one, 0, 0)] * 2
    got = compose_elements(sparse_element(operad, "x", two, 0, [1, -1]), q_els)
    assert got.coords == {}
    assert got == sparse_element(operad, "x", two, 0, [0, 0])
    assert compose_elements(operad.unit("x", two, 0, 0), q_els).coords == {0: 1, 1: 2}


def test_act_right_by_every_stabilizer_element_matches_the_dense_product():
    """p.tau for every tau of the stabilizer, generator or not, is the dense
    matrix of rho_in(tau) applied to p's dense coordinates, with no zero kept."""
    rng = random.Random(29)
    fam = ColoredFamily(Palette(["a"]), {"a": ChainComplex({0: 1, 1: 1, 2: 1})})
    non_generators = signs = 0
    for operad in (associative_operad(3), endomorphism_operad(fam, 3)):
        for (d, in_key) in operad.support():
            comp = operad.component(d, in_key)
            generators = {s.images for s in stabilizer_generators(in_key)}
            for tau in stabilizer_elements(in_key):
                non_generators += tau.images not in generators
                for k in comp.carrier.degrees():
                    m = dense_mat(comp.rho_in(tau), k)
                    signs += any(x < 0 for row in m for x in row)
                    for _ in range(3):
                        p = sparse_element(operad, d, in_key, k, _random_coords(rng, comp.carrier.dim(k), False))
                        got = p.act_right(tau)
                        assert got == sparse_element(operad, d, in_key, k, dense_vec(m, dense_coords(p)))
                        assert got.coords and all(got.coords.values())
    # the identity and the non-generators of S_2 and S_3, in each operad
    assert non_generators == 2 * (1 + 1 + 4)
    assert signs > 0


def test_basis_elements_are_the_units_in_degree_major_order():
    operad = endomorphism_operad(_graded_family(), 2)
    for (d, in_key) in operad.support():
        carrier = operad.component(d, in_key).carrier
        slots = [(k, i) for k in carrier.degrees() for i in range(carrier.dim(k))]
        units = [operad.unit(d, in_key, k, i) for k, i in slots]
        assert [(el.degree, el.coords) for el in units] == [(k, {i: F(1)}) for k, i in slots]
        assert operad.basis_elements(d, in_key) == units


def test_endo_prop_component_is_built_once_per_key():
    fam = _graded_family()
    data = EndoPropData(fam)
    seen = 0
    for d in fam.palette.colors:
        for n in (1, 2):
            for combo in itertools.combinations_with_replacement(fam.palette.colors, n):
                in_key = profile_key(fam.palette, combo)
                comp = data.component(d, in_key)
                assert data.component(d, in_key) is comp
                fresh = EndoPropData(fam).component(d, in_key)
                assert comp.carrier == fresh.carrier
                assert comp.in_gens.keys() == fresh.in_gens.keys()
                for s, m in comp.in_gens.items():
                    assert dense_mats(m) == dense_mats(fresh.in_gens[s])
                assert comp.bases == fresh.bases
                seen += bool(comp.in_gens)
    assert seen > 0


def _negatives(chain_map):
    return sum(1 for m in dense_mats(chain_map).values() for row in m for x in row if x < 0)


@pytest.mark.parametrize(
    "dims, arity, negatives",
    [
        # the families of the operads benchmark, all in degree 0
        ({"a": {0: 1}, "b": {0: 1}}, 2, (0, 0)),
        ({"a": {0: 1}, "b": {0: 2}}, 2, (0, 0)),
        ({"a": {0: 2}, "b": {0: 1}}, 2, (0, 0)),
        # two odd factors sit in source degree 2, and the hom complex is
        # truncated to degrees >= 0: an odd pair swaps only where a color
        # has a class of degree >= 2
        ({"a": {0: 1, 1: 1}, "b": {0: 2, 1: 1}}, 2, (0, 0)),
        ({"a": {0: 1, 1: 1, 2: 1}}, 2, (1, 1)),
        ({"a": {0: 1, 1: 1, 2: 1}}, 3, (7, 3)),
    ],
    ids=["e11", "e12", "e21", "a11-b21", "a111-arity2", "a111-arity3"],
)
def test_endo_prop_matchings_equal_the_per_tuple_reference(dims, arity, negatives):
    """rho on every gamma key and every stabilizer action equal, entry for
    entry, the units composed through EndoElements; the Koszul signs give the
    stated number of -1 entries (in gamma, in the actions)."""
    palette = Palette(sorted(dims))
    fam = ColoredFamily(palette, {c: ChainComplex(dims[c]) for c in palette.colors})
    data, reference = EndoPropData(fam), EndoPropData(fam)
    keys = [
        profile_key(palette, combo)
        for n in range(1, arity + 1)
        for combo in itertools.combinations_with_replacement(palette.colors, n)
    ]
    found = [0, 0]
    compared = 0
    for d in palette.colors:
        for in_key in keys:
            comp = data.component(d, in_key)
            if comp is None:
                continue
            want = reference_in_gens(reference, d, in_key)
            assert comp.in_gens.keys() == want.keys()
            for s, m in comp.in_gens.items():
                assert dense_mats(m) == dense_mats(want[s])
                found[1] += _negatives(m)
            for b_keys in itertools.product(keys, repeat=in_key.length):
                if sum(k.length for k in b_keys) > arity:
                    continue
                got = data.rho(d, in_key, b_keys)
                want = reference_rho(reference, d, in_key, b_keys)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.source == want.source and got.target == want.target
                    assert dense_mats(got) == dense_mats(want)
                    found[0] += _negatives(got)
                    compared += 1
    assert compared > 0
    assert tuple(found) == negatives


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
            rows = zeros(a.dim(0), space.complex.dim(0))
            for comp_tuple, idxs in space.basis(0):
                col = space.flat_index(comp_tuple, idxs)
                ordered = [idxs[sigma(j) - 1] for j in range(1, n + 1)]
                target, coeff = product_indices(ordered)
                if target is not None:
                    rows[target][col] = coeff
            vals.append(
                EndoElement.from_mats(
                    fam, Profile(palette, [color]), in_key.rep, 0, rows_of({0: rows})
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
                    fam, Profile(palette, ["x"]), in_key.rep, 0, rows_of({0: [[F(1)] * 1]})
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


GOLDEN_INPUTS = os.path.join(os.path.dirname(__file__), "golden", "inputs")


def _scaled(alg, times=2):
    """alg with the first basis value of each component scaled, so that its
    gamma-compatibility fails."""
    values = {key: [vals[0].scale(times)] + vals[1:] for key, vals in alg.values.items()}
    return OperadAlgebra(alg.operad, alg.family, values)


def test_check_matches_the_per_element_reference():
    """check() builds lambda(q_1) (x) ... (x) lambda(q_n) and the transport once
    per gamma key; the reference builds both per basis element of p.  The
    failures, with their residuals, must be identical."""
    ws = Workspace(GOLDEN_INPUTS)
    ass = ws.resolve_as("ass.json", "operad")
    algebras = [operad_algebra_from_json(ws.read_json(name), ass, ws.families) for name in ("alg.json", "alg_scaled.json")]
    for dims, arity in (({"a": {0: 2}, "b": {0: 1}}, 2), ({"a": {0: 1, 1: 1}, "b": {0: 1}}, 2)):
        palette = Palette(sorted(dims))
        fam = ColoredFamily(palette, {c: ChainComplex(dims[c]) for c in palette.colors})
        operad = endomorphism_operad(fam, arity)
        alg = tautological_endo_algebra(operad, fam)
        algebras += [alg, _scaled(alg)]
    algebras.append(_scaled(square_zero_algebra(associative_operad(3)), F(-1, 2)))
    failing = 0
    for alg in algebras:
        ours, ref = alg.check(), reference_algebra_check(alg)
        assert [(kind, at) for kind, at, _ in ours] == [(kind, at) for kind, at, _ in ref]
        for (_, _, residual), (_, _, expected) in zip(ours, ref):
            assert residual == expected and residual.degree == expected.degree
        failing += bool(ours)
    assert failing == 4


def test_loaded_gamma_keys_are_the_component_keys():
    ws = Workspace(GOLDEN_INPUTS)
    for name in ("ass.json", "op.json"):
        operad = ws.resolve_as(name, "operad")
        own = {k: k for (_, k) in operad.support()}
        assert operad.gamma
        for d, in_key, b_keys in operad.gamma:
            assert own[in_key] is in_key
            assert all(own[bk] is bk for bk in b_keys)
            assert operad.plan(d, in_key, b_keys)[1] is own[merge_in_keys(operad.palette, b_keys)]


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


def _two_colored_tautological():
    palette = Palette(["a", "b"])
    fam = ColoredFamily(palette, {"a": ChainComplex({0: 2}), "b": ChainComplex({0: 1})})
    operad = endomorphism_operad(fam, 2)
    return operad, tautological_endo_algebra(operad, fam)


@pytest.mark.parametrize("case", ["square_zero", "two_colored"])
def test_phi_on_two_output_components_is_the_permuted_tensor(case):
    """Phi at each basis column of a two-output component of the free PROP is
    endo_permute(sigma, tau, lambda(x) (x) lambda(y)): sigma sends factor i's
    output to its placed position, and tau sends each input position to its
    slot in the factor-major concatenation of the factors' inputs."""
    if case == "square_zero":
        operad = associative_operad(3)
        alg = square_zero_algebra(operad)
        max_in, floors = 3, (28, 20)
    else:
        operad, alg = _two_colored_tautological()
        max_in, floors = 2, (150, 100)
    opp = prop_from_operad(operad, 2, max_in)
    values = operads.operad_algebra_to_prop_algebra(alg, opp)
    columns = moved = nonzero = 0
    for (out_key, in_key) in opp.support():
        if out_key.length != 2:
            continue
        comp = opp.opp_component(out_key, in_key)
        flat_values = iter(values[(out_key, in_key)])
        for deg in comp.carrier.degrees():
            for flat in range(comp.carrier.dim(deg)):
                i, inner = comp.layout.locate(deg, flat)
                tup, sub = comp.layout.pieces[i]
                out_place, in_place, tensor_i = sub.layout.locate(deg, inner)
                degs, idxs = sub.layout.tensor.unflatten(deg, tensor_i)
                colors = [out_key.rep.entries[out_place.index(f)] for f in range(2)]
                x, y = (operad.unit(colors[f], tup[f], degs[f], idxs[f]) for f in range(2))
                sigma = Permutation([out_place.index(f) + 1 for f in range(2)])
                concat = sorted(range(len(in_place)), key=lambda pos: (in_place[pos], pos))
                tau = Permutation([concat.index(pos) + 1 for pos in range(len(in_place))])
                want = endo_permute(sigma, tau, endo_horizontal(alg.value(x), alg.value(y)))
                assert want.out_profile == out_key.rep and want.in_profile == in_key.rep
                assert next(flat_values) == want
                columns += 1
                moved += not (sigma.is_identity() and tau.is_identity())
                nonzero += not want.chain.is_zero()
        assert next(flat_values, None) is None
    assert nonzero == columns >= floors[0] and moved >= floors[1]


def test_round_trip_evaluates_phi_on_single_output_components_only(monkeypatch):
    seen = []
    phi = operads._phi_basis_value

    def recording(alg, comp, deg, flat):
        seen.append(comp.out_key.length)
        return phi(alg, comp, deg, flat)

    monkeypatch.setattr(operads, "_phi_basis_value", recording)
    operad, alg = _two_colored_tautological()
    assert operads.algebra_round_trip(operad, alg) == []
    assert seen and set(seen) == {1}


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
        any(len(m) > 1 or len(m[0]) > 1 for m in dense_mats(gm).values()) for gm in nontrivial
    )
    from propcalc.operads import forget_to_operad, prop_from_operad

    opp = prop_from_operad(operad, 1, 2)
    back = forget_to_operad(opp, 2)
    assert set(back.gamma) == set(operad.gamma)


# -- the caches of validate and OperadAlgebra.value against per-instance paths --


def benchmark_endo_operads():
    """The endomorphism operads of the three 2-color families the operads
    benchmark checks, at arity 2."""
    palette = Palette(["a", "b"])
    return [
        endomorphism_operad(
            ColoredFamily(palette, {"a": ChainComplex({0: i}), "b": ChainComplex({0: j})}), 2
        )
        for i, j in ((1, 1), (1, 2), (2, 1))
    ]


def corrupt_inner_gamma(operad):
    """Send gamma(id_2; id_1, id_1) of associative_operad to the swap instead of
    id_2.  In the instance (x, [x,x], ([x,x], [x]), ([x], [x], [x])) only the
    inner composition gamma(q_1; r-block_1) reads this column."""
    one = profile_key(operad.palette, ["x"])
    two = profile_key(operad.palette, ["x", "x"])
    key = ("x", two, (one, one))
    gm = operad.gamma[key]
    m = [list(row) for row in dense_mat(gm, 0)]
    assert m[0][0] == 1 and m[1][0] == 0
    m[0][0], m[1][0] = F(0), F(1)
    operad.gamma[key] = ChainMap(gm.source, gm.target, rows_of({0: m}), check=False)
    return ("x", two, (two, one), (one, one, one))


def _dense_value(x):
    """A complex's dims and dense boundary matrices, read without value_key."""
    return tuple(sorted(x.dims.items())), tuple(
        (n, tuple(map(tuple, dense_d(x, n)))) for n in x.degrees() if n - 1 in x.dims
    )


def _space_families():
    """The (1,2) and (2,1) families of the operads benchmark, and a family
    whose two complexes have equal dims and boundaries [[1]] and [[2]]."""
    palette = Palette(["a", "b"])
    families = [
        ColoredFamily(palette, {"a": ChainComplex({0: i}), "b": ChainComplex({0: j})})
        for i, j in ((1, 2), (2, 1))
    ]
    families.append(ColoredFamily(palette, {
        "a": ChainComplex({0: 1, 1: 1}, rows_of({1: [[1]]})),
        "b": ChainComplex({0: 1, 1: 1}, rows_of({1: [[2]]})),
    }))
    return families


def _assert_same_as_fresh(space, factors):
    fresh = TensorSpace(factors)
    assert space.complex == fresh.complex
    for n in fresh.complex.degrees():
        assert space.basis(n) == fresh.basis(n)
        assert [space.flat_index(c, i) for c, i in fresh.basis(n)] == [fresh.flat_index(c, i) for c, i in fresh.basis(n)]


def test_shared_spaces_equal_fresh_spaces_and_only_join_equal_factors():
    """Each gamma key's space, from the operad's table and from EndoPropData's,
    gives the complex, basis and flat indices of a fresh TensorSpace of that
    key's own carriers; keys share a space only when their carriers are equal
    in dims and boundary entries, so carriers that differ only in entries
    never do."""
    for family in _space_families():
        data = EndoPropData(family)
        operad = forget_to_operad(data, 2)
        assert operad.validate() == []
        for owner in (operad, data):
            by_space = {}
            for (d, in_key, b_keys) in operad.gamma:
                factors = [owner.component(d, in_key).carrier]
                factors += [owner.component(c, bk).carrier for c, bk in zip(in_key.rep.entries, b_keys)]
                if owner is operad:
                    space = operad.space(d, in_key, b_keys)
                else:
                    space = shared_space(data._spaces, factors)
                    assert data.rho(d, in_key, b_keys).source is space.complex
                _assert_same_as_fresh(space, factors)
                by_space.setdefault(id(space), set()).add(tuple(map(_dense_value, factors)))
            assert all(len(values) == 1 for values in by_space.values())
            if any(x.boundary for x in family.complexes.values()):
                # [[1]] and [[2]]: factors of equal dims but other entries, on distinct spaces
                by_dims = {}
                for (value,) in by_space.values():
                    by_dims.setdefault(tuple(dims for dims, _ in value), []).append(value)
                assert any(len(values) > 1 for values in by_dims.values())
            else:
                assert len(by_space) < len(operad.gamma)


def test_validate_builds_one_tensor_space_per_factor_value(monkeypatch):
    """One validate() of the (1,2) endomorphism operad builds each
    multi-factor TensorSpace once per tuple of factor values."""
    (operad,) = [endomorphism_operad(_space_families()[0], 2)]
    built = []

    class CountingSpace(TensorSpace):
        __slots__ = ()

        def __init__(self, factors):
            factors = list(factors)
            if len(factors) > 1:
                built.append(tuple(map(_dense_value, factors)))
            super().__init__(factors)

    monkeypatch.setattr(chains, "TensorSpace", CountingSpace)
    assert operad.validate() == []
    assert built and len(built) == len(set(built))


def test_validate_memo_matches_per_instance_reference():
    for operad in benchmark_endo_operads():
        assert operad.validate() == []
        assert reference_validate_associativity(operad) == []
    operad = associative_operad(3)
    assert operad.validate() == []
    assert reference_validate_associativity(operad) == []
    # a corruption made after a first validate is seen: the memo lives for one call
    inner_only = corrupt_inner_gamma(operad)
    failures = operad.validate()
    assert failures == operad._validate_equivariance({}) + reference_validate_associativity(operad)
    assert "gamma not associative at %r" % (inner_only,) in failures


def test_validate_equivariance_matches_per_basis_element_reference():
    for operad in benchmark_endo_operads():
        assert operad._validate_equivariance({}) == reference_validate_equivariance(operad) == []
    operad = associative_operad(3)
    assert operad._validate_equivariance({}) == reference_validate_equivariance(operad) == []
    # let the swap act on O(2) as the identity: gamma stays, equivariance fails
    comp = operad.component("x", profile_key(operad.palette, ["x", "x"]))
    (swap,) = comp.in_gens
    comp.in_gens[swap] = ChainMap.identity(comp.carrier)
    failures = operad._validate_equivariance({})
    assert failures and failures == reference_validate_equivariance(operad)
    assert operad.validate() == failures + reference_validate_associativity(operad)


def count_units_and_compositions(monkeypatch):
    """Counts of ColoredOperad.unit and compose_elements calls, kept up to date."""
    calls = {"unit": 0, "compose": 0}

    def counting(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)

        return wrapped

    monkeypatch.setattr(ColoredOperad, "unit", counting("unit", ColoredOperad.unit))
    monkeypatch.setattr(operads, "compose_elements", counting("compose", operads.compose_elements))
    return calls


def test_validate_equivariance_builds_each_first_unit_once(monkeypatch):
    palette = Palette(["a", "b"])
    fam = ColoredFamily(palette, {"a": ChainComplex({0: 1}), "b": ChainComplex({0: 2})})
    operad = endomorphism_operad(fam, 2)
    calls = count_units_and_compositions(monkeypatch)
    assert operad._validate_equivariance({}) == []
    # the per-basis-element lists built 384 units for these 120 compositions
    assert calls["compose"] == 120
    assert calls["unit"] < calls["compose"]


def test_validate_equivariance_builds_p_and_its_composite_once_per_key(monkeypatch):
    operad = associative_operad(3)
    calls = count_units_and_compositions(monkeypatch)
    assert operad._validate_equivariance({}) == []
    # per basis element p: gamma(p; q) once, and one lhs per non-identity tau
    expected = 0
    for (d, in_key, b_keys) in operad.gamma:
        order = len(stabilizer_elements(in_key))
        if order > 1 and all(operad.component(c, bk) for c, bk in zip(in_key.rep.entries, b_keys)):
            expected += order * operad.component(d, in_key).carrier.total_dim()
    assert calls["compose"] == expected == 48
    # rebuilding p's units and gamma(p; q) for every non-identity tau made 39 units and 72 compositions
    assert calls["unit"] == 15


def test_algebra_value_matches_zero_plus_add_reference():
    palette = Palette(["a", "b"])
    fam = ColoredFamily(palette, {"a": ChainComplex({0: 1, 1: 1}), "b": ChainComplex({0: 2})})
    operad = endomorphism_operad(fam, 2)
    alg = tautological_endo_algebra(operad, fam)
    rng = random.Random(23)
    several = 0
    for (d, in_key) in operad.support():
        comp = operad.component(d, in_key)
        offset = 0
        for k in comp.carrier.degrees():
            dim = comp.carrier.dim(k)
            cases = [[0] * dim, [rng.choice([-2, -1, 2, F(1, 3)]) for _ in range(dim)]]
            cases += [[rng.choice([0, 0, 1, -1, F(5, 2)]) for _ in range(dim)] for _ in range(3)]
            for coords in cases:
                el = sparse_element(operad, d, in_key, k, coords)
                got = alg.value(el)
                want = reference_value(alg, el)
                assert got == want
                assert (got.out_profile, got.in_profile, got.degree) == (
                    want.out_profile,
                    want.in_profile,
                    want.degree,
                )
                if sum(1 for x in coords if x not in (0, 1)) >= 2:
                    several += 1
            for i in range(dim):
                # a coefficient of 1 takes the stored value itself
                assert alg.value(operad.unit(d, in_key, k, i)) is alg.values[(d, in_key)][offset + i]
            offset += dim
    assert several > 0


def test_operad_algebra_rejects_values_of_the_wrong_shape():
    operad = associative_operad(3)
    alg = square_zero_algebra(operad)
    fam = alg.family
    palette = operad.palette
    key = ("x", profile_key(palette, ["x", "x"]))
    vals = alg.values[key]
    v = vals[0]
    wrong = [
        EndoElement.zero(fam, v.out_profile, v.in_profile, 1),
        EndoElement.zero(fam, Profile(palette, ["x", "x"]), v.in_profile, 0),
        EndoElement.zero(fam, v.out_profile, Profile(palette, ["x"]), 0),
    ]
    for w in wrong:
        with pytest.raises(EndoError, match="endo element shape mismatch"):
            OperadAlgebra(operad, fam, {**alg.values, key: [w] + vals[1:]})
    with pytest.raises(OperadError, match="needs 2 basis values, got 1"):
        OperadAlgebra(operad, fam, {**alg.values, key: vals[:1]})
    missing = ("x", profile_key(palette, ["x"] * 4))
    with pytest.raises(OperadError, match="missing component"):
        OperadAlgebra(operad, fam, {**alg.values, missing: vals})
    # an algebra without the values at one component ended in a KeyError in check
    with pytest.raises(OperadError, match="^algebra misses the values at component"):
        OperadAlgebra(operad, fam, {k: vs for k, vs in alg.values.items() if k != key})


# -- known defect: checks that compose only the first basis element of each input

FIRST_UNIT_ONLY = (
    "validate and OperadAlgebra.check compose only the first basis element of each "
    "input, so gamma and algebra compatibility are not checked exhaustively"
)


def _plane_endo_operad():
    """endomorphism_operad of one colour x carrying Q^2 in degree 0, at arity 1,
    and its one composition key (x, [x], ([x],))."""
    palette = Palette(["x"])
    fam = ColoredFamily(palette, {"x": ChainComplex({0: 2})})
    one = profile_key(palette, ["x"])
    return endomorphism_operad(fam, 1), fam, one


def _corrupted_plane_operad():
    """The plane endomorphism operad with 1 added to entry [0][-1] of its gamma."""
    operad, _, one = _plane_endo_operad()
    key = ("x", one, (one,))
    gm = operad.gamma[key]
    m = [list(row) for row in dense_mat(gm, 0)]
    m[0][-1] += 1
    operad.gamma[key] = ChainMap(gm.source, gm.target, rows_of({0: m}), check=False)
    return operad, one


def _scaled_plane_algebra():
    """The tautological algebra of the plane endomorphism operad with the value
    of basis element 1 scaled by 2."""
    operad, fam, one = _plane_endo_operad()
    values = dict(tautological_endo_algebra(operad, fam).values)
    values[("x", one)] = [v.scale(2) if i == 1 else v for i, v in enumerate(values[("x", one)])]
    return OperadAlgebra(operad, fam, values), one


def test_first_unit_defect_repros_break_the_identities():
    operad, one = _corrupted_plane_operad()
    basis = operad.basis_elements("x", one)
    broken = [
        (p, q, r) for p, q, r in itertools.product(basis, repeat=3)
        if compose_elements(compose_elements(p, [q]), [r]) != compose_elements(p, [compose_elements(q, [r])])
    ]
    assert (len(broken), len(basis) ** 3) == (6, 64)
    alg, one = _scaled_plane_algebra()
    basis = alg.operad.basis_elements("x", one)
    broken = [
        (p, q) for p, q in itertools.product(basis, repeat=2)
        if alg.value(compose_elements(p, [q])) != endo_vertical(alg.value(p), alg.value(q))
    ]
    assert (len(broken), len(basis) ** 2) == (2, 16)


@pytest.mark.xfail(strict=True, reason=FIRST_UNIT_ONLY)
def test_validate_rejects_gamma_that_breaks_associativity_off_the_first_units():
    operad, _ = _corrupted_plane_operad()
    assert operad.validate() != []


@pytest.mark.xfail(strict=True, reason=FIRST_UNIT_ONLY)
def test_algebra_check_rejects_a_value_scaled_off_the_first_unit():
    alg, _ = _scaled_plane_algebra()
    assert alg.check() != []
