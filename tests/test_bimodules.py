import itertools
import random
from fractions import Fraction

import pytest

from propcalc import linalg
from propcalc.bimodules import (
    BimoduleComponent,
    BimoduleError,
    ColoredBimodule,
    InducedLayout,
    box_dot,
    box_dot_many,
    box_h,
    box_v,
    change_colors,
    component_at,
    induced_dim_law,
    placements,
    tensor_over_sigma,
)
from propcalc.chains import ChainComplex, ChainMap, TensorSpace, base_field_complex
from propcalc.profiles import (
    OrbitKey,
    Palette,
    Permutation,
    Profile,
    apply_permutation,
    canonicalize_profile,
    stabilizer_elements,
    stabilizer_generators,
)

F = Fraction
PAL = Palette(["a", "b"])
PAL1 = Palette(["x"])


def key(palette, *colors):
    k, _ = canonicalize_profile(Profile(palette, colors))
    return k


def perm_matrix_rep(group_key, side):
    """Natural position action of the Young subgroup on Q^n as generator matrices."""
    n = group_key.length
    gens = {}
    for s in stabilizer_generators(group_key):
        use = s if side == "out" else s.inverse()
        m = linalg.zeros(n, n)
        for i in range(1, n + 1):
            m[use(i) - 1][i - 1] = F(1)
        gens[s.images] = m
    return gens


def sign_rep(group_key):
    return {s.images: [[F(-1)]] for s in stabilizer_generators(group_key)}


def trivial_rep(group_key, dim=1, deg_dims=None):
    carrier = ChainComplex(deg_dims or {0: dim})
    ident = ChainMap.identity(carrier)
    return {s.images: ident for s in stabilizer_generators(group_key)}


def make_component(out_key, in_key, carrier, out_mats=None, in_mats=None):
    """Wrap raw degree-0 matrices (applied in every degree) into a component."""

    def to_chain(m):
        if isinstance(m, ChainMap):
            return m
        return ChainMap(carrier, carrier, {n: m for n in carrier.degrees()}, check=False)

    out_gens = {}
    for s in stabilizer_generators(out_key):
        out_gens[s.images] = to_chain((out_mats or {}).get(s.images, linalg.identity(carrier.dim(0))))
    in_gens = {}
    for s in stabilizer_generators(in_key):
        in_gens[s.images] = to_chain((in_mats or {}).get(s.images, linalg.identity(carrier.dim(0))))
    return BimoduleComponent(out_key, in_key, carrier, out_gens, in_gens)


def regular_rep_mats(group_key, side):
    """Regular representation of the Young subgroup: permutation of group elements."""
    elems = stabilizer_elements(group_key)
    index = {g.images: i for i, g in enumerate(elems)}
    out = {}
    for s in stabilizer_generators(group_key):
        m = linalg.zeros(len(elems), len(elems))
        for i, g in enumerate(elems):
            target = (s * g) if side == "out" else (g * s)
            m[index[target.images]][i] = F(1)
        out[s.images] = m
    return out


# -- components and transports ---------------------------------------------------


def test_component_validate_small_groups():
    kd = key(PAL1, "x", "x")
    kc = key(PAL1, "x")
    carrier = ChainComplex({0: 2})
    comp = make_component(kd, kc, carrier, out_mats=perm_matrix_rep(kd, "out"))
    assert comp.validate() == []


def test_component_validate_rejects_bad_action():
    kd = key(PAL1, "x", "x")
    kc = key(PAL1, "x")
    carrier = ChainComplex({0: 1})
    bad = make_component(kd, kc, carrier, out_mats={(2, 1): [[F(2)]]})
    failures = bad.validate()
    assert any("group law" in f for f in failures)


def test_component_at_zero():
    mod = ColoredBimodule(PAL1, {})
    carrier, structure = component_at(
        mod, Profile(PAL1, ["x"]), Profile(PAL1, ["x"])
    )
    assert carrier.is_zero()


def test_component_at_trivial_action_transports_identically():
    kd = key(PAL1, "x", "x")
    kc = key(PAL1, "x")
    comp = make_component(kd, kc, ChainComplex({0: 3}))
    mod = ColoredBimodule(PAL1, {(kd, kc): comp})
    carrier, structure = component_at(mod, kd.rep, kc.rep)
    for imgs in itertools.permutations([1, 2]):
        m = structure(Permutation(imgs), Permutation([1]))
        assert linalg.mat_eq(m.mat(0), linalg.identity(3))


def test_component_at_sign_action():
    kd = key(PAL1, "x", "x")
    kc = key(PAL1, "x")
    comp = make_component(kd, kc, ChainComplex({0: 1}), out_mats=sign_rep(kd))
    mod = ColoredBimodule(PAL1, {(kd, kc): comp})
    _, structure = component_at(mod, kd.rep, kc.rep)
    m = structure(Permutation([2, 1]), Permutation([1]))
    assert m.mat(0) == [[F(-1)]]


def test_component_at_functoriality_random():
    rng = random.Random(0)
    kd = key(PAL, "a", "a", "b")
    kc = key(PAL, "b", "b")
    neg3 = {s.images: linalg.mat_scale(F(-1), linalg.identity(3)) for s in stabilizer_generators(kc)}
    comp = make_component(
        kd,
        kc,
        ChainComplex({0: 3}),
        out_mats=perm_matrix_rep(kd, "out"),
        in_mats=neg3,
    )
    mod = ColoredBimodule(PAL, {(kd, kc): comp})
    for _ in range(30):
        d_prof = apply_permutation(
            Permutation(rng.sample(range(1, 4), 3)), kd.rep, "left"
        )
        c_prof = apply_permutation(
            Permutation(rng.sample(range(1, 3), 2)), kc.rep, "left"
        )
        _, structure = component_at(mod, d_prof, c_prof)
        s1 = Permutation(rng.sample(range(1, 4), 3))
        s2 = Permutation(rng.sample(range(1, 4), 3))
        t1 = Permutation(rng.sample(range(1, 3), 2))
        t2 = Permutation(rng.sample(range(1, 3), 2))
        d2 = apply_permutation(s1, d_prof, "left")
        c2 = apply_permutation(t1, c_prof, "right")
        _, structure2 = component_at(mod, d2, c2)
        lhs = structure2(s2, t2).compose(structure(s1, t1))
        rhs = structure(s2 * s1, t1 * t2)
        assert lhs == rhs


# -- tensor_over_sigma -------------------------------------------------------------


def test_coinvariants_regular_against_trivial():
    mid = key(PAL1, "x", "x")
    out_k = key(PAL1, "x")
    in_k = key(PAL1, "x")
    x = make_component(out_k, mid, ChainComplex({0: 2}), in_mats=regular_rep_mats(mid, "in"))
    y = make_component(mid, in_k, ChainComplex({0: 1}))
    comp = tensor_over_sigma(x, y)
    assert comp.carrier.dims == {0: 1}


def test_coinvariants_sign_sign():
    mid = key(PAL1, "x", "x")
    out_k = key(PAL1, "x")
    in_k = key(PAL1, "x")
    x = make_component(out_k, mid, ChainComplex({0: 1}), in_mats=sign_rep(mid))
    y = make_component(mid, in_k, ChainComplex({0: 1}), out_mats=sign_rep(mid))
    comp = tensor_over_sigma(x, y)
    assert comp.carrier.dims == {0: 1}


def random_rep_component(rng, out_key, in_key, dim=None, graded=False):
    """Random valid component: permutation/sign/trivial/regular actions."""
    style_out = rng.choice(["trivial", "sign", "perm", "regular"])
    style_in = rng.choice(["trivial", "sign", "perm", "regular"])

    def pick(style, k, side):
        if style == "trivial":
            return None, None
        if style == "sign":
            return sign_rep(k), 1
        if style == "perm":
            return perm_matrix_rep(k, side), k.length
        return regular_rep_mats(k, side), len(stabilizer_elements(k))

    out_mats, dim_out = pick(style_out, out_key, "out")
    in_mats, dim_in = pick(style_in, in_key, "in")
    dims = [d for d in (dim_out, dim_in) if d is not None]
    if len(dims) == 2 and dims[0] != dims[1]:
        # tensor the two actions into one space
        a = ChainComplex({0: dims[0]})
        b = ChainComplex({0: dims[1]})
        space = TensorSpace([a, b])
        carrier = space.complex
        out_gens = {}
        for s in stabilizer_generators(out_key):
            m = out_mats[s.images]
            out_gens[s.images] = linalg.kron(m, linalg.identity(dims[1]))
        in_gens = {}
        for s in stabilizer_generators(in_key):
            m = in_mats[s.images]
            in_gens[s.images] = linalg.kron(linalg.identity(dims[0]), m)
        return make_component(out_key, in_key, carrier, out_gens, in_gens)
    d = dims[0] if dims else rng.randint(1, 2)
    carrier_dims = {0: d}
    if graded and rng.random() < 0.5:
        carrier_dims[1] = d
    carrier = ChainComplex(carrier_dims)
    return make_component(out_key, in_key, carrier, out_mats, in_mats)


def classical_tensor_over_group_dim(x, y, mid_key):
    """Independent route: relations from the full middle group, raw row reduction."""
    dim = x.carrier.dim(0) * y.carrier.dim(0)
    rows = []
    for g in stabilizer_elements(mid_key):
        a = x.rho_in(g).mat(0)
        b = y.rho_out(g).mat(0)
        rel = linalg.mat_sub(linalg.kron(a, linalg.identity(y.carrier.dim(0))),
                             linalg.kron(linalg.identity(x.carrier.dim(0)), b))
        for j in range(dim):
            rows.append([rel[i][j] for i in range(dim)])
    if not rows:
        return dim
    return dim - linalg.rank(rows)


def averaging_rank(x, y, mid_key):
    dim_x = x.carrier.dim(0)
    dim_y = y.carrier.dim(0)
    total = linalg.zeros(dim_x * dim_y, dim_x * dim_y)
    elems = stabilizer_elements(mid_key)
    for g in elems:
        a = x.rho_in(g.inverse()).mat(0)
        b = y.rho_out(g).mat(0)
        total = linalg.mat_add(total, linalg.kron(a, b))
    total = linalg.mat_scale(F(1, len(elems)), total)
    return linalg.rank(total)


def test_coinvariants_against_independent_routes():
    rng = random.Random(1)
    for _ in range(60):
        k = rng.randint(1, 3)
        mid = key(PAL1, *(["x"] * k))
        out_k = key(PAL1, "x")
        in_k = key(PAL1, "x")
        x = random_rep_component(rng, out_k, mid)
        y = random_rep_component(rng, mid, in_k)
        comp = tensor_over_sigma(x, y)
        expected = classical_tensor_over_group_dim(x, y, mid)
        assert comp.carrier.dim(0) == expected
        assert averaging_rank(x, y, mid) == expected


def test_coinvariants_residual_action_well_defined_and_lawful():
    rng = random.Random(2)
    for _ in range(20):
        mid = key(PAL, "a", "b")
        out_k = key(PAL, "a", "a")
        in_k = key(PAL, "b", "b")
        x = random_rep_component(rng, out_k, mid)
        y = random_rep_component(rng, mid, in_k)
        comp = tensor_over_sigma(x, y)
        assert comp.validate() == []


def test_box_v_zero_and_single():
    kd = key(PAL1, "x")
    kb = key(PAL1, "x", "x")
    kc = key(PAL1, "x")
    p = ColoredBimodule(PAL1, {(kd, kb): make_component(kd, kb, ChainComplex({0: 1}))})
    q_empty = ColoredBimodule(PAL1, {})
    assert box_v(p, q_empty).components == {}
    q = ColoredBimodule(PAL1, {(kb, kc): make_component(kb, kc, ChainComplex({0: 1}))})
    pq = box_v(p, q)
    assert set(pq.components) == {(kd, kc)}
    # single middle orbit, trivial actions: dim = 1 (coinvariants of the
    # trivial action on a 1-dim space)
    assert pq.component(kd, kc).carrier.dims == {0: 1}


def test_box_v_associativity_dims():
    rng = random.Random(3)
    for _ in range(10):
        keys = [key(PAL1, *["x"] * rng.randint(1, 2)) for _ in range(4)]
        k1, k2, k3, k4 = keys
        p = ColoredBimodule(PAL1, {(k1, k2): random_rep_component(rng, k1, k2)})
        q = ColoredBimodule(PAL1, {(k2, k3): random_rep_component(rng, k2, k3)})
        r = ColoredBimodule(PAL1, {(k3, k4): random_rep_component(rng, k3, k4)})
        left = box_v(box_v(p, q), r)
        right = box_v(p, box_v(q, r))
        assert set(left.components) == set(right.components)
        for kk in left.components:
            assert left.component(*kk).carrier.dims == right.component(*kk).carrier.dims


# -- box_dot ------------------------------------------------------------------------


def test_box_dot_one_color_dims():
    k1 = key(PAL1, "x")
    x = make_component(k1, k1, ChainComplex({0: 1}))
    y = make_component(k1, k1, ChainComplex({0: 1}))
    comp = box_dot(PAL1, x, y)
    assert comp.out_key == key(PAL1, "x", "x")
    assert comp.carrier.dims == {0: 4}


def test_box_dot_distinct_colors_dim_one():
    ka = key(PAL, "a")
    kb = key(PAL, "b")
    x = make_component(ka, ka, ChainComplex({0: 1}))
    y = make_component(kb, kb, ChainComplex({0: 1}))
    comp = box_dot(PAL, x, y)
    assert comp.carrier.dims == {0: 1}


def test_box_dot_dim_law_against_coset_enumeration():
    rng = random.Random(4)
    for _ in range(25):
        def rand_key():
            length = rng.randint(1, 2)
            return key(PAL, *[rng.choice(PAL.colors) for _ in range(length)])

        x = random_rep_component(rng, rand_key(), rand_key())
        y = random_rep_component(rng, rand_key(), rand_key())
        total = (
            x.out_key.length + y.out_key.length + x.in_key.length + y.in_key.length
        )
        if total > 8:
            continue
        assert induced_dim_law(PAL, [x, y])


def test_box_dot_action_laws():
    rng = random.Random(5)
    for _ in range(10):
        ka = key(PAL, "a")
        kab = key(PAL, "a", "b")
        x = random_rep_component(rng, ka, kab)
        y = random_rep_component(rng, kab, ka)
        comp = box_dot(PAL, x, y)
        assert comp.validate() == []


def flatten_nested(palette, nested, parts):
    """Intertwiner basis map from ((X . Y) . Z) to (X . Y . Z) coordinates.

    nested = box_dot(box_dot(x, y), z) or box_dot(x, box_dot(y, z)); parts =
    (x, y, z).  Returns per-degree permutation matrices.
    """
    flat = box_dot_many(palette, list(parts))
    meta_o = nested.layout
    inner = meta_o.factors[0] if isinstance(meta_o.factors[0].layout, InducedLayout) else meta_o.factors[1]
    outer_first = inner is meta_o.factors[0]
    inner_meta = inner.layout
    mats = {}
    for n in nested.carrier.degrees():
        m = linalg.zeros(flat.carrier.dim(n), nested.carrier.dim(n))
        outer_tensor = meta_o.tensor
        base = outer_tensor.complex
        for s_out_i, ao in enumerate(meta_o.outs):
            for s_in_i, ai in enumerate(meta_o.ins):
                s_idx = s_out_i * len(meta_o.ins) + s_in_i
                for flat_b in range(base.dim(n)):
                    col = s_idx * base.dim(n) + flat_b
                    comp_deg, idxs = outer_tensor.unflatten(n, flat_b)
                    if outer_first:
                        inner_deg, inner_idx = comp_deg[0], idxs[0]
                        other_deg, other_idx = comp_deg[1], idxs[1]
                    else:
                        inner_deg, inner_idx = comp_deg[1], idxs[1]
                        other_deg, other_idx = comp_deg[0], idxs[0]
                    inner_tensor = inner_meta.tensor
                    ibase = inner_tensor.complex
                    inner_summand = inner_idx // ibase.dim(inner_deg)
                    inner_flat = inner_idx % ibase.dim(inner_deg)
                    n_inner_ins = len(inner_meta.ins)
                    iao = inner_meta.outs[inner_summand // n_inner_ins]
                    iai = inner_meta.ins[inner_summand % n_inner_ins]
                    icomp, iidx = inner_tensor.unflatten(inner_deg, inner_flat)
                    # composed placements
                    comp_ao = _compose_placement(ao, iao, 0 if outer_first else 1)
                    comp_ai = _compose_placement(ai, iai, 0 if outer_first else 1)
                    if not outer_first:
                        comp_ao = _compose_placement_right(ao, iao)
                        comp_ai = _compose_placement_right(ai, iai)
                    fm = flat.layout
                    fs_idx = fm.index[(comp_ao, comp_ai)]
                    ftensor = fm.tensor
                    if outer_first:
                        fcomp = icomp + (other_deg,)
                        fidx = iidx + (other_idx,)
                    else:
                        fcomp = (other_deg,) + icomp
                        fidx = (other_idx,) + iidx
                    frow = fs_idx * ftensor.complex.dim(n) + ftensor.flat_index(fcomp, fidx)
                    m[frow][col] = F(1)
        mats[n] = m
    return flat, mats


def _compose_placement(outer, inner, inner_slot):
    """outer distributes positions to {inner_slot, other}; refine inner block."""
    out = []
    rank = 0
    for fac in outer:
        if fac == inner_slot:
            out.append(inner[rank] if inner_slot == 0 else inner[rank] + 1)
            rank += 1
        else:
            out.append(len(set(inner)) if inner_slot == 0 else 0)
    return tuple(out)


def _compose_placement_right(outer, inner):
    out = []
    rank = 0
    for fac in outer:
        if fac == 1:
            out.append(inner[rank] + 1)
            rank += 1
        else:
            out.append(0)
    return tuple(out)


def test_box_dot_associativity_intertwiner():
    rng = random.Random(6)
    for _ in range(8):
        ka = key(PAL, rng.choice(PAL.colors))
        kb = key(PAL, rng.choice(PAL.colors))
        kc = key(PAL, rng.choice(PAL.colors))
        x = random_rep_component(rng, ka, ka)
        y = random_rep_component(rng, kb, kb)
        z = random_rep_component(rng, kc, kc)
        nested_left = box_dot(PAL, box_dot(PAL, x, y), z)
        flat3 = box_dot_many(PAL, [x, y, z])
        nested_right = box_dot(PAL, x, box_dot(PAL, y, z))
        assert nested_left.carrier.dims == flat3.carrier.dims
        assert nested_right.carrier.dims == flat3.carrier.dims
        flat, mats = flatten_nested(PAL, nested_left, (x, y, z))
        for n, m in mats.items():
            # permutation matrix: invertible
            assert linalg.rank(m) == flat3.carrier.dim(n)
        # the intertwiner transports the generator actions
        inter = ChainMap(nested_left.carrier, flat.carrier, mats, check=False)
        for s in stabilizer_generators(flat3.out_key):
            lhs = inter.compose(nested_left.rho_out(s))
            rhs = flat3.rho_out(s).compose(inter)
            assert lhs == rhs
        for s in stabilizer_generators(flat3.in_key):
            lhs = inter.compose(nested_left.rho_in(s))
            rhs = flat3.rho_in(s).compose(inter)
            assert lhs == rhs


# -- box_h -------------------------------------------------------------------------


def single_component_module(palette, comp):
    return ColoredBimodule(palette, {(comp.out_key, comp.in_key): comp})


def test_box_h_single_pair():
    ka = key(PAL, "a")
    kb = key(PAL, "b")
    p = single_component_module(PAL, make_component(ka, kb, ChainComplex({0: 1})))
    q = single_component_module(PAL, make_component(kb, ka, ChainComplex({0: 1})))
    pq = box_h(p, q)
    assert len(pq.components) == 1
    comp = pq.component(key(PAL, "a", "b"), key(PAL, "a", "b"))
    assert comp is not None
    assert comp.carrier.dims == {0: 1}


def test_box_h_zero_factor():
    ka = key(PAL, "a")
    p = single_component_module(PAL, make_component(ka, ka, ChainComplex({0: 1})))
    assert box_h(p, ColoredBimodule(PAL, {})).components == {}


def test_box_h_dim_symmetry():
    rng = random.Random(7)
    for _ in range(10):
        def rand_comp():
            def rand_key():
                return key(PAL, *[rng.choice(PAL.colors) for _ in range(rng.randint(1, 2))])

            return random_rep_component(rng, rand_key(), rand_key())

        p = single_component_module(PAL, rand_comp())
        q = single_component_module(PAL, rand_comp())
        pq = box_h(p, q)
        qp = box_h(q, p)
        assert set(pq.components) == set(qp.components)
        for kk in pq.components:
            assert pq.component(*kk).carrier.dims == qp.component(*kk).carrier.dims


def test_box_h_associativity_dims():
    rng = random.Random(8)
    for _ in range(6):
        def rand_comp():
            def rand_key():
                return key(PAL, rng.choice(PAL.colors))

            return random_rep_component(rng, rand_key(), rand_key())

        p = single_component_module(PAL, rand_comp())
        q = single_component_module(PAL, rand_comp())
        r = single_component_module(PAL, rand_comp())
        left = box_h(box_h(p, q), r)
        right = box_h(p, box_h(q, r))
        assert set(left.components) == set(right.components)
        for kk in left.components:
            assert left.component(*kk).carrier.dims == right.component(*kk).carrier.dims


# -- change of colors -----------------------------------------------------------


def test_change_colors_identity():
    rng = random.Random(9)
    ka = key(PAL, "a")
    comp = random_rep_component(rng, ka, ka)
    mod = single_component_module(PAL, comp)
    alpha = {"a": "a", "b": "b"}
    restricted = change_colors(alpha, "restrict", mod, source_palette=PAL)
    assert set(restricted.components) == set(mod.components)
    induced = change_colors(alpha, "induce", mod, target_palette=PAL)
    assert set(induced.components) == set(mod.components)
    for kk in mod.components:
        assert induced.component(*kk).carrier.dims == mod.component(*kk).carrier.dims


def test_change_colors_injective_unit():
    # alpha injective: restrict(induce(P)) = P
    rng = random.Random(10)
    big = Palette(["a", "b", "z"])
    alpha = {"a": "a", "b": "b"}
    for _ in range(20):
        def rand_key():
            return key(PAL, *[rng.choice(PAL.colors) for _ in range(rng.randint(1, 2))])

        comp = random_rep_component(rng, rand_key(), rand_key())
        mod = single_component_module(PAL, comp)
        induced = change_colors(alpha, "induce", mod, target_palette=big)
        back = change_colors(alpha, "restrict", induced, source_palette=PAL)
        assert set(back.components) == set(mod.components)
        for kk in mod.components:
            b = back.component(*kk)
            o = mod.component(*kk)
            assert b.carrier == o.carrier
            for s in stabilizer_generators(kk[0]):
                assert b.rho_out(s) == o.rho_out(s)
            for s in stabilizer_generators(kk[1]):
                assert b.rho_in(s) == o.rho_in(s)


def test_change_colors_collapse_sums_preimages():
    one = Palette(["z"])
    alpha = {"a": "z", "b": "z"}
    ka = key(PAL, "a")
    kb = key(PAL, "b")
    p = ColoredBimodule(
        PAL,
        {
            (ka, ka): make_component(ka, ka, ChainComplex({0: 2})),
            (kb, ka): make_component(kb, ka, ChainComplex({0: 3})),
        },
    )
    induced = change_colors(alpha, "induce", p, target_palette=one)
    kz = key(one, "z")
    comp = induced.component(kz, kz)
    assert comp.carrier.dim(0) == 5


def test_box_v_associativity_intertwiner():
    """The canonical reassociation map between iterated coinvariant quotients
    is invertible and intertwines the residual actions."""
    from propcalc.chains import assemble_tensor_map, ChainMap

    rng = random.Random(12)
    for _ in range(8):
        keys = [key(PAL1, *["x"] * rng.randint(1, 2)) for _ in range(4)]
        k1, k2, k3, k4 = keys
        x = random_rep_component(rng, k1, k2)
        y = random_rep_component(rng, k2, k3)
        z = random_rep_component(rng, k3, k4)
        xy = tensor_over_sigma(x, y)
        left = tensor_over_sigma(xy, z)
        yz = tensor_over_sigma(y, z)
        right = tensor_over_sigma(x, yz)
        assert left.carrier.dims == right.carrier.dims
        # build the canonical map: lift a left class to ((X (x) Y) (x) Z),
        # expand the inner section, reassociate (identity on flat indices),
        # and project down the right tower.
        meta_l = left.layout
        meta_r = right.layout
        sect_outer = meta_l.sect
        proj_inner_r = meta_r.proj
        space_l = meta_l.space  # [(XY)/~, Z]
        space_r = meta_r.space  # [X, (YZ)/~]
        xyz = TensorSpace([x.carrier, y.carrier, z.carrier])
        # expand: ((XY)/~ (x) Z) -> (X (x) Y (x) Z)
        expand = assemble_tensor_map(
            space_l,
            xyz,
            [
                (
                    TensorSpace([xy.carrier]),
                    TensorSpace([x.carrier, y.carrier]),
                    xy.layout.sect,
                ),
                (TensorSpace([z.carrier]), TensorSpace([z.carrier]), ChainMap.identity(z.carrier)),
            ],
        )
        # contract: (X (x) Y (x) Z) -> (X (x) (YZ)/~)
        contract = assemble_tensor_map(
            xyz,
            space_r,
            [
                (TensorSpace([x.carrier]), TensorSpace([x.carrier]), ChainMap.identity(x.carrier)),
                (
                    TensorSpace([y.carrier, z.carrier]),
                    TensorSpace([yz.carrier]),
                    yz.layout.proj,
                ),
            ],
        )
        inter = proj_inner_r.compose(contract).compose(expand).compose(sect_outer)
        for n in left.carrier.degrees():
            m = inter.mat(n)
            assert linalg.rank(m) == left.carrier.dim(n)
        # intertwines the outer actions
        for s in stabilizer_generators(k1):
            assert inter.compose(left.rho_out(s)) == right.rho_out(s).compose(inter)
        for s in stabilizer_generators(k4):
            assert inter.compose(left.rho_in(s)) == right.rho_in(s).compose(inter)


def test_all_product_outputs_satisfy_group_laws():
    """Every operation's output actions satisfy the group law (orders <= 48)."""
    rng = random.Random(13)
    big = Palette(["a", "b", "z"])
    alpha = {"a": "a", "b": "b"}
    for _ in range(6):
        def rand_key():
            return key(PAL, *[rng.choice(PAL.colors) for _ in range(rng.randint(1, 2))])

        c1 = random_rep_component(rng, rand_key(), rand_key())
        c2 = random_rep_component(rng, c1.in_key, rand_key())
        p = single_component_module(PAL, c1)
        q = single_component_module(PAL, c2)
        for mod in (box_v(p, q), box_h(p, q)):
            for comp in mod.components.values():
                assert comp.validate() == []
        induced = change_colors(alpha, "induce", p, target_palette=big)
        for comp in induced.components.values():
            assert comp.validate() == []
        restricted = change_colors(alpha, "restrict", induced, source_palette=PAL)
        for comp in restricted.components.values():
            assert comp.validate() == []


def graded_component(out_key, in_key, sign_out=False, sign_in=False, n=1):
    """Chain-valued component: identity differential disc, equal action in
    both degrees (so it commutes with d)."""
    carrier = ChainComplex({0: n, 1: n}, {1: linalg.identity(n)})

    def mats(flag):
        m = linalg.mat_scale(F(-1) if flag else F(1), linalg.identity(n))
        return ChainMap(carrier, carrier, {0: m, 1: m}, check=False)

    out_gens = {s.images: mats(sign_out) for s in stabilizer_generators(out_key)}
    in_gens = {s.images: mats(sign_in) for s in stabilizer_generators(in_key)}
    return BimoduleComponent(out_key, in_key, carrier, out_gens, in_gens)


def test_graded_coinvariants_and_box_dot():
    mid = key(PAL1, "x", "x")
    k1 = key(PAL1, "x")
    x = graded_component(k1, mid, sign_in=True)
    y = graded_component(mid, k1, sign_out=True)
    comp = tensor_over_sigma(x, y)
    # diagonal action is (+1): nothing is quotiented; tensor of two discs
    assert comp.carrier.dims == {0: 1, 1: 2, 2: 1}
    assert comp.validate() == []
    z = graded_component(k1, k1)
    ind = box_dot(PAL1, x, z)
    assert ind.validate() == []
    # induced dims: out (x,x) merged with (x): G_out = Sigma_2 x ... the law
    from propcalc.bimodules import induced_dim_law

    assert induced_dim_law(PAL1, [x, z])


def test_multicolor_middle_averaging_cross_check():
    rng = random.Random(14)
    for _ in range(20):
        mid = key(PAL, "a", "a", "b")
        out_k = key(PAL, rng.choice(PAL.colors))
        in_k = key(PAL, rng.choice(PAL.colors))
        x = random_rep_component(rng, out_k, mid)
        y = random_rep_component(rng, mid, in_k)
        comp = tensor_over_sigma(x, y)
        dim_x = x.carrier.dim(0)
        dim_y = y.carrier.dim(0)
        total = linalg.zeros(dim_x * dim_y, dim_x * dim_y)
        elems = stabilizer_elements(mid)
        for g in elems:
            total = linalg.mat_add(
                total,
                linalg.kron(x.rho_in(g.inverse()).mat(0), y.rho_out(g).mat(0)),
            )
        avg_rank = linalg.rank(linalg.mat_scale(F(1, len(elems)), total))
        assert comp.carrier.dim(0) == avg_rank
