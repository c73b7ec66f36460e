"""Vertical composition on box_h and horizontal composition on box_v."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    dense_kernel_basis,
    dense_mat,
    reference_induce_horizontal_on_boxv,
    reference_induce_vertical_on_boxh,
    rows_of,
)
from test_bimodules import key, make_component, sign_rep
from propcalc import bimodules
from propcalc.bimodules import (
    BimoduleComponent,
    ColoredBimodule,
    HPropData,
    VPropData,
    box_h,
    box_v,
    induce_horizontal_on_boxv,
    induce_vertical_on_boxh,
    merge_keys,
    tensor_over_sigma,
)
from propcalc.chains import (
    ChainComplex,
    ChainMap,
    TensorSpace,
    assemble_tensor_map,
    factor_permutation_map,
)
from propcalc.profiles import Palette, Permutation, stabilizer_generators

F = Fraction
PAL1 = Palette(["x"])


def scalar_vprop(lengths=(1, 2), style="trivial"):
    """One-colored vPROP: every component Q with multiplication as composition."""
    keys = {L: key(PAL1, *["x"] * L) for L in lengths}
    comps = {}
    for a in lengths:
        for b in lengths:
            ka, kb = keys[a], keys[b]
            out_mats = sign_rep(ka) if style == "sign" else None
            in_mats = sign_rep(kb) if style == "sign" else None
            comps[(ka, kb)] = make_component(
                ka, kb, ChainComplex({0: 1}), out_mats, in_mats
            )
    mod = ColoredBimodule(PAL1, comps)
    vcomp = {}
    for a in lengths:
        for b in lengths:
            for c in lengths:
                ka, kb, kc = keys[a], keys[b], keys[c]
                src = TensorSpace(
                    [comps[(ka, kb)].carrier, comps[(kb, kc)].carrier]
                ).complex
                vcomp[(ka, kb, kc)] = ChainMap(
                    src, comps[(ka, kc)].carrier, rows_of({0: [[F(1)]]}), check=False
                )
    return VPropData(mod, vcomp)


def scalar_hprop(lengths=(1, 2), style="trivial"):
    keys = {L: key(PAL1, *["x"] * L) for L in lengths}
    comps = {}
    pairs = []
    for a in lengths:
        for b in lengths:
            ka, kb = keys[a], keys[b]
            out_mats = sign_rep(ka) if style == "sign" else None
            in_mats = sign_rep(kb) if style == "sign" else None
            comps[(ka, kb)] = make_component(
                ka, kb, ChainComplex({0: 1}), out_mats, in_mats
            )
            pairs.append((ka, kb))
    mod = ColoredBimodule(PAL1, comps)
    hcomp = {}
    for (ka, kb) in pairs:
        for (kc, kd) in pairs:
            merged_out = key(PAL1, *["x"] * (ka.length + kc.length))
            merged_in = key(PAL1, *["x"] * (kb.length + kd.length))
            if (merged_out, merged_in) not in comps:
                continue
            src = TensorSpace(
                [comps[(ka, kb)].carrier, comps[(kc, kd)].carrier]
            ).complex
            hcomp[((ka, kb), (kc, kd))] = ChainMap(
                src, comps[(merged_out, merged_in)].carrier, rows_of({0: [[F(1)]]}), check=False
            )
    return HPropData(mod, hcomp)


def test_scalar_vprop_valid():
    for style in ("trivial", "sign"):
        vp = scalar_vprop(style=style)
        assert vp.validate() == []


def test_induced_vertical_composite_on_single_pair():
    vp = scalar_vprop(lengths=(1,))
    vq = scalar_vprop(lengths=(1,))
    r, rdata = induce_vertical_on_boxh(vp, vq)
    k2 = key(PAL1, "x", "x")
    comp = r.component(k2, k2)
    assert comp is not None
    m = rdata.compose_map(k2, k2, k2)
    # upper and lower each have dim 4 (2 out placements x 2 in placements);
    # composite is nonzero exactly on middle-matching pairs
    upper_dim = comp.carrier.dim(0)
    assert upper_dim == 4
    mat = dense_mat(m, 0)
    nonzero_cols = [j for j in range(len(mat[0])) if any(mat[i][j] != 0 for i in range(len(mat)))]
    # of the 16 pairs, 8 match in the middle placement (2 choices of shared
    # middle x 2 upper-out x 2 lower-in)
    assert len(nonzero_cols) == 8


def test_induced_vertical_zero_on_middle_mismatch():
    vp = scalar_vprop(lengths=(1,))
    vq = scalar_vprop(lengths=(1,))
    r, rdata = induce_vertical_on_boxh(vp, vq)
    k2 = key(PAL1, "x", "x")
    comp = r.component(k2, k2)
    m = dense_mat(rdata.compose_map(k2, k2, k2), 0)
    # build the explicit mismatch: upper in-placement (0,1), lower out-placement (1,0)
    meta = comp.layout.pieces[0].component.layout
    outs, ins, index = meta.outs, meta.ins, meta.index
    u = index[(outs[0], ins[0])]
    mismatching = [a for a in outs if a != ins[0]][0]
    v = index[(mismatching, ins[0])]
    space = TensorSpace([comp.carrier, comp.carrier])
    col = space.flat_index((0, 0), (u, v))
    assert all(m[i][col] == 0 for i in range(len(m)))


def test_induced_vertical_associativity():
    for style in ("trivial", "sign"):
        vp = scalar_vprop(lengths=(1, 2), style=style)
        vq = scalar_vprop(lengths=(1,), style=style)
        r, rdata = induce_vertical_on_boxh(vp, vq)
        failures = rdata.validate()
        assert failures == []


def test_induced_horizontal_on_single_summand():
    hp = scalar_hprop(lengths=(1, 2))
    hq = scalar_hprop(lengths=(1, 2))
    r, rdata = induce_horizontal_on_boxv(hp, hq)
    k1 = key(PAL1, "x")
    k2 = key(PAL1, "x", "x")
    # R(k1,k1) has the middle sums over lengths 1 and 2
    c = r.component(k1, k1)
    assert c is not None
    m = rdata.compose_map((k1, k1), (k1, k1))
    assert not m.is_zero()
    # target lives at (k2, k2)
    assert m.target.dims == r.component(k2, k2).carrier.dims


def test_induced_horizontal_zero_factor():
    hp = scalar_hprop(lengths=(1,))
    hq = scalar_hprop(lengths=(1,))
    r, rdata = induce_horizontal_on_boxv(hp, hq)
    k1 = key(PAL1, "x")
    missing = rdata.compose_map((k1, k1), (key(PAL1, "x", "x"), k1))
    assert missing.is_zero()


def test_induced_horizontal_well_defined_on_classes():
    # twisting the chosen section by a middle stabilizer generator must not
    # change the induced map
    hp = scalar_hprop(lengths=(1, 2), style="sign")
    hq = scalar_hprop(lengths=(1, 2), style="sign")
    r = box_v(hp.module, hq.module)
    _, rdata = induce_horizontal_on_boxv(hp, hq, module=r)
    k1 = key(PAL1, "x")
    comp = r.component(k1, k1)
    twisted_any = False
    for mid, piece in comp.layout.pieces:
        gens = stabilizer_generators(mid)
        if not gens:
            continue
        sm = piece.layout
        space, sect, proj = sm.space, sm.sect, sm.proj
        left, right = sm.left, sm.right
        ls, rs = TensorSpace([left.carrier]), TensorSpace([right.carrier])
        g = gens[0]
        rel = assemble_tensor_map(
            space, space, [(ls, ls, left.rho_in(g.inverse())), (rs, rs, right.rho_out(g))]
        )
        twisted_sect = rel.compose(sect)
        # still a section: proj o twisted = id
        assert proj.compose(twisted_sect) == ChainMap.identity(piece.carrier)
        piece.layout = sm._replace(sect=twisted_sect)
        try:
            _, rdata2 = induce_horizontal_on_boxv(hp, hq, module=r)
        finally:
            piece.layout = sm
        twisted_any = True
        for pair in rdata.hcomp:
            assert rdata.compose_map(*pair) == rdata2.compose_map(*pair)
    assert twisted_any


def test_induced_horizontal_uses_middle_piece_offsets():
    # with several middle pieces, each piece's classes sit at its own offset
    # in the box_v component; the composite x.x lands in the middle merges
    # x.x, then x.xx and xx.x, then x.xxx, xx.xx and xxx.x
    hp = scalar_hprop(lengths=(1, 2, 3, 4))
    hq = scalar_hprop(lengths=(1, 2, 3, 4))
    _, rdata = induce_horizontal_on_boxv(hp, hq)
    k1 = key(PAL1, "x")
    m = dense_mat(rdata.compose_map((k1, k1), (k1, k1)), 0)
    nonzeros = {
        i: {j: v for j, v in enumerate(row) if v != 0} for i, row in enumerate(m) if any(row)
    }
    assert nonzeros == {
        1: {0: 1},
        2: {1: 1, 4: 1},
        3: {2: 1, 5: 1, 8: 1},
    }


def test_induced_horizontal_associativity_on_basis():
    for lengths in ((1, 2), (1, 2, 3)):
        _check_horizontal_associativity(lengths)


def _check_horizontal_associativity(lengths):
    hp = scalar_hprop(lengths=lengths)
    hq = scalar_hprop(lengths=lengths)
    r, rdata = induce_horizontal_on_boxv(hp, hq)
    k1 = key(PAL1, "x")
    k2 = key(PAL1, "x", "x")
    c1 = r.component(k1, k1)
    m12 = rdata.compose_map((k1, k1), (k1, k1))
    # ((u . v) . w) vs (u . (v . w)) on all basis triples
    m_12_3 = rdata.compose_map((k2, k2), (k1, k1))
    m_23 = rdata.compose_map((k1, k1), (k1, k1))
    m_1_23 = rdata.compose_map((k1, k1), (k2, k2))
    space3 = TensorSpace([c1.carrier, c1.carrier, c1.carrier])
    s1 = TensorSpace([c1.carrier])
    pair12 = TensorSpace([m12.target, c1.carrier])
    first = assemble_tensor_map(
        space3,
        pair12,
        [
            (TensorSpace([c1.carrier, c1.carrier]), TensorSpace([m12.target]), m12),
            (s1, s1, ChainMap.identity(c1.carrier)),
        ],
    )
    route1 = m_12_3.compose(first)
    pair23 = TensorSpace([c1.carrier, m_23.target])
    second = assemble_tensor_map(
        space3,
        pair23,
        [
            (s1, s1, ChainMap.identity(c1.carrier)),
            (TensorSpace([c1.carrier, c1.carrier]), TensorSpace([m_23.target]), m_23),
        ],
    )
    route2 = m_1_23.compose(second)
    assert route1 == route2


def test_induced_vertical_skips_a_zero_target():
    # R(xx, xxx) and R(xxx, xx) exist but R(xx, xx) and R(xxx, xxx) are zero,
    # so neither composable triple has a target
    x, xx = key(PAL1, "x"), key(PAL1, "x", "x")
    one = ChainComplex({0: 1})
    p = ColoredBimodule(
        PAL1, {(x, xx): make_component(x, xx, one), (xx, x): make_component(xx, x, one)}
    )
    q = ColoredBimodule(PAL1, {(x, x): make_component(x, x, one)})
    r, rdata = induce_vertical_on_boxh(VPropData(p, {}), VPropData(q, {}))
    k2, k3 = key(PAL1, "x", "x"), key(PAL1, "x", "x", "x")
    assert set(r.components) == {(k2, k3), (k3, k2)}
    assert rdata.vcomp == {}
    assert rdata.compose_map(k2, k3, k2).is_zero()
    assert rdata.validate() == []


def _entries(maps):
    return sum(len(row) for m in maps for rows in m.rows.values() for row in rows)


@pytest.mark.parametrize("style", ["trivial", "sign"])
def test_transported_compositions_match_references_on_scalar_configurations(style):
    for p_lengths, q_lengths in (((1,), (1,)), ((1, 2), (1,)), ((1, 2), (1, 2))):
        vp, vq = scalar_vprop(p_lengths, style), scalar_vprop(q_lengths, style)
        _, ours = induce_vertical_on_boxh(vp, vq)
        _, ref = reference_induce_vertical_on_boxh(vp, vq)
        assert ours.vcomp == ref.vcomp and _entries(ours.vcomp.values())
    for lengths in ((1,), (1, 2), (1, 2, 3)):
        hp, hq = scalar_hprop(lengths, style), scalar_hprop(lengths, style)
        r, ours = induce_horizontal_on_boxv(hp, hq)
        _, ref = reference_induce_horizontal_on_boxv(hp, hq, module=r)
        assert ours.hcomp == ref.hcomp


# -- seeded graded cases: carriers in degrees 0-2 with boundaries, two colors


def _random_carrier(rng, max_odd):
    dims = {0: rng.randint(1, 2), 1: rng.randint(0, max_odd), 2: rng.randint(0, 1)}
    boundary = {}
    if dims[1]:
        boundary[1] = [[rng.randint(-2, 2) for _ in range(dims[1])] for _ in range(dims[0])]
        kernel = dense_kernel_basis(boundary[1])
        if dims[2] and kernel:
            scale = rng.choice([1, -1, 2])
            boundary[2] = [[scale * x] for x in kernel[0]]
    return ChainComplex(dims, rows_of(boundary))


def _random_module(rng, palette, keys, density, max_odd):
    """Components at random orbit pairs, each side acting trivially or by the
    sign of the permutation."""
    comps = {}
    for a, b in itertools.product(keys, keys):
        if rng.random() < density:
            carrier = _random_carrier(rng, max_odd)
            acts = [ChainMap.identity(carrier), ChainMap.identity(carrier).scale(-1)]
            out_act, in_act = rng.choice(acts), rng.choice(acts)
            comps[(a, b)] = BimoduleComponent(
                a,
                b,
                carrier,
                {s.images: out_act for s in stabilizer_generators(a)},
                {s.images: in_act for s in stabilizer_generators(b)},
            )
    return ColoredBimodule(palette, comps)


def _random_map(rng, source, target):
    mats = {
        n: [[rng.choice([0, 0, 1, -1, 2]) for _ in range(source.dim(n))] for _ in range(target.dim(n))]
        for n in source.degrees()
        if target.dim(n)
    }
    return ChainMap(source, target, rows_of(mats), check=False)


def _random_vprop(rng, palette, keys, density):
    mod = _random_module(rng, palette, keys, density, max_odd=1)
    vcomp = {}
    for (a, b), x in mod.components.items():
        for (b2, c), y in mod.components.items():
            target = mod.component(a, c)
            if b2 == b and target is not None:
                src = TensorSpace([x.carrier, y.carrier]).complex
                vcomp[(a, b, c)] = _random_map(rng, src, target.carrier)
    return VPropData(mod, vcomp)


def _random_hprop(rng, palette, keys):
    mod = _random_module(rng, palette, keys, 0.8, max_odd=2)
    hcomp = {}
    for k1, x in mod.components.items():
        for k2, y in mod.components.items():
            merged = [merge_keys(palette, [k1[i], k2[i]]) for i in (0, 1)]
            target = mod.component(*merged)
            if target is not None:
                src = TensorSpace([x.carrier, y.carrier]).complex
                hcomp[(k1, k2)] = _random_map(rng, src, target.carrier)
    return HPropData(mod, hcomp)


def test_transported_compositions_match_references_on_graded_cases(monkeypatch):
    """24 seeded cases, one color (lengths 1-3) or two; random degree-0
    compositions, neither chain maps nor equivariant, since the formulas do
    not use either.  The switch signs of -1 that meet a nonzero column of
    (f (x) g) o switch are counted, and so are the horizontal entries."""
    minus_ones = {"vertical": 0, "horizontal": 0}
    side = ["vertical"]
    core = bimodules._switched_tensor

    def counting(f, g, first, second, target):
        four, mapped = core(f, g, first, second, target)
        switch = factor_permutation_map(four.factors, Permutation([1, 3, 2, 4]), four)
        for n, rows in switch.rows.items():
            used = {c for row in mapped.rows.get(n, ()) for c in row}
            minus_ones[side[0]] += sum(1 for row in rows for c, x in row.items() if x == -1 and c in used)
        return four, mapped

    monkeypatch.setattr(bimodules, "_switched_tensor", counting)
    one, two = Palette(["x"]), Palette(["x", "y"])
    vertical_entries = horizontal_entries = 0
    for seed in range(24):
        rng = random.Random(seed)
        if seed % 2:
            palette = two
            v_keys = h_keys = [key(two, "x"), key(two, "y"), key(two, "x", "y")]
        else:
            palette = one
            v_keys = [key(one, *"x" * n) for n in (1, 2)]
            h_keys = [key(one, *"x" * n) for n in (1, 2, 3)]
        side[0] = "vertical"
        vp = _random_vprop(rng, palette, v_keys, 0.5)
        vq = _random_vprop(rng, palette, v_keys, 0.3)
        _, ours = induce_vertical_on_boxh(vp, vq)
        _, ref = reference_induce_vertical_on_boxh(vp, vq)
        assert ours.vcomp == ref.vcomp, seed
        vertical_entries += _entries(ours.vcomp.values())
        side[0] = "horizontal"
        hp, hq = _random_hprop(rng, palette, h_keys), _random_hprop(rng, palette, h_keys)
        r, ours = induce_horizontal_on_boxv(hp, hq)
        _, ref = reference_induce_horizontal_on_boxv(hp, hq, module=r)
        assert ours.hcomp == ref.hcomp, seed
        horizontal_entries += _entries(ours.hcomp.values())
    assert minus_ones["vertical"] and minus_ones["horizontal"]
    assert vertical_entries and horizontal_entries
