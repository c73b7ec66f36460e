"""Vertical composition on box_h and horizontal composition on box_v."""

import random
from fractions import Fraction

import pytest

from test_bimodules import key, make_component, sign_rep
from propcalc import linalg
from propcalc.bimodules import (
    ColoredBimodule,
    HPropData,
    VPropData,
    box_h,
    box_v,
    induce_horizontal_on_boxv,
    induce_vertical_on_boxh,
    tensor_over_sigma,
)
from propcalc.chains import ChainComplex, ChainMap, TensorSpace, assemble_tensor_map
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
                    src, comps[(ka, kc)].carrier, {0: [[F(1)]]}, check=False
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
                src, comps[(merged_out, merged_in)].carrier, {0: [[F(1)]]}, check=False
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
    mat = m.mat(0)
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
    m = rdata.compose_map(k2, k2, k2).mat(0)
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
    m = rdata.compose_map((k1, k1), (k1, k1)).mat(0)
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
