"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is either computed by an independent oracle inside this
file (brute force, coset enumeration, direct matrix evaluation) or asserted
exactly from finite combinatorics.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import io
import itertools
import json
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from helpers import (
    dense_add,
    dense_d,
    dense_mat,
    dense_mul,
    dense_rank,
    dense_scale,
    dense_sub,
    ground_field_structure,
    homotopy_assoc_presentation,
    identity,
    inclusion_from_field,
    interchange_quadruple,
    kron,
    projection_to_field,
    random_signature,
    rows_of,
    zeros,
)
from propcalc.algebras import AlgebraStructure, check_algebra, check_morphism, transfer
from propcalc.bimodules import (
    ColoredBimodule,
    box_dot_many,
    change_colors,
    tensor_over_sigma,
)
from propcalc.chains import ChainComplex, ChainMap, classify_map, path_object
from propcalc.cli import run as cli_run
from propcalc.endo import ColoredFamily, EndoElement, FamilyMap
from propcalc.exprs import HCompExpr, PropPresentation, VCompExpr, graphs_equal, parse
from propcalc.formats import dumps, to_json
from propcalc.graphs import Generator, Signature, free_component_dim
from propcalc.operads import (
    algebra_round_trip,
    associative_operad,
    check_unit_identity,
    endomorphism_operad,
    profile_key,
    prop_from_operad,
    trivial_operad,
)
from propcalc.profiles import (
    Palette,
    Permutation,
    Profile,
    canonicalize_profile,
    stabilizer_elements,
    stabilizer_generators,
)

F = Fraction


def report(number, label, ok):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", number, label))
    assert ok, "criterion %d (%s) failed" % (number, label)


# -- 1 ---------------------------------------------------------------------


def test_criterion_1_interchange_suite():
    rng = random.Random(20240801)
    ok = True
    for case in range(1000):
        sig = random_signature(rng, max_colors=3, max_generators=4)
        e1, e2, e3, e4 = interchange_quadruple(sig, rng, depth=1)
        lhs = VCompExpr(HCompExpr(e1, e2), HCompExpr(e3, e4))
        rhs = HCompExpr(VCompExpr(e1, e3), VCompExpr(e2, e4))
        if not graphs_equal(lhs, rhs):
            ok = False
            break
    report(1, "interchange on 1000 random quadruples", ok)


# -- 2 ---------------------------------------------------------------------


def test_criterion_2_free_component_oracle():
    palette = Palette(["c"])
    c = lambda *xs: Profile(palette, xs)
    sig = Signature(palette, [Generator("mu", c("c"), c("c", "c"), 0)])
    got = (
        free_component_dim(sig, c("c"), c("c", "c"), 3),
        free_component_dim(sig, c("c"), c("c", "c", "c"), 3),
        free_component_dim(sig, c("c", "c"), c("c", "c", "c"), 3),
    )
    # independent oracles:
    # arity 2: one vertex, two leaf labelings
    expected_2 = math.factorial(2) * 1
    # arity 3: unlabeled binary trees with 3 leaves (Catalan C_2 = 2) times 3! labelings
    catalan_2 = 2
    expected_3 = catalan_2 * math.factorial(3)
    # (2,3): with only (1,2)-vertices, V vertices give V+... inputs = 2V, outputs = V;
    # legs: in = 2V - E, out = V - E; out = 2 and in = 3 forces E = V - 2 and
    # 2V - (V - 2) = 3, i.e. V = 1, contradicting out = 2.
    expected_23 = 0
    ok = got == (expected_2, expected_3, expected_23)
    report(2, "free components (1,2)->2, (1,3)->12, (2,3)->0", ok)


# -- 3 ---------------------------------------------------------------------


def one_colored_rep(rng, k, side):
    """Random one-colored representation of Sigma_k as generator matrices."""
    from test_bimodules import perm_matrix_rep, regular_rep_mats, sign_rep, key

    kk = key(Palette(["x"]), *(["x"] * k))
    style = rng.choice(["trivial", "sign", "perm", "regular"])
    if style == "trivial":
        return kk, None, rng.randint(1, 3)
    if style == "sign":
        return kk, sign_rep(kk), 1
    if style == "perm":
        return kk, perm_matrix_rep(kk, side), k
    return kk, regular_rep_mats(kk, side), math.factorial(k)


def test_criterion_3_coinvariants_oracle():
    from test_bimodules import key, make_component

    rng = random.Random(3)
    palette = Palette(["x"])
    ok = True
    for case in range(200):
        k = rng.randint(1, 3)
        mid, x_in_mats, dx = one_colored_rep(rng, k, "in")
        _, y_out_mats, dy = one_colored_rep(rng, k, "out")
        out_k = key(palette, "x")
        in_k = key(palette, "x")
        x = make_component(out_k, mid, ChainComplex({0: dx}), in_mats=x_in_mats)
        y = make_component(mid, in_k, ChainComplex({0: dy}), out_mats=y_out_mats)
        comp = tensor_over_sigma(x, y)
        got = comp.carrier.dim(0)
        # oracle A: direct quotient over the full group
        dim = dx * dy
        rows = []
        for g in stabilizer_elements(mid):
            a = dense_mat(x.rho_in(g), 0)
            b = dense_mat(y.rho_out(g), 0)
            rel = dense_sub(
                kron(a, identity(dy)),
                kron(identity(dx), b),
            )
            for j in range(dim):
                rows.append([rel[i][j] for i in range(dim)])
        oracle_a = dim - (dense_rank(rows) if rows else 0)
        # oracle B: rank of the averaging projector
        total = zeros(dim, dim)
        elems = stabilizer_elements(mid)
        for g in elems:
            total = dense_add(
                total, kron(dense_mat(x.rho_in(g.inverse()), 0), dense_mat(y.rho_out(g), 0))
            )
        oracle_b = dense_rank(dense_scale(F(1, len(elems)), total))
        if got != oracle_a or got != oracle_b:
            ok = False
            break
    report(3, "coinvariants vs direct quotient and averaging rank (200 cases)", ok)


# -- 4 ---------------------------------------------------------------------


def test_criterion_4_kan_dimension_law():
    from test_bimodules import key, random_rep_component

    rng = random.Random(4)
    palette = Palette(["a", "b"])
    checked = 0
    ok = True
    while checked < 40:
        def rand_key():
            return key(palette, *[rng.choice(palette.colors) for _ in range(rng.randint(1, 2))])

        x = random_rep_component(rng, rand_key(), rand_key())
        y = random_rep_component(rng, rand_key(), rand_key())
        total = (
            x.out_key.length + y.out_key.length + x.in_key.length + y.in_key.length
        )
        if total > 8:
            continue
        comp = box_dot_many(palette, [x, y])
        index = _coset_index(palette, [x.out_key, y.out_key], comp.out_key) * _coset_index(
            palette, [x.in_key, y.in_key], comp.in_key
        )
        expected = index * x.carrier.total_dim() * y.carrier.total_dim()
        if comp.carrier.total_dim() != expected:
            ok = False
            break
        checked += 1
    report(4, "induced dimension law vs coset enumeration", ok)


def _coset_index(palette, keys, merged):
    concat_entries = []
    for k in keys:
        concat_entries.extend(k.rep.entries)
    _, transport = canonicalize_profile(Profile(palette, concat_entries))
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


# -- 5 ---------------------------------------------------------------------


def test_criterion_5_path_object_contract():
    from test_chains import random_complex

    rng = random.Random(5)
    ok = True
    for case in range(100):
        x = random_complex(rng, max_deg=3, max_dim=3)
        if x.total_dim() > 30:
            continue
        p, s, d0, d1 = path_object(x)
        ident = ChainMap.identity(x)
        if d0.compose(s) != ident or d1.compose(s) != ident:
            ok = False
            break
        flags = classify_map(s)
        if not flags["acyclicCofibration"]:
            ok = False
            break
        # (d0, d1) is a fibration: surjective in every positive degree
        for n in p.degrees():
            if n == 0:
                continue
            stacked = dense_mat(d0, n) + dense_mat(d1, n)
            if dense_rank(stacked) != 2 * x.dim(n):
                ok = False
                break
        if not ok:
            break
    report(5, "path object contract on 100 random complexes", ok)


# -- 6 ---------------------------------------------------------------------


def _local_kron_many(mats):
    out = [[F(1)]]
    for m in mats:
        out = kron(out, m)
    return out


def test_criterion_6_transfer_witness():
    pres = homotopy_assoc_presentation()
    st_y = ground_field_structure(pres)
    palette = pres.signature.palette
    ok = True

    # direction 1: along the projection Q[0] + D -> Q[0]
    f = projection_to_field(palette)
    st_x, rep1 = transfer(pres, f, "alongAcyclicFibration", st_y)

    # independent verification of D(lambda mu3) = lambda(d mu3), written with
    # local matrix arithmetic only
    x = st_x.family.complexes["c"]
    mu2 = st_x.assignment["mu2"].chain
    iota = st_x.assignment["iota"].chain
    mu3 = st_x.assignment["mu3"].chain

    # degree-0 check is enough to keep this fully local: all complexes live in
    # degrees 0 and 1, mu3 has degree 1, so D(mu3)_0 = d o mu3_0 and
    # lambda(d mu3)_0 = mu2 (mu2 (x) iota)_0 - mu2 (iota (x) mu2)_0 on the
    # degree-0 cube basis.
    d1 = dense_d(x, 1)
    n0 = x.dim(0)
    m2 = dense_mat(mu2, 0)
    i0 = dense_mat(iota, 0)
    # (mu2 (x) iota) and (iota (x) mu2) on the degree-0 part of X (x) X (x) X:
    left = dense_mul(m2, kron(m2, i0))
    right = dense_mul(m2, kron(i0, m2))
    assoc0 = dense_sub(left, right)
    dmu3_0 = dense_mul(d1, dense_mat(mu3, 0))
    if assoc0 != dmu3_0:
        ok = False
    # morphism squares at every generator, locally: f_d o phi = phi_Y o f_c
    fm = dense_mat(f.maps["c"], 0)
    for name in ("mu2", "iota", "mu3"):
        gen = pres.signature[name]
        phi_x = st_x.assignment[name].chain
        phi_y = st_y.assignment[name].chain
        f_in = _local_kron_many([fm] * len(gen.in_profile))
        if gen.degree == 0:
            lhs = dense_mul(fm, dense_mat(phi_x, 0))
            rhs = dense_mul(dense_mat(phi_y, 0), f_in)
            if lhs != rhs:
                ok = False
    if rep1["algebra_failures"] or not rep1["morphism_ok"]:
        ok = False

    # direction 2: along the inclusion Q[0] -> Q[0] + D
    g = inclusion_from_field(palette)
    st_y2, rep2 = transfer(pres, g, "alongAcyclicCofibration", st_y)
    if rep2["algebra_failures"] or not rep2["morphism_ok"]:
        ok = False
    y2 = st_y2.family.complexes["c"]
    mu2b = st_y2.assignment["mu2"].chain
    iotab = st_y2.assignment["iota"].chain
    mu3b = st_y2.assignment["mu3"].chain
    d1b = dense_d(y2, 1)
    leftb = dense_mul(dense_mat(mu2b, 0), kron(dense_mat(mu2b, 0), dense_mat(iotab, 0)))
    rightb = dense_mul(dense_mat(mu2b, 0), kron(dense_mat(iotab, 0), dense_mat(mu2b, 0)))
    if dense_sub(leftb, rightb) != dense_mul(d1b, dense_mat(mu3b, 0)):
        ok = False
    report(6, "transfer along projection and inclusion, verified directly", ok)


# -- 7 ---------------------------------------------------------------------


def test_criterion_7_splitsquare_equivalence():
    rng = random.Random(7)
    palette = Palette(["a", "b"])
    ok = True
    agree = 0
    for case in range(50):
        # zero-differential families keep every matrix family a chain map
        fam_x = ColoredFamily(
            palette,
            {c: ChainComplex({0: rng.randint(1, 2)}) for c in palette.colors},
        )
        fam_y = ColoredFamily(
            palette,
            {c: ChainComplex({0: rng.randint(1, 2)}) for c in palette.colors},
        )
        f = FamilyMap(
            fam_x,
            fam_y,
            {
                c: ChainMap(
                    fam_x.complexes[c],
                    fam_y.complexes[c],
                    rows_of({0: [[F(rng.randint(-1, 1)) for _ in range(fam_x.complexes[c].dim(0))] for _ in range(fam_y.complexes[c].dim(0))]}),
                )
                for c in palette.colors
            },
        )
        sig = Signature(
            palette,
            [
                Generator("g1", Profile(palette, ["a"]), Profile(palette, ["a", "b"]), 0),
                Generator("g2", Profile(palette, ["b"]), Profile(palette, ["a"]), 0),
            ],
        )
        pres = PropPresentation(sig)

        def rand_structure(fam):
            assignment = {}
            for name, gen in sig.generators.items():
                src = fam.space(gen.in_profile).complex
                tgt = fam.space(gen.out_profile).complex
                assignment[name] = EndoElement.from_mats(
                    fam,
                    gen.out_profile,
                    gen.in_profile,
                    0,
                    rows_of({0: [[F(rng.randint(-1, 1)) for _ in range(src.dim(0))] for _ in range(tgt.dim(0))]}),
                )
            return AlgebraStructure(pres, fam, assignment)

        st_x = rand_structure(fam_x)
        if rng.random() < 0.4:
            # make a genuinely matching pair by pushing through when solvable:
            # use the zero structure on both sides
            st_x = AlgebraStructure(
                pres,
                fam_x,
                {
                    name: EndoElement.zero(fam_x, g.out_profile, g.in_profile, 0)
                    for name, g in sig.generators.items()
                },
            )
            st_y = AlgebraStructure(
                pres,
                fam_y,
                {
                    name: EndoElement.zero(fam_y, g.out_profile, g.in_profile, 0)
                    for name, g in sig.generators.items()
                },
            )
        else:
            st_y = rand_structure(fam_y)
        got, _ = check_morphism(f, st_x, st_y)
        # direct square check with local matrix arithmetic
        direct = True
        for name, gen in sorted(sig.generators.items()):
            f_out = _local_kron_many([dense_mat(f.maps[c], 0) for c in gen.out_profile.entries])
            f_in = _local_kron_many([dense_mat(f.maps[c], 0) for c in gen.in_profile.entries])
            lhs = dense_mul(f_out, dense_mat(st_x.assignment[name].chain, 0))
            rhs = dense_mul(dense_mat(st_y.assignment[name].chain, 0), f_in)
            if lhs != rhs:
                direct = False
                break
        if got != direct:
            ok = False
            break
        agree += 1
    report(7, "morphism check vs direct squares on 50 triples", ok and agree == 50)


# -- 8 ---------------------------------------------------------------------


def test_criterion_8_operad_bridge():
    ok = True
    if not check_unit_identity(trivial_operad(3)):
        ok = False
    if not check_unit_identity(associative_operad(3)):
        ok = False
    palette2 = Palette(["a", "b"])
    fam2 = ColoredFamily(
        palette2, {"a": ChainComplex({0: 2}), "b": ChainComplex({0: 1})}
    )
    rand_operad = endomorphism_operad(fam2, 2)
    if not check_unit_identity(rand_operad):
        ok = False
    # dim O_prop(2,3) = 24 for O(n) = Q[Sigma_n], by coset brute force
    operad = associative_operad(3)
    opp = prop_from_operad(operad, 2, 3)
    k2 = profile_key(operad.palette, ["x", "x"])
    k3 = profile_key(operad.palette, ["x", "x", "x"])
    comp = opp.opp_component(k2, k3)
    expected = 0
    for sizes in itertools.product((1, 2), repeat=2):
        if sum(sizes) != 3:
            continue
        index = (math.factorial(2) // 1) * (
            math.factorial(3) // (math.factorial(sizes[0]) * math.factorial(sizes[1]))
        )
        dims = math.factorial(sizes[0]) * math.factorial(sizes[1])
        expected += index * dims
    if expected != 24 or comp.carrier.dim(0) != 24:
        ok = False
    # algebra round trips
    from test_operads import square_zero_algebra

    alg1 = square_zero_algebra(operad)
    if algebra_round_trip(operad, alg1) != []:
        ok = False
    fam1 = ColoredFamily(operad.palette, {"x": ChainComplex({0: 1})})
    values = {}
    for (d, in_key) in operad.support():
        cmp_ = operad.component(d, in_key)
        values[(d, in_key)] = [
            EndoElement.from_mats(
                fam1, Profile(operad.palette, ["x"]), in_key.rep, 0, rows_of({0: [[F(1)]]})
            )
            for _ in range(cmp_.carrier.dim(0))
        ]
    from propcalc.operads import OperadAlgebra

    alg2 = OperadAlgebra(operad, fam1, values)
    if algebra_round_trip(operad, alg2) != []:
        ok = False
    report(8, "operad bridge: unit identity, dims, round trips", ok)


# -- 9 ---------------------------------------------------------------------


def test_criterion_9_change_of_colors():
    from test_bimodules import key, random_rep_component

    rng = random.Random(9)
    small = Palette(["a", "b"])
    big = Palette(["a", "b", "z"])
    alpha = {"a": "a", "b": "b"}
    ok = True
    for case in range(50):
        def rand_key():
            return key(small, *[rng.choice(small.colors) for _ in range(rng.randint(1, 2))])

        comp = random_rep_component(rng, rand_key(), rand_key())
        mod = ColoredBimodule(small, {(comp.out_key, comp.in_key): comp})
        induced = change_colors(alpha, "induce", mod, target_palette=big)
        back = change_colors(alpha, "restrict", induced, source_palette=small)
        if set(back.components) != set(mod.components):
            ok = False
            break
        for kk in mod.components:
            b = back.component(*kk)
            o = mod.component(*kk)
            if b.carrier != o.carrier:
                ok = False
                break
            for s in stabilizer_generators(kk[0]):
                if b.rho_out(s) != o.rho_out(s):
                    ok = False
                    break
            for s in stabilizer_generators(kk[1]):
                if b.rho_in(s) != o.rho_in(s):
                    ok = False
                    break
        if not ok:
            break
    report(9, "injective change of colors: unit is the identity (50 cases)", ok)


# -- 10 --------------------------------------------------------------------


def _cli_capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_run(argv)
    return code, buf.getvalue()


def test_criterion_10_cli_determinism(tmp_path):
    pres = homotopy_assoc_presentation()
    st = ground_field_structure(pres)
    f = projection_to_field(pres.signature.palette)
    sig_p = str(tmp_path / "sig.json")
    with open(sig_p, "w") as h:
        h.write(dumps(to_json(pres.signature)))
    pres_p = str(tmp_path / "pres.json")
    with open(pres_p, "w") as h:
        h.write(dumps(to_json(pres)))
    st_p = str(tmp_path / "st.json")
    with open(st_p, "w") as h:
        h.write(dumps(to_json(st)))
    f_p = str(tmp_path / "f.json")
    with open(f_p, "w") as h:
        h.write(dumps(to_json(f)))
    commands = [
        ["--seed", "11", "--report", "json", "eq", sig_p, "mu2 o (mu2 * iota)", "mu2 o (iota * mu2)"],
        ["--seed", "11", "--report", "json", "dim-free", sig_p, "c", "c,c", "2"],
        ["--seed", "11", "--report", "json", "normalize", sig_p, "mu2 o (mu2 * iota)"],
        ["--seed", "11", "--report", "json", "transfer", pres_p, f_p, "alongAcyclicFibration", st_p],
        ["--seed", "11", "--report", "json", "algebra-check", st_p],
    ]
    ok = True
    for argv in commands:
        c1, o1 = _cli_capture(list(argv))
        c2, o2 = _cli_capture(list(argv))
        if c1 != c2 or o1 != o2:
            ok = False
            break
    report(10, "CLI determinism: byte-identical reports", ok)
