import json
import random
from fractions import Fraction

import pytest

from golden.record import CASES, INPUTS
from helpers import (
    dense_d,
    dense_kernel_basis,
    dense_mat,
    dense_mats,
    dense_solve,
    dense_vec,
    field_plus_disc_family,
    ground_field_structure,
    homotopy_assoc_presentation,
    identity,
    inclusion_from_field,
    interchange_quadruple,
    projection_to_field,
    random_expression,
    random_expression_with_out,
    random_signature,
    reference_lift_solve,
    rows_of,
)
from propcalc.algebras import (
    AlgebraError,
    AlgebraStructure,
    TransferError,
    check_algebra,
    check_morphism,
    evaluate,
    factor_algebra,
    transfer,
)
from propcalc.chains import (
    ChainComplex,
    ChainMap,
    LiftProblem,
    Unsolvable,
    base_field_complex,
    boundary_of_map,
    classify_map,
    path_object,
)
from propcalc.endo import ColoredFamily, EndoElement, FamilyMap
from propcalc.exprs import (
    HCompExpr,
    LeftActExpr,
    PropPresentation,
    RightActExpr,
    VCompExpr,
    graphs_equal,
    parse,
    signed_certificate,
    validate_presentation,
)
from propcalc.formats import Workspace
from propcalc.graphs import Generator, Signature
from propcalc.profiles import Palette, Permutation, Profile

F = Fraction


def zero_diff_family(sig, rng, max_dim=2):
    """Zero-differential complexes: every matrix family is an endo element."""
    complexes = {}
    for c in sig.palette.colors:
        dims = {0: rng.randint(1, max_dim)}
        if rng.random() < 0.5:
            dims[1] = rng.randint(1, max_dim)
        complexes[c] = ChainComplex(dims)
    return ColoredFamily(sig.palette, complexes)


def random_structure(sig, rng, fam=None, bound=2):
    """Every generator a random map with integer entries in [-bound, bound]."""
    fam = fam or zero_diff_family(sig, rng)
    pres = PropPresentation(sig)
    assignment = {}
    for name, gen in sig.generators.items():
        src = fam.space(gen.in_profile).complex
        tgt = fam.space(gen.out_profile).complex
        mats = {}
        for j in src.degrees():
            if tgt.dim(j + gen.degree):
                mats[j] = [
                    [F(rng.randint(-bound, bound)) for _ in range(src.dim(j))]
                    for _ in range(tgt.dim(j + gen.degree))
                ]
        assignment[name] = EndoElement.from_mats(
            fam, gen.out_profile, gen.in_profile, gen.degree, rows_of(mats)
        )
    return AlgebraStructure(pres, fam, assignment)


def test_evaluate_single_generator():
    rng = random.Random(0)
    sig = random_signature(rng)
    st = random_structure(sig, rng)
    name = sorted(sig.generators)[0]
    e = parse(name, sig)
    assert evaluate(e, st) == st.assignment[name]


def test_ground_field_multiplication():
    pres = homotopy_assoc_presentation()
    st = ground_field_structure(pres)
    sig = pres.signature
    e = parse("mu2 o (mu2 * iota)", sig)
    val = evaluate(e, st)
    assert dense_mat(val.chain, 0) == [[F(1)]]


def test_interchange_evaluates_equal_degree_zero():
    rng = random.Random(1)
    cases = 0
    while cases < 1000:
        sig = random_signature(rng, max_colors=2, max_generators=2, max_arity=2)
        e1, e2, e3, e4 = interchange_quadruple(sig, rng, depth=0)
        lhs = VCompExpr(HCompExpr(e1, e2), HCompExpr(e3, e4))
        rhs = HCompExpr(VCompExpr(e1, e3), VCompExpr(e2, e4))
        if len(lhs.in_profile) + len(lhs.out_profile) > 6:
            continue
        st = random_structure(sig, rng, fam=small_flat_family(sig, rng))
        assert graphs_equal(lhs, rhs)
        assert evaluate(lhs, st) == evaluate(rhs, st)
        cases += 1


def small_flat_family(sig, rng):
    """Degree-0 family, one color of dimension 2, the rest dimension 1."""
    complexes = {}
    for k, c in enumerate(sig.palette.colors):
        complexes[c] = ChainComplex({0: 2 if k == 0 else 1})
    return ColoredFamily(sig.palette, complexes)


def test_evaluation_factors_through_canonical_graphs_with_sign():
    # odd-degree generators: evaluations agree after each is scaled by the
    # sign of its canonical graph, and eq's verdict is the sign comparison
    palette = Palette(["c"])
    c = lambda *xs: Profile(palette, xs)
    sig = Signature(
        palette,
        [
            Generator("s", c("c"), c("c"), 1),
            Generator("t", c("c"), c("c"), 1),
            Generator("u", c("c"), c("c"), 0),
        ],
    )
    rng = random.Random(2)
    fam = ColoredFamily(palette, {"c": ChainComplex({0: 2, 1: 2, 2: 2})})
    st = random_structure(sig, rng, fam=fam)
    a = parse("(s * t) o (u * u)", sig)
    b = parse("(s o u) * (t o u)", sig)
    (cert_a, sign_a), (cert_b, sign_b) = signed_certificate(a), signed_certificate(b)
    assert cert_a == cert_b and sign_a == sign_b
    assert graphs_equal(a, b)
    assert evaluate(a, st) == evaluate(b, st)
    # block-swapped odd pair: one graph with opposite signs, so x = -y
    x = parse("s * s", sig)
    y = parse("([2 1] . (s * s)) . [2 1]", sig)
    (cert_x, sign_x), (cert_y, sign_y) = signed_certificate(x), signed_certificate(y)
    assert cert_x == cert_y and sign_x == -sign_y
    assert not graphs_equal(x, y)
    vx = evaluate(x, st)
    assert not vx.is_zero() and vx == evaluate(y, st).scale(-1)


def golden_eq_cases(signature_file):
    """The text-report golden `eq` cases on one signature file."""
    with open(CASES, encoding="utf-8") as handle:
        return [c for c in json.load(handle) if c["argv"][:4] == ["--report", "text", "eq", signature_file]]


def test_golden_eq_verdicts_on_sig_agree_with_evaluation():
    """Every golden `eq` verdict on sig.json agrees with algebras.evaluate on a
    seeded random structure: expressions called equal take one value, and
    expressions called distinct take two.  evaluate shares endo_vertical,
    endo_horizontal and endo_permute with the transfer engine, not the graphs
    and canonical forms that decide eq.  The cases use mu2 and iota, of degree
    0, so no sign enters.
    """
    cases = golden_eq_cases("sig.json")
    sig = Workspace(INPUTS).resolve("sig.json")
    st = random_structure(sig, random.Random(0), fam=ColoredFamily(sig.palette, {"c": ChainComplex({0: 2})}))
    verdicts = []
    for case in cases:
        lhs, rhs = (parse(text, sig) for text in case["argv"][4:])
        verdicts.append(case["stdout"])
        assert (evaluate(lhs, st) == evaluate(rhs, st)) == (case["stdout"] == "equal\n"), case["id"]
    assert sorted(verdicts) == ["distinct\n"] * 2 + ["equal\n"] * 2


def test_golden_eq_verdicts_on_odd_agree_with_evaluation():
    """Every golden `eq` verdict on odd.json, where s is odd and u even,
    agrees with algebras.evaluate on a seeded random structure over a graded
    family, and no side evaluates to zero.  Two cases are distinct although
    both sides have one canonical graph: their Koszul signs differ."""
    cases = golden_eq_cases("odd.json")
    sig = Workspace(INPUTS).resolve("odd.json")
    fam = ColoredFamily(sig.palette, {"c": ChainComplex({0: 2, 1: 2, 2: 2})})
    st = random_structure(sig, random.Random(0), fam=fam, bound=50)
    verdicts = []
    for case in cases:
        lhs, rhs = (parse(text, sig) for text in case["argv"][4:])
        assert signed_certificate(lhs)[0] == signed_certificate(rhs)[0], case["id"]
        value_l, value_r = evaluate(lhs, st), evaluate(rhs, st)
        assert not value_l.is_zero() and not value_r.is_zero(), case["id"]
        assert (value_l == value_r) == (case["stdout"] == "equal\n"), case["id"]
        verdicts.append(case["stdout"])
    assert sorted(verdicts) == ["distinct\n"] * 2 + ["equal\n"]


def test_check_algebra_ground_field():
    pres = homotopy_assoc_presentation()
    st = ground_field_structure(pres)
    assert check_algebra(st) == []


def test_check_algebra_detects_perturbation():
    pres = homotopy_assoc_presentation()
    st_y = ground_field_structure(pres)
    palette = pres.signature.palette
    f = projection_to_field(palette)
    st_x, _ = transfer(pres, f, "alongAcyclicFibration", st_y)
    assert check_algebra(st_x) == []
    # make iota the identity (still a chain map) and perturb mu2 so that
    # y.(w.w) and (y.w).w disagree: the mu3 compatibility must now fail
    fam = st_x.family
    mu2 = st_x.assignment["mu2"]
    iota = st_x.assignment["iota"]
    x = fam.complexes["c"]
    st_x.assignment["iota"] = EndoElement(
        fam, iota.out_profile, iota.in_profile, ChainMap.identity(x)
    )
    space2 = fam.space(mu2.in_profile)
    col_yw = space2.flat_index((0, 0), (0, 1))
    bump_mat = [
        [F(1) if (r, c) == (0, col_yw) else F(0) for c in range(space2.complex.dim(0))]
        for r in range(x.dim(0))
    ]
    bump = EndoElement.from_mats(
        fam, mu2.out_profile, mu2.in_profile, 0, rows_of({0: bump_mat})
    )
    st_x.assignment["mu2"] = mu2.add(bump)
    report = check_algebra(st_x)
    assert any(kind == "differential" and name == "mu3" for kind, name, _ in report)
    assert all(not residual.is_zero() for _, _, residual in report)


def test_check_algebra_free_presentation_accepts_chain_assignments():
    rng = random.Random(3)
    for _ in range(10):
        sig = random_signature(rng)
        st = random_structure(sig, rng)
        assert check_algebra(st) == []


def test_transfer_identity_returns_same_structure():
    pres = homotopy_assoc_presentation()
    st = ground_field_structure(pres)
    ident = FamilyMap.identity(st.family)
    out, report = transfer(pres, ident, "alongAcyclicFibration", st)
    for name in st.assignment:
        assert out.assignment[name] == st.assignment[name]
    assert report["morphism_ok"]


def test_transfer_along_projection():
    pres = homotopy_assoc_presentation()
    st_y = ground_field_structure(pres)
    palette = pres.signature.palette
    f = projection_to_field(palette)
    st_x, report = transfer(pres, f, "alongAcyclicFibration", st_y)
    assert report["morphism_ok"]
    assert check_algebra(st_x) == []
    # D(lambda mu3) equals the associator of lambda mu2, verified directly
    mu2 = st_x.assignment["mu2"]
    iota = st_x.assignment["iota"]
    mu3 = st_x.assignment["mu3"]
    sig = pres.signature
    assoc = evaluate(parse("mu2 o (mu2 * iota)", sig), st_x).sub(
        evaluate(parse("mu2 o (iota * mu2)", sig), st_x)
    )
    assert mu3.boundary() == assoc
    ok, _ = check_morphism(f, st_x, st_y)
    assert ok


def test_transfer_along_inclusion():
    pres = homotopy_assoc_presentation()
    st_x = ground_field_structure(pres)
    palette = pres.signature.palette
    f = inclusion_from_field(palette)
    st_y, report = transfer(pres, f, "alongAcyclicCofibration", st_x)
    assert report["morphism_ok"]
    assert check_algebra(st_y) == []
    ok, _ = check_morphism(f, st_x, st_y)
    assert ok


def test_check_morphism_stops_at_the_first_failing_generator():
    """The generators are checked in sorted order, and the check stops at the
    first pair outside E_f: g2 is named, and g3, which fails too, is not."""
    rng = random.Random(8)
    palette = Palette(["a", "b"])
    a, b = Profile(palette, ["a"]), Profile(palette, ["b"])
    sig = Signature(palette, [Generator(name, a, b) for name in ("g1", "g2", "g3")])
    st_x = random_structure(sig, rng)
    fam = st_x.family
    ones = [[1] * fam.space(b).complex.dim(0)] * fam.space(a).complex.dim(0)
    bump = EndoElement.from_mats(fam, a, b, 0, rows_of({0: ones}))
    moved = {name: el if name == "g1" else el.add(bump) for name, el in st_x.assignment.items()}
    st_y = AlgebraStructure(st_x.presentation, fam, moved)
    ident = FamilyMap.identity(fam)
    ok, failures = check_morphism(ident, st_x, st_y)
    assert not ok
    assert [name for name, _ in failures] == ["g2"]
    assert failures[0][1] == bump.chain.scale(-1)
    assert check_morphism(ident, st_x, st_x) == (True, [])


def test_structure_rejects_an_assignment_for_an_unknown_generator():
    """An assignment name outside the signature is refused, so a structure
    holds exactly its signature's names and check_morphism never meets a name
    missing on the target side."""
    rng = random.Random(9)
    st = random_structure(random_signature(rng), rng)
    extra = next(iter(st.assignment.values()))
    with pytest.raises(AlgebraError, match=r"^assignment for unknown generator 'zz'$"):
        AlgebraStructure(st.presentation, st.family, dict(st.assignment, zz=extra))


def test_transfer_rejects_wrong_map_class():
    pres = homotopy_assoc_presentation()
    st = ground_field_structure(pres)
    palette = pres.signature.palette
    f = inclusion_from_field(palette)
    # the inclusion is not an acyclic fibration
    with pytest.raises(AlgebraError):
        transfer(pres, f, "alongAcyclicFibration", st)


def test_transfer_rejects_invalid_presentation():
    palette = Palette(["c"])
    c = lambda *xs: Profile(palette, xs)
    sig = Signature(
        palette,
        [
            Generator("mu2", c("c"), c("c", "c"), 0),
            Generator("bad", c("c"), c("c", "c"), 1),
        ],
    )
    pres = PropPresentation(sig, {"bad": [(F(1), parse("bad", sig))]})
    fam = ColoredFamily(palette, {"c": base_field_complex()})
    st = AlgebraStructure(
        PropPresentation(sig),
        fam,
        {
            "mu2": EndoElement.from_mats(fam, c("c"), c("c", "c"), 0, rows_of({0: [[1]]})),
            "bad": EndoElement.zero(fam, c("c"), c("c", "c"), 1),
        },
    )
    with pytest.raises(AlgebraError):
        transfer(pres, FamilyMap.identity(fam), "alongAcyclicFibration", st)


def structure_on_zero_differential_twin():
    """The structure transferred to Q[0] + D, and the same matrices on a family
    with the same dims but zero differential: equal shapes, other complexes."""
    pres = homotopy_assoc_presentation()
    palette = pres.signature.palette
    st_x, _ = transfer(pres, projection_to_field(palette), "alongAcyclicFibration", ground_field_structure(pres))
    twin = ColoredFamily(palette, {"c": ChainComplex(st_x.family.complexes["c"].dims)})
    assignment = {
        name: EndoElement.from_mats(twin, el.out_profile, el.in_profile, el.degree, rows_of(dense_mats(el.chain)))
        for name, el in st_x.assignment.items()
    }
    return pres, st_x, AlgebraStructure(pres, twin, assignment)


@pytest.mark.parametrize(
    "direction, message",
    [
        ("alongAcyclicFibration", "source structure must live on the map target"),
        ("alongAcyclicCofibration", "source structure must live on the map source"),
    ],
)
def test_transfer_rejects_structure_on_family_with_other_differential(direction, message):
    # comparing dims only, the first two cases transferred without complaint
    # and the third, whose disc sits on the other coordinate, was unsolvable
    pres, st_x, st_twin = structure_on_zero_differential_twin()
    swapped = ColoredFamily(
        pres.signature.palette, {"c": ChainComplex({0: 2, 1: 1}, rows_of({1: [[1], [0]]}))}
    )
    for map_family, source in ((st_x.family, st_twin), (st_twin.family, st_x), (swapped, st_x)):
        with pytest.raises(AlgebraError) as exc:
            transfer(pres, FamilyMap.identity(map_family), direction, source)
        assert str(exc.value) == message


def test_factor_algebra_rejects_wrong_families():
    pres, st_x, st_twin = structure_on_zero_differential_twin()
    ident = FamilyMap.identity(st_x.family)
    b_family, i, p = mapping_path_factorization(ident)
    out, _ = factor_algebra(ident, st_x, st_x, b_family, i, p)
    assert check_algebra(out) == []
    cases = [
        ((ident, st_twin, st_x, b_family, i, p), "structure A must live on the source of i"),
        ((ident, st_x, st_twin, b_family, i, p), "structure C must live on the target of p"),
        ((ident, st_x, st_x, st_x.family, i, p), "family B must be the target of i and the source of p"),
        # B is i's target but not p's source: the composite p o i used to
        # raise "composition shape mismatch"
        ((ident, st_x, st_x, b_family, i, ident), "family B must be the target of i and the source of p"),
    ]
    for args, message in cases:
        with pytest.raises(AlgebraError) as exc:
            factor_algebra(*args)
        assert str(exc.value) == message


def mu2_only_structure(palette):
    """The multiplication of Q[0], as a structure for the presentation with
    mu2 alone."""
    c = lambda *xs: Profile(palette, xs)
    pres = PropPresentation(Signature(palette, [Generator("mu2", c("c"), c("c", "c"), 0)]))
    fam = ColoredFamily(palette, {"c": base_field_complex()})
    mu2 = EndoElement.from_mats(fam, c("c"), c("c", "c"), 0, rows_of({0: [[1]]}))
    return AlgebraStructure(pres, fam, {"mu2": mu2})


@pytest.mark.parametrize(
    "direction, make_map",
    [("alongAcyclicFibration", projection_to_field), ("alongAcyclicCofibration", inclusion_from_field)],
)
def test_transfer_rejects_structure_for_another_presentation(direction, make_map):
    # a structure without iota given with the A-infinity presentation ended in
    # KeyError: 'iota'; the other way round in a misleading morphism error
    ainf = homotopy_assoc_presentation()
    palette = ainf.signature.palette
    mu2_only = mu2_only_structure(palette)
    cases = [(ainf, mu2_only), (mu2_only.presentation, ground_field_structure(ainf))]
    for pres, structure in cases:
        with pytest.raises(AlgebraError) as exc:
            transfer(pres, make_map(palette), direction, structure)
        assert str(exc.value) == "source structure is for another presentation"


def test_factor_algebra_rejects_wrong_presentation_and_ends_of_g():
    pres = homotopy_assoc_presentation()
    palette = pres.signature.palette
    st = ground_field_structure(pres)
    mu2_only = mu2_only_structure(palette)
    ident = FamilyMap.identity(st.family)
    b_family, i, p = mapping_path_factorization(ident)
    cases = [
        # C without iota ended in KeyError: 'iota'
        ((ident, st, mu2_only, b_family, i, p), "structures A and C must share one presentation"),
        ((ident, mu2_only, st, b_family, i, p), "structures A and C must share one presentation"),
        # g = Q[0] + D --> Q[0] and Q[0] --> Q[0] + D: one end of g is off
        ((projection_to_field(palette), st, st, b_family, i, p), "structure A must live on the source of g"),
        ((inclusion_from_field(palette), st, st, b_family, i, p), "structure C must live on the target of g"),
    ]
    for args, message in cases:
        with pytest.raises(AlgebraError) as exc:
            factor_algebra(*args)
        assert str(exc.value) == message


@pytest.mark.parametrize("pinned_by", ["i", "p"])
def test_factor_algebra_each_square_pins_the_disc(pinned_by):
    # The unary generator u scales the disc of B = Q[0] + D by 2, and the
    # D-constraint leaves u free on the disc.  With i: Q[0] -> B and p = id,
    # only the square with p pins it; with i = id and p: B -> Q[0], only the
    # square with i does.
    palette = Palette(["c"])
    c = Profile(palette, ["c"])
    pres = PropPresentation(Signature(palette, [Generator("u", c, c, 0)]))
    if pinned_by == "p":
        i = inclusion_from_field(palette)
        p = FamilyMap.identity(i.target)
    else:
        p = projection_to_field(palette)
        i = FamilyMap.identity(p.source)
    fam_b = i.target
    scaled = EndoElement.from_mats(fam_b, c, c, 0, rows_of({0: [[1, 0], [0, 2]], 1: [[2]]}))
    st_b = AlgebraStructure(pres, fam_b, {"u": scaled})
    assert check_algebra(st_b) == []
    unit = lambda fam: AlgebraStructure(pres, fam, {"u": EndoElement.identity(fam, c)})
    st_a = st_b if pinned_by == "i" else unit(i.source)
    st_c = st_b if pinned_by == "p" else unit(p.target)
    g = i if pinned_by == "p" else p
    out, report = factor_algebra(g, st_a, st_c, fam_b, i, p)
    assert report["i_morphism_ok"] and report["p_morphism_ok"]
    assert out.assignment["u"] == scaled


def test_factor_algebra_trivial_factorization():
    pres = homotopy_assoc_presentation()
    st = ground_field_structure(pres)
    fam = st.family
    ident = FamilyMap.identity(fam)
    out, report = factor_algebra(ident, st, st, fam, ident, ident)
    for name in st.assignment:
        assert out.assignment[name] == st.assignment[name]


def mapping_path_factorization(g: FamilyMap):
    """A --> A x_C Path(C) --> C through the path object of the target."""
    palette = g.source.palette
    b_complexes = {}
    i_maps = {}
    p_maps = {}
    for color in palette.colors:
        a = g.source.complexes[color]
        c = g.target.complexes[color]
        pc, s, d0, d1 = path_object(c)
        # B = pullback of g: A -> C <- d0: P(C); over a field build it degreewise
        dims = {}
        embeds = {}
        for n in set(list(a.dims) + list(pc.dims)):
            rows = []
            total = a.dim(n) + pc.dim(n)
            gm = dense_mat(g.maps[color], n)
            d0m = dense_mat(d0, n)
            cut = [
                [
                    (gm[r][j] if j < a.dim(n) else -d0m[r][j - a.dim(n)])
                    for j in range(total)
                ]
                for r in range(c.dim(n))
            ]
            if not cut:
                basis = identity(total)
                cols = [ [basis[i][k] for i in range(total)] for k in range(total) ]
            else:
                cols = dense_kernel_basis(cut)
            embeds[n] = cols
            if cols:
                dims[n] = len(cols)
        # boundary in pullback coordinates
        boundary = {}
        for n in sorted(dims):
            if n == 0 or (n - 1) not in dims:
                continue
            cols_out = []
            embed_n = embeds[n]
            embed_lo = embeds[n - 1]
            lo_mat = [
                [embed_lo[k][i] for k in range(len(embed_lo))]
                for i in range(a.dim(n - 1) + pc.dim(n - 1))
            ]
            for vec in embed_n:
                av = vec[: a.dim(n)]
                pv = vec[a.dim(n) :]
                da = dense_vec(dense_d(a, n), av) if a.dim(n - 1) else []
                dp = dense_vec(dense_d(pc, n), pv) if pc.dim(n - 1) else []
                full = list(da) + list(dp)
                sol, cert = dense_solve(lo_mat, [[v] for v in full])
                assert cert is None
                cols_out.append([row[0] for row in sol])
            boundary[n] = [
                [cols_out[j][i] for j in range(len(cols_out))]
                for i in range(dims[n - 1])
            ]
        b = ChainComplex(dims, rows_of(boundary))
        b_complexes[color] = (b, embeds, pc, s, d0, d1, a, c)
    b_family = ColoredFamily(
        palette, {color: b_complexes[color][0] for color in palette.colors}
    )
    for color in palette.colors:
        b, embeds, pc, s, d0, d1, a, c = b_complexes[color]
        # i: A -> B: a |-> (a, s(g(a)))
        i_mats = {}
        p_mats = {}
        for n in b.degrees():
            emb = embeds[n]
            lo_mat = [
                [emb[k][i] for k in range(len(emb))]
                for i in range(a.dim(n) + pc.dim(n))
            ]
            cols = []
            for j in range(a.dim(n)):
                avec = [F(1) if i == j else F(0) for i in range(a.dim(n))]
                gv = dense_vec(dense_mat(g.maps[color], n), avec) if c.dim(n) else []
                sv = dense_vec(dense_mat(s, n), gv) if pc.dim(n) else []
                full = avec + list(sv)
                sol, cert = dense_solve(lo_mat, [[v] for v in full])
                assert cert is None
                cols.append([row[0] for row in sol])
            if cols:
                i_mats[n] = [
                    [cols[j][i] for j in range(len(cols))] for i in range(b.dim(n))
                ]
            # p = d1 o pr_2
            rows = []
            d1m = dense_mat(d1, n)
            for r in range(c.dim(n)):
                row = []
                for k in range(b.dim(n)):
                    pv = emb[k][a.dim(n) :]
                    row.append(
                        sum((d1m[r][x] * pv[x] for x in range(pc.dim(n))), F(0))
                    )
                rows.append(row)
            if rows:
                p_mats[n] = rows
        i_maps[color] = ChainMap(a, b, rows_of(i_mats))
        p_maps[color] = ChainMap(b, c, rows_of(p_mats))
    i_fm = FamilyMap(g.source, b_family, i_maps)
    p_fm = FamilyMap(b_family, g.target, p_maps)
    return b_family, i_fm, p_fm


def test_factor_algebra_mapping_path_space():
    pres = homotopy_assoc_presentation()
    st_a = ground_field_structure(pres)
    st_c = ground_field_structure(pres)
    g = FamilyMap.identity(st_a.family)
    b_family, i, p = mapping_path_factorization(g)
    # the legs classify as required
    for color, flags in i.classify().items():
        assert flags["acyclicCofibration"]
    for color, flags in p.classify().items():
        assert flags["fibration"]
    out, report = factor_algebra(g, st_a, st_c, b_family, i, p)
    assert report["i_morphism_ok"] and report["p_morphism_ok"]
    assert check_algebra(out) == []


def test_factor_algebra_gate_rejects_non_fibration():
    pres = homotopy_assoc_presentation()
    st = ground_field_structure(pres)
    fam = st.family
    palette = pres.signature.palette
    # p: 0-ish map that is not surjective in positive degrees: build target with
    # a disc so the zero map fails the fibration check
    fam_big = field_plus_disc_family(palette)
    st_big_pres = pres
    zero = FamilyMap(
        fam_big,
        fam_big,
        {
            "c": ChainMap.zero(fam_big.complexes["c"], fam_big.complexes["c"])
        },
    )
    ident = FamilyMap.identity(fam_big)
    st_bigA = transfer(pres, inclusion_from_field(palette), "alongAcyclicCofibration", st)[0]
    with pytest.raises(AlgebraError):
        factor_algebra(zero, st_bigA, st_bigA, fam_big, ident, zero)


def test_transfer_with_strict_relations_attempts_and_reports():
    # a presentation with delta = 0 and one relation: transfer still runs,
    # notes the attempt, and reports relation failures instead of guaranteeing
    pres0 = homotopy_assoc_presentation()
    sig = pres0.signature
    rel = (
        parse("mu2 o (mu2 * iota)", sig),
        parse("mu2 o (iota * mu2)", sig),
    )
    pres = PropPresentation(sig, dict(pres0.differential), [rel])
    st = ground_field_structure(pres0)
    st_rel = AlgebraStructure(pres, st.family, st.assignment)
    f = FamilyMap.identity(st.family)
    out, report = transfer(pres, f, "alongAcyclicFibration", st_rel)
    assert any("relations" in n for n in report["notes"])
    # on the ground field the associativity relation holds strictly
    assert not [r for r in report["algebra_failures"] if r[0] == "relation"]


def random_free_presentation(rng, palette):
    gens = []
    n = rng.randint(1, 3)
    for k in range(n):
        out_p = Profile(palette, [rng.choice(palette.colors) for _ in range(rng.randint(1, 2))])
        in_p = Profile(palette, [rng.choice(palette.colors) for _ in range(rng.randint(1, 2))])
        gens.append(Generator("r%d" % k, out_p, in_p, 0))
    sig = Signature(palette, gens)
    return PropPresentation(sig)


def extend_with_discs(rng, fam):
    """X = Y + (acyclic discs) with the projection, an acyclic fibration."""
    from propcalc.chains import direct_sum, disc_complex

    complexes = {}
    maps = {}
    for c, y in fam.complexes.items():
        x = y
        n_discs = rng.randint(1, 2)
        for _ in range(n_discs):
            x = direct_sum(x, disc_complex())
        proj_mats = {}
        for n in x.degrees():
            m = [[F(0)] * x.dim(n) for _ in range(y.dim(n))]
            for i in range(y.dim(n)):
                m[i][i] = F(1)
            if y.dim(n):
                proj_mats[n] = m
        complexes[c] = x
        maps[c] = (x, proj_mats)
    fam_x = ColoredFamily(fam.palette, complexes)
    fmaps = {
        c: ChainMap(fam_x.complexes[c], fam.complexes[c], rows_of(proj_mats))
        for c, (x, proj_mats) in maps.items()
    }
    return fam_x, FamilyMap(fam_x, fam, fmaps)


def test_transfer_randomized_never_unsolvable():
    rng = random.Random(21)
    palette = Palette(["a", "b"])
    for case in range(20):
        pres = random_free_presentation(rng, palette)
        fam_y = ColoredFamily(
            palette, {c: ChainComplex({0: rng.randint(1, 2)}) for c in palette.colors}
        )
        st_y = random_structure(pres.signature, rng, fam=fam_y)
        st_y = AlgebraStructure(pres, fam_y, st_y.assignment)
        fam_x, f = extend_with_discs(rng, fam_y)
        for c, flags in f.classify().items():
            assert flags["acyclicFibration"]
        st_x, report = transfer(pres, f, "alongAcyclicFibration", st_y)
        assert report["morphism_ok"]
        assert check_algebra(st_x) == []
        # cofibration direction: include Y into X via the splitting
        inc_maps = {}
        for c in palette.colors:
            y = fam_y.complexes[c]
            x = fam_x.complexes[c]
            mats = {}
            for n in y.degrees():
                m = [[F(0)] * y.dim(n) for _ in range(x.dim(n))]
                for i in range(y.dim(n)):
                    m[i][i] = F(1)
                mats[n] = m
            inc_maps[c] = ChainMap(y, x, rows_of(mats))
        g = FamilyMap(fam_y, fam_x, inc_maps)
        for c, flags in g.classify().items():
            assert flags["acyclicCofibration"]
        st_x2, report2 = transfer(pres, g, "alongAcyclicCofibration", st_y)
        assert report2["morphism_ok"]
        assert check_algebra(st_x2) == []


def test_transfer_degree_one_generator_randomized():
    # a quasi-free presentation whose differential is an interchange difference:
    # it evaluates to zero, stays triangular, and exercises the graded solve
    rng = random.Random(22)
    palette = Palette(["c"])
    c = lambda *xs: Profile(palette, xs)
    for case in range(10):
        sig = Signature(
            palette,
            [
                Generator("p", c("c"), c("c", "c"), 0),
                Generator("q", c("c", "c"), c("c"), 0),
                Generator("h", c("c", "c"), c("c", "c"), 1),
            ],
        )
        lhs = parse("(p * p) o (q * q)", sig)
        rhs = parse("(p o q) * (p o q)", sig)
        pres = PropPresentation(sig, {"h": [(F(1), lhs), (F(-1), rhs)]})
        assert validate_presentation(pres) == []
        fam_y = ColoredFamily(palette, {"c": ChainComplex({0: 2, 1: 1})})
        # chain-map structures on a zero-differential-free complex: make the
        # complex boundary zero so any matrices qualify
        fam_y = ColoredFamily(palette, {"c": ChainComplex({0: 2, 1: 1})})
        st_y = random_structure(sig, rng, fam=fam_y)
        st_y = AlgebraStructure(pres, fam_y, st_y.assignment)
        if check_algebra(st_y):
            # the degree-1 image must satisfy D(h) = 0 over the zero differential;
            # random degree-1 matrices always do, so this should not happen
            raise AssertionError("random structure failed its own checks")
        fam_x, f = extend_with_discs(rng, fam_y)
        st_x, report = transfer(pres, f, "alongAcyclicFibration", st_y)
        assert report["morphism_ok"]
        assert check_algebra(st_x) == []


def test_factor_through_path_space_randomized():
    rng = random.Random(23)
    palette = Palette(["a", "b"])
    for case in range(8):
        pres = random_free_presentation(rng, palette)
        fam = ColoredFamily(
            palette, {c: ChainComplex({0: rng.randint(1, 2)}) for c in palette.colors}
        )
        st = random_structure(pres.signature, rng, fam=fam)
        st = AlgebraStructure(pres, fam, st.assignment)
        ident = FamilyMap.identity(fam)
        b_family, i, p = mapping_path_factorization(ident)
        out, report = factor_algebra(ident, st, st, b_family, i, p)
        assert report["i_morphism_ok"] and report["p_morphism_ok"]
        assert check_algebra(out) == []


def invalid_structure_on_field_plus_disc():
    """A structure whose mu2 and mu3 compatibilities fail: mu2 is no chain
    map and D(mu3) != associator."""
    pres = homotopy_assoc_presentation()
    st_y = ground_field_structure(pres)
    palette = pres.signature.palette
    f = projection_to_field(palette)
    st_x, _ = transfer(pres, f, "alongAcyclicFibration", st_y)
    fam = st_x.family
    x = fam.complexes["c"]
    iota = st_x.assignment["iota"]
    st_x.assignment["iota"] = EndoElement(
        fam, iota.out_profile, iota.in_profile, ChainMap.identity(x)
    )
    mu2 = st_x.assignment["mu2"]
    space2 = fam.space(mu2.in_profile)
    col_yw = space2.flat_index((0, 0), (0, 1))
    bump = [
        [F(1) if (r, c) == (0, col_yw) else F(0) for c in range(space2.complex.dim(0))]
        for r in range(x.dim(0))
    ]
    st_x.assignment["mu2"] = mu2.add(
        EndoElement.from_mats(fam, mu2.out_profile, mu2.in_profile, 0, rows_of({0: bump}))
    )
    assert check_algebra(st_x)
    return pres, st_x


def test_transfer_unsolvable_on_invalid_source():
    # transferring an invalid structure along the identity forces the
    # inconsistent system: phi(mu2) pinned by the morphism square cannot also
    # satisfy D(phi) = 0, and the solver stops at mu2, before mu3
    pres, st_bad = invalid_structure_on_field_plus_disc()
    ident = FamilyMap.identity(st_bad.family)
    with pytest.raises(TransferError) as exc:
        transfer(pres, ident, "alongAcyclicFibration", st_bad)
    assert exc.value.generator == "mu2" and exc.value.certificate is not None


def test_interchange_evaluation_graded_kappa_randomized():
    """Interchange pairs over graded signatures have one canonical graph, and
    evaluate equal after each is scaled by its sign; eq calls them equal
    exactly when the signs agree.

    The complex has dimension 2 in degree 0, so degree-0 maps need not
    commute, and dimension 1 in degrees 1 to 4, so no composite of the four
    generators of degree at most 1 leaves the top degree.  Entries lie in
    [-50, 50], so two distinct values rarely agree by chance."""
    rng = random.Random(31)
    palette = Palette(["c"])
    c = lambda *xs: Profile(palette, xs)
    cases = 0
    while cases < 50:
        degs = [rng.randint(0, 1) for _ in range(3)]
        sig = Signature(
            palette,
            [
                Generator("u_c", c("c"), c("c"), 0),
                Generator("a0", c("c"), c("c"), degs[0]),
                Generator("a1", c("c"), c("c", "c"), degs[1]),
                Generator("a2", c("c", "c"), c("c"), degs[2]),
            ],
        )
        from helpers import interchange_quadruple

        e1, e2, e3, e4 = interchange_quadruple(sig, rng, depth=0)
        lhs = VCompExpr(HCompExpr(e1, e2), HCompExpr(e3, e4))
        rhs = HCompExpr(VCompExpr(e1, e3), VCompExpr(e2, e4))
        if len(lhs.in_profile) + len(lhs.out_profile) > 5:
            continue
        fam = ColoredFamily(palette, {"c": ChainComplex({0: 2, 1: 1, 2: 1, 3: 1, 4: 1})})
        st = random_structure(sig, rng, fam=fam, bound=50)
        (cert_l, sign_l), (cert_r, sign_r) = signed_certificate(lhs), signed_certificate(rhs)
        assert cert_l == cert_r
        assert graphs_equal(lhs, rhs) == (sign_l == sign_r)
        assert evaluate(lhs, st).scale(sign_l) == evaluate(rhs, st).scale(sign_r)
        cases += 1


def graded_signature(rng):
    """One or two colours: a unary u_<colour> of degree 0 for each, an odd
    unary s on the last colour, and one to three generators of degree 0 or 1
    with one or two outputs and one or two inputs."""
    palette = Palette(["c0", "c1"][: rng.randint(1, 2)])
    p = lambda colors: Profile(palette, colors)
    last = palette.colors[-1]
    gens = [Generator("u_%s" % c, p([c]), p([c]), 0) for c in palette.colors]
    gens.append(Generator("s", p([last]), p([last]), 1))
    for k in range(rng.randint(1, 3)):
        out_p = [rng.choice(palette.colors) for _ in range(rng.randint(1, 2))]
        in_p = [rng.choice(palette.colors) for _ in range(rng.randint(1, 2))]
        gens.append(Generator("g%d" % k, p(out_p), p(in_p), rng.randint(0, 1)))
    return Signature(palette, gens)


def block_swap(first, second):
    """The permutation of first + second positions that moves the first block
    past the second."""
    return Permutation([second + i for i in range(1, first + 1)] + list(range(1, second + 1)))


def eq_pair(sig, rng, move):
    """Two expressions of one profile: the sides of an interchange move, e * f
    against f * e conjugated by block swaps (equivariance), or a random
    expression and another with its outputs."""
    if move == "interchange":
        e1, e2, e3, e4 = interchange_quadruple(sig, rng, depth=0)
        return VCompExpr(HCompExpr(e1, e2), HCompExpr(e3, e4)), HCompExpr(VCompExpr(e1, e3), VCompExpr(e2, e4))
    e = random_expression(sig, rng, depth=rng.randint(0, 1))
    if move == "swap":
        f = random_expression(sig, rng, depth=rng.randint(0, 1))
        swapped = RightActExpr(HCompExpr(e, f), block_swap(len(f.in_profile), len(e.in_profile)))
        return LeftActExpr(block_swap(len(e.out_profile), len(f.out_profile)), swapped), HCompExpr(f, e)
    return e, random_expression_with_out(sig, rng, e.out_profile, depth=1)


def test_eq_agrees_with_evaluation_on_graded_signatures():
    """400 seeded pairs over graded signatures of one or two colours: eq says
    equal exactly when the two sides take one value on both of two random
    structures.  Pairs come from interchange and equivariance moves, which
    keep the graph and may flip its Koszul sign, and from unrelated
    expressions.  algebras.evaluate shares endo_vertical, endo_horizontal and
    endo_permute with the transfer engine, not the graphs, canonical forms or
    signs that decide eq.

    Each colour's complex has dimension 2 in degree 0, so degree-0 maps need
    not commute, and dimension 1 in degrees 1 to 4; a pair has at most four
    vertices, so no composite of odd maps leaves the top degree, and at most
    four legs in all.  Entries lie in [-50, 50], so two distinct values
    rarely agree on both structures by chance.
    """
    rng = random.Random(38)
    kinds = {"same sign": 0, "opposite sign": 0, "other graph": 0}
    while sum(kinds.values()) < 400:
        sig = graded_signature(rng)
        lhs, rhs = eq_pair(sig, rng, rng.choice(["interchange", "swap", "swap", "other"]))
        if lhs.in_profile != rhs.in_profile or len(lhs.in_profile) + len(lhs.out_profile) > 4:
            continue
        if max(len(lhs.to_graph().vertices), len(rhs.to_graph().vertices)) > 4:
            continue
        fam = ColoredFamily(sig.palette, {c: ChainComplex({0: 2, 1: 1, 2: 1, 3: 1, 4: 1}) for c in sig.palette.colors})
        values = []
        for _ in range(2):
            st = random_structure(sig, rng, fam=fam, bound=50)
            values.append((evaluate(lhs, st), evaluate(rhs, st)))
        assert graphs_equal(lhs, rhs) == all(a == b for a, b in values), (str(lhs), str(rhs))
        (cert_l, sign_l), (cert_r, sign_r) = signed_certificate(lhs), signed_certificate(rhs)
        if cert_l != cert_r:
            kinds["other graph"] += 1
        elif sign_l == sign_r:
            kinds["same sign"] += 1
        else:
            kinds["opposite sign"] += 1
            assert all(not a.is_zero() and a == b.scale(-1) for a, b in values)
    assert min(kinds.values()) >= 40, kinds


LIFT_SUITE = [
    test_transfer_along_projection,
    test_transfer_along_inclusion,
    test_factor_algebra_trivial_factorization,
    test_factor_algebra_mapping_path_space,
    test_transfer_randomized_never_unsolvable,
    test_transfer_degree_one_generator_randomized,
    test_factor_through_path_space_randomized,
    test_transfer_unsolvable_on_invalid_source,
]


@pytest.mark.parametrize("suite_test", LIFT_SUITE, ids=lambda t: t.__name__)
def test_lift_solve_matches_the_dense_reference_on_the_transfer_suite(monkeypatch, suite_test):
    """Every lift system the suite's transfers and factorisations solve gives
    the map the dense reference gives, or the same inconsistency certificate."""
    solve = LiftProblem.solve
    outcomes = []

    def checked(prob):
        try:
            expected = reference_lift_solve(prob)
        except Unsolvable as exc:
            with pytest.raises(Unsolvable) as ours:
                solve(prob)
            assert ours.value.certificate == exc.certificate
            outcomes.append("unsolvable")
            raise ours.value
        got = solve(prob)
        assert (got.degree, got.source, got.target) == (expected.degree, expected.source, expected.target)
        assert dense_mats(got) == dense_mats(expected)
        outcomes.append("solved")
        return got

    monkeypatch.setattr(LiftProblem, "solve", checked)
    suite_test()
    assert "solved" in outcomes or outcomes == ["unsolvable"]
    assert ("unsolvable" in outcomes) == (suite_test is test_transfer_unsolvable_on_invalid_source)
