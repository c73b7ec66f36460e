import io
import json
import os
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from helpers import (
    ground_field_structure,
    homotopy_assoc_presentation,
    projection_to_field,
)
from propcalc import formats
from propcalc.chains import ChainComplex, ChainMap, base_field_complex
from propcalc.cli import run
from propcalc.endo import ColoredFamily, FamilyMap
from propcalc.formats import FormatError, dumps, load_json, to_json
from propcalc.graphs import Generator, Signature
from propcalc.operads import associative_operad, trivial_operad
from propcalc.profiles import Palette, Profile

F = Fraction


def roundtrip_bytes(obj):
    text = dumps(to_json(obj))
    loaded = load_json(json.loads(text))
    return text, dumps(to_json(loaded))


def test_roundtrip_palette_signature():
    palette = Palette(["a", "b"])
    sig = Signature(
        palette,
        [Generator("g", Profile(palette, ["a"]), Profile(palette, ["b", "a"]), 1)],
    )
    for obj in (palette, sig):
        a, b = roundtrip_bytes(obj)
        assert a == b


def test_roundtrip_complex_and_map():
    x = ChainComplex({0: 2, 1: 1}, {1: [[F(1, 2)], [F(-3)]]})
    a, b = roundtrip_bytes(x)
    assert a == b
    f = ChainMap(x, x, {n: [[1 if i == j else 0 for j in range(x.dim(n))] for i in range(x.dim(n))] for n in x.dims})
    a, b = roundtrip_bytes(f)
    assert a == b


def test_roundtrip_presentation_structure():
    pres = homotopy_assoc_presentation()
    a, b = roundtrip_bytes(pres)
    assert a == b
    st = ground_field_structure(pres)
    a, b = roundtrip_bytes(st)
    assert a == b


def test_roundtrip_family_map():
    pres = homotopy_assoc_presentation()
    f = projection_to_field(pres.signature.palette)
    a, b = roundtrip_bytes(f)
    assert a == b


def test_roundtrip_bimodule():
    from test_bimodules import key, make_component, perm_matrix_rep

    palette = Palette(["a", "b"])
    kd = key(palette, "a", "a")
    kc = key(palette, "b")
    comp = make_component(kd, kc, ChainComplex({0: 2}), out_mats=perm_matrix_rep(kd, "out"))
    from propcalc.bimodules import ColoredBimodule

    mod = ColoredBimodule(palette, {(kd, kc): comp})
    a, b = roundtrip_bytes(mod)
    assert a == b


def test_roundtrip_operad():
    operad = trivial_operad(2)
    a, b = roundtrip_bytes(operad)
    assert a == b


def test_rationals_canonical():
    assert formats.rational_str(F(2, 4)) == "1/2"
    assert formats.rational_str(F(-2, 4)) == "-1/2"
    assert formats.rational_str(3) == "3/1"
    with pytest.raises(FormatError):
        formats.parse_rational("1/0")


def test_bimodule_bad_action_rejected():
    palette = Palette(["a"])
    data = {
        "kind": "bimodule",
        "palette": {"kind": "palette", "colors": ["a"]},
        "components": [
            {
                "out": ["a", "a"],
                "in": ["a"],
                "carrier": {"kind": "complex", "dims": {"0": 1}, "boundary": {}},
                "out_actions": [{"perm": [2, 1], "mats": {"0": [["2/1"]]}}],
                "in_actions": [],
            }
        ],
    }
    with pytest.raises(FormatError) as exc:
        load_json(data)
    assert "group law" in str(exc.value)


# -- CLI ----------------------------------------------------------------------


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(to_json(obj)))
    return str(path)


def ainf_signature_file(tmp_path):
    pres = homotopy_assoc_presentation()
    return write(tmp_path, "sig.json", pres.signature)


def test_cli_eq_associator(tmp_path):
    sig = ainf_signature_file(tmp_path)
    code, out = run_cli(["eq", sig, "mu2 o (mu2 * iota)", "mu2 o (iota * mu2)"])
    assert code == 1
    assert "distinct" in out
    code, out = run_cli(["eq", sig, "mu2 o (mu2 * iota)", "mu2 o (mu2 * iota)"])
    assert code == 0


def test_cli_dim_free(tmp_path):
    palette = Palette(["c"])
    sig = Signature(
        palette, [Generator("mu", Profile(palette, ["c"]), Profile(palette, ["c", "c"]), 0)]
    )
    path = write(tmp_path, "binary.json", sig)
    code, out = run_cli(["dim-free", path, "c", "c,c,c", "2"])
    assert code == 0
    assert out.strip() == "12"


def test_cli_check_valid_and_invalid(tmp_path):
    x = base_field_complex()
    path = write(tmp_path, "q.json", x)
    code, out = run_cli(["check", path])
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(
        dumps(
            {
                "kind": "bimodule",
                "palette": {"kind": "palette", "colors": ["a"]},
                "components": [
                    {
                        "out": ["a", "a"],
                        "in": ["a"],
                        "carrier": {"kind": "complex", "dims": {"0": 1}, "boundary": {}},
                        "out_actions": [{"perm": [2, 1], "mats": {"0": [["2/1"]]}}],
                        "in_actions": [],
                    }
                ],
            }
        )
    )
    code, out = run_cli(["check", str(bad)])
    assert code == 2
    assert "group law" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["dim-free", "{x}", "c", "c", "1"],
        ["eq", "{x}", "mu2", "mu2"],
        ["box-v", "{x}", "{x}"],
        ["algebra-check", "{x}"],
    ],
)
def test_cli_wrong_kind_of_file_exit_2(tmp_path, argv):
    path = write(tmp_path, "q.json", base_field_complex())
    code, out = run_cli([arg.format(x=path) for arg in argv])
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_cli_homology_classify_path(tmp_path):
    from propcalc.chains import disc_complex, direct_sum

    x = direct_sum(base_field_complex(), disc_complex())
    xp = write(tmp_path, "x.json", x)
    code, out = run_cli(["homology", xp])
    assert code == 0
    assert "H_0 = 1" in out
    y = base_field_complex()
    proj = ChainMap(x, y, {0: [[1, 0]]})
    fp = write(tmp_path, "f.json", proj)
    code, out = run_cli(["classify", fp])
    assert code == 0
    assert "acyclicFibration: True" in out
    code, out = run_cli(["path-object", xp])
    assert code == 0


def test_cli_transfer_and_checks(tmp_path):
    pres = homotopy_assoc_presentation()
    st = ground_field_structure(pres)
    f = projection_to_field(pres.signature.palette)
    pres_p = write(tmp_path, "pres.json", pres)
    st_p = write(tmp_path, "st.json", st)
    f_p = write(tmp_path, "f.json", f)
    code, out = run_cli(
        ["--report", "json", "transfer", pres_p, f_p, "alongAcyclicFibration", st_p]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["morphism_ok"] is True
    # write the transferred structure and check it
    transferred = tmp_path / "stx.json"
    clean = {k: v for k, v in payload.items() if k != "report"}
    transferred.write_text(dumps(clean))
    code, out = run_cli(["algebra-check", str(transferred)])
    assert code == 0
    code, out = run_cli(["morphism-check", f_p, str(transferred), st_p])
    assert code == 0
    # perturb the target structure: morphism-check now fails
    bad = json.loads((tmp_path / "st.json").read_text())
    bad["assignment"]["mu2"]["mats"]["0"] = [["2/1"]]
    bad_p = tmp_path / "bad.json"
    bad_p.write_text(dumps(bad))
    code, out = run_cli(["morphism-check", f_p, str(transferred), str(bad_p)])
    assert code == 1


def test_cli_transfer_unsolvable_inputs_exit_2(tmp_path):
    # wrong map class is an input error (precondition), exit 2
    pres = homotopy_assoc_presentation()
    st = ground_field_structure(pres)
    from helpers import inclusion_from_field

    f = inclusion_from_field(pres.signature.palette)
    pres_p = write(tmp_path, "pres.json", pres)
    st_p = write(tmp_path, "st.json", st)
    f_p = write(tmp_path, "f.json", f)
    code, out = run_cli(["transfer", pres_p, f_p, "alongAcyclicFibration", st_p])
    assert code == 2


def test_cli_operad_to_prop_and_round_trip(tmp_path):
    operad = associative_operad(3)
    op_p = write(tmp_path, "ass.json", operad)
    code, out = run_cli(["--report", "json", "operad-to-prop", op_p, "3"])
    assert code == 0
    payload = json.loads(out)
    two_three = [
        c
        for c in payload["components"]
        if c["out"] == ["x", "x"] and c["in"] == ["x", "x", "x"]
    ]
    assert two_three and two_three[0]["dims"]["0"] == 24

    from test_operads import square_zero_algebra

    alg = square_zero_algebra(operad)
    fam_p = write(tmp_path, "fam.json", alg.family)
    alg_p = tmp_path / "alg.json"
    alg_p.write_text(dumps(formats.operad_algebra_to_json(alg)))
    code, out = run_cli(["round-trip", op_p, fam_p, str(alg_p)])
    assert code == 0
    assert "round trip exact" in out


def test_cli_normalize_deterministic(tmp_path):
    sig = ainf_signature_file(tmp_path)
    code1, out1 = run_cli(["--seed", "7", "normalize", sig, "mu2 o (mu2 * iota)"])
    code2, out2 = run_cli(["--seed", "7", "normalize", sig, "mu2 o (mu2 * iota)"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_parse_error_exit_2(tmp_path):
    sig = ainf_signature_file(tmp_path)
    code, out = run_cli(["eq", sig, "mu2 o $", "mu2"])
    assert code == 2
    assert "position" in out


def test_cli_workspace_resolution(tmp_path):
    pres = homotopy_assoc_presentation()
    write(tmp_path, "sig.json", pres.signature)
    code, out = run_cli(["--workspace", str(tmp_path), "eq", "sig", "mu2", "mu2"])
    assert code == 0


def test_cli_box_products(tmp_path):
    from test_bimodules import key, make_component
    from propcalc.bimodules import ColoredBimodule

    palette = Palette(["a", "b"])
    ka = key(palette, "a")
    kb = key(palette, "b")
    p = ColoredBimodule(palette, {(ka, kb): make_component(ka, kb, ChainComplex({0: 1}))})
    q = ColoredBimodule(palette, {(kb, ka): make_component(kb, ka, ChainComplex({0: 1}))})
    pp = write(tmp_path, "p.json", p)
    qp = write(tmp_path, "q.json", q)
    code, out = run_cli(["--report", "json", "box-v", pp, qp])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "bimodule"
    assert len(payload["components"]) == 1
    code, out = run_cli(["--report", "json", "box-h", pp, qp])
    assert code == 0
    payload = json.loads(out)
    comp = payload["components"][0]
    assert comp["out"] == ["a", "b"] and comp["in"] == ["a", "b"]


def test_cli_factor_trivial(tmp_path):
    pres = homotopy_assoc_presentation()
    st = ground_field_structure(pres)
    ident = FamilyMap.identity(st.family)
    g_p = write(tmp_path, "g.json", ident)
    i_p = write(tmp_path, "i.json", ident)
    p_p = write(tmp_path, "p.json", ident)
    a_p = write(tmp_path, "a.json", st)
    c_p = write(tmp_path, "c.json", st)
    b_p = write(tmp_path, "b.json", st.family)
    code, out = run_cli(
        ["--report", "json", "factor", g_p, a_p, c_p, i_p, p_p, b_p]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["i_morphism_ok"] and payload["report"]["p_morphism_ok"]


def test_cli_check_presentation_with_bad_differential(tmp_path):
    pres = homotopy_assoc_presentation()
    sig = pres.signature
    from propcalc.exprs import PropPresentation

    bad = PropPresentation(
        sig, {"mu2": [(F(1), __import__("propcalc.exprs", fromlist=["parse"]).parse("mu2 o (mu2 * iota)", sig))]}
    )
    path = write(tmp_path, "badpres.json", bad)
    code, out = run_cli(["check", path])
    assert code == 2
    assert "degree" in out or "triangularity" in out


def test_roundtrip_operad_with_gamma():
    operad = associative_operad(2)
    a, b = roundtrip_bytes(operad)
    assert a == b


def test_cli_check_operad(tmp_path):
    operad = trivial_operad(2)
    path = write(tmp_path, "op.json", operad)
    code, out = run_cli(["check", path])
    assert code == 0
    # break one gamma entry: associativity check must fail
    data = json.loads((tmp_path / "op.json").read_text())
    data["gamma"][0]["mats"]["0"] = [["2/1"]]
    bad = tmp_path / "bad_op.json"
    bad.write_text(dumps(data))
    code, out = run_cli(["check", str(bad)])
    assert code == 2


def test_cli_transfer_unsolvable_exit_1(tmp_path):
    from test_algebras import invalid_structure_on_field_plus_disc

    pres, st_bad = invalid_structure_on_field_plus_disc()
    ident = FamilyMap.identity(st_bad.family)
    pres_p = write(tmp_path, "pres.json", pres)
    st_p = write(tmp_path, "bad_structure.json", st_bad)
    f_p = write(tmp_path, "ident.json", ident)
    code, out = run_cli(["transfer", pres_p, f_p, "alongAcyclicFibration", st_p])
    assert code == 1
    assert "UNSOLVABLE" in out
