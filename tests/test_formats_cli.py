import io
import itertools
import json
import math
import os
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from helpers import (
    dense_d,
    ground_field_structure,
    homotopy_assoc_presentation,
    projection_to_field,
    rows_of,
)
from propcalc import formats
from propcalc.chains import ChainComplex, ChainMap, base_field_complex
from propcalc.cli import run
from propcalc.endo import ColoredFamily, FamilyMap
from propcalc.formats import FormatError, Workspace, dumps, load_json, to_json
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
    x = ChainComplex({0: 2, 1: 1}, rows_of({1: [[F(1, 2)], [F(-3)]]}))
    a, b = roundtrip_bytes(x)
    assert a == b
    f = ChainMap(x, x, rows_of({n: [[1 if i == j else 0 for j in range(x.dim(n))] for i in range(x.dim(n))] for n in x.dims}))
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
    out = buf.getvalue()
    if argv[:2] == ["--report", "json"]:
        # every JSON report is the stdlib's canonical encoding of its payload
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    return code, out


def assert_one_error_line(code, out, *fragments):
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out
    for fragment in fragments:
        assert fragment in lines[0]


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


def test_cli_eq_tells_an_odd_expression_from_its_negative(tmp_path):
    """With s odd, conjugating s * s by the swap gives -(s * s): the same
    graph with the opposite Koszul sign, so eq must say distinct."""
    palette = Palette(["c"])
    sig = Signature(palette, [Generator("s", Profile(palette, ["c"]), Profile(palette, ["c"]), 1)])
    path = write(tmp_path, "odd.json", sig)
    code, out = run_cli(["eq", path, "s * s", "([2 1] . (s * s)) . [2 1]"])
    assert (code, out) == (1, "distinct\n")


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
    assert_one_error_line(*run_cli([arg.format(x=path) for arg in argv]))


def test_cli_homology_classify_path(tmp_path):
    from propcalc.chains import disc_complex, direct_sum

    x = direct_sum(base_field_complex(), disc_complex())
    xp = write(tmp_path, "x.json", x)
    code, out = run_cli(["homology", xp])
    assert code == 0
    assert "H_0 = 1" in out
    y = base_field_complex()
    proj = ChainMap(x, y, rows_of({0: [[1, 0]]}))
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


def test_cli_transfer_structure_on_other_family_exit_2(tmp_path):
    # same dims as the map's target but another differential: an input error,
    # not an unsolvable system
    from test_algebras import structure_on_zero_differential_twin

    pres, st_x, st_twin = structure_on_zero_differential_twin()
    ident = FamilyMap.identity(st_x.family)
    pres_p = write(tmp_path, "pres.json", pres)
    st_p = write(tmp_path, "twin.json", st_twin)
    f_p = write(tmp_path, "ident.json", ident)
    code, out = run_cli(["transfer", pres_p, f_p, "alongAcyclicFibration", st_p])
    assert code == 2
    assert out == "error: source structure must live on the map target\n"


@pytest.mark.parametrize("command", ["transfer", "factor"])
def test_cli_structure_for_another_presentation_exit_2(tmp_path, command):
    # a structure with mu2 alone, given with the A-infinity presentation (or
    # with an A-infinity structure A), ended in a KeyError: 'iota' traceback
    from test_algebras import mapping_path_factorization, mu2_only_structure

    pres = homotopy_assoc_presentation()
    st = ground_field_structure(pres)
    mu2_only = mu2_only_structure(pres.signature.palette)
    ident = FamilyMap.identity(st.family)
    if command == "transfer":
        argv = [write(tmp_path, "pres.json", pres), write(tmp_path, "ident.json", ident),
                "alongAcyclicFibration", write(tmp_path, "mu2.json", mu2_only)]
        message = "source structure is for another presentation"
    else:
        b_family, i, p = mapping_path_factorization(ident)
        argv = [write(tmp_path, "g.json", ident), write(tmp_path, "a.json", st),
                write(tmp_path, "c.json", mu2_only), write(tmp_path, "i.json", i),
                write(tmp_path, "p.json", p), write(tmp_path, "b.json", b_family)]
        message = "structures A and C must share one presentation"
    code, out = run_cli([command] + argv)
    assert code == 2
    assert out == "error: %s\n" % message


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


@pytest.mark.parametrize("truncation", [3, 5, 7])
def test_cli_operad_to_prop_dims_match_a_count_of_block_tuples(truncation):
    """operad-to-prop on the associative operad of max arity 3 against a count
    made here: component (m outputs, n inputs) has one summand per ordered
    tuple of m block sizes in {1, 2, 3} summing to n, each of dimension
    m! n! in degree 0 (m! out placements, n! / prod k_i! in placements, and
    Q[Sigma_k_i] of dimension k_i! per block)."""
    want = {}
    for m in range(1, truncation + 1):
        for sizes in itertools.product((1, 2, 3), repeat=m):
            if sum(sizes) <= truncation:
                want.setdefault((m, sum(sizes)), []).append(sizes)
    inputs = os.path.join(os.path.dirname(__file__), "golden", "inputs")
    code, out = run_cli(["--report", "json", "--workspace", inputs, "operad-to-prop", "ass.json", str(truncation)])
    assert code == 0
    got = {(len(c["out"]), len(c["in"])): c for c in json.loads(out)["components"]}
    assert set(got) == set(want)
    for (m, n), tuples in want.items():
        dim = math.factorial(m) * math.factorial(n)
        assert got[(m, n)]["dims"] == {"0": dim * len(tuples)}
        summands = got[(m, n)]["summands"]
        assert sorted(tuple(len(block) for block in s["blocks"]) for s in summands) == sorted(tuples)
        assert all(s["dims"] == {"0": dim} for s in summands)


def test_cli_normalize_deterministic(tmp_path):
    sig = ainf_signature_file(tmp_path)
    code1, out1 = run_cli(["normalize", sig, "mu2 o (mu2 * iota)"])
    code2, out2 = run_cli(["normalize", sig, "mu2 o (mu2 * iota)"])
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


def test_cli_round_trip_malformed_algebra_exit_2(tmp_path):
    # round-trip read its algebra file with a bare json.load, so a malformed
    # file ended in a JSONDecodeError traceback
    operad = associative_operad(2)
    from test_operads import square_zero_algebra

    op_p = write(tmp_path, "op.json", operad)
    fam_p = write(tmp_path, "fam.json", square_zero_algebra(operad).family)
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "operad_algebra", ')
    code, out = run_cli(["round-trip", op_p, fam_p, str(bad)])
    assert_one_error_line(code, out, str(bad), "JSON parse error at line 1 column 28")


def test_cli_check_directory_exit_2(tmp_path):
    # a directory ended in an IsADirectoryError traceback
    code, out = run_cli(["check", str(tmp_path)])
    assert_one_error_line(code, out, str(tmp_path), "cannot read")


def test_cli_check_not_utf8_exit_2(tmp_path):
    # bytes that are not UTF-8 ended in a UnicodeDecodeError traceback
    bad = tmp_path / "bytes.json"
    bad.write_bytes(b"\xff\xfe{")
    code, out = run_cli(["check", str(bad)])
    assert_one_error_line(code, out, str(bad), "not UTF-8")


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param(
            '{"kind": "complex", "dims": {"0": %s}}' % ("1" * 5000),
            "integer string conversion",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits"
            ),
        ),
        ("[" * 100000 + "]" * 100000, "maximum recursion depth"),
    ],
    ids=["long-integer", "deep-nesting"],
)
def test_cli_check_undecodable_json_exit_2(tmp_path, text, fragment):
    # an integer of 5000 digits ended in a ValueError traceback, and nesting
    # deeper than the interpreter's recursion limit in a RecursionError
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out = run_cli(["check", str(bad)])
    assert_one_error_line(code, out, str(bad), "cannot decode JSON", fragment)


GOLDEN_INPUTS = os.path.join(os.path.dirname(__file__), "golden", "inputs")


def test_cli_round_trip_value_of_wrong_degree_exit_2(tmp_path):
    # the first value of the algebra claims degree 1 where its basis element
    # has degree 0; the algebra is rejected before any value is evaluated
    with open(os.path.join(GOLDEN_INPUTS, "alg.json"), encoding="utf-8") as handle:
        alg = json.load(handle)
    first = alg["values"][0]["values"][0]
    first["degree"] = 1
    del first["mats"]
    bad = tmp_path / "alg_degree.json"
    bad.write_text(json.dumps(alg))
    code, out = run_cli(
        ["--workspace", GOLDEN_INPUTS, "round-trip", "ass.json", "fam_sq.json", str(bad)]
    )
    assert_one_error_line(code, out, "endo element shape mismatch")


# -- families shared within one Workspace ---------------------------------------


def test_workspace_loads_equal_families_as_one_object():
    ws = Workspace(GOLDEN_INPUTS)
    st, stx, proj = ws.resolve("st.json"), ws.resolve("stx.json"), ws.resolve("proj.json")
    assert st.family is proj.target
    assert stx.family is proj.source
    assert proj.source is not proj.target
    # the shared family carries one cache of tensor spaces
    profile = st.presentation.signature["mu2"].in_profile
    assert st.family.space(profile) is proj.target.space(profile)


def test_workspaces_do_not_share_families():
    first, second = Workspace(GOLDEN_INPUTS), Workspace(GOLDEN_INPUTS)
    a, b = first.resolve("st.json").family, second.resolve("st.json").family
    assert a is not b
    assert formats.family_to_json(a) == formats.family_to_json(b)


def two_color_family_json():
    return {
        "kind": "family",
        "palette": {"kind": "palette", "colors": ["a", "b"]},
        "complexes": {
            "a": {"kind": "complex", "dims": {"0": 1, "1": 1}, "boundary": {"1": [["1/1"]]}},
            "b": {"kind": "complex", "dims": {"0": 2}, "boundary": {}},
        },
    }


def test_families_that_differ_are_not_merged(tmp_path):
    base = two_color_family_json()
    one_entry = two_color_family_json()
    one_entry["complexes"]["a"]["boundary"]["1"] = [["2/1"]]
    palette_order = two_color_family_json()
    palette_order["palette"]["colors"] = ["b", "a"]
    for name, data in (("base", base), ("copy", base), ("entry", one_entry), ("order", palette_order)):
        (tmp_path / (name + ".json")).write_text(dumps(data))
    ws = Workspace(str(tmp_path))
    fams = {name: ws.resolve(name) for name in ("base", "copy", "entry", "order")}
    assert fams["base"] is fams["copy"]
    assert len({id(f) for f in fams.values()}) == 3
    assert dense_d(fams["entry"].complexes["a"], 1) == [[F(2)]]
    assert fams["order"].palette.colors == ("b", "a")
    # a family map from one to the other keeps both
    (tmp_path / "map.json").write_text(
        dumps(
            {
                "kind": "family_map",
                "source": base,
                "target": one_entry,
                "maps": {"a": {"0": [["2/1"]], "1": [["1/1"]]}, "b": {"0": [["1/1", "0/1"], ["0/1", "1/1"]]}},
            }
        )
    )
    f = ws.resolve("map")
    assert f.source is fams["base"] and f.target is fams["entry"]


def test_bad_family_fails_the_same_way_each_time(tmp_path):
    bad = two_color_family_json()
    # d o d != 0 out of degree 2
    bad["complexes"]["a"] = {
        "kind": "complex",
        "dims": {"0": 1, "1": 1, "2": 1},
        "boundary": {"1": [["1/1"]], "2": [["1/1"]]},
    }
    (tmp_path / "bad_fam.json").write_text(dumps(bad))
    (tmp_path / "bad_map.json").write_text(
        dumps({"kind": "family_map", "source": bad, "target": bad, "maps": {}})
    )
    message = "invalid complex: d o d != 0 out of degree 2"
    ws = Workspace(str(tmp_path))
    for name in ("bad_fam", "bad_map", "bad_fam", "bad_map"):
        with pytest.raises(FormatError) as raised:
            ws.resolve(name)
        assert str(raised.value) == message
    assert ws.families == {}
    for argv in (["check", "bad_fam.json"], ["check", "bad_map.json"], ["classify", "bad_map.json"]):
        code, out = run_cli(["--workspace", str(tmp_path)] + argv)
        assert (code, out) == (2, "error: %s\n" % message)
