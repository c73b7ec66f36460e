"""Write the golden CLI corpus.

    PYTHONPATH=src python3 tests/golden/record.py

rewrites `tests/golden/inputs/` and `tests/golden/cases.json` from the code
on the path: small input files for every CLI command, then the exit code and
stdout of each case in both `--report text` and `--report json`.  Every case
runs with the inputs directory as the working directory, so that paths in
error messages are relative.  `tests/test_golden.py` replays the corpus.
Re-record only for an intended change of output, and say so in CHANGES.md.
"""

from __future__ import annotations

import copy
import io
import json
import os
import shutil
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
CASES = os.path.join(HERE, "cases.json")
sys.path.insert(0, os.path.dirname(HERE))

from helpers import (  # noqa: E402
    ground_field_structure,
    homotopy_assoc_presentation,
    inclusion_from_field,
    projection_to_field,
    rows_of,
)
from propcalc import formats  # noqa: E402
from propcalc.bimodules import ColoredBimodule  # noqa: E402
from propcalc.chains import ChainComplex, ChainMap, base_field_complex  # noqa: E402
from propcalc.cli import run  # noqa: E402
from propcalc.endo import FamilyMap  # noqa: E402
from propcalc.exprs import PropPresentation, parse  # noqa: E402
from propcalc.formats import dumps, to_json  # noqa: E402
from propcalc.graphs import Generator, Signature  # noqa: E402
from propcalc.operads import (  # noqa: E402
    OperadAlgebra,
    associative_operad,
    profile_key,
    trivial_operad,
)
from propcalc.profiles import Palette, Profile  # noqa: E402

# (case name, argv without --report); file names are relative to INPUTS
COMMANDS = [
    ("check-complex", ["check", "q.json"]),
    ("check-operad", ["check", "op.json"]),
    ("check-bimodule-bad-action", ["check", "bad_bimodule.json"]),
    ("check-bimodule-noncommuting", ["check", "noncommuting_bimodule.json"]),
    ("check-bimodule-twisted-s5", ["check", "twisted_bimodule.json"]),
    ("check-operad-bad-gamma", ["check", "bad_op.json"]),
    ("check-operad-arity-string", ["check", "arity_string.json"]),
    ("check-presentation-bad-differential", ["check", "bad_pres.json"]),
    ("check-missing-file", ["check", "missing.json"]),
    ("check-malformed-json", ["check", "truncated.json"]),
    ("check-directory", ["check", "subdir"]),
    ("check-not-utf8", ["check", "not_utf8.json"]),
    ("check-in-subdirectory", ["check", "subdir/x.json"]),
    ("check-family-stray-color", ["check", "fam_stray_color.json"]),
    ("check-bimodule-extra-action", ["check", "sign_extra_action.json"]),
    ("check-bimodule-duplicate-action", ["check", "perm_a_duplicate_action.json"]),
    ("check-bimodule-duplicate-component", ["check", "perm_a_duplicate_component.json"]),
    ("check-operad-duplicate-component", ["check", "op_duplicate_component.json"]),
    ("check-operad-duplicate-gamma", ["check", "ass_duplicate_gamma.json"]),
    ("check-zero-space-shape", ["check", "zero_space_shape.json"]),
    ("check-zero-space-degree", ["check", "zero_space_degree.json"]),
    ("check-zero-space-map", ["check", "zero_space_map.json"]),
    ("homology-repeated-key", ["homology", "dims_repeated_key.json"]),
    ("check-operad-repeated-key", ["check", "ass_repeated_key.json"]),
    ("check-bimodule-unsorted-profile", ["check", "bimodule_unsorted.json"]),
    ("check-operad-unsorted-inputs", ["check", "op_unsorted.json"]),
    ("check-operad-missing-input", ["check", "op_missing_input.json"]),
    ("check-operad-missing-target", ["check", "ass_missing_target.json"]),
    ("check-presentation-bad-relation", ["check", "pres_bad_relation.json"]),
    ("check-presentation-depth", ["check", "pres_depth.json"]),
    ("check-presentation-depth-bad-sign", ["check", "pres_depth_bad_sign.json"]),
    ("workspace-unknown-name", ["--workspace", "subdir", "homology", "nothere"]),
    ("workspace-name", ["--workspace", "subdir", "homology", "x"]),
    ("normalize", ["normalize", "sig.json", "mu2 o (mu2 * iota)"]),
    ("normalize-parse-error", ["normalize", "sig.json", "mu2 o $"]),
    ("eq-equal", ["eq", "sig.json", "mu2 o (mu2 * iota)", "mu2 o (mu2 * iota)"]),
    ("eq-distinct", ["eq", "sig.json", "mu2 o (mu2 * iota)", "mu2 o (iota * mu2)"]),
    ("eq-wrong-kind", ["eq", "q.json", "mu2", "mu2"]),
    ("eq-actions-equal", ["eq", "sig.json", "[2 1] . (mu2 * mu2)", "(mu2 * mu2) . [3 4 1 2]"]),
    ("eq-actions-distinct", ["eq", "sig.json", "[2 1] . (iota * iota)", "iota * iota"]),
    ("normalize-actions", ["normalize", "sig.json", "([2 1] . (mu2 * iota)) . [2 1 3]"]),
    ("eq-odd-swap-distinct", ["eq", "odd.json", "s * s", "([2 1] . (s * s)) . [2 1]"]),
    ("eq-odd-interchange-equal", ["eq", "odd.json", "(s * s) o (u * u)", "(s o u) * (s o u)"]),
    ("eq-odd-interchange-distinct", ["eq", "odd.json", "(u * s) o (s * u)", "(u o s) * (s o u)"]),
    ("dim-free", ["dim-free", "binary.json", "c", "c,c,c", "2"]),
    ("dim-free-default-cap", ["--max-vertices", "2", "dim-free", "binary.json", "c", "c,c"]),
    ("dim-free-equal-generators", ["dim-free", "binary.json", "c", "c,c,c,c", "3"]),
    ("dim-free-mixed-generators", ["dim-free", "sig.json", "c", "c,c,c,c", "3"]),
    ("dim-free-generators-string", ["dim-free", "generators_string.json", "c", "c,c", "2"]),
    ("dim-free-two-colors", ["dim-free", "two_color.json", "a", "a,b,a,b,a", "4"]),
    ("box-v", ["box-v", "p.json", "q_bimodule.json"]),
    ("box-h", ["box-h", "p.json", "q_bimodule.json"]),
    ("box-v-signs", ["box-v", "sign_a.json", "sign_a.json"]),
    ("box-v-middle-stabilizer", ["box-v", "perm_a.json", "perm_a.json"]),
    ("box-h-actions", ["box-h", "perm_a.json", "p.json"]),
    ("box-h-wide", ["box-h", "wide.json", "q_bimodule.json"]),
    ("box-v-wide", ["box-v", "wide.json", "q_bimodule.json"]),
    ("box-v-wrong-kind", ["box-v", "q.json", "q.json"]),
    ("homology", ["homology", "x.json"]),
    ("homology-fractions", ["homology", "frac.json"]),
    ("homology-object-rows", ["homology", "rows_object.json"]),
    ("homology-string-rows", ["homology", "rows_string.json"]),
    ("homology-short-row", ["homology", "short_row.json"]),
    ("homology-long-row", ["homology", "long_row.json"]),
    ("homology-dims-float", ["homology", "dims_float.json"]),
    ("check-short-row", ["check", "short_row.json"]),
    ("check-long-row", ["check", "long_row.json"]),
    ("classify-chain-map", ["classify", "frac_map.json"]),
    ("classify-family-map", ["classify", "proj.json"]),
    ("classify-wrong-kind", ["classify", "q.json"]),
    ("classify-family-map-stray-color", ["classify", "proj_stray_color.json"]),
    ("path-object", ["path-object", "frac.json"]),
    ("path-object-high-degree", ["path-object", "high_degree.json"]),
    ("algebra-check-pass", ["algebra-check", "st.json"]),
    ("algebra-check-fail", ["algebra-check", "bad_st.json"]),
    ("algebra-check-relation-failure", ["algebra-check", "st_relation.json"]),
    ("algebra-check-wrong-kind", ["algebra-check", "q.json"]),
    ("morphism-check-pass", ["morphism-check", "proj.json", "stx.json", "st.json"]),
    ("morphism-check-fail", ["morphism-check", "proj.json", "stx.json", "st_scaled.json"]),
    ("transfer-fibration", ["transfer", "pres.json", "proj.json", "alongAcyclicFibration", "st.json"]),
    ("transfer-cofibration", ["transfer", "pres.json", "incl.json", "alongAcyclicCofibration", "st.json"]),
    ("transfer-fibration-halved", ["transfer", "pres.json", "proj_half.json", "alongAcyclicFibration", "st.json"]),
    ("transfer-wrong-map-class", ["transfer", "pres.json", "incl.json", "alongAcyclicFibration", "st.json"]),
    ("transfer-unsolvable", ["transfer", "pres.json", "ident_x.json", "alongAcyclicFibration", "bad_st.json"]),
    ("factor", ["factor", "ident.json", "st.json", "st.json", "ident.json", "ident.json", "fam.json"]),
    ("factor-fractions", ["factor", "ident.json", "st.json", "st.json", "ident_double.json", "ident_half.json", "fam.json"]),
    ("factor-wrong-kind", ["factor", "ident.json", "st.json", "st.json", "ident.json", "ident.json", "q.json"]),
    ("operad-to-prop", ["operad-to-prop", "ass.json", "3"]),
    ("operad-to-prop-5", ["operad-to-prop", "ass.json", "5"]),
    ("operad-to-prop-6", ["operad-to-prop", "ass.json", "6"]),
    ("operad-to-prop-zero-truncation", ["operad-to-prop", "ass.json", "0"]),
    ("round-trip", ["round-trip", "ass.json", "fam_sq.json", "alg.json"]),
    ("round-trip-not-an-algebra", ["round-trip", "ass.json", "fam_sq.json", "alg_scaled.json"]),
    ("round-trip-malformed-algebra", ["round-trip", "ass.json", "fam_sq.json", "truncated.json"]),
    ("round-trip-missing-algebra", ["round-trip", "ass.json", "fam_sq.json", "missing.json"]),
    ("round-trip-duplicate-value", ["round-trip", "ass.json", "fam_sq.json", "alg_duplicate_value.json"]),
    ("round-trip-other-family", ["round-trip", "ass.json", "fam.json", "alg.json"]),
]


def write_inputs():
    from test_algebras import invalid_structure_on_field_plus_disc
    from test_bimodules import (
        key,
        make_component,
        noncommuting_component,
        perm_matrix_rep,
        sign_rep,
        twisted_component,
    )
    from test_operads import square_zero_algebra

    from propcalc.algebras import transfer
    from propcalc.chains import direct_sum, disc_complex

    objects = {}
    pres = homotopy_assoc_presentation()
    st = ground_field_structure(pres)
    objects["pres"] = pres
    objects["sig"] = pres.signature
    objects["st"] = st
    proj = projection_to_field(pres.signature.palette)
    objects["proj"] = proj
    objects["incl"] = inclusion_from_field(pres.signature.palette)
    objects["stx"], _ = transfer(pres, proj, "alongAcyclicFibration", st)
    scaled = ground_field_structure(pres)
    scaled.assignment["mu2"] = scaled.assignment["mu2"].scale(F(-3, 2))
    objects["st_scaled"] = scaled
    # a relation, iota o iota = iota, that fails once iota is 2
    sig = pres.signature
    relation = PropPresentation(sig, pres.differential, [(parse("iota o iota", sig), parse("iota", sig))])
    st_relation = ground_field_structure(relation)
    st_relation.assignment["iota"] = st_relation.assignment["iota"].scale(2)
    objects["st_relation"] = st_relation
    _, bad_st = invalid_structure_on_field_plus_disc()
    objects["bad_st"] = bad_st
    objects["ident_x"] = FamilyMap.identity(bad_st.family)
    objects["ident"] = FamilyMap.identity(st.family)
    objects["fam"] = st.family
    # lift systems with 1/2 entries: the target basis of proj rescaled by 2,
    # and the identity factored as (1/2) o 2
    objects["proj_half"] = FamilyMap(proj.source, proj.target, {"c": proj.maps["c"].scale(F(1, 2))})
    objects["ident_double"] = FamilyMap(st.family, st.family, {"c": objects["ident"].maps["c"].scale(2)})
    objects["ident_half"] = FamilyMap(st.family, st.family, {"c": objects["ident"].maps["c"].scale(F(1, 2))})

    palette = Palette(["c"])
    objects["binary"] = Signature(
        palette, [Generator("mu", Profile(palette, ["c"]), Profile(palette, ["c", "c"]), 0)]
    )
    # two colours, each generator reading both: leg labels merge across colours
    two_color = Palette(["a", "b"])
    objects["two_color"] = Signature(
        two_color,
        [
            Generator("m", Profile(two_color, ["a"]), Profile(two_color, ["a", "b"]), 0),
            Generator("t", Profile(two_color, ["b"]), Profile(two_color, ["b", "a"]), 0),
        ],
    )
    # s odd and u even: equal graphs whose vertex orders differ by an odd
    # number of swaps of s's are x and -x
    objects["odd"] = Signature(
        palette,
        [
            Generator("s", Profile(palette, ["c"]), Profile(palette, ["c"]), 1),
            Generator("u", Profile(palette, ["c"]), Profile(palette, ["c"]), 0),
        ],
    )
    objects["q"] = base_field_complex()
    objects["x"] = direct_sum(base_field_complex(), disc_complex())
    frac = ChainComplex({0: 2, 1: 1}, rows_of({1: [[F(1, 2)], [F(-3)]]}))
    objects["frac"] = frac
    objects["frac_map"] = ChainMap(
        frac, frac, rows_of({0: [[F(-2, 3), F(0)], [F(0), F(-2, 3)]], 1: [[F(-2, 3)]]})
    )
    objects["pres_depth"] = depth_presentation(-1)
    objects["pres_depth_bad_sign"] = depth_presentation(1)
    objects["bad_pres"] = PropPresentation(
        pres.signature, {"mu2": [(F(1), parse("mu2 o (mu2 * iota)", pres.signature))]}
    )

    two = Palette(["a", "b"])
    ka, kb, kaa = key(two, "a"), key(two, "b"), key(two, "a", "a")
    objects["p"] = ColoredBimodule(two, {(ka, kb): make_component(ka, kb, ChainComplex({0: 1}))})
    objects["q_bimodule"] = ColoredBimodule(
        two, {(kb, ka): make_component(kb, ka, ChainComplex({0: 1}))}
    )
    # a carrier whose boundary is 34 columns wide: a row nonzero at columns 0,
    # 15, 16, 31, 32 and 33, on both sides of each piece of 16 entries that
    # dumps writes, and a zero row; its products with q_bimodule keep it
    wide_row = [F(0)] * 34
    for j, x in zip((0, 15, 16, 31, 32, 33), (F(1, 2), F(-3), F(5, 7), F(2**80), F(-1, 3), F(7))):
        wide_row[j] = x
    wide = ChainComplex({0: 2, 1: 34}, rows_of({1: [wide_row, [F(0)] * 34]}))
    objects["wide"] = ColoredBimodule(two, {(ka, kb): make_component(ka, kb, wide)})
    objects["sign_a"] = ColoredBimodule(
        two,
        {
            (ka, ka): make_component(ka, ka, ChainComplex({0: 1, 1: 1}, rows_of({1: [[F(-5, 7)]]}))),
            (kaa, ka): make_component(kaa, ka, ChainComplex({0: 1}), out_mats=sign_rep(kaa)),
        },
    )
    objects["perm_a"] = ColoredBimodule(
        two,
        {(kaa, kaa): make_component(
            kaa, kaa, ChainComplex({0: 2}),
            out_mats=perm_matrix_rep(kaa, "out"), in_mats=perm_matrix_rep(kaa, "in"),
        )},
    )

    noncommuting = noncommuting_component()
    objects["noncommuting_bimodule"] = ColoredBimodule(
        Palette(["x"]), {(noncommuting.out_key, noncommuting.in_key): noncommuting}
    )
    twisted = twisted_component()
    objects["twisted_bimodule"] = ColoredBimodule(Palette(["x"]), {(twisted.out_key, twisted.in_key): twisted})

    objects["op"] = trivial_operad(2)
    ass = associative_operad(3)
    objects["ass"] = ass
    alg = square_zero_algebra(ass)
    objects["fam_sq"] = alg.family

    shutil.rmtree(INPUTS, ignore_errors=True)
    os.makedirs(os.path.join(INPUTS, "subdir"))
    for name, obj in objects.items():
        _write(name + ".json", dumps(to_json(obj)))
    _write("alg.json", dumps(formats.operad_algebra_to_json(alg)))
    # one structure value scaled by 2: no longer an algebra
    key = ("x", profile_key(ass.palette, ["x", "x"]))
    scaled_values = dict(alg.values)
    scaled_values[key] = [scaled_values[key][0].scale(2)] + scaled_values[key][1:]
    _write("alg_scaled.json", dumps(formats.operad_algebra_to_json(
        OperadAlgebra(ass, alg.family, scaled_values))))
    _write("subdir/x.json", dumps(to_json(objects["x"])))

    bad_bimodule = {
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
    _write("bad_bimodule.json", dumps(bad_bimodule))
    # profiles that are not sorted representatives: a bimodule out-profile
    # and operad inputs, each (b, a) over the palette (a, b)
    unsorted = copy.deepcopy(bad_bimodule)
    unsorted["palette"]["colors"] = ["a", "b"]
    unsorted["components"][0].update({"out": ["b", "a"], "out_actions": []})
    _write("bimodule_unsorted.json", dumps(unsorted))
    _write("op_unsorted.json", dumps({
        "kind": "operad",
        "palette": {"kind": "palette", "colors": ["a", "b"]},
        "max_arity": 2,
        "components": [{"out_color": "a", "in": ["b", "a"], "carrier": unsorted["components"][0]["carrier"], "in_actions": []}],
        "gamma": [],
    }))
    # gamma entries whose input component, and whose target component, is
    # missing: op without its arity-2 component, and ass without its arity-3
    # component and the one gamma entry with an arity-3 input
    missing = _plain(to_json(objects["op"]))
    missing["components"] = [c for c in missing["components"] if len(c["in"]) != 2]
    _write("op_missing_input.json", dumps(missing))
    missing = _plain(to_json(ass))
    missing["components"] = [c for c in missing["components"] if len(c["in"]) != 3]
    missing["gamma"] = [g for g in missing["gamma"] if ["x", "x", "x"] not in g["blocks"]]
    _write("ass_missing_target.json", dumps(missing))
    # a relation that is not a pair of expression strings
    bad_relation = _plain(to_json(pres))
    bad_relation["relations"] = [["mu2", 3]]
    _write("pres_bad_relation.json", dumps(bad_relation))
    # a family map at a color outside both palettes
    stray = _plain(to_json(proj))
    stray["maps"]["zz"] = stray["maps"]["c"]
    _write("proj_stray_color.json", dumps(stray))
    bad_op = to_json(objects["op"])
    bad_op["gamma"][0]["mats"]["0"] = [["2/1"]]
    _write("bad_op.json", dumps(bad_op))
    # boundary rows written as JSON objects, and as strings: a matrix is a list of lists
    rows = {"kind": "complex", "dims": {"0": 2, "1": 2}, "boundary": {"1": None}}
    rows["boundary"]["1"] = [{"0": "3", "1": "4"}, {"0": "2", "1": "9"}]
    _write("rows_object.json", dumps(rows))
    rows["boundary"]["1"] = ["34", "29"]
    _write("rows_string.json", dumps(rows))
    # a second boundary row shorter, and longer, than the first
    rows["boundary"]["1"] = [["1", "0"], ["0"]]
    _write("short_row.json", dumps(rows))
    rows["boundary"]["1"] = [["1", "0"], ["0", "1", "5"]]
    _write("long_row.json", dumps(rows))
    # fields of the wrong JSON type: generators as a string, a dimension as a
    # float and an arity bound as a string
    generators_string = to_json(objects["sig"])
    generators_string["generators"] = "x"
    _write("generators_string.json", dumps(generators_string))
    _write("dims_float.json", dumps({"kind": "complex", "dims": {"0": 2.5}, "boundary": {}}))
    arity_string = to_json(objects["op"])
    arity_string["max_arity"] = "2"
    _write("arity_string.json", dumps(arity_string))
    # a family with a complex at a color outside its palette
    stray = to_json(objects["fam"])
    stray["complexes"]["zz"] = {"kind": "complex", "dims": {"0": 3}}
    _write("fam_stray_color.json", dumps(stray))
    # an out-action on the identity, which is not a stabilizer generator
    extra_action = to_json(objects["sign_a"])
    extra_action["components"][1]["out_actions"].append({"perm": [1, 2], "mats": {"0": [["5/1"]]}})
    _write("sign_extra_action.json", dumps(extra_action))
    # a second [2, 1] out-action, 7 times the identity, listed before perm_a's swap
    duplicate_action = to_json(objects["perm_a"])
    duplicate_action["components"][0]["out_actions"].insert(
        0, {"perm": [2, 1], "mats": {"0": [["7/1", "0/1"], ["0/1", "7/1"]]}}
    )
    _write("perm_a_duplicate_action.json", dumps(duplicate_action))
    # an entry listed twice, the altered copy first: perm_a's component with
    # both actions negated, a component of op with a 2-dimensional carrier,
    # ass's first gamma entry times 7, and alg's first values entry times 7
    duplicate = _plain(to_json(objects["perm_a"]))
    twisted = copy.deepcopy(duplicate["components"][0])
    for act in twisted["out_actions"] + twisted["in_actions"]:
        act["mats"] = _scaled(act["mats"], -1)
    duplicate["components"].insert(0, twisted)
    _write("perm_a_duplicate_component.json", dumps(duplicate))
    duplicate = _plain(to_json(objects["op"]))
    wider = copy.deepcopy(duplicate["components"][0])
    wider["carrier"]["dims"] = {"0": 2}
    duplicate["components"].insert(0, wider)
    _write("op_duplicate_component.json", dumps(duplicate))
    duplicate = _plain(to_json(ass))
    scaled = copy.deepcopy(duplicate["gamma"][0])
    scaled["mats"] = _scaled(scaled["mats"], 7)
    duplicate["gamma"].insert(0, scaled)
    _write("ass_duplicate_gamma.json", dumps(duplicate))
    duplicate = _plain(formats.operad_algebra_to_json(alg))
    scaled = copy.deepcopy(duplicate["values"][0])
    for value in scaled["values"]:
        value["mats"] = _scaled(value["mats"], 7)
    duplicate["values"].insert(0, scaled)
    _write("alg_duplicate_value.json", dumps(duplicate))
    # all-zero matrices on zero spaces, of the wrong shape: a ragged boundary
    # into degree 0 where it should be (0, 2), a boundary in a degree with no
    # space on either side, and a ragged map into a zero space
    _write("zero_space_shape.json", dumps(
        {"kind": "complex", "dims": {"1": 2}, "boundary": {"1": [["0/1"], ["0/1", "0/1", "0/1"]]}}))
    _write("zero_space_degree.json", dumps(
        {"kind": "complex", "dims": {"0": 2}, "boundary": {"3": [["0/1", "0/1"]]}}))
    _write("zero_space_map.json", dumps({
        "kind": "chain_map",
        "source": {"kind": "complex", "dims": {"0": 2}, "boundary": {}},
        "target": {"kind": "complex", "dims": {"1": 1}, "boundary": {}},
        "mats": {"0": [["0/1", "0/1"], ["0/1"]]},
    }))
    # a JSON object that gives a key twice: a degree of dims, and the
    # out_color of ass's first gamma entry
    _write("dims_repeated_key.json", '{"kind": "complex", "dims": {"0": 1, "0": 2}, "boundary": {}}\n')
    text = dumps(to_json(ass))
    at = text.index('"out_color"', text.index('"gamma"'))
    indent = at - text.rindex("\n", 0, at) - 1
    _write("ass_repeated_key.json", text[:at] + '"out_color": "x",\n' + " " * indent + text[at:])
    # one basis vector in degree 10^8: the path object lives in two degrees
    _write("high_degree.json", dumps(to_json(ChainComplex({10**8: 1}))))
    _write("truncated.json", '{"kind": "operad_algebra", ')
    with open(os.path.join(INPUTS, "not_utf8.json"), "wb") as handle:
        handle.write(b"\xff\xfe{")


def depth_presentation(first_sign):
    """One colour, generators up to degree 3, and d k = first_sign *
    ([2 1] . (b2 * b1) . [2 1]) - t.

    Every generator above degree 1 has a differential whose terms have
    differentials of their own, so the d^2 check sums nonzero terms for h, t
    and k.  d^2(k) = 0 needs the Leibniz sign (-1)^|b2| of d passing b2, and
    holds for first_sign = -1 only.
    """
    palette = Palette(["c"])
    c = lambda *xs: Profile(palette, xs)
    sig = Signature(
        palette,
        [
            Generator("iota", c("c"), c("c"), 0),
            Generator("b1", c("c"), c("c"), 1),
            Generator("b2", c("c"), c("c"), 1),
            Generator("h", c("c"), c("c"), 2),
            Generator("t", c("c", "c"), c("c", "c"), 2),
            Generator("k", c("c", "c"), c("c", "c"), 3),
        ],
    )
    terms = {
        "b1": [(1, "iota")],
        "b2": [(1, "iota")],
        "h": [(1, "b1"), (-1, "b2")],
        "t": [(1, "iota * b2"), (-1, "b1 * iota")],
        "k": [(first_sign, "[2 1] . (b2 * b1) . [2 1]"), (-1, "t")],
    }
    return PropPresentation(
        sig, {name: [(F(k), parse(text, sig)) for k, text in pairs] for name, pairs in terms.items()}
    )


def _plain(payload):
    """A to_json payload as plain JSON values, matrices as lists of strings."""
    return json.loads(dumps(payload))


def _scaled(mats, k):
    """Per-degree JSON matrices with every entry multiplied by k."""
    return {
        deg: [["%d/%d" % ((F(x) * k).numerator, (F(x) * k).denominator) for x in row] for row in rows]
        for deg, rows in mats.items()
    }


def _write(name, text):
    with open(os.path.join(INPUTS, name), "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def run_case(argv):
    """(exit code, stdout) of the CLI on argv, run inside INPUTS."""
    cwd = os.getcwd()
    buf = io.StringIO()
    os.chdir(INPUTS)
    try:
        with redirect_stdout(buf):
            code = run(argv)
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


def main():
    write_inputs()
    cases = []
    for name, command in COMMANDS:
        for report in ("text", "json"):
            case_id, argv = "%s-%s" % (name, report), ["--report", report] + command
            try:
                code, out = run_case(argv)
            except Exception as exc:  # a traceback at the CLI: left out, and reported
                print("%s: %s: %s" % (case_id, type(exc).__name__, exc), file=sys.stderr)
                continue
            cases.append({"id": case_id, "argv": argv, "exit": code, "stdout": out})
    with open(CASES, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print("%d cases written to %s" % (len(cases), CASES))


if __name__ == "__main__":
    main()
