"""The canonical JSON emitter and the "p/q" readers, against the stdlib.

`formats.dumps` must write exactly the bytes of json.dumps(obj,
sort_keys=True, indent=2) plus a newline, where a `formats.MatrixRows`
counts as its dense rows of "p/q" strings (`expand` here, which calls
nothing in formats), and `formats.parse_rational` must give the value, or
the error text, of Fraction(str(s)).  The loaders must turn a field of the
wrong JSON type into one FormatError, and the CLI on mutated golden inputs
must end in exit 0, 1 or 2, never in a traceback.
"""

import io
import json
import os
import random
import shutil
from contextlib import redirect_stdout
from fractions import Fraction
from typing import NamedTuple

import pytest

from golden.record import CASES, INPUTS
from helpers import (
    exact_scalar,
    homotopy_assoc_presentation,
    rows_of,
)
from propcalc import formats
from propcalc.chains import ChainComplex
from propcalc.cli import INPUT_ERRORS, run
from propcalc.exprs import expr_to_graph, parse
from propcalc.formats import FormatError, Workspace, dumps, parse_rational, rational_str, to_json
from propcalc.operads import OperadAlgebra, associative_operad
from propcalc.profiles import Palette
from test_golden import NOT_CANONICAL, NOT_LOADABLE

F = Fraction


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def expand(obj):
    """obj with each MatrixRows written out as a list of dense rows of "p/q"
    strings in lowest terms, and tuples as lists."""
    if isinstance(obj, formats.MatrixRows):
        dense = []
        for row in obj.rows:
            line = ["0/1"] * obj.n_cols
            for j, x in row.items():
                x = Fraction(x)
                line[j] = "%d/%d" % (x.numerator, x.denominator)
            dense.append(line)
        return dense
    if isinstance(obj, dict):
        return {k: expand(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [expand(x) for x in obj]
    return obj


def oracle_parse(s):
    """Fraction(str(s)), or the FormatError text parse_rational must raise."""
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        return "bad rational %r: %s" % (s, exc)


def parse_or_error(s):
    try:
        return parse_rational(s)
    except FormatError as exc:
        return str(exc)


class Pair(NamedTuple):
    left: int
    right: str


EDGE_CASES = [
    [],
    [[]],
    {},
    {"m": []},
    {"m": [[]]},
    {"rows": [[], ["1/2"], []]},
    "é ü ∂ 🜁   \t\n\"\\",
    {"é": ["ü", "∂"], "": [""]},
    [True, False, None, 0, -1, 2**70, "x"],
    {"b": True, "n": None, "i": 3, "f": False},
    (1, "two", (3, ["4/1"])),
    Pair(1, "a"),
    [Pair(2, "b"), ()],
    {"nested": {"deeper": {"deepest": [[{"k": "v"}]]}}},
    # empty containers at depth 2 and deeper
    {"a": {"b": [], "c": {}}},
    [(), [[]], {}],
    {"x": [{"y": {"z": [[], {}]}}], "boundary": {}},
    ["only", "strings", "here"],
    # rows on both sides of the piece length dumps writes them in
    [[str(i - n) for i in range(n)] for n in (formats._ROW_PIECE, formats._ROW_PIECE + 1, 3 * formats._ROW_PIECE)],
    ["strings", 1, "then int"],
    # all-zero pieces, written as one text per depth: whole zero rows, a zero
    # piece then a nonzero one, zeros in the last partial piece only, the same
    # rows at two depths, and a zero piece beside an int (the generic path)
    [["0/1"] * n for n in (formats._ROW_PIECE, 2 * formats._ROW_PIECE, 2 * formats._ROW_PIECE + 1)],
    [["0/1"] * formats._ROW_PIECE + ["1/2"] + ["0/1"] * (formats._ROW_PIECE - 1)],
    [["1/1"] * formats._ROW_PIECE + ["0/1"] * 3],
    {"a": [["0/1"] * 40, ["3/1"] + ["0/1"] * 40], "b": {"c": [["0/1"] * 40, ["3/1"] + ["0/1"] * 40]}},
    ["0/1"] * formats._ROW_PIECE + [0],
    1.5,
    {"f": [0.1, -2.0, 1e300]},
    {2: "int key", 1: "other"},
    0,
    "",
    None,
]


@pytest.mark.parametrize("obj", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_dumps_edge_cases_match_json(obj):
    assert dumps(obj) == oracle(obj)


def test_dumps_to_json_of_every_kind_matches_json():
    ws = Workspace(INPUTS)
    skip = NOT_CANONICAL | NOT_LOADABLE | {"alg.json", "alg_scaled.json"}
    objects = [Palette(["a", "b"])]
    objects += [ws.resolve(n) for n in sorted(os.listdir(INPUTS)) if n.endswith(".json") and n not in skip]
    sig = homotopy_assoc_presentation().signature
    objects.append(expr_to_graph(parse("mu2 o (mu2 * iota)", sig)))
    payloads = [to_json(obj) for obj in objects]
    from test_operads import square_zero_algebra

    payloads.append(formats.operad_algebra_to_json(square_zero_algebra(associative_operad(2))))
    kinds = {p["kind"] for p in payloads}
    assert kinds >= set(formats._KINDS) | {"operad_algebra"}
    for payload in payloads:
        assert dumps(payload) == oracle(expand(payload))


# matrix widths on both sides of one and two pieces of _ROW_PIECE (16) entries
WIDTHS = (0, 1, 15, 16, 17, 32, 33, 50)


def random_entry(rng):
    return rng.choice([
        rng.choice([1, -1]) * rng.randint(1, 9),
        -rng.randint(10, 10**6),
        F(rng.randint(1, 2**80) * rng.choice([1, -1]), rng.randint(2, 10**6)),
        rng.choice([1, -1]) * (2**80 + rng.randint(0, 9)),
    ])


def random_rows(rng, n_rows, n_cols):
    """Sparse {column: entry} rows, their keys in random order; some rows are zero."""
    rows = []
    for _ in range(n_rows):
        density = rng.choice([0.0, 0.05, 0.3, 1.0])
        cols = [j for j in range(n_cols) if rng.random() < density]
        rng.shuffle(cols)
        rows.append({j: random_entry(rng) for j in cols})
    return rows


def test_dumps_writes_matrices_as_their_dense_rows():
    rng = random.Random(25)
    for _ in range(40):
        mats = {str(w): formats.matrix_to_json(random_rows(rng, rng.randint(1, 4), w), w) for w in WIDTHS}
        mats["no rows"] = formats.matrix_to_json([], rng.choice(WIDTHS))
        mats["zero rows"] = formats.matrix_to_json([{} for _ in range(3)], rng.choice(WIDTHS))
        # the same matrices at a second depth
        doc = {"kind": "x", "mats": mats, "deeper": [{"mats": list(mats.values())}]}
        assert dumps(doc) == oracle(expand(doc))


def test_json_dumps_rejects_a_matrix():
    # a MatrixRows is no tuple: json itself must not write it as [rows, n_cols]
    with pytest.raises(TypeError):
        json.dumps(to_json(ChainComplex({0: 1, 1: 1}, rows_of({1: [[F(1, 2)]]}))))


def test_rational_str_reads_fractions_and_converts_the_rest():
    assert rational_str(F(-6, 4)) == "-3/2"
    assert rational_str(F(0)) == "0/1"
    assert rational_str(7) == "7/1"
    assert rational_str("-3/6") == "-1/2"
    assert rational_str(True) == "1/1"


def test_parse_rational_matches_fraction_on_seeded_strings():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.choice([rng.randint(-50, 50), rng.randint(-(2**100), 2**100), 2**64 + rng.randint(0, 9)])
        d = rng.choice([1, rng.randint(1, 50), rng.randint(1, 2**90)])
        s = "%d/%d" % (n, d)
        assert parse_rational(s) == Fraction(s)
        assert exact_scalar(parse_rational(s))


@pytest.mark.parametrize(
    "s",
    ["²/3", "٣/4", "1/٣", " 1/2", "1/2 ", "1/2\n", "1/02", "+1/2", "-0/1", "1/0", "0/0",
     "-1/-2", "1_0/3", "1.5", "3", "-3", "", "/", "1/", "/2", "0x1/2", "1e3/2", 3, F(1, 3)],
)
def test_parse_rational_same_value_or_same_error(s):
    assert parse_or_error(s) == oracle_parse(s)


def test_parse_rational_error_text_is_kept():
    with pytest.raises(FormatError) as exc:
        parse_rational("²/3")
    assert str(exc.value) == "bad rational '²/3': Invalid literal for Fraction: '²/3'"


def test_matrix_rows_must_be_lists():
    # rows written as JSON objects were read by their keys, string rows by
    # their characters; a complex with the first boundary below is acyclic
    for rows in ([{"0": "3", "1": "4"}, {"0": "2", "1": "9"}], ["34", "29"], {"0": ["3", "4"]}, "34"):
        with pytest.raises(FormatError, match="^a matrix must be a list of rows, each a list of rationals$"):
            formats.matrix_from_json(rows, (2, 2), "boundary", 1)
        data = {"kind": "complex", "dims": {"0": 2, "1": 2}, "boundary": {"1": rows}}
        with pytest.raises(FormatError):
            formats.complex_from_json(data)
    assert formats.matrix_from_json([["3", "4"], ["0", "9/1"]], (2, 2), "boundary", 1) == [{0: 3, 1: 4}, {1: 9}]


def test_ragged_matrix_rows_are_rejected():
    # a short row was read as zero-padded, a long one failed with an IndexError
    for row, length in ((["0"], 1), (["0", "1", "5"], 3)):
        data = {"kind": "complex", "dims": {"0": 2, "1": 2}, "boundary": {"1": [["1", "0"], row]}}
        message = "^invalid complex: boundary in degree 1 has row 1 of length %d, expected 2$" % length
        with pytest.raises(FormatError, match=message):
            formats.complex_from_json(data)
        x = {"kind": "complex", "dims": {"0": 2}, "boundary": {}}
        data = {"kind": "chain_map", "source": x, "target": x, "mats": {"0": [["1", "0"], row]}}
        with pytest.raises(FormatError, match=message.replace("complex", "chain map").replace("boundary in degree 1", "map in degree 0")):
            formats.chain_map_from_json(data)


# every loader site that reads a matrix: (golden input, the per-degree matrix
# objects of the site in that file, the prefix and the name of its shape errors)
MATRIX_SITES = {
    "complex-boundary": ("frac.json", lambda d: [d["boundary"]], "invalid complex: ", "boundary"),
    "chain_map-mats": ("frac_map.json", lambda d: [d["mats"]], "invalid chain map: ", "map"),
    "family_map-maps": ("ident_x.json", lambda d: list(d["maps"].values()), "", "map"),
    "structure-assignment": ("stx.json", lambda d: [a["mats"] for a in d["assignment"].values()], "", "map"),
    "bimodule-action": ("perm_a.json", lambda d: [a["mats"] for c in d["components"] for a in c["out_actions"]], "", "map"),
    "operad-action": ("ass.json", lambda d: [a["mats"] for c in d["components"] for a in c["in_actions"]], "", "map"),
    "operad-gamma": ("ass.json", lambda d: [g["mats"] for g in d["gamma"]], "", "map"),
    "operad_algebra-value": ("alg.json", lambda d: [v["mats"] for e in d["values"] for v in e["values"]], "", "map"),
}


@pytest.mark.parametrize("site", sorted(MATRIX_SITES))
def test_matrices_are_shape_checked_at_every_loader_site(site):
    """A matrix that is not a list of lists, is mis-shaped or has a ragged row
    fails with one message, the same at every site; a zero matrix on zero
    spaces is checked too, and the empty list is the (0, c) matrix."""
    name, matrices, prefix, what = MATRIX_SITES[site]
    with open(os.path.join(INPUTS, name), encoding="utf-8") as handle:
        text = handle.read()
    # a matrix of at least two rows and one column, by its position in the file
    found = [
        (i, n, m)
        for i, mats in enumerate(matrices(json.loads(text)))
        for n, m in sorted(mats.items())
        if len(m) >= 2 and m[0]
    ]
    assert found, site
    i, n, m = found[0]
    r, c = len(m), len(m[0])
    bad = "%s%s in degree %s " % (prefix, what, n)
    not_rows = "a matrix must be a list of rows, each a list of rationals"
    cases = [
        ([{"0": x[0]} for x in m], not_rows),
        (["34"] * r, not_rows),
        ([m[0], m[1][:-1]] + m[2:], bad + "has row 1 of length %d, expected %d" % (c - 1, c)),
        ([m[0], m[1] + ["0/1"]] + m[2:], bad + "has row 1 of length %d, expected %d" % (c + 1, c)),
        (m[:-1], bad + "has shape (%d, %d), expected (%d, %d)" % (r - 1, c, r, c)),
        ([m[0] + ["0/1"]] + m[1:], bad + "has shape (%d, %d), expected (%d, %d)" % (r, c + 1, r, c)),
    ]
    for value, message in cases:
        data = json.loads(text)
        matrices(data)[i][n] = value
        with pytest.raises(INPUT_ERRORS) as raised:
            load_golden(name, data)
        assert str(raised.value) == message, site
    # degree 9 has no space on either side in these files
    data = json.loads(text)
    matrices(data)[i]["9"] = [["0/1"]]
    with pytest.raises(INPUT_ERRORS) as raised:
        load_golden(name, data)
    assert str(raised.value) == "%s%s in degree 9 has shape (1, 1), expected (0, 0)" % (prefix, what)
    matrices(data)[i]["9"] = []
    assert dumps(to_json_golden(load_golden(name, data))) == text


def oracle_rows(m):
    """The {column: entry} rows of a file's dense matrix of "p/q" strings, an
    entry an int when integral and a Fraction when not, read with Fraction
    alone."""
    rows = []
    for row in m:
        entries = {}
        for j, x in enumerate(row):
            q = Fraction(x)
            if q:
                entries[j] = q.numerator if q.denominator == 1 else q
        rows.append(entries)
    return rows


def _typed(rows):
    return [sorted((j, type(x).__name__, x) for j, x in row.items()) for row in rows]


def _matrices_against_the_file(payload, data):
    """Compare every matrix of payload, an encoder's output for a loaded
    object, with the matrix at the same place in data, the file's JSON; the
    number of matrices compared."""
    if isinstance(payload, formats.MatrixRows):
        assert _typed(payload.rows) == _typed(oracle_rows(data))
        assert all(len(row) == payload.n_cols for row in data)
        return 1
    if isinstance(payload, dict):
        assert sorted(payload) == sorted(data)
        return sum(_matrices_against_the_file(payload[k], data[k]) for k in payload)
    if isinstance(payload, (list, tuple)):
        assert len(payload) == len(data)
        return sum(_matrices_against_the_file(x, y) for x, y in zip(payload, data))
    return 0


def to_json_golden(obj):
    return formats.operad_algebra_to_json(obj) if isinstance(obj, OperadAlgebra) else to_json(obj)


def test_loaded_matrices_are_the_rows_of_the_file():
    """Every complex and map loaded from a golden input holds exactly the
    rows oracle_rows reads from the file's matrices, and writes the file's
    bytes back."""
    names = sorted(
        n for n in os.listdir(INPUTS) if n.endswith(".json") and n not in NOT_CANONICAL | NOT_LOADABLE
    )
    compared = {}
    for name in names:
        with open(os.path.join(INPUTS, name), encoding="utf-8") as handle:
            text = handle.read()
        data = json.loads(text)
        payload = to_json_golden(load_golden(name, data))
        compared[data["kind"]] = compared.get(data["kind"], 0) + _matrices_against_the_file(payload, data)
        assert dumps(payload) == text, name
    kinds = {"complex", "chain_map", "family_map", "structure", "bimodule", "operad", "operad_algebra"}
    assert all(compared[k] for k in kinds), compared


def test_a_repeated_key_is_one_format_error(tmp_path):
    """A JSON object that gives a key twice, at any depth, is rejected with
    the file and the key; json.load alone keeps the last value."""
    texts = {
        "dims.json": '{"kind": "complex", "dims": {"0": 1, "0": 2}, "boundary": {}}',
        "kind.json": '{"kind": "complex", "kind": "complex", "dims": {}}',
        "rows.json": '{"kind": "complex", "dims": {"0": 1, "1": 1}, "boundary": {"1": [["1/1"]], "1": [["2/1"]]}}',
        "nested.json": '[{"a": {"b": 1}}, {"c": {"d": 1, "e": {"f": 2, "f": 3}}}]',
    }
    keys = {"dims.json": "0", "kind.json": "kind", "rows.json": "1", "nested.json": "f"}
    ws = Workspace(str(tmp_path))
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as raised:
            ws.read_json(name)
        assert str(raised.value) == "%s: a JSON object repeats key %r" % (tmp_path / name, keys[name])
    # the same objects without the repeat read as json.load reads them
    (tmp_path / "ok.json").write_text('{"a": {"b": [1, {"c": 2}]}, "d": {}}', encoding="utf-8")
    assert ws.read_json("ok.json") == {"a": {"b": [1, {"c": 2}]}, "d": {}}


# -- fail-closed loaders --------------------------------------------------------

# (golden input, path to a field, the value put there, the one error line);
# each entry ended in a traceback or was misread before the loaders checked
# the JSON type of every field
MALFORMED = [
    # a traceback inside signature_from_json's own except handler
    ("sig.json", ["generators"], "x", "signature: field 'generators' must be a list of objects, found a string"),
    # dim-free ended in sorted() over names of mixed types
    ("sig.json", ["generators", 0, "name"], 7, "signature generator: field 'name' must be a string, found an integer"),
    # read as the profile ['c']
    ("sig.json", ["generators", 0, "out"], "c", "signature generator: field 'out' must be a list of strings, found a string"),
    # read as degrees 0 and 1
    ("sig.json", ["generators", 1, "degree"], 0.5, "signature generator: field 'degree' must be an integer, found a float"),
    ("sig.json", ["generators", 1, "degree"], True, "signature generator: field 'degree' must be an integer, found a boolean"),
    # read as three colors
    ("sig.json", ["palette", "colors"], "abc", "palette: field 'colors' must be a list of strings, found a string"),
    # a TypeError in load_json's kind lookup
    ("q.json", ["kind"], ["complex"], "unknown kind ['complex']"),
    # read as 2
    ("x.json", ["dims", "0"], 2.5, "complex: field 'dims' must be an object of integers by degree, found a float"),
    # read as degrees 1 and 10
    ("x.json", ["dims", " 1"], 1, "complex: field 'dims' has key ' 1', which is not a degree"),
    ("x.json", ["boundary", "1_0"], [], "complex: field 'boundary' has key '1_0', which is not a degree"),
    ("frac_map.json", ["degree"], "0", "chain_map: field 'degree' must be an integer, found a string"),
    ("fam.json", ["complexes"], [], "family: field 'complexes' must be an object, found a list"),
    ("proj.json", ["maps"], "x", "family_map: field 'maps' must be an object, found a string"),
    ("pres.json", ["differential"], [], "presentation: field 'differential' must be an object, found a list"),
    ("st.json", ["assignment"], [], "structure: field 'assignment' must be an object, found a list"),
    # a second action keyed by the strings "2", "1" was ignored
    ("sign_a.json", ["components", 1, "out_actions", 1], {"perm": ["2", "1"], "mats": {}},
     "bimodule action: field 'perm' must be a list of integers, found a string"),
    # read as 2
    ("op.json", ["max_arity"], "2", "operad: field 'max_arity' must be an integer, found a string"),
    ("op.json", ["max_arity"], 2.9, "operad: field 'max_arity' must be an integer, found a float"),
    # a block beyond the inputs was dropped by zip
    ("op.json", ["gamma", 0, "blocks", 1], ["x"],
     "operad gamma: field 'blocks' must hold one list of color strings per input"),
    ("alg.json", ["values"], "x", "operad_algebra: field 'values' must be a list of objects, found a string"),
]


def load_golden(name, data):
    if data.get("kind") == "operad_algebra":
        return formats.operad_algebra_from_json(data, Workspace(INPUTS).resolve("ass"))
    return formats.load_json(data)


@pytest.mark.parametrize("name, path, value, message", MALFORMED, ids=[m[3] for m in MALFORMED])
def test_malformed_field_is_one_format_error(name, path, value, message):
    with open(os.path.join(INPUTS, name), encoding="utf-8") as handle:
        data = json.load(handle)
    load_golden(name, data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if path[-1] == len(parent):
        parent.append(value)
    else:
        parent[path[-1]] = value
    with pytest.raises(FormatError) as raised:
        load_golden(name, data)
    assert str(raised.value) == message


def test_an_action_listed_twice_is_one_format_error():
    """A perm listed twice in an action list is rejected, whether the copies
    differ or not: read into a {perm: map} dict, the first copy was dropped
    unread, so 7 times the identity put before perm_a's swap loaded as ok."""
    with open(os.path.join(INPUTS, "perm_a.json"), encoding="utf-8") as handle:
        perm_a = json.load(handle)
    component = perm_a["components"][0]
    seven = {"perm": [2, 1], "mats": {"0": [["7/1", "0/1"], ["0/1", "7/1"]]}}
    data = json.loads(json.dumps(perm_a))
    data["components"][0]["out_actions"].insert(0, seven)
    with pytest.raises(FormatError, match=r"^bimodule component: field 'out_actions' lists perm \[2, 1\] twice$"):
        formats.bimodule_from_json(data)
    data = json.loads(json.dumps(perm_a))
    data["components"][0]["in_actions"].append(component["in_actions"][0])
    with pytest.raises(FormatError, match=r"^bimodule component: field 'in_actions' lists perm \[2, 1\] twice$"):
        formats.bimodule_from_json(data)
    with open(os.path.join(INPUTS, "ass.json"), encoding="utf-8") as handle:
        ass = json.load(handle)
    actions = ass["components"][2]["in_actions"]
    actions.append(actions[0])
    with pytest.raises(FormatError, match=r"^operad component: field 'in_actions' lists perm \[1, 3, 2\] twice$"):
        formats.operad_from_json(ass)


def test_structure_over_a_family_of_another_palette_is_rejected():
    # the assignment was read against the family's tensor spaces first, and
    # the KeyError there was reported as "invalid assignment for 'iota': 'c'"
    with open(os.path.join(INPUTS, "st.json"), encoding="utf-8") as handle:
        data = json.load(handle)
    data["family"]["palette"]["colors"] = ["d"]
    data["family"]["complexes"]["d"] = data["family"]["complexes"].pop("c")
    with pytest.raises(FormatError, match="^structure: presentation and family use different palettes$"):
        formats.load_json(data)


# a seeded mutation fuzz of the golden inputs: every run of the CLI on a
# mutated file ends in exit 0, 1 or 2, with at most one error line
FUZZ_VALUES = [None, 0, -1, 7, "x", "1/0", "-3", "0/1", "", [], {}, [[]], [1, 2], {"a": 1}, 2.5, True, 1000000]


def _mutate(data, rng):
    """Delete a key or a list item, duplicate a list item, or put a value of
    FUZZ_VALUES somewhere in data."""
    slots, stack = [], [data]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            keys = list(node)
        elif isinstance(node, list):
            keys = range(len(node))
        else:
            continue
        for k in keys:
            slots.append((node, k))
            stack.append(node[k])
    if not slots:
        return
    parent, key = rng.choice(slots)
    op = rng.randrange(3)
    if op == 0:
        del parent[key]
    elif op == 1 and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    else:
        parent[key] = json.loads(json.dumps(rng.choice(FUZZ_VALUES)))


def _large_dims(data):
    """Whether data sets a dimension over 1000 somewhere."""
    if isinstance(data, dict):
        dims = data.get("dims")
        if isinstance(dims, dict) and any(type(d) is int and d > 1000 for d in dims.values()):
            return True
        data = list(data.values())
    return isinstance(data, list) and any(_large_dims(x) for x in data)


def _too_large(data):
    """Whether data is a valid file with a dimension over 1000: a problem too
    large to run here (path-object of a complex of dimension 10^6 writes 10^12
    entries), not a malformed file."""
    if not _large_dims(data):
        return False
    try:
        formats.load_json(data)
    except INPUT_ERRORS:
        return False
    return True


def test_cli_on_mutated_golden_inputs_never_raises(tmp_path, monkeypatch):
    with open(CASES, encoding="utf-8") as handle:
        cases = json.load(handle)
    work = tmp_path / "inputs"
    shutil.copytree(INPUTS, work)
    trials = []
    for case in cases:
        files = [a for a in case["argv"] if a.endswith(".json") and a not in NOT_CANONICAL and (work / a).is_file()]
        trials += [(case["argv"], name) for name in files]
    monkeypatch.chdir(work)
    rng = random.Random(21)
    ran = 0
    while ran < 300:
        argv, name = rng.choice(trials)
        original = (work / name).read_text(encoding="utf-8")
        data = json.loads(original)
        for _ in range(rng.randint(1, 2)):
            _mutate(data, rng)
        if _too_large(data):
            continue
        ran += 1
        (work / name).write_text(json.dumps(data), encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            code = run(argv)
        (work / name).write_text(original, encoding="utf-8")
        lines = out.getvalue().splitlines()
        assert code in (0, 1, 2), (argv, data)
        assert sum(line.startswith("error:") for line in lines) <= 1, (argv, data)


# -- properties -----------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=8) | st.floats()
json_trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.lists(st.text(max_size=4), max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_dumps_equals_json_dumps(obj):
    assert dumps(obj) == oracle(obj)


@settings(max_examples=300, deadline=None)
@given(st.fractions() | st.integers())
def test_parse_rational_inverts_rational_str(x):
    assert parse_rational(rational_str(x)) == x


@settings(max_examples=300, deadline=None)
@given(st.integers(), st.integers(min_value=1))
def test_parse_rational_of_plain_strings_is_fraction(n, d):
    s = "%d/%d" % (n, d)
    assert parse_rational(s) == Fraction(s)
