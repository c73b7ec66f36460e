"""Self-describing JSON interchange format.

Every serializable object carries a `kind` field.  Rationals are strings
"p/q" in lowest terms with positive denominator; keys are emitted in sorted
order with two-space indentation, so loading and re-serializing a canonical
file is byte-identical.  The *_to_json encoders hand each matrix to the
emitter as its {column: entry} rows (MatrixRows), and dumps writes the dense
rows of "p/q" strings from them; json.dumps does not take such a document.

Loaders read every field through the readers _field, _list_of, _degree and
_matrices, which check its exact JSON type: an integer is a JSON integer,
never a boolean, a float or a numeric string, and a profile or a palette is
a list of color strings.  A missing or mistyped field raises one FormatError
that names the file kind and the field, and a JSON object that repeats a key
raises one that names the file and the key.  Values of the right type go to
the domain constructors, whose own errors (ChainError, BimoduleError, ...)
are input errors as well.  Matrix entries and differential coefficients are
read by parse_rational.

A file writes each matrix dense.  Every one that is read, for a complex or
a map of any kind, goes through matrix_from_json, which checks it against
the shape its complex or map expects and returns its rows (see chains).
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from propcalc.algebras import AlgebraStructure
from propcalc.bimodules import BimoduleComponent, ColoredBimodule
from propcalc.chains import ChainComplex, ChainError, ChainMap
from propcalc.endo import ColoredFamily, EndoElement, FamilyMap
from propcalc.exprs import PropPresentation, parse
from propcalc.graphs import Generator, PropGraph, Signature
from propcalc.linalg import ZERO, exact, quotient
from propcalc.operads import ColoredOperad, OperadAlgebra, color_key, merge_in_keys, profile_key
from propcalc.profiles import Palette, Profile, canonicalize_profile


class FormatError(ValueError):
    """Input error: malformed file or violated invariant, with a description."""


# -- typed field readers -------------------------------------------------------

_REQUIRED = object()

# the JSON name of each type json.load returns
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               float: "a float", bool: "a boolean", type(None): "null"}


def _mistyped(where, key, expected, value):
    return FormatError(
        "%s: field %r must be %s, found %s" % (where, key, expected, _JSON_TYPES[type(value)])
    )


def _expect_kind(data, kind):
    if not isinstance(data, dict):
        raise FormatError("expected an object with kind=%r" % kind)
    if data.get("kind") != kind:
        raise FormatError("expected kind=%r, found %r" % (kind, data.get("kind")))


def _field(obj, key, typ, where, default=_REQUIRED):
    """obj[key], of JSON type typ exactly (any type when typ is None); default
    when key is absent, if one is given.  where names the file kind, and the
    record within it."""
    if key not in obj:
        if default is _REQUIRED:
            raise FormatError("%s: missing field %r" % (where, key))
        return default
    value = obj[key]
    if typ is not None and type(value) is not typ:
        raise _mistyped(where, key, _JSON_TYPES[typ], value)
    return value


def _list_of(obj, key, item, where, default=_REQUIRED):
    """obj[key], a list whose items are all of JSON type item."""
    value = _field(obj, key, None, where, default)
    if value is default:
        return value
    if type(value) is not list:
        raise _mistyped(where, key, "a list of %ss" % _JSON_TYPES[item].split()[1], value)
    for x in value:
        if type(x) is not item:
            raise _mistyped(where, key, "a list of %ss" % _JSON_TYPES[item].split()[1], x)
    return value


def _degree(n, key, where):
    """A key of the per-degree object at field key, as an int: the key must be
    an int written as str() writes it ("0", "12", "-1")."""
    try:
        d = int(n)
    except ValueError:
        d = None
    if d is None or str(d) != n:
        raise FormatError("%s: field %r has key %r, which is not a degree" % (where, key, n))
    return d


def _matrices(obj, key, where, shape, name="map"):
    """obj[key], rational matrices by degree, as {degree: rows}; {} when key
    is absent.  shape(n) is the (rows, columns) of the degree-n matrix, and
    name names the matrices in a shape error (see matrix_from_json)."""
    out = {}
    for n, m in _field(obj, key, dict, where, {}).items():
        n = _degree(n, key, where)
        out[n] = matrix_from_json(m, shape(n), name, n)
    return out


def _map(obj, key, where, source, target, degree=0, check=True):
    """The degree-`degree` map from source to target whose matrices are obj[key]."""
    mats = _matrices(obj, key, where, lambda j: (target.dim(j + degree), source.dim(j)))
    return ChainMap(source, target, mats, degree, check)


def rational_str(x) -> str:
    if not isinstance(x, (int, Fraction)):  # an int is its own numerator
        x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


# "p/q" in ASCII digits with no leading zero in q: int() reads both parts as
# Fraction(str) would; every other string takes the Fraction(str) path
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)")


def parse_rational(s):  # an exact scalar (see linalg)
    try:
        m = _PLAIN_RATIONAL.fullmatch(s) if type(s) is str else None
        if m:
            return quotient(int(m[1]), int(m[2]))
        return exact(Fraction(str(s)))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError("bad rational %r: %s" % (s, exc))


# Most entries of the matrices propcalc reads and writes are zero.  A matrix
# reaches the emitter as its rows: matrix_to_json wraps the {column: entry}
# rows of a map or a complex, shared and not copied, and dumps writes them as
# dense rows of "p/q" strings, formatting only the entries the rows hold.
# matrix_from_json skips "0/1" without parsing it.
class MatrixRows:
    """A rational matrix for dumps: its {column: entry} rows and its column
    count.  Not a tuple or a list, so that json.dumps raises on it instead of
    writing [rows, n_cols]."""

    __slots__ = ("rows", "n_cols")

    def __init__(self, rows, n_cols):
        self.rows = rows
        self.n_cols = n_cols

    def __eq__(self, other):
        if not isinstance(other, MatrixRows):
            return NotImplemented
        return self.n_cols == other.n_cols and self.rows == other.rows


def matrix_to_json(rows, n_cols):
    return MatrixRows(rows, n_cols)


def mats_to_json(f: ChainMap):
    """The matrices of a map, per degree where it is nonzero."""
    return {str(j): matrix_to_json(rows, f.source.dim(j)) for j, rows in sorted(f.rows.items())}


def matrix_from_json(m, shape, name, degree):
    """The {column: entry} rows of m, a dense matrix of rationals that must
    have shape (rows, columns), read row by row; name and degree name it in
    a ChainError for a wrong shape (the empty list has every shape (0, c)) or
    a ragged row.  A zero matrix is checked like any other."""
    if type(m) is not list or not all(type(row) is list for row in m):
        raise FormatError("a matrix must be a list of rows, each a list of rationals")
    n_cols = shape[1]
    found = (len(m), len(m[0]) if m else n_cols)
    if found != shape:
        raise ChainError("%s in degree %d has shape %r, expected %r" % (name, degree, found, shape))
    rows = []
    for i, row in enumerate(m):
        if len(row) != n_cols:
            raise ChainError(
                "%s in degree %d has row %d of length %d, expected %d" % (name, degree, i, len(row), n_cols)
            )
        entries = {j: parse_rational(x) for j, x in enumerate(row) if x != "0/1"}
        if ZERO in entries.values():  # a zero written other than "0/1"
            entries = {j: x for j, x in entries.items() if x}
        rows.append(entries)
    return rows


# dumps writes a MatrixRows row by row, each row in texts of at most _ROW_PIECE
# entries: with short entries such as "0/1" a text stays within Python's
# small-object allocator (512 bytes).  Whole rows of a wide matrix, all held
# until the final join, would grow the C heap by about the size of the
# document, and how much of that the process gives back then depends on what
# it allocated before.  A run of 1 to _ROW_PIECE zeros is one shared text per
# indentation depth, built once per dumps call and appended wherever it
# recurs.
_ROW_PIECE = 16


def dumps(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2) plus a newline,
    where a MatrixRows is written as its list of dense rows."""
    out = []
    _emit(obj, out, "\n", {})
    out.append("\n")
    return "".join(out)


def _emit(obj, out, newline, zero_runs):
    """Append the canonical JSON of obj to out; newline starts obj's own lines.

    The isinstance tests run in json's order (bool before int, a tuple is a
    list).  Anything else, dicts with a non-str key included, goes to json
    itself, indented to its depth: a JSON string never holds a raw newline.
    zero_runs maps the newline of a matrix's rows to its zero texts (see
    _emit_matrix).
    """
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif type(obj) is MatrixRows:
        _emit_matrix(obj, out, newline, zero_runs)
    elif isinstance(obj, (list, tuple)) and not obj:
        out.append("[]")
    elif isinstance(obj, dict) and not obj:
        out.append("{}")
    elif isinstance(obj, (list, tuple)):
        inner = newline + "  "
        sep = "," + inner
        out.append("[")
        for i, x in enumerate(obj):
            out.append(sep if i else inner)
            _emit(x, out, inner, zero_runs)
        out.append(newline + "]")
    elif isinstance(obj, dict) and set(map(type, obj)) == {str}:
        inner = newline + "  "
        sep = "," + inner
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            out.append((sep if i else inner) + encode_basestring_ascii(k) + ": ")
            _emit(obj[k], out, inner, zero_runs)
        out.append(newline + "}")
    else:
        out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline))


def _emit_matrix(m, out, newline, zero_runs):
    """Append m as json writes its dense rows of "p/q" strings.

    A row's entries go out in column order, each text led by its separator:
    a run of k zeros is the shared text zeros[k] (1 <= k <= _ROW_PIECE), and
    only a nonzero entry goes through rational_str.  The first text of a row
    then has its comma replaced by the row's opening.
    """
    if not m.rows or not m.n_cols:  # no entries: [] or a list of []
        _emit([[]] * len(m.rows), out, newline, zero_runs)
        return
    inner = newline + "  "
    sep = "," + inner + "  "
    zeros = zero_runs.get(inner)
    if zeros is None:
        zeros = zero_runs[inner] = [(sep + '"0/1"') * k for k in range(_ROW_PIECE + 1)]
    full, quote, n_cols = zeros[_ROW_PIECE], sep + '"', m.n_cols
    append = out.append
    first, later = "[" + inner + "[", "," + inner + "["
    for i, row in enumerate(m.rows):
        start, col = len(out), 0
        for j in sorted(row) + [n_cols]:  # n_cols closes the last run of zeros
            gap = j - col
            while gap > _ROW_PIECE:
                append(full)
                gap -= _ROW_PIECE
            if gap:
                append(zeros[gap])
            if j < n_cols:
                append(quote + rational_str(row[j]) + '"')
            col = j + 1
        out[start] = (later if i else first) + out[start][1:]
        append(inner + "]")
    append(newline + "]")


# -- per-kind encoders ---------------------------------------------------------


def palette_to_json(p: Palette):
    return {"kind": "palette", "colors": list(p.colors)}


def palette_from_json(data):
    _expect_kind(data, "palette")
    return Palette(_list_of(data, "colors", str, "palette"))


def signature_to_json(sig: Signature):
    return {
        "kind": "signature",
        "palette": palette_to_json(sig.palette),
        "generators": [
            {
                "name": g.name,
                "out": list(g.out_profile.entries),
                "in": list(g.in_profile.entries),
                "degree": g.degree,
            }
            for _, g in sorted(sig.generators.items())
        ],
    }


def signature_from_json(data):
    _expect_kind(data, "signature")
    palette = palette_from_json(_field(data, "palette", dict, "signature"))
    gens = [
        Generator(
            _field(g, "name", str, "signature generator"),
            Profile(palette, _list_of(g, "out", str, "signature generator")),
            Profile(palette, _list_of(g, "in", str, "signature generator")),
            _field(g, "degree", int, "signature generator", 0),
        )
        for g in _list_of(data, "generators", dict, "signature")
    ]
    return Signature(palette, gens)


def complex_to_json(x: ChainComplex):
    return {
        "kind": "complex",
        "dims": {str(n): d for n, d in sorted(x.dims.items())},
        "boundary": {
            str(n): matrix_to_json(rows, x.dim(n)) for n, rows in sorted(x.boundary.items())
        },
    }


def complex_from_json(data):
    _expect_kind(data, "complex")
    dims = {}
    for n, d in _field(data, "dims", dict, "complex", {}).items():
        if type(d) is not int:
            raise _mistyped("complex", "dims", "an object of integers by degree", d)
        dims[_degree(n, "dims", "complex")] = d
    try:
        x = ChainComplex(dims)  # its dimensions checked, and the boundary's shapes read off
        boundary = _matrices(data, "boundary", "complex", lambda n: (x.dim(n - 1), x.dim(n)), "boundary")
        return ChainComplex(x.dims, boundary) if boundary else x
    except ChainError as exc:
        raise FormatError("invalid complex: %s" % exc)


def chain_map_to_json(f: ChainMap):
    return {
        "kind": "chain_map",
        "source": complex_to_json(f.source),
        "target": complex_to_json(f.target),
        "degree": f.degree,
        "mats": mats_to_json(f),
    }


def chain_map_from_json(data):
    _expect_kind(data, "chain_map")
    src = complex_from_json(_field(data, "source", dict, "chain_map"))
    tgt = complex_from_json(_field(data, "target", dict, "chain_map"))
    degree = _field(data, "degree", int, "chain_map", 0)
    try:
        return _map(data, "mats", "chain_map", src, tgt, degree)
    except ChainError as exc:
        raise FormatError("invalid chain map: %s" % exc)


def family_to_json(fam: ColoredFamily):
    return {
        "kind": "family",
        "palette": palette_to_json(fam.palette),
        "complexes": {c: complex_to_json(x) for c, x in sorted(fam.complexes.items())},
    }


def family_from_json(data, families=None):
    """The family of `data`.  families maps the JSON text of each family
    loaded so far to its ColoredFamily (a Workspace keeps one), and equal text
    loads as that one object, with its tensor space and shuffle caches; a
    family that fails to load is not kept, so it fails the same way each time."""
    _expect_kind(data, "family")
    families = {} if families is None else families
    key = json.dumps(data)
    if key not in families:
        palette = palette_from_json(_field(data, "palette", dict, "family"))
        complexes = _field(data, "complexes", dict, "family", {})
        families[key] = ColoredFamily(palette, {c: complex_from_json(x) for c, x in complexes.items()})
    return families[key]


def family_map_to_json(f: FamilyMap):
    return {
        "kind": "family_map",
        "source": family_to_json(f.source),
        "target": family_to_json(f.target),
        "maps": {
            c: mats_to_json(f.maps[c])
            for c in sorted(f.maps)
        },
    }


def family_map_from_json(data, families=None):
    _expect_kind(data, "family_map")
    source = family_from_json(_field(data, "source", dict, "family_map"), families)
    target = family_from_json(_field(data, "target", dict, "family_map"), families)
    maps = _field(data, "maps", dict, "family_map", {})
    for c in maps:
        if c not in source.palette or c not in target.palette:
            raise FormatError("family_map: field 'maps' names color %r, not in both palettes" % c)
    return FamilyMap(
        source,
        target,
        {c: _map(maps, c, "family_map maps", source.complexes[c], target.complexes[c]) for c in maps},
    )


def presentation_to_json(p: PropPresentation):
    return {
        "kind": "presentation",
        "signature": signature_to_json(p.signature),
        "differential": {
            name: [{"coeff": rational_str(c), "expr": str(e)} for c, e in terms]
            for name, terms in sorted(p.differential.items())
        },
        "relations": [[str(a), str(b)] for a, b in p.relations],
    }


def presentation_from_json(data):
    _expect_kind(data, "presentation")
    sig = signature_from_json(_field(data, "signature", dict, "presentation"))
    terms = _field(data, "differential", dict, "presentation", {})
    differential = {
        name: [
            (
                parse_rational(_field(t, "coeff", None, "presentation term")),
                parse(_field(t, "expr", str, "presentation term"), sig),
            )
            for t in _list_of(terms, name, dict, "presentation differential")
        ]
        for name in terms
    }
    relations = []
    for pair in _list_of(data, "relations", list, "presentation", ()):
        if list(map(type, pair)) != [str, str]:
            raise FormatError("presentation: field 'relations' must hold pairs of expression strings")
        relations.append((parse(pair[0], sig), parse(pair[1], sig)))
    return PropPresentation(sig, differential, relations)


def _element_to_json(el: EndoElement):
    return {"degree": el.degree, "mats": mats_to_json(el.chain)}


def _element(spec, where, family, out_profile, in_profile, degree):
    """The endo element at (out_profile, in_profile) whose matrices are spec["mats"]."""
    src, tgt = family.space(in_profile).complex, family.space(out_profile).complex
    return EndoElement(family, out_profile, in_profile, _map(spec, "mats", where, src, tgt, degree, check=False))


def structure_to_json(s: AlgebraStructure):
    return {
        "kind": "structure",
        "presentation": presentation_to_json(s.presentation),
        "family": family_to_json(s.family),
        "assignment": {name: _element_to_json(el) for name, el in sorted(s.assignment.items())},
    }


def structure_from_json(data, families=None):
    _expect_kind(data, "structure")
    pres = presentation_from_json(_field(data, "presentation", dict, "structure"))
    fam = family_from_json(_field(data, "family", dict, "structure"), families)
    if fam.palette != pres.signature.palette:
        raise FormatError("structure: presentation and family use different palettes")
    specs = _field(data, "assignment", dict, "structure", {})
    assignment = {}
    for name in specs:
        if name not in pres.signature:
            raise FormatError("assignment for unknown generator %r" % name)
        gen, spec = pres.signature[name], _field(specs, name, dict, "structure assignment")
        degree = _field(spec, "degree", int, "structure assignment", gen.degree)
        assignment[name] = _element(spec, "structure assignment", fam, gen.out_profile, gen.in_profile, degree)
    return AlgebraStructure(pres, fam, assignment)


def bimodule_to_json(mod: ColoredBimodule):
    components = []
    for (kd, kc) in mod.support():
        comp = mod.components[(kd, kc)]
        components.append(
            {
                "out": list(kd.rep.entries),
                "in": list(kc.rep.entries),
                "carrier": complex_to_json(comp.carrier),
                "out_actions": _actions_to_json(comp.out_gens),
                "in_actions": _actions_to_json(comp.in_gens),
            }
        )
    return {
        "kind": "bimodule",
        "palette": palette_to_json(mod.palette),
        "components": components,
    }


def _actions_to_json(gens):
    return [{"perm": list(images), "mats": mats_to_json(cm)} for images, cm in sorted(gens.items())]


def _actions(entry, key, carrier, kind):
    """The generator actions [{"perm": ..., "mats": ...}] at entry[key], as
    {one-line images: map of the carrier}; a perm listed twice is an error."""
    actions = {}
    for act in _list_of(entry, key, dict, kind + " component", ()):
        perm = tuple(_list_of(act, "perm", int, kind + " action"))
        if perm in actions:
            raise FormatError(
                "%s component: field %r lists perm %r twice" % (kind, key, list(perm))
            )
        actions[perm] = _map(act, "mats", kind + " action", carrier, carrier, check=False)
    return actions


def bimodule_from_json(data):
    _expect_kind(data, "bimodule")
    palette = palette_from_json(_field(data, "palette", dict, "bimodule"))
    components = {}
    for entry in _list_of(data, "components", dict, "bimodule", ()):
        out_prof = Profile(palette, _list_of(entry, "out", str, "bimodule component"))
        in_prof = Profile(palette, _list_of(entry, "in", str, "bimodule component"))
        kd, _ = canonicalize_profile(out_prof)
        kc, _ = canonicalize_profile(in_prof)
        if kd.rep != out_prof or kc.rep != in_prof:
            raise FormatError(
                "component profiles must be sorted representatives: %r / %r"
                % (entry["out"], entry["in"])
            )
        if (kd, kc) in components:
            raise FormatError(
                "bimodule: field 'components' lists out %r, in %r twice" % (entry["out"], entry["in"])
            )
        carrier = complex_from_json(_field(entry, "carrier", dict, "bimodule component"))
        comp = BimoduleComponent(
            kd,
            kc,
            carrier,
            _actions(entry, "out_actions", carrier, "bimodule"),
            _actions(entry, "in_actions", carrier, "bimodule"),
        )
        failures = comp.validate()
        if failures:
            raise FormatError(
                "component at %r/%r violates: %s"
                % (entry["out"], entry["in"], "; ".join(failures))
            )
        components[(kd, kc)] = comp
    return ColoredBimodule(palette, components)


def graph_to_json(g: PropGraph):
    return {
        "kind": "graph",
        "vertices": list(g.vertices),
        "edges": sorted([[list(e[0]), list(e[1])] for e in g.edges]),
        "in_legs": sorted([[v, q, label] for (v, q), label in g.in_legs.items()]),
        "out_legs": sorted([[v, p, label] for (v, p), label in g.out_legs.items()]),
    }


def operad_to_json(op: ColoredOperad):
    components = []
    for (d, k) in op.support():
        comp = op.components[(d, k)]
        components.append(
            {
                "out_color": d,
                "in": list(k.rep.entries),
                "carrier": complex_to_json(comp.carrier),
                "in_actions": _actions_to_json(comp.in_gens),
            }
        )
    gamma = []
    for (d, in_key, b_keys) in sorted(op.gamma, key=repr):
        gm = op.gamma[(d, in_key, b_keys)]
        gamma.append(
            {
                "out_color": d,
                "in": list(in_key.rep.entries),
                "blocks": [list(k.rep.entries) for k in b_keys],
                "mats": mats_to_json(gm),
            }
        )
    return {
        "kind": "operad",
        "palette": palette_to_json(op.palette),
        "max_arity": op.max_arity,
        "components": components,
        "gamma": gamma,
    }


def operad_from_json(data):
    _expect_kind(data, "operad")
    palette = palette_from_json(_field(data, "palette", dict, "operad"))
    components = {}
    for entry in _list_of(data, "components", dict, "operad", ()):
        d = _field(entry, "out_color", str, "operad component")
        in_key = profile_key(palette, _list_of(entry, "in", str, "operad component"))
        if list(in_key.rep.entries) != entry["in"]:
            raise FormatError("operad component inputs must be sorted: %r" % entry["in"])
        if (d, in_key) in components:
            raise FormatError(
                "operad: field 'components' lists out_color %r, in %r twice" % (d, entry["in"])
            )
        carrier = complex_from_json(_field(entry, "carrier", dict, "operad component"))
        components[(d, in_key)] = BimoduleComponent(
            color_key(palette, d), in_key, carrier, {}, _actions(entry, "in_actions", carrier, "operad")
        )
    operad = ColoredOperad(palette, _field(data, "max_arity", int, "operad"), components, {})
    for entry in _list_of(data, "gamma", dict, "operad", ()):
        d = _field(entry, "out_color", str, "operad gamma")
        in_key = profile_key(palette, _list_of(entry, "in", str, "operad gamma"))
        blocks = _list_of(entry, "blocks", list, "operad gamma")
        if len(blocks) != in_key.length or any(type(c) is not str for blk in blocks for c in blk):
            raise FormatError("operad gamma: field 'blocks' must hold one list of color strings per input")
        b_keys = tuple(profile_key(palette, blk) for blk in blocks)
        if (d, in_key, b_keys) in operad.gamma:
            raise FormatError(
                "operad: field 'gamma' lists out_color %r, in %r, blocks %r twice"
                % (d, entry["in"], blocks)
            )
        comp = operad.component(d, in_key)
        if comp is None:
            raise FormatError("gamma references a missing component")
        if any(operad.component(c, bk) is None for c, bk in zip(in_key.rep.entries, b_keys)):
            raise FormatError("gamma references a missing input component")
        target = operad.component(d, merge_in_keys(palette, b_keys))
        if target is None:
            raise FormatError("gamma targets a missing component")
        src = operad.space(d, in_key, b_keys).complex
        operad.gamma[(d, in_key, b_keys)] = _map(entry, "mats", "operad gamma", src, target.carrier, check=False)
    return operad


def operad_algebra_to_json(alg):
    values = []
    for (d, in_key) in sorted(alg.values, key=repr):
        values.append(
            {
                "out_color": d,
                "in": list(in_key.rep.entries),
                "values": [_element_to_json(el) for el in alg.values[(d, in_key)]],
            }
        )
    return {
        "kind": "operad_algebra",
        "family": family_to_json(alg.family),
        "values": values,
    }


def operad_algebra_from_json(data, operad, families=None):
    _expect_kind(data, "operad_algebra")
    family = family_from_json(_field(data, "family", dict, "operad_algebra"), families)
    values = {}
    for entry in _list_of(data, "values", dict, "operad_algebra", ()):
        d = _field(entry, "out_color", str, "operad_algebra value")
        in_key = profile_key(family.palette, _list_of(entry, "in", str, "operad_algebra value"))
        if (d, in_key) in values:
            raise FormatError(
                "operad_algebra: field 'values' lists out_color %r, in %r twice" % (d, entry["in"])
            )
        out_profile, where = Profile(family.palette, [d]), "operad_algebra value"
        values[(d, in_key)] = [
            _element(v, where, family, out_profile, in_key.rep, _field(v, "degree", int, where, 0))
            for v in _list_of(entry, "values", dict, where)
        ]
    return OperadAlgebra(operad, family, values)


# -- dispatch -------------------------------------------------------------------


class _Kind(NamedTuple):
    """A file kind: the class it loads as, its dumper, and its loader (None
    for a kind that is only written), which takes the families argument when
    families is set."""

    cls: type
    dump: object
    load: object = None
    families: bool = False


_KINDS = {
    "palette": _Kind(Palette, palette_to_json, palette_from_json),
    "signature": _Kind(Signature, signature_to_json, signature_from_json),
    "complex": _Kind(ChainComplex, complex_to_json, complex_from_json),
    "chain_map": _Kind(ChainMap, chain_map_to_json, chain_map_from_json),
    "family": _Kind(ColoredFamily, family_to_json, family_from_json, True),
    "family_map": _Kind(FamilyMap, family_map_to_json, family_map_from_json, True),
    "presentation": _Kind(PropPresentation, presentation_to_json, presentation_from_json),
    "structure": _Kind(AlgebraStructure, structure_to_json, structure_from_json, True),
    "bimodule": _Kind(ColoredBimodule, bimodule_to_json, bimodule_from_json),
    "operad": _Kind(ColoredOperad, operad_to_json, operad_from_json),
    "graph": _Kind(PropGraph, graph_to_json),
}


def load_json(data, families=None):
    """The object of `data`; families is passed to the loaders that read a
    family (see family_from_json)."""
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError("missing 'kind' field")
    kind = _KINDS.get(data["kind"]) if type(data["kind"]) is str else None
    if kind is None or kind.load is None:
        raise FormatError("unknown kind %r" % (data["kind"],))
    return kind.load(data, families) if kind.families else kind.load(data)


def to_json(obj):
    for kind in _KINDS.values():
        if isinstance(obj, kind.cls):
            return kind.dump(obj)
    raise FormatError("cannot serialize %r" % type(obj))


class _RepeatedKey(Exception):
    """A key that a JSON object of a file gives twice."""


def _unique_keys(pairs):
    """The object of json's (key, value) pairs; _RepeatedKey when a key repeats."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        raise _RepeatedKey(next(key for i, key in enumerate(keys) if key in keys[:i]))
    return obj


class Workspace:
    """Named bindings loaded from a directory of JSON files.

    References resolve by name (without the .json suffix); every load is
    validated.  Files are read lazily, and each name is loaded once.  Equal
    families, wherever they appear, load as one ColoredFamily (`families`,
    keyed by the family's JSON text), so a structure and a family map over
    one family share its tensor spaces.  A Workspace lives for one CLI run,
    and these caches with it.
    """

    def __init__(self, directory=None):
        self.directory = directory
        self._cache = {}
        self.families = {}

    def read_json(self, name_or_path):
        """The decoded JSON of a file, named by path or by workspace name."""
        if os.path.exists(name_or_path):
            path = name_or_path
        elif self.directory is not None:
            candidate = os.path.join(self.directory, name_or_path)
            if os.path.exists(candidate):
                path = candidate
            elif os.path.exists(candidate + ".json"):
                path = candidate + ".json"
            else:
                raise FormatError("cannot resolve %r in workspace" % name_or_path)
        else:
            raise FormatError("no such file: %r" % name_or_path)
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle, object_pairs_hook=_unique_keys)
        except _RepeatedKey as exc:
            raise FormatError("%s: a JSON object repeats key %r" % (path, exc.args[0]))
        except json.JSONDecodeError as exc:
            raise FormatError(
                "%s: JSON parse error at line %d column %d: %s"
                % (path, exc.lineno, exc.colno, exc.msg)
            )
        except UnicodeDecodeError as exc:
            raise FormatError("%s: not UTF-8 text: %s" % (path, exc.reason))
        except (ValueError, RecursionError) as exc:  # an integer too long, or nesting too deep
            raise FormatError("%s: cannot decode JSON: %s" % (path, exc))
        except OSError as exc:
            raise FormatError("%s: cannot read: %s" % (path, exc.strerror or exc))

    def resolve(self, name_or_path):
        if name_or_path not in self._cache:
            self._cache[name_or_path] = load_json(self.read_json(name_or_path), self.families)
        return self._cache[name_or_path]

    def resolve_as(self, name_or_path, kind):
        """resolve, checking that the file holds an object of the given kind."""
        obj = self.resolve(name_or_path)
        if not isinstance(obj, _KINDS[kind].cls):
            raise FormatError("%s: expected kind=%r" % (name_or_path, kind))
        return obj
