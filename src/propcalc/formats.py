"""Self-describing JSON interchange format.

Every serializable object carries a `kind` field.  Rationals are strings
"p/q" in lowest terms with positive denominator; keys are emitted in sorted
order with two-space indentation, so loading and re-serializing a canonical
file is byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction

from propcalc.algebras import AlgebraStructure
from propcalc.bimodules import BimoduleComponent, ColoredBimodule
from propcalc.chains import ChainComplex, ChainMap
from propcalc.endo import ColoredFamily, EndoElement, FamilyMap
from propcalc.exprs import PropPresentation, parse
from propcalc.graphs import Generator, PropGraph, Signature
from propcalc.operads import ColoredOperad, merge_in_keys, profile_key
from propcalc.profiles import (
    OrbitKey,
    Palette,
    Permutation,
    Profile,
    canonicalize_profile,
    stabilizer_generators,
)


class FormatError(ValueError):
    """Input error: malformed file or violated invariant, with a description."""


def rational_str(x) -> str:
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


def parse_rational(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError("bad rational %r: %s" % (s, exc))


def matrix_to_json(m):
    return [[rational_str(x) for x in row] for row in m]


def matrix_from_json(rows):
    return [[parse_rational(x) for x in row] for row in rows]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- per-kind encoders ---------------------------------------------------------


def palette_to_json(p: Palette):
    return {"kind": "palette", "colors": list(p.colors)}


def palette_from_json(data):
    _expect_kind(data, "palette")
    try:
        return Palette(data["colors"])
    except Exception as exc:
        raise FormatError("invalid palette: %s" % exc)


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
    palette = palette_from_json(data["palette"])
    gens = []
    for g in data["generators"]:
        try:
            gens.append(
                Generator(
                    g["name"],
                    Profile(palette, g["out"]),
                    Profile(palette, g["in"]),
                    g.get("degree", 0),
                )
            )
        except Exception as exc:
            raise FormatError("invalid generator %r: %s" % (g.get("name"), exc))
    try:
        return Signature(palette, gens)
    except Exception as exc:
        raise FormatError("invalid signature: %s" % exc)


def complex_to_json(x: ChainComplex):
    return {
        "kind": "complex",
        "dims": {str(n): d for n, d in sorted(x.dims.items())},
        "boundary": {str(n): matrix_to_json(m) for n, m in sorted(x.boundary.items())},
    }


def complex_from_json(data):
    _expect_kind(data, "complex")
    try:
        dims = {int(k): int(v) for k, v in data.get("dims", {}).items()}
        boundary = {int(k): matrix_from_json(v) for k, v in data.get("boundary", {}).items()}
        return ChainComplex(dims, boundary)
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError("invalid complex: %s" % exc)


def chain_map_to_json(f: ChainMap):
    return {
        "kind": "chain_map",
        "source": complex_to_json(f.source),
        "target": complex_to_json(f.target),
        "degree": f.degree,
        "mats": {str(j): matrix_to_json(m) for j, m in sorted(f.mats.items())},
    }


def chain_map_from_json(data):
    _expect_kind(data, "chain_map")
    src = complex_from_json(data["source"])
    tgt = complex_from_json(data["target"])
    try:
        return ChainMap(
            src,
            tgt,
            {int(j): matrix_from_json(m) for j, m in data.get("mats", {}).items()},
            data.get("degree", 0),
        )
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError("invalid chain map: %s" % exc)


def family_to_json(fam: ColoredFamily):
    return {
        "kind": "family",
        "palette": palette_to_json(fam.palette),
        "complexes": {c: complex_to_json(x) for c, x in sorted(fam.complexes.items())},
    }


def family_from_json(data):
    _expect_kind(data, "family")
    palette = palette_from_json(data["palette"])
    complexes = {c: complex_from_json(x) for c, x in data.get("complexes", {}).items()}
    try:
        return ColoredFamily(palette, complexes)
    except Exception as exc:
        raise FormatError("invalid family: %s" % exc)


def family_map_to_json(f: FamilyMap):
    return {
        "kind": "family_map",
        "source": family_to_json(f.source),
        "target": family_to_json(f.target),
        "maps": {
            c: {str(j): matrix_to_json(m) for j, m in sorted(f.maps[c].mats.items())}
            for c in sorted(f.maps)
        },
    }


def family_map_from_json(data):
    _expect_kind(data, "family_map")
    source = family_from_json(data["source"])
    target = family_from_json(data["target"])
    maps = {}
    for c, mats in data.get("maps", {}).items():
        try:
            maps[c] = ChainMap(
                source.complexes[c],
                target.complexes[c],
                {int(j): matrix_from_json(m) for j, m in mats.items()},
            )
        except FormatError:
            raise
        except Exception as exc:
            raise FormatError("invalid family map at color %r: %s" % (c, exc))
    try:
        return FamilyMap(source, target, maps)
    except Exception as exc:
        raise FormatError("invalid family map: %s" % exc)


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
    sig = signature_from_json(data["signature"])
    differential = {}
    for name, terms in data.get("differential", {}).items():
        parsed = []
        for t in terms:
            try:
                parsed.append((parse_rational(t["coeff"]), parse(t["expr"], sig)))
            except FormatError:
                raise
            except Exception as exc:
                raise FormatError("invalid differential term for %r: %s" % (name, exc))
        differential[name] = parsed
    relations = []
    for pair in data.get("relations", []):
        try:
            relations.append((parse(pair[0], sig), parse(pair[1], sig)))
        except Exception as exc:
            raise FormatError("invalid relation %r: %s" % (pair, exc))
    return PropPresentation(sig, differential, relations)


def structure_to_json(s: AlgebraStructure):
    return {
        "kind": "structure",
        "presentation": presentation_to_json(s.presentation),
        "family": family_to_json(s.family),
        "assignment": {
            name: {
                "degree": el.degree,
                "mats": {str(j): matrix_to_json(m) for j, m in sorted(el.chain.mats.items())},
            }
            for name, el in sorted(s.assignment.items())
        },
    }


def structure_from_json(data):
    _expect_kind(data, "structure")
    pres = presentation_from_json(data["presentation"])
    fam = family_from_json(data["family"])
    assignment = {}
    for name, spec in data.get("assignment", {}).items():
        if name not in pres.signature:
            raise FormatError("assignment for unknown generator %r" % name)
        gen = pres.signature[name]
        try:
            assignment[name] = EndoElement.from_mats(
                fam,
                gen.out_profile,
                gen.in_profile,
                spec.get("degree", gen.degree),
                {int(j): matrix_from_json(m) for j, m in spec.get("mats", {}).items()},
            )
        except FormatError:
            raise
        except Exception as exc:
            raise FormatError("invalid assignment for %r: %s" % (name, exc))
    try:
        return AlgebraStructure(pres, fam, assignment)
    except Exception as exc:
        raise FormatError("invalid structure: %s" % exc)


def bimodule_to_json(mod: ColoredBimodule):
    components = []
    for (kd, kc) in mod.support():
        comp = mod.components[(kd, kc)]
        components.append(
            {
                "out": list(kd.rep.entries),
                "in": list(kc.rep.entries),
                "carrier": complex_to_json(comp.carrier),
                "out_actions": [
                    {
                        "perm": list(images),
                        "mats": {str(j): matrix_to_json(m) for j, m in sorted(cm.mats.items())},
                    }
                    for images, cm in sorted(comp.out_gens.items())
                ],
                "in_actions": [
                    {
                        "perm": list(images),
                        "mats": {str(j): matrix_to_json(m) for j, m in sorted(cm.mats.items())},
                    }
                    for images, cm in sorted(comp.in_gens.items())
                ],
            }
        )
    return {
        "kind": "bimodule",
        "palette": palette_to_json(mod.palette),
        "components": components,
    }


def bimodule_from_json(data, validate_actions=True):
    _expect_kind(data, "bimodule")
    palette = palette_from_json(data["palette"])
    components = {}
    for entry in data.get("components", []):
        try:
            out_prof = Profile(palette, entry["out"])
            in_prof = Profile(palette, entry["in"])
        except Exception as exc:
            raise FormatError("invalid component profiles: %s" % exc)
        kd, td = canonicalize_profile(out_prof)
        kc, tc = canonicalize_profile(in_prof)
        if kd.rep != out_prof or kc.rep != in_prof:
            raise FormatError(
                "component profiles must be sorted representatives: %r / %r"
                % (entry["out"], entry["in"])
            )
        carrier = complex_from_json(entry["carrier"])
        out_gens = {}
        for act in entry.get("out_actions", []):
            out_gens[tuple(act["perm"])] = ChainMap(
                carrier,
                carrier,
                {int(j): matrix_from_json(m) for j, m in act.get("mats", {}).items()},
                check=False,
            )
        in_gens = {}
        for act in entry.get("in_actions", []):
            in_gens[tuple(act["perm"])] = ChainMap(
                carrier,
                carrier,
                {int(j): matrix_from_json(m) for j, m in act.get("mats", {}).items()},
                check=False,
            )
        try:
            comp = BimoduleComponent(kd, kc, carrier, out_gens, in_gens)
        except Exception as exc:
            raise FormatError("invalid component: %s" % exc)
        if validate_actions:
            failures = comp.validate()
            if failures:
                raise FormatError(
                    "component at %r/%r violates: %s"
                    % (entry["out"], entry["in"], "; ".join(failures))
                )
        components[(kd, kc)] = comp
    try:
        return ColoredBimodule(palette, components)
    except Exception as exc:
        raise FormatError("invalid bimodule: %s" % exc)


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
                "in_actions": [
                    {
                        "perm": list(images),
                        "mats": {str(j): matrix_to_json(m) for j, m in sorted(cm.mats.items())},
                    }
                    for images, cm in sorted(comp.in_gens.items())
                ],
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
                "mats": {str(j): matrix_to_json(m) for j, m in sorted(gm.mats.items())},
            }
        )
    return {
        "kind": "operad",
        "palette": palette_to_json(op.palette),
        "max_arity": op.max_arity,
        "components": components,
        "gamma": gamma,
    }


def operad_from_json(data, validate=False):
    _expect_kind(data, "operad")
    palette = palette_from_json(data["palette"])
    max_arity = int(data["max_arity"])
    components = {}
    for entry in data.get("components", []):
        d = entry["out_color"]
        if d not in palette:
            raise FormatError("unknown output color %r" % d)
        in_key = profile_key(palette, entry["in"])
        if list(in_key.rep.entries) != list(entry["in"]):
            raise FormatError("operad component inputs must be sorted: %r" % entry["in"])
        carrier = complex_from_json(entry["carrier"])
        in_gens = {}
        for act in entry.get("in_actions", []):
            in_gens[tuple(act["perm"])] = ChainMap(
                carrier,
                carrier,
                {int(j): matrix_from_json(m) for j, m in act.get("mats", {}).items()},
                check=False,
            )
        from propcalc.operads import color_key

        try:
            components[(d, in_key)] = BimoduleComponent(
                color_key(palette, d), in_key, carrier, {}, in_gens
            )
        except Exception as exc:
            raise FormatError("invalid operad component: %s" % exc)
    operad = ColoredOperad(palette, max_arity, components, {})
    for entry in data.get("gamma", []):
        d = entry["out_color"]
        in_key = profile_key(palette, entry["in"])
        b_keys = tuple(profile_key(palette, blk) for blk in entry["blocks"])
        comp = operad.component(d, in_key)
        if comp is None:
            raise FormatError("gamma references a missing component")
        src_factors = [comp.carrier]
        for c, bk in zip(in_key.rep.entries, b_keys):
            qc = operad.component(c, bk)
            if qc is None:
                raise FormatError("gamma references a missing input component")
            src_factors.append(qc.carrier)
        from propcalc.chains import TensorSpace

        merged = merge_in_keys(palette, b_keys)
        target = operad.component(d, merged)
        if target is None:
            raise FormatError("gamma targets a missing component")
        operad.gamma[(d, in_key, b_keys)] = ChainMap(
            TensorSpace(src_factors).complex,
            target.carrier,
            {int(j): matrix_from_json(m) for j, m in entry.get("mats", {}).items()},
            check=False,
        )
    if validate:
        failures = operad.validate()
        if failures:
            raise FormatError("operad violates: %s" % "; ".join(failures))
    return operad


def operad_algebra_to_json(alg):
    values = []
    for (d, in_key) in sorted(alg.values, key=repr):
        values.append(
            {
                "out_color": d,
                "in": list(in_key.rep.entries),
                "values": [
                    {
                        "degree": el.degree,
                        "mats": {
                            str(j): matrix_to_json(m) for j, m in sorted(el.chain.mats.items())
                        },
                    }
                    for el in alg.values[(d, in_key)]
                ],
            }
        )
    return {
        "kind": "operad_algebra",
        "family": family_to_json(alg.family),
        "values": values,
    }


def operad_algebra_from_json(data, operad):
    _expect_kind(data, "operad_algebra")
    from propcalc.operads import OperadAlgebra

    family = family_from_json(data["family"])
    values = {}
    for entry in data.get("values", []):
        d = entry["out_color"]
        in_key = profile_key(family.palette, entry["in"])
        comp = operad.component(d, in_key)
        if comp is None:
            raise FormatError("algebra value for a missing component %r" % (entry["in"],))
        vals = []
        for v in entry["values"]:
            vals.append(
                EndoElement.from_mats(
                    family,
                    Profile(family.palette, [d]),
                    in_key.rep,
                    v.get("degree", 0),
                    {int(j): matrix_from_json(m) for j, m in v.get("mats", {}).items()},
                )
            )
        expected = sum(comp.carrier.dim(k) for k in comp.carrier.degrees())
        if len(vals) != expected:
            raise FormatError(
                "algebra at %r needs %d basis values, got %d"
                % ((d, entry["in"]), expected, len(vals))
            )
        values[(d, in_key)] = vals
    return OperadAlgebra(operad, family, values)


# -- dispatch -------------------------------------------------------------------

_LOADERS = {
    "palette": palette_from_json,
    "signature": signature_from_json,
    "complex": complex_from_json,
    "chain_map": chain_map_from_json,
    "family": family_from_json,
    "family_map": family_map_from_json,
    "presentation": presentation_from_json,
    "structure": structure_from_json,
    "bimodule": bimodule_from_json,
    "operad": operad_from_json,
}

# the class of the object each kind loads as
_CLASSES = {
    "palette": Palette,
    "signature": Signature,
    "complex": ChainComplex,
    "chain_map": ChainMap,
    "family": ColoredFamily,
    "family_map": FamilyMap,
    "presentation": PropPresentation,
    "structure": AlgebraStructure,
    "bimodule": ColoredBimodule,
    "operad": ColoredOperad,
}

_DUMPERS = {
    Palette: palette_to_json,
    Signature: signature_to_json,
    ChainComplex: complex_to_json,
    ChainMap: chain_map_to_json,
    ColoredFamily: family_to_json,
    FamilyMap: family_map_to_json,
    PropPresentation: presentation_to_json,
    AlgebraStructure: structure_to_json,
    ColoredBimodule: bimodule_to_json,
    ColoredOperad: operad_to_json,
    PropGraph: graph_to_json,
}


def _expect_kind(data, kind):
    if not isinstance(data, dict):
        raise FormatError("expected an object with kind=%r" % kind)
    if data.get("kind") != kind:
        raise FormatError("expected kind=%r, found %r" % (kind, data.get("kind")))


def load_json(data):
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError("missing 'kind' field")
    kind = data["kind"]
    if kind not in _LOADERS:
        raise FormatError("unknown kind %r" % kind)
    return _LOADERS[kind](data)


def to_json(obj):
    for cls, dumper in _DUMPERS.items():
        if isinstance(obj, cls):
            return dumper(obj)
    raise FormatError("cannot serialize %r" % type(obj))


class Workspace:
    """Named bindings loaded from a directory of JSON files.

    References resolve by name (without the .json suffix); every load is
    validated.  Files are read lazily and cached.
    """

    def __init__(self, directory=None):
        self.directory = directory
        self._cache = {}

    def resolve(self, name_or_path):
        import os

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
        if path in self._cache:
            return self._cache[path]
        try:
            with open(path) as handle:
                data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(
                "%s: JSON parse error at line %d column %d: %s"
                % (path, exc.lineno, exc.colno, exc.msg)
            )
        obj = load_json(data)
        self._cache[path] = obj
        return obj

    def resolve_as(self, name_or_path, kind):
        """resolve, checking that the file holds an object of the given kind."""
        obj = self.resolve(name_or_path)
        if not isinstance(obj, _CLASSES[kind]):
            raise FormatError("%s: expected kind=%r" % (name_or_path, kind))
        return obj
