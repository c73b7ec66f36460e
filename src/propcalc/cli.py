"""Command-line entry point.

Exit codes: 0 = success / checked-true, 1 = checked-false or unsolvable,
2 = input error (parse failure, violated invariant, bad reference).  All
output is deterministic: canonical JSON (sorted keys) or stable text lines.
"""

from __future__ import annotations

import argparse
import functools
import sys

from propcalc import formats
from propcalc.algebras import (
    AlgebraError,
    TransferError,
    check_algebra,
    check_morphism,
    factor_algebra,
    transfer,
)
from propcalc.bimodules import BimoduleError, box_h, box_v
from propcalc.chains import ChainError, ChainMap, classify_map, homology_dims, path_object
from propcalc.endo import EndoError, FamilyMap
from propcalc.exprs import (
    ParseError,
    PresentationError,
    PropPresentation,
    TypeMismatch,
    graphs_equal,
    parse,
    validate_presentation,
)
from propcalc.formats import FormatError, Workspace, dumps
from propcalc.graphs import GraphError, PropGraph, ResourceCapExceeded, free_component_dim
from propcalc.operads import (
    ColoredOperad,
    OperadError,
    algebra_round_trip,
    prop_from_operad,
)
from propcalc.profiles import PaletteError, Profile, ProfileError

INPUT_ERRORS = (
    FormatError,
    ParseError,
    TypeMismatch,
    GraphError,
    ProfileError,
    PaletteError,
    AlgebraError,
    OperadError,
    ResourceCapExceeded,
    PresentationError,
    ChainError,
    EndoError,
    BimoduleError,
)


@functools.cache
def build_parser():
    """The CLI's one parser, built on the first call and shared after it.

    parse_args leaves the parser as it found it: defaults go into a fresh
    namespace, and the terminal width is read only when usage or help is
    printed.  So run() reuses it, and a caller must not change it.
    """
    p = argparse.ArgumentParser(
        prog="propcalc",
        description="Exact computer algebra for colored PROPs over rational chain complexes.",
    )
    p.add_argument("--workspace", default=None, help="directory for resolving file names")
    p.add_argument("--max-vertices", type=int, default=4, help="vertex cap for graph search")
    p.add_argument("--report", choices=["json", "text"], default="text")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("check", help="validate any interchange file").add_argument("file")

    s = sub.add_parser(
        "normalize", help="canonical graph of an expression, up to the Koszul sign of its vertex order"
    )
    s.add_argument("signature")
    s.add_argument("expr")

    s = sub.add_parser("eq", help="equality in the free PROP")
    s.add_argument("signature")
    s.add_argument("expr1")
    s.add_argument("expr2")

    s = sub.add_parser("dim-free", help="free component dimension")
    s.add_argument("signature")
    s.add_argument("out_profile", help="comma-separated colors")
    s.add_argument("in_profile", help="comma-separated colors")
    s.add_argument(
        "vertex_cap",
        type=int,
        nargs="?",
        default=None,
        help="vertex cap; defaults to --max-vertices",
    )

    for name in ("box-v", "box-h"):
        s = sub.add_parser(name, help="monoidal product of bimodules")
        s.add_argument("left")
        s.add_argument("right")

    s = sub.add_parser("homology", help="homology dimensions of a complex")
    s.add_argument("complex")

    s = sub.add_parser("classify", help="model-structure flags of a map")
    s.add_argument("map")

    s = sub.add_parser("path-object", help="path object of a complex")
    s.add_argument("complex")

    s = sub.add_parser("algebra-check", help="verify an algebra structure")
    s.add_argument("structure")

    s = sub.add_parser("morphism-check", help="is f a morphism of algebras")
    s.add_argument("map")
    s.add_argument("source_structure")
    s.add_argument("target_structure")

    s = sub.add_parser("transfer", help="move a structure through a weak equivalence")
    s.add_argument("presentation")
    s.add_argument("map")
    s.add_argument(
        "direction", choices=["alongAcyclicFibration", "alongAcyclicCofibration"]
    )
    s.add_argument("structure")

    s = sub.add_parser("factor", help="equip the middle of a factorization")
    s.add_argument("map_g")
    s.add_argument("structure_a")
    s.add_argument("structure_c")
    s.add_argument("map_i")
    s.add_argument("map_p")
    s.add_argument("family_b")

    s = sub.add_parser("operad-to-prop", help="free PROP components of an operad")
    s.add_argument("operad")
    s.add_argument("truncation", type=int)

    s = sub.add_parser("round-trip", help="operad algebra round trip")
    s.add_argument("operad")
    s.add_argument("family")
    s.add_argument("algebra")
    return p


def emit(args, payload, text_lines):
    if args.report == "json":
        sys.stdout.write(dumps(payload))
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def emit_document(args, payload, text_doc):
    """Like emit, for a command whose text report is the JSON document text_doc."""
    sys.stdout.write(dumps(payload if args.report == "json" else text_doc))


def run(argv=None):
    args = build_parser().parse_args(argv)
    ws = Workspace(args.workspace)
    try:
        return _dispatch(args, ws)
    except TransferError as exc:
        emit(
            args,
            {"command": args.command, "ok": False, "error": str(exc), "unsolvable": True},
            ["UNSOLVABLE: %s" % exc],
        )
        return 1
    except INPUT_ERRORS as exc:
        emit(
            args,
            {"command": args.command, "ok": False, "error": str(exc)},
            ["error: %s" % exc],
        )
        return 2


def _dispatch(args, ws):
    cmd = args.command
    if cmd == "check":
        obj = ws.resolve(args.file)
        extra = []
        if isinstance(obj, PropPresentation):
            extra = validate_presentation(obj)
        elif isinstance(obj, ColoredOperad):
            extra = obj.validate()
        if extra:
            emit(
                args,
                {"command": cmd, "ok": False, "failures": extra},
                ["invalid: %s" % f for f in extra],
            )
            return 2
        emit(args, {"command": cmd, "ok": True}, ["ok"])
        return 0

    if cmd == "normalize":
        sig = ws.resolve_as(args.signature, "signature")
        e = parse(args.expr, sig)
        g = e.to_graph()
        cert, order = g.canonical()
        graph_json = formats.graph_to_json(_relabel(g, order))
        payload = {"command": cmd, "ok": True, "graph": graph_json}
        emit_document(args, payload, graph_json)
        return 0

    if cmd == "eq":
        sig = ws.resolve_as(args.signature, "signature")
        e1 = parse(args.expr1, sig)
        e2 = parse(args.expr2, sig)
        equal = graphs_equal(e1, e2)
        emit(
            args,
            {"command": cmd, "ok": True, "equal": equal},
            ["equal" if equal else "distinct"],
        )
        return 0 if equal else 1

    if cmd == "dim-free":
        sig = ws.resolve_as(args.signature, "signature")
        out_p = Profile(sig.palette, args.out_profile.split(","))
        in_p = Profile(sig.palette, args.in_profile.split(","))
        cap = args.vertex_cap if args.vertex_cap is not None else args.max_vertices
        dim = free_component_dim(sig, out_p, in_p, cap)
        emit(args, {"command": cmd, "ok": True, "dim": dim}, [str(dim)])
        return 0

    if cmd in ("box-v", "box-h"):
        left = ws.resolve_as(args.left, "bimodule")
        right = ws.resolve_as(args.right, "bimodule")
        product = box_v(left, right) if cmd == "box-v" else box_h(left, right)
        payload = formats.bimodule_to_json(product)
        emit_document(args, payload, payload)
        return 0

    if cmd == "homology":
        x = ws.resolve_as(args.complex, "complex")
        dims = homology_dims(x)
        payload = {"command": cmd, "ok": True, "homology": {str(k): v for k, v in sorted(dims.items())}}
        emit(args, payload, ["H_%d = %d" % (k, v) for k, v in sorted(dims.items())] or ["acyclic"])
        return 0

    if cmd == "classify":
        obj = ws.resolve(args.map)
        if isinstance(obj, ChainMap):
            flags = classify_map(obj)
            payload = {"command": cmd, "ok": True, "flags": flags}
            emit(args, payload, ["%s: %s" % (k, v) for k, v in sorted(flags.items())])
            return 0
        if isinstance(obj, FamilyMap):
            per_color = obj.classify()
            payload = {"command": cmd, "ok": True, "flags": per_color}
            lines = []
            for c in sorted(per_color):
                for k, v in sorted(per_color[c].items()):
                    lines.append("%s.%s: %s" % (c, k, v))
            emit(args, payload, lines)
            return 0
        raise FormatError("classify expects a chain_map or family_map file")

    if cmd == "path-object":
        x = ws.resolve_as(args.complex, "complex")
        p, s, d0, d1 = path_object(x)
        payload = {
            "command": cmd,
            "ok": True,
            "path": formats.complex_to_json(p),
            "s": formats.mats_to_json(s),
            "d0": formats.mats_to_json(d0),
            "d1": formats.mats_to_json(d1),
        }
        emit_document(args, payload, payload)
        return 0

    if cmd == "algebra-check":
        st = ws.resolve_as(args.structure, "structure")
        pres_failures = validate_presentation(st.presentation)
        report = check_algebra(st)
        ok = not pres_failures and not report
        payload = {
            "command": cmd,
            "ok": ok,
            "presentation_failures": pres_failures,
            "failures": [
                {"kind": k, "at": str(n)} for k, n, _ in report
            ],
        }
        lines = ["pass"] if ok else (
            ["presentation: %s" % f for f in pres_failures]
            + ["%s failure at %s" % (k, n) for k, n, _ in report]
        )
        emit(args, payload, lines)
        return 0 if ok else 1

    if cmd == "morphism-check":
        f = ws.resolve_as(args.map, "family_map")
        sx = ws.resolve_as(args.source_structure, "structure")
        sy = ws.resolve_as(args.target_structure, "structure")
        ok, failures = check_morphism(f, sx, sy)
        payload = {
            "command": cmd,
            "ok": ok,
            "failures": [str(name) for name, _ in failures],
        }
        emit(args, payload, ["morphism" if ok else "not a morphism (first failure: %s)" % (failures[0][0] if failures else "?")])
        return 0 if ok else 1

    if cmd == "transfer":
        pres = ws.resolve_as(args.presentation, "presentation")
        f = ws.resolve_as(args.map, "family_map")
        src = ws.resolve_as(args.structure, "structure")
        result, report = transfer(pres, f, args.direction, src)
        payload = formats.structure_to_json(result)
        payload["report"] = {
            "direction": report["direction"],
            "morphism_ok": report["morphism_ok"],
            "notes": report["notes"],
            "relation_failures": [
                str(n) for k, n, _ in report["algebra_failures"] if k == "relation"
            ],
        }
        emit_document(args, payload, payload)
        return 0

    if cmd == "factor":
        g = ws.resolve_as(args.map_g, "family_map")
        sa = ws.resolve_as(args.structure_a, "structure")
        sc = ws.resolve_as(args.structure_c, "structure")
        i = ws.resolve_as(args.map_i, "family_map")
        p = ws.resolve_as(args.map_p, "family_map")
        b = ws.resolve_as(args.family_b, "family")
        result, report = factor_algebra(g, sa, sc, b, i, p)
        payload = formats.structure_to_json(result)
        payload["report"] = {
            "i_morphism_ok": report["i_morphism_ok"],
            "p_morphism_ok": report["p_morphism_ok"],
        }
        emit_document(args, payload, payload)
        return 0

    if cmd == "operad-to-prop":
        operad = ws.resolve_as(args.operad, "operad")
        opp = prop_from_operad(operad, args.truncation, args.truncation)
        components = []
        for (out_key, in_key) in opp.support():
            comp = opp.opp_component(out_key, in_key)
            components.append(
                {
                    "out": list(out_key.rep.entries),
                    "in": list(in_key.rep.entries),
                    "dims": {str(n): comp.carrier.dim(n) for n in comp.carrier.degrees()},
                    "summands": [
                        {
                            "blocks": [list(k.rep.entries) for k in tup],
                            "dims": {str(n): sub.carrier.dim(n) for n in sub.carrier.degrees()},
                        }
                        for tup, sub in comp.layout.pieces
                    ],
                }
            )
        payload = {"command": cmd, "ok": True, "kind": "prop_components", "components": components}
        emit_document(args, payload, payload)
        return 0

    if cmd == "round-trip":
        operad = ws.resolve_as(args.operad, "operad")
        family = ws.resolve_as(args.family, "family")
        alg = formats.operad_algebra_from_json(ws.read_json(args.algebra), operad, ws.families)
        if alg.family.palette != family.palette or any(
            alg.family.complexes[c].dims != family.complexes[c].dims
            for c in family.palette.colors
        ):
            raise FormatError("algebra family does not match the given family")
        report = algebra_round_trip(operad, alg)
        ok = not report
        payload = {
            "command": cmd,
            "ok": ok,
            "failures": [{"kind": k, "at": repr(n)} for k, n, _ in report],
        }
        emit(args, payload, ["round trip exact"] if ok else ["failure: %s at %s" % (k, n) for k, n, _ in report])
        return 0 if ok else 1

    raise FormatError("unknown command %r" % cmd)


def _relabel(g, order):
    """g with its vertices listed in `order`; a renumbering keeps a valid graph valid."""
    pos = {old: new for new, old in enumerate(order)}
    return PropGraph(
        g.signature,
        [g.vertices[old] for old in order],
        {((pos[u], p), (pos[v], q)) for (u, p), (v, q) in g.edges},
        {(pos[v], q): l for (v, q), l in g.in_legs.items()},
        {(pos[v], p): l for (v, p), l in g.out_legs.items()},
        check=False,
    )


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
