"""The four workloads: seeded input pools, the operations run on them, and
the oracle that checks each operation's result.

A pool is a list of groups; a group is a short list of operations that must
run in order (a transfer, then `algebra-check` and `morphism-check` on the
structure it printed).  The closed loop walks the seeded order of groups.
Each operation's oracle runs on its first execution; later executions must
reproduce the first one's stdout byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

import inputs
from propcalc.endo import FamilyMap
from propcalc.exprs import parse
from propcalc.formats import dumps, operad_algebra_to_json, to_json
from propcalc.operads import associative_operad, endomorphism_operad, tautological_endo_algebra, trivial_operad
from propcalc.profiles import Palette

class Op:
    """One operation: a CLI argv (or a library call) with its expected exit code.

    check(stdout) returns None or a reason for failure; after(stdout) writes
    the files later operations of the group read.  A `fixed` operation has
    the same input at every seed, so its recorded digest applies to all seeds.
    """

    __slots__ = ("id", "command", "argv", "call", "render", "code", "check", "after", "fixed")

    def __init__(self, id, command, argv=None, call=None, render=None, code=0, check=None, after=None, fixed=False):
        self.id = id
        self.command = command
        self.argv = argv
        self.call = call
        self.render = render
        self.code = code
        self.check = check
        self.after = after
        self.fixed = fixed


class Workspace:
    """The directory of generated JSON files the CLI resolves names against."""

    def __init__(self, directory):
        self.directory = directory

    def put(self, name, obj):
        with open(os.path.join(self.directory, name + ".json"), "w") as handle:
            handle.write(dumps(obj if isinstance(obj, dict) else to_json(obj)))
        return name

    def cli(self, *argv):
        return ["--workspace", self.directory] + list(argv)


def expect_text(text):
    return lambda out: None if out == text else "expected %r, got %r" % (text, out[:200])


def build(name, seed, ws):
    """The seeded pool of operation groups for one workload."""
    rng = random.Random("%s:%d" % (name, seed))
    groups = POOLS[name](rng, ws)
    rng.shuffle(groups)
    return groups


# -- transfer ----------------------------------------------------------------------
# Almost all work is in algebras -> endo -> chains (TensorSpace, LiftProblem.solve)
# -> linalg elimination on tall augmented systems.


def _feed_back(ws, out_name):
    """Check a transfer/factor report and write its structure for the next operations."""

    def check(out):
        report = json.loads(out)["report"]
        if not all(v for k, v in report.items() if k.endswith("morphism_ok")):
            return "result is not a morphism: %r" % report
        if report.get("relation_failures"):
            return "relation failures: %r" % report["relation_failures"]
        return None

    def after(out):
        payload = json.loads(out)
        payload.pop("report")
        ws.put(out_name, payload)

    return check, after


def _transfer_group(ws, tag, pres, st_y, fam_x, proj, incl):
    """Transfer both ways, factor the identity through X, and feed every result back."""
    names = {
        "pres": ws.put(tag + "_pres", pres),
        "st": ws.put(tag + "_st", st_y),
        "proj": ws.put(tag + "_proj", proj),
        "incl": ws.put(tag + "_incl", incl),
        "id": ws.put(tag + "_id", FamilyMap.identity(st_y.family)),
        "famx": ws.put(tag + "_famx", fam_x),
    }
    ops = []
    for direction, f in (("alongAcyclicFibration", "proj"), ("alongAcyclicCofibration", "incl")):
        out = "%s_%s_out" % (tag, f)
        check, after = _feed_back(ws, out)
        ops.append(
            Op(tag + "." + direction, "transfer",
               ws.cli("--report", "json", "transfer", names["pres"], names[f], direction, names["st"]),
               check=check, after=after)
        )
        ops.append(Op(tag + ".%s.algebra-check" % f, "algebra-check", ws.cli("algebra-check", out),
                      check=expect_text("pass\n")))
        pair = (out, names["st"]) if f == "proj" else (names["st"], out)
        ops.append(Op(tag + ".%s.morphism-check" % f, "morphism-check", ws.cli("morphism-check", names[f], *pair),
                      check=expect_text("morphism\n")))
    out = tag + "_factor_out"
    check, after = _feed_back(ws, out)
    ops.append(
        Op(tag + ".factor", "factor",
           ws.cli("--report", "json", "factor", names["id"], names["st"], names["st"], names["incl"], names["proj"],
                  names["famx"]),
           check=check, after=after)
    )
    ops.append(Op(tag + ".factor.algebra-check", "algebra-check", ws.cli("algebra-check", out),
                  check=expect_text("pass\n")))
    return ops


def transfer_pool(rng, ws):
    groups = []
    ha = inputs.homotopy_assoc_presentation()
    for k in range(4):
        fam_y = inputs.zero_differential_family(ha.signature.palette, {"c": {0: 1}})
        mu, unit = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-2, -1, 1, 2])
        st_y = inputs.scalar_assoc_structure(ha, fam_y, mu, unit)
        fam_x, proj, incl = inputs.extend_with_discs(fam_y, {"c": 1 + k % 2})
        groups.append(_transfer_group(ws, "ha%d" % k, ha, st_y, fam_x, proj, incl))
    h = inputs.interchange_presentation()
    for k, dims in enumerate([{0: 1, 1: 1}, {0: 1, 1: 1}, {0: 2, 1: 1}]):
        fam_y = inputs.zero_differential_family(h.signature.palette, {"c": dims})
        st_y = inputs.random_structure(rng, h, fam_y)
        fam_x, proj, incl = inputs.extend_with_discs(fam_y, {"c": 1})
        groups.append(_transfer_group(ws, "h%d" % k, h, st_y, fam_x, proj, incl))
    palette = Palette(["a", "b"])
    for k in range(6):
        # generator count, arities and dimensions follow k; colors and entries
        # follow the seed; both colors get the same complexes, so the random colors do not change the cost
        pres = inputs.random_free_presentation(rng, palette, [(1 + (j + k) % 2, 1 + (j + k + 1) % 2) for j in range(1 + k % 3)])
        dims = 1 + k % 2
        fam_y = inputs.zero_differential_family(palette, {c: {0: dims} for c in palette.colors})
        st_y = inputs.random_structure(rng, pres, fam_y)
        fam_x, proj, incl = inputs.extend_with_discs(fam_y, {c: 1 + (k // 2) % 2 for c in palette.colors})
        groups.append(_transfer_group(ws, "rf%d" % k, pres, st_y, fam_x, proj, incl))
    return groups


# -- words -------------------------------------------------------------------------
# Only exprs, graphs and profiles work here; nothing reaches linalg or chains.


def _graph_of_json(data):
    return (
        list(data["vertices"]),
        {((u, p), (v, q)) for (u, p), (v, q) in data["edges"]},
        {(v, q): label for v, q, label in data["in_legs"]},
        {(v, p): label for v, p, label in data["out_legs"]},
    )


def _graph_of_expr(text, sig):
    g = parse(text, sig).to_graph()
    return list(g.vertices), set(g.edges), dict(g.in_legs), dict(g.out_legs)


def same_graph(a, b):
    """Isomorphism of leg-labelled port graphs by propagation from the legs.

    Every connected part of a graph here has a leg, so the legs fix the
    whole vertex map; this shares no code with the canonical form.
    """
    va, ea, ina, outa = a
    vb, eb, inb, outb = b
    if len(va) != len(vb) or len(ea) != len(eb) or len(ina) != len(inb) or len(outa) != len(outb):
        return False
    mapping = {}
    todo = []

    def bind(x, y):
        if x in mapping:
            return mapping[x] == y
        mapping[x] = y
        todo.append(x)
        return True

    for legs_a, legs_b in ((ina, inb), (outa, outb)):
        by_label = {label: port for port, label in legs_b.items()}
        for (v, port), label in legs_a.items():
            other = by_label.get(label)
            if other is None or other[1] != port or not bind(v, other[0]):
                return False
    out_a = {src: dst for src, dst in ea}
    in_a = {dst: src for src, dst in ea}
    out_b = {src: dst for src, dst in eb}
    in_b = {dst: src for src, dst in eb}
    while todo:
        x = todo.pop()
        y = mapping[x]
        for (u, p), (v, q) in list(out_a.items()):
            if u == x:
                dst = out_b.get((y, p))
                if dst is None or dst[1] != q or not bind(v, dst[0]):
                    return False
        for (v, q), (u, p) in list(in_a.items()):
            if v == x:
                src = in_b.get((y, q))
                if src is None or src[1] != p or not bind(u, src[0]):
                    return False
    if len(mapping) != len(va) or len(set(mapping.values())) != len(va):
        return False
    return (
        all(va[x] == vb[y] for x, y in mapping.items())
        and {((mapping[u], p), (mapping[v], q)) for (u, p), (v, q) in ea} == eb
        and {(mapping[v], q): label for (v, q), label in ina.items()} == inb
        and {(mapping[v], p): label for (v, p), label in outa.items()} == outb
    )


def _words_group(ws, tag, sig, rng):
    sig_name = ws.put(tag + "_sig", sig)
    lhs, rhs = (str(e) for e in inputs.interchange_pair(sig, rng))
    first, second = (str(e) for e in inputs.relabelled_pair(sig, rng))
    equal = same_graph(_graph_of_expr(first, sig), _graph_of_expr(second, sig))
    normal = {}

    def normalize_check(text, other):
        def check(out):
            normal[text] = out
            if not same_graph(_graph_of_json(json.loads(out)), _graph_of_expr(text, sig)):
                return "normal form is not isomorphic to %s" % text
            if other in normal and normal[other] != out:
                return "interchange sides normalize differently"
            return None

        return check

    return [
        Op(tag + ".eq-interchange", "eq", ws.cli("eq", sig_name, lhs, rhs), check=expect_text("equal\n")),
        Op(tag + ".eq-relabelled", "eq", ws.cli("eq", sig_name, first, second), code=0 if equal else 1,
           check=expect_text("equal\n" if equal else "distinct\n")),
        Op(tag + ".normalize-lhs", "normalize", ws.cli("normalize", sig_name, lhs), check=normalize_check(lhs, rhs)),
        Op(tag + ".normalize-rhs", "normalize", ws.cli("normalize", sig_name, rhs), check=normalize_check(rhs, lhs)),
    ]


def binary_tree_count(n_out, n_in, cap):
    """Graphs of one binary generator with (n_out; n_in) legs: Catalan(n-1) n! trees."""
    if n_out != 1 or n_in < 2 or cap < n_in - 1:
        return 0
    return math.comb(2 * (n_in - 1), n_in - 1) // n_in * math.factorial(n_in)


DIM_FREE = [(1, 2, 2), (1, 3, 2), (1, 3, 3), (1, 4, 2), (1, 4, 3), (1, 4, 4), (2, 3, 3), (2, 3, 4)]


def words_pool(rng, ws):
    groups = []
    for k in range(24):
        groups.append(_words_group(ws, "w%d" % k, inputs.random_signature(rng), rng))
    color = rng.choice(["c", "x", "z"])
    sig = ws.put("binary", inputs.binary_signature(color, rng.choice(["mu", "m", "b"])))
    for k in range(3):
        for n_out, n_in, cap in DIM_FREE:
            expected = binary_tree_count(n_out, n_in, cap)
            groups.append([
                Op("dim-free.%d.%d.%d.%d" % (k, n_out, n_in, cap), "dim-free",
                   ws.cli("dim-free", sig, ",".join([color] * n_out), ",".join([color] * n_in), str(cap)),
                   check=expect_text("%d\n" % expected))
            ])
    return groups


# -- products ----------------------------------------------------------------------
# box-v uses linalg as a rowspace quotient over wide permutation-like relation
# matrices; box-h leans on profiles and placements and writes large outputs.


def _component(shapes, out_key, in_key, side):
    meta = {
        "side": side,
        "action": shapes.choice(inputs.ACTIONS),
        "base": shapes.randint(1, 2),
        "graded": shapes.random() < 0.3,
    }
    comp = inputs.rep_component(out_key, in_key, meta["side"], meta["action"], meta["base"], meta["graded"])
    return comp, meta


def _character(key, comp, meta, side):
    """Per-degree character of one side's Young-subgroup action, from how it was built."""
    elems = inputs.young_elements(key)
    dims = comp.carrier.dims
    if meta["side"] != side or meta["action"] == "trivial":
        return elems, [{n: d for n, d in dims.items()} for _ in elems]
    table = []
    for g in elems:
        if meta["action"] == "sign":
            inversions = sum(1 for i in range(len(g)) for j in range(i + 1, len(g)) if g[i] > g[j])
            value = -1 if inversions % 2 else 1
        elif meta["action"] == "perm":
            value = sum(1 for i, x in enumerate(g, start=1) if i == x)
        else:
            value = len(elems) if all(i == x for i, x in enumerate(g, start=1)) else 0
        table.append({n: value for n in dims})
    return elems, table


def _convolve(dims_a, dims_b, scale=1):
    out = {}
    for i, a in dims_a.items():
        for j, b in dims_b.items():
            out[i + j] = out.get(i + j, 0) + scale * a * b
    return out


def _output_dims(out):
    data = json.loads(out)
    return {
        (tuple(c["out"]), tuple(c["in"])): {int(n): d for n, d in c["carrier"]["dims"].items()}
        for c in data["components"]
    }


def _add_dims(expected, key, dims):
    bucket = expected.setdefault(key, {})
    for n, d in dims.items():
        bucket[n] = bucket.get(n, 0) + d


def _nonzero(expected):
    return {k: {n: d for n, d in v.items() if d} for k, v in expected.items() if any(v.values())}


def box_v_dims(left, right):
    """Coinvariant dimensions by character averaging: dim (X (x) Y)_G = avg chi_X chi_Y."""
    expected = {}
    for (kd, kb), (x, mx) in left.items():
        for (kb2, kc), (y, my) in right.items():
            if kb != kb2:
                continue
            elems, chi_x = _character(kb, x, mx, "in")
            _, chi_y = _character(kb, y, my, "out")
            total = {}
            for cx, cy in zip(chi_x, chi_y):
                for n, d in _convolve(cx, cy).items():
                    total[n] = total.get(n, 0) + d
            _add_dims(expected, (kd.rep.entries, kc.rep.entries), {n: d // len(elems) for n, d in total.items()})
    return _nonzero(expected)


def coset_count(keys):
    """Distinct factor labellings of the merged representative: brute force over
    the color-preserving permutations of its positions."""
    merged = sorted((c for k in keys for c in k.rep.entries), key=keys[0].rep.palette.order)
    base = []
    for color in sorted(set(merged), key=keys[0].rep.palette.order):
        for f, k in enumerate(keys):
            base += [f] * k.rep.entries.count(color)
    positions = {}
    for i, c in enumerate(merged):
        positions.setdefault(c, []).append(i)
    seen = set()
    for combo in itertools.product(*(itertools.permutations(p) for p in positions.values())):
        image = [None] * len(merged)
        for p, q in zip(positions.values(), combo):
            for src, dst in zip(p, q):
                image[dst] = base[src]
        seen.add(tuple(image))
    return tuple(merged), len(seen)


def box_h_dims(left, right):
    """Induced dimensions: [G:H] (brute-force coset count) times the tensor dimensions."""
    expected = {}
    for (kd1, kc1), (x, _) in left.items():
        for (kd2, kc2), (y, _) in right.items():
            out_rep, out_index = coset_count([kd1, kd2])
            in_rep, in_index = coset_count([kc1, kc2])
            _add_dims(expected, (out_rep, in_rep), _convolve(x.carrier.dims, y.carrier.dims, out_index * in_index))
    return _nonzero(expected)


def _dims_check(expected):
    def check(out):
        got = _output_dims(out)
        return None if got == expected else "dimensions %r, expected %r" % (got, expected)

    return check


MIDDLES = (("a", "a"), ("a", "a", "a"), ("a", "b"), ("a", "a", "b"))


def _swap(colors, swap):
    """The two colors play symmetric roles; the seed decides which is which."""
    return tuple({"a": "b", "b": "a"}[c] for c in colors) if swap else tuple(colors)


def _distinct_keys(shapes, palette, count, max_len, swap):
    """`count` distinct orbits in the order drawn, so a swap maps each to its mirror."""
    keys = []
    while len(keys) < count:
        colors = sorted(shapes.choice(palette.colors) for _ in range(shapes.randint(1, max_len)))
        if colors not in keys:
            keys.append(colors)
    return [inputs.orbit_key(palette, _swap(colors, swap)) for colors in keys]


def products_pool(rng, ws):
    """The shapes (orbits, actions, dimensions) come from a fixed stream, so
    every seed costs the same; the seed swaps the two colors of each product
    and orders the operations."""
    shapes = random.Random("products-shapes")
    palette = Palette(["a", "b"])
    groups = []
    for k in range(12):
        # three components on each side meet over one middle orbit, whose shape
        # cycles through MIDDLES; the actions sit on the middle sides
        swap = rng.random() < 0.5
        middle = inputs.orbit_key(palette, _swap(MIDDLES[k % len(MIDDLES)], swap))
        left = {}
        for out_key in _distinct_keys(shapes, palette, 3, 2, swap):
            left[(out_key, middle)] = _component(shapes, out_key, middle, "in")
        right = {}
        for in_key in _distinct_keys(shapes, palette, 3, 2, swap):
            right[(middle, in_key)] = _component(shapes, middle, in_key, "out")
        p = ws.put("v%d_p" % k, inputs.bimodule(palette, [c for c, _ in left.values()]))
        q = ws.put("v%d_q" % k, inputs.bimodule(palette, [c for c, _ in right.values()]))
        groups.append([Op("v%d.box-v" % k, "box-v", ws.cli("box-v", p, q), check=_dims_check(box_v_dims(left, right)))])
    for k in range(12):
        # profiles of length at most 2 keep every merged orbit at most 4 long
        # (NOTES.md lists the sizes left out)
        swap = rng.random() < 0.5
        sides = []
        for count in (3, 2):
            side = {}
            pairs = zip(_distinct_keys(shapes, palette, count, 2, swap), _distinct_keys(shapes, palette, count, 2, swap))
            for out_key, in_key in pairs:
                side[(out_key, in_key)] = _component(shapes, out_key, in_key, shapes.choice(["out", "in"]))
            sides.append(side)
        left, right = sides
        p = ws.put("h%d_p" % k, inputs.bimodule(palette, [c for c, _ in left.values()]))
        q = ws.put("h%d_q" % k, inputs.bimodule(palette, [c for c, _ in right.values()]))
        groups.append([Op("h%d.box-h" % k, "box-h", ws.cli("box-h", p, q), check=_dims_check(box_h_dims(left, right)))])
    # the associative operad at truncation 2 makes a pass 27 operations long: the median
    # and the 90th percentile of a run then fall in the middle of one operation's
    # samples, not on the edge between two operations of different cost
    for op_id, name, operad, truncation in (
        ("operad-to-prop.associative", "associative", associative_operad(3), "3"),
        ("operad-to-prop.trivial", "trivial", trivial_operad(3), "3"),
        ("operad-to-prop.associative.2", "associative2", associative_operad(2), "2"),
    ):
        op_name = ws.put(name, operad)
        groups.append([Op(op_id, "operad-to-prop", ws.cli("operad-to-prop", op_name, truncation), fixed=True)])
    return groups


# -- operads -----------------------------------------------------------------------
# Only this workload reaches compose_elements, EndoPropData.component and
# EndoPropData.rho; it also reads large operad files through formats.


def endo_operad_dims(family):
    """Degree-0 families: dim Hom(X_c1 (x) X_c2, X_d) = dim X_d prod dim X_ci."""
    dims = {}
    colors = family.palette.colors
    for d in colors:
        for n in (1, 2):
            for combo in itertools.combinations_with_replacement(colors, n):
                size = family.complexes[d].dim(0)
                for c in combo:
                    size *= family.complexes[c].dim(0)
                dims[(d, combo)] = size
    return dims


def operads_pool(rng, ws):
    palette = Palette(["a", "b"])
    groups = []
    # the smallest family runs three times as often, so a run holds enough operations.
    # A pass is then 15 operations long, and the median and the 90th percentile of a
    # run fall in the middle of one operation's samples (the (1,1) check and the (2,1)
    # check), not on the edge between two operations of different cost.
    for dims, copies in (((1, 1), 3), ((1, 2), 1), ((2, 1), 1)):
        family = inputs.zero_differential_family(palette, {"a": {0: dims[0]}, "b": {0: dims[1]}})
        operad = endomorphism_operad(family, 2)
        tag = "e%d%d" % dims
        op_name = ws.put(tag + "_operad", operad)
        fam_name = ws.put(tag + "_family", family)
        alg_name = ws.put(tag + "_algebra", operad_algebra_to_json(tautological_endo_algebra(operad, family)))
        expected = endo_operad_dims(family)

        def check_dims(out, expected=expected):
            got = {}
            for comp in json.loads(out)["components"]:
                got[(comp["out_color"], tuple(comp["in"]))] = comp["carrier"]["dims"].get("0", 0)
            return None if got == expected else "components %r, expected %r" % (got, expected)

        for k in range(copies):
            groups.append([
                Op("%s.%d.check" % (tag, k), "check", ws.cli("check", op_name), check=expect_text("ok\n"), fixed=True),
                Op("%s.%d.round-trip" % (tag, k), "round-trip", ws.cli("round-trip", op_name, fam_name, alg_name),
                   check=expect_text("round trip exact\n"), fixed=True),
                Op("%s.%d.endomorphism_operad" % (tag, k), "endomorphism_operad",
                   call=lambda family=family: endomorphism_operad(family, 2),
                   render=lambda operad: dumps(to_json(operad)), check=check_dims, fixed=True),
            ])
    return groups


POOLS = {
    "transfer": transfer_pool,
    "words": words_pool,
    "products": products_pool,
    "operads": operads_pool,
}
