"""Seeded generators for the benchmark's inputs, made from propcalc's public types.

Every function takes a `random.Random` (or fixed sizes) and returns library
objects; the workloads serialize them into workspace JSON files, so the
program under test only ever sees generated files.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from propcalc.algebras import AlgebraStructure
from propcalc.bimodules import BimoduleComponent, ColoredBimodule
from propcalc.chains import ChainComplex, ChainMap, direct_sum, disc_complex
from propcalc.endo import ColoredFamily, EndoElement, FamilyMap
from propcalc.exprs import (
    GenExpr,
    HCompExpr,
    LeftActExpr,
    PropPresentation,
    RightActExpr,
    VCompExpr,
    parse,
)
from propcalc.graphs import Generator, Signature
from propcalc.profiles import Palette, Permutation, Profile, canonicalize_profile, stabilizer_generators

F = Fraction


# -- signatures and expressions ----------------------------------------------------


def random_signature(rng, max_colors=3, max_generators=4, max_arity=3):
    """A unary generator per color (so every output profile is reachable) plus
    1..max_generators random degree-0 generators."""
    palette = Palette(["c%d" % i for i in range(rng.randint(1, max_colors))])
    gens = [Generator("u_%s" % c, Profile(palette, [c]), Profile(palette, [c]), 0) for c in palette.colors]
    for k in range(rng.randint(1, max_generators)):
        out_p = Profile(palette, [rng.choice(palette.colors) for _ in range(rng.randint(1, 2))])
        in_p = Profile(palette, [rng.choice(palette.colors) for _ in range(rng.randint(1, max_arity))])
        gens.append(Generator("g%d" % k, out_p, in_p, 0))
    return Signature(palette, gens)


def random_permutation(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def unary_chain(sig, profile):
    expr = None
    for c in profile.entries:
        g = GenExpr(sig, "u_%s" % c)
        expr = g if expr is None else HCompExpr(expr, g)
    return expr


def random_expression_with_out(sig, rng, out_profile, depth=2):
    candidates = [name for name, g in sorted(sig.generators.items()) if g.out_profile == out_profile]
    if candidates and rng.random() < 0.5:
        expr = GenExpr(sig, rng.choice(candidates))
    else:
        expr = unary_chain(sig, out_profile)
    while depth > 0 and rng.random() < 0.6:
        depth -= 1
        expr = VCompExpr(expr, random_expression_with_out(sig, rng, expr.in_profile, depth))
    if rng.random() < 0.4:
        expr = RightActExpr(expr, random_permutation(rng, len(expr.in_profile)))
    return expr


def random_expression(sig, rng, depth=2):
    names = sorted(sig.generators)
    expr = GenExpr(sig, rng.choice(names))
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.35:
            other = GenExpr(sig, rng.choice(names))
            expr = HCompExpr(expr, other) if rng.random() < 0.5 else HCompExpr(other, expr)
        elif roll < 0.7:
            expr = VCompExpr(expr, random_expression_with_out(sig, rng, expr.in_profile, 1))
        elif roll < 0.85:
            expr = LeftActExpr(random_permutation(rng, len(expr.out_profile)), expr)
        else:
            expr = RightActExpr(expr, random_permutation(rng, len(expr.in_profile)))
    return expr


def interchange_pair(sig, rng, depth=1):
    """(e1 * e2) o (e3 * e4) and (e1 o e3) * (e2 o e4): equal in every PROP."""
    e1 = random_expression(sig, rng, depth)
    e2 = random_expression(sig, rng, depth)
    e3 = random_expression_with_out(sig, rng, e1.in_profile, depth)
    e4 = random_expression_with_out(sig, rng, e2.in_profile, depth)
    return VCompExpr(HCompExpr(e1, e2), HCompExpr(e3, e4)), HCompExpr(VCompExpr(e1, e3), VCompExpr(e2, e4))


def _color_preserving_permutation(rng, profile):
    """A random permutation fixing the profile: it only swaps equal colors."""
    images = list(range(1, len(profile) + 1))
    for c in sorted(set(profile.entries)):
        positions = [i + 1 for i, x in enumerate(profile.entries) if x == c]
        shuffled = positions[:]
        rng.shuffle(shuffled)
        for p, q in zip(positions, shuffled):
            images[p - 1] = q
    return Permutation(images)


def relabelled_pair(sig, rng, depth=2):
    """Two leg relabellings of one random expression; equal or distinct."""
    e = random_expression(sig, rng, depth)

    def variant():
        v = e
        if rng.random() < 0.6:
            v = LeftActExpr(_color_preserving_permutation(rng, v.out_profile), v)
        if rng.random() < 0.6:
            v = RightActExpr(v, _color_preserving_permutation(rng, v.in_profile))
        return v

    return variant(), variant()


def binary_signature(color="c", name="mu"):
    palette = Palette([color])
    return Signature(palette, [Generator(name, Profile(palette, [color]), Profile(palette, [color, color]), 0)])


# -- presentations, families and structures ---------------------------------------


def homotopy_assoc_presentation():
    """mu2, iota of degree 0; mu3 of degree 1 with d(mu3) = the associator."""
    palette = Palette(["c"])
    c = lambda *xs: Profile(palette, xs)
    sig = Signature(
        palette,
        [
            Generator("mu2", c("c"), c("c", "c"), 0),
            Generator("iota", c("c"), c("c"), 0),
            Generator("mu3", c("c"), c("c", "c", "c"), 1),
        ],
    )
    d3 = [(F(1), parse("mu2 o (mu2 * iota)", sig)), (F(-1), parse("mu2 o (iota * mu2)", sig))]
    return PropPresentation(sig, {"mu3": d3})


def interchange_presentation():
    """p, q of degree 0 and h of degree 1 with d(h) an interchange difference."""
    palette = Palette(["c"])
    c = lambda *xs: Profile(palette, xs)
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
    return PropPresentation(sig, {"h": [(F(1), lhs), (F(-1), rhs)]})


def random_free_presentation(rng, palette, arities):
    """Degree-0 generators r0, r1, ... with the given (out, in) lengths and random colors."""
    gens = []
    for k, (n_out, n_in) in enumerate(arities):
        out_p = Profile(palette, [rng.choice(palette.colors) for _ in range(n_out)])
        in_p = Profile(palette, [rng.choice(palette.colors) for _ in range(n_in)])
        gens.append(Generator("r%d" % k, out_p, in_p, 0))
    return PropPresentation(Signature(palette, gens))


def zero_differential_family(palette, dims_by_color):
    return ColoredFamily(palette, {c: ChainComplex(dims_by_color[c]) for c in palette.colors})


def random_structure(rng, presentation, family):
    """Random small-integer matrices for every generator.

    Over a zero-differential family this is an algebra for any free
    presentation, and for the interchange presentation too (its d(h)
    evaluates to zero)."""
    assignment = {}
    for name, gen in sorted(presentation.signature.generators.items()):
        src = family.space(gen.in_profile).complex
        tgt = family.space(gen.out_profile).complex
        mats = {}
        for j in src.degrees():
            if tgt.dim(j + gen.degree):
                mats[j] = [
                    [F(rng.randint(-2, 2)) for _ in range(src.dim(j))] for _ in range(tgt.dim(j + gen.degree))
                ]
        assignment[name] = EndoElement.from_mats(family, gen.out_profile, gen.in_profile, gen.degree, mats)
    return AlgebraStructure(presentation, family, assignment)


def scalar_assoc_structure(presentation, family, mu, unit):
    """mu2 = mu, iota = unit, mu3 = 0 on Q[0]: associative for every pair of scalars."""
    sig = presentation.signature
    assignment = {
        "mu2": EndoElement.from_mats(family, sig["mu2"].out_profile, sig["mu2"].in_profile, 0, {0: [[F(mu)]]}),
        "iota": EndoElement.from_mats(family, sig["iota"].out_profile, sig["iota"].in_profile, 0, {0: [[F(unit)]]}),
        "mu3": EndoElement.zero(family, sig["mu3"].out_profile, sig["mu3"].in_profile, 1),
    }
    return AlgebraStructure(presentation, family, assignment)


def extend_with_discs(family, discs_by_color):
    """X = Y + discs per color, with the projection X -> Y (an acyclic
    fibration) and the inclusion Y -> X (an acyclic cofibration)."""
    complexes = {}
    proj = {}
    incl = {}
    for c, y in sorted(family.complexes.items()):
        x = y
        for _ in range(discs_by_color[c]):
            x = direct_sum(x, disc_complex())
        complexes[c] = x
        proj[c] = {n: [[F(int(i == j)) for j in range(x.dim(n))] for i in range(y.dim(n))] for n in y.degrees()}
        incl[c] = {n: [[F(int(i == j)) for j in range(y.dim(n))] for i in range(x.dim(n))] for n in y.degrees()}
    fam_x = ColoredFamily(family.palette, complexes)
    p = FamilyMap(fam_x, family, {c: ChainMap(fam_x.complexes[c], family.complexes[c], proj[c]) for c in complexes})
    i = FamilyMap(family, fam_x, {c: ChainMap(family.complexes[c], fam_x.complexes[c], incl[c]) for c in complexes})
    return fam_x, p, i


# -- bimodules -------------------------------------------------------------------------

ACTIONS = ("trivial", "sign", "perm", "regular")


def orbit_key(palette, colors):
    return canonicalize_profile(Profile(palette, list(colors)))[0]


def young_elements(key):
    """The Young subgroup of a sorted representative, as one-line image tuples."""
    blocks = []
    start = 0
    for size in key.block_sizes:
        blocks.append(list(itertools.permutations(range(start + 1, start + size + 1))))
        start += size
    return [tuple(x for block in combo for x in block) for combo in itertools.product(*blocks)]


def _action_matrices(key, action, side):
    """Generator matrices of one Young-subgroup representation, and its dimension."""
    gens = stabilizer_generators(key)
    if action == "trivial":
        return None, None
    if action == "sign":
        return {s.images: [[F(-1)]] for s in gens}, 1
    if action == "perm":
        n = key.length
        out = {}
        for s in gens:
            use = s if side == "out" else s.inverse()
            m = [[F(0)] * n for _ in range(n)]
            for i in range(1, n + 1):
                m[use(i) - 1][i - 1] = F(1)
            out[s.images] = m
        return out, n
    elems = [Permutation(g) for g in young_elements(key)]
    index = {g.images: i for i, g in enumerate(elems)}
    out = {}
    for s in gens:
        m = [[F(0)] * len(elems) for _ in elems]
        for i, g in enumerate(elems):
            target = (s * g) if side == "out" else (g * s)
            m[index[target.images]][i] = F(1)
        out[s.images] = m
    return out, len(elems)


def rep_component(out_key, in_key, side, action, base_dim, graded):
    """One component: a Young representation on `side`, the identity on the other.

    A graded carrier is the representation tensored with a disc (two copies in
    degrees 1 and 0, d = identity), so the action commutes with d.
    """
    mats, dim = _action_matrices(out_key if side == "out" else in_key, action, side)
    if dim is None:
        dim = base_dim
    ident = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
    if graded:
        carrier = ChainComplex({0: dim, 1: dim}, {1: ident})
    else:
        carrier = ChainComplex({0: dim})

    def chain(m):
        return ChainMap(carrier, carrier, {n: m for n in carrier.degrees()}, check=False)

    out_gens = {}
    for s in stabilizer_generators(out_key):
        out_gens[s.images] = chain(mats[s.images] if side == "out" and mats else ident)
    in_gens = {}
    for s in stabilizer_generators(in_key):
        in_gens[s.images] = chain(mats[s.images] if side == "in" and mats else ident)
    return BimoduleComponent(out_key, in_key, carrier, out_gens, in_gens)


def bimodule(palette, components):
    return ColoredBimodule(palette, {(c.out_key, c.in_key): c for c in components})
