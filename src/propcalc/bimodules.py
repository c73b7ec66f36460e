"""Colored Sigma-bimodules stored skeletally, and their products.

A bimodule assigns to every pair of profile orbits a carrier complex with
commuting actions of the two Young stabilizers (out-side acting as a left
group, in-side contravariantly).  One component per orbit pair suffices: the
full groupoid has factorially many objects, all reachable through canonical
transport permutations.

The vertical product composes over a middle orbit by coinvariants (a quotient
by span{v - g.v}, computed with exact row reduction), the horizontal building
block is an induced representation realized concretely: basis vectors are
"placements" distributing the positions of the concatenated sorted
representative to the factors, with monotone within-factor order.  A Young
element then permutes placements and twists decorations by the unique
block-internal corrections, which is exactly the classical coset formula
g.(rH, w) = (r'H, h.w).

A product component holds its keys, carrier, layout and one rule for how a
Young generator acts (BimoduleComponent.acting); a side's generator maps are
built from the rule on first read and then kept, so printing dims builds no
action.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from propcalc import linalg
from propcalc.chains import (
    ZERO_COMPLEX,
    ChainComplex,
    ChainMap,
    TensorSpace,
    assemble_tensor_map,
    direct_sum,
    place_blocks,
    sum_offsets,
)
from propcalc.profiles import (
    OrbitKey,
    Palette,
    Permutation,
    Profile,
    apply_permutation,
    canonicalize_profile,
    orbit_key,
    stabilizer_elements,
    stabilizer_generators,
    word_in_block_transpositions,
)


class BimoduleError(ValueError):
    pass


class BimoduleComponent:
    """Carrier complex with the two stabilizer actions, given on Young generators.

    out_gens / in_gens: dict one-line-image tuple -> ChainMap on the carrier.
    The out side satisfies M(s's) = M(s') M(s), the in side the reversed law.
    A component built with `acting` holds a rule instead, and builds a side's
    dict from it the first time that side is read.
    layout: how a product's carrier is built from its pieces (a
    CoinvariantLayout, InducedLayout or DirectSumLayout), None otherwise.
    """

    __slots__ = ("out_key", "in_key", "carrier", "layout", "_act", "_gens")

    def __init__(self, out_key: OrbitKey, in_key: OrbitKey, carrier: ChainComplex, out_gens, in_gens):
        self.out_key = out_key
        self.in_key = in_key
        self.carrier = carrier
        self.layout = None
        self._act = None
        self._gens = {
            "out": {tuple(k): v for k, v in out_gens.items()},
            "in": {tuple(k): v for k, v in in_gens.items()},
        }
        sides = [(side, self._gens[side], stabilizer_generators(self._key(side))) for side in ("out", "in")]
        for side, gens, generators in sides:
            for s in generators:
                if s.images not in gens:
                    raise BimoduleError("missing %s-generator action %r" % (side, s.images))
        # every generator has its key, so a side holds other keys iff it holds more keys
        for side, gens, generators in sides:
            if len(gens) > len(generators):
                allowed = {s.images for s in generators}
                extra = next(k for k in gens if k not in allowed)
                raise BimoduleError(
                    "%s-action given for %r, which is not a stabilizer generator" % (side, extra)
                )

    @classmethod
    def acting(cls, out_key, in_key, carrier, act, layout=None) -> "BimoduleComponent":
        """The component whose generator maps come from the rule act(side, s),
        for side "out" or "in" and s a stabilizer generator of that side's key.
        Its keys are the generators themselves, so they are not re-checked."""
        comp = cls.__new__(cls)
        comp.out_key, comp.in_key, comp.carrier, comp.layout = out_key, in_key, carrier, layout
        comp._act, comp._gens = act, {}
        return comp

    def _key(self, side) -> OrbitKey:
        return self.out_key if side == "out" else self.in_key

    def _side_gens(self, side):
        """The generator maps of one side, built from the rule on first read."""
        gens = self._gens.get(side)
        if gens is None:
            gens = self._gens[side] = {s.images: self._act(side, s) for s in stabilizer_generators(self._key(side))}
        return gens

    @property
    def out_gens(self):
        return self._side_gens("out")

    @property
    def in_gens(self):
        return self._side_gens("in")

    def _action(self, side, g: Permutation) -> ChainMap:
        """Action of g on one side: the product of the generator maps of its
        word, taken reversed on the contravariant in-side.

        A generator is looked up before any word is built: a side's keys are
        exactly the stabilizer generators, and a generator's word is itself,
        so the lookup returns what the word would."""
        gens = self._side_gens(side)
        m = gens.get(g.images)
        if m is not None:
            return m
        word = word_in_block_transpositions(self._key(side), g)
        if not word:
            return ChainMap.identity(self.carrier)
        if side == "in":
            word.reverse()
        m = gens[word[0].images]
        for s in word[1:]:
            m = m.compose(gens[s.images])
        return m

    def rho_out(self, sigma: Permutation) -> ChainMap:
        """Action of (sigma; 1) for sigma in the out stabilizer."""
        return self._action("out", sigma)

    def rho_in(self, tau: Permutation) -> ChainMap:
        """Action of (1; tau) for tau in the in stabilizer (contravariant side)."""
        return self._action("in", tau)

    def validate(self):
        """Check the action axioms: the generator actions are chain maps; the
        group law on the generator rows of the table at every size (see
        _table_pairs); the two sides commute on generators, which span both
        actions.  Each element's action is built at most once per call.
        """
        failures = []
        if self.carrier.boundary:
            d = ChainMap(
                self.carrier, self.carrier, self.carrier.boundary, -1, check=False
            )
            for mats in (self.out_gens, self.in_gens):
                for images, m in mats.items():
                    if d.compose(m) != m.compose(d):
                        failures.append(
                            "action %r does not commute with the differential" % (images,)
                        )
        # memos that live for this call only: a process-wide one grows with
        # every component ever validated
        rho_out = functools.cache(self.rho_out)
        rho_in = functools.cache(self.rho_in)
        for g, h in _table_pairs(self.out_key):
            if rho_out(g).compose(rho_out(h)) != rho_out(g * h):
                failures.append("out-action group law fails at %r, %r" % (g.images, h.images))
                break
        for g, h in _table_pairs(self.in_key):
            if rho_in(h).compose(rho_in(g)) != rho_in(g * h):
                failures.append("in-action group law fails at %r, %r" % (g.images, h.images))
                break
        outs = [self.out_gens[s.images] for s in stabilizer_generators(self.out_key)]
        ins = [self.in_gens[s.images] for s in stabilizer_generators(self.in_key)]
        if any(a.compose(b) != b.compose(a) for a in outs for b in ins):
            failures.append("out/in actions do not commute")
        return failures


def _table_pairs(key):
    """The pairs (g, h) on which validate checks a group law for the
    stabilizer of key, at every size: the rows whose g is a generator, taken
    in stabilizer_elements order, h over all elements.

    The generator rows decide the whole table, by induction on word length:
    on the out side rho(s g')rho(h) = rho(s)rho(g' h) = rho(s g' h), and the
    reversed in-side law follows the same way.  They also find the table's
    first failing pair: an element g that is neither the identity nor a
    generator is s g' for a generator s with s < g and g' < g in lex order
    (s a left descent of g), so a failure in row g implies one in row s or
    row g' before it; the identity's row always holds, so the first failing
    row is a generator row, and the first failing pair is the table's.
    """
    elems = stabilizer_elements(key)
    generators = set(stabilizer_generators(key))
    return [(g, h) for g in elems if g in generators for h in elems]


class CoinvariantLayout(NamedTuple):
    """Carrier of a middle-orbit composite: the quotient of space = left (x) right
    by the middle relations, with proj: space -> carrier and sect back."""

    space: TensorSpace
    proj: ChainMap
    sect: ChainMap
    left: BimoduleComponent
    right: BimoduleComponent


class InducedLayout(NamedTuple):
    """Carrier of an induced component: one copy of tensor (the tensor product of
    the factors) per pair of out and in placements.

    out_pos and in_pos give each placement's position in outs and ins.  The
    pair (outs[a], ins[b]) is copy number a * len(ins) + b (copy_number), and
    copy s occupies rows s * tensor.complex.dim(n) onward in degree n.  Build
    it with InducedLayout.of.
    """

    factors: tuple
    outs: tuple
    ins: tuple
    tensor: TensorSpace
    out_pos: dict
    in_pos: dict

    @classmethod
    def of(cls, factors, outs, ins, tensor) -> "InducedLayout":
        outs, ins = tuple(outs), tuple(ins)
        positions = [{place: a for a, place in enumerate(places)} for places in (outs, ins)]
        return cls(tuple(factors), outs, ins, tensor, *positions)

    def copy_number(self, out_place, in_place) -> int:
        return self.out_pos[out_place] * len(self.ins) + self.in_pos[in_place]

    def copy_offsets(self, copy: int):
        """Per-degree first carrier index of the given copy."""
        return {n: copy * d for n, d in self.tensor.complex.dims.items()}

    def locate(self, n: int, flat: int):
        """(out placement, in placement, tensor index) of a degree-n carrier index."""
        copy, tensor_flat = divmod(flat, self.tensor.complex.dim(n))
        a, b = divmod(copy, len(self.ins))
        return self.outs[a], self.ins[b], tensor_flat


class SumPiece(NamedTuple):
    """One summand of a direct-sum component: the middle orbit key (box_v), the
    pair of factor orbit pairs (box_h) or the tuple of factor in-keys (free
    PROP on an operad), and the summand itself."""

    key: object
    component: BimoduleComponent


class DirectSumLayout(NamedTuple):
    """Carrier of a direct sum: piece i starts at offsets[i][n] in degree n."""

    pieces: tuple
    offsets: tuple

    def locate(self, n: int, flat: int):
        """(piece number, index inside the piece) of a degree-n carrier index."""
        for i, (piece, off) in enumerate(zip(self.pieces, self.offsets)):
            start = off.get(n, 0)
            if start <= flat < start + piece.component.carrier.dim(n):
                return i, flat - start
        raise IndexError("flat index %d out of range in degree %d" % (flat, n))


def sum_components(pieces) -> BimoduleComponent:
    """Direct sum of SumPieces sharing one orbit pair, with blockwise actions."""
    comps = [piece.component for piece in pieces]
    carrier = direct_sum(*(c.carrier for c in comps))
    offsets = sum_offsets(c.carrier for c in comps)

    def act(side, s):
        return place_blocks(carrier, carrier, ((c._action(side, s), off, off) for c, off in zip(comps, offsets)))

    layout = DirectSumLayout(tuple(pieces), tuple(offsets))
    return BimoduleComponent.acting(comps[0].out_key, comps[0].in_key, carrier, act, layout)


class ColoredBimodule:
    """Finite map from orbit pairs to components; absent pair = zero object."""

    def __init__(self, palette: Palette, components):
        self.palette = palette
        self.components = {}
        for (out_key, in_key), comp in dict(components).items():
            if comp.carrier.is_zero():
                continue
            if comp.out_key != out_key or comp.in_key != in_key:
                raise BimoduleError("component filed under the wrong orbit pair")
            self.components[(out_key, in_key)] = comp

    def support(self):
        return sorted(self.components)

    def component(self, out_key, in_key):
        return self.components.get((out_key, in_key))


def component_at(module: ColoredBimodule, d_profile: Profile, c_profile: Profile):
    """Realize the bimodule at a concrete object (d; c).

    Returns (carrier, structure) where structure(sigma, tau) is the matrix of
    the morphism (sigma; tau): P(d; c) -> P(sigma d; c tau) in the skeletal
    coordinates; the composition law (s's; tt') = (s';t') o (s;t) holds.
    """
    kd, t_d = canonicalize_profile(d_profile)
    kc, t_c = canonicalize_profile(c_profile)
    comp = module.component(kd, kc)
    if comp is None:
        zero = ZERO_COMPLEX

        def zero_structure(sigma, tau):
            return ChainMap.zero(zero, zero)

        return zero, zero_structure

    def structure(sigma: Permutation, tau: Permutation) -> ChainMap:
        _, t_sd = canonicalize_profile(apply_permutation(sigma, d_profile, "left"))
        _, t_ct = canonicalize_profile(apply_permutation(tau, c_profile, "right"))
        u = t_sd.inverse() * sigma * t_d
        v = t_c.inverse() * tau * t_ct
        return comp.rho_out(u).compose(comp.rho_in(v))

    return comp.carrier, structure


# ---------------------------------------------------------------------------
# coinvariants and the vertical product


def coinvariant_quotient(space: ChainComplex, relation_maps):
    """Quotient of the space by sum of images of (id - m) for m in relation_maps.

    Returns (quotient complex, proj, sect) with proj o sect = id.
    """
    projs = {}
    sects = {}
    dims = {}
    for n in space.degrees():
        dim = space.dim(n)
        rows = []
        for m in relation_maps:
            # column j of id - m, built from the nonzeros of m's column j
            for j, entries in enumerate(linalg.columns(m.rows.get(n, ()), dim)):
                row = {i: -x for i, x in entries}
                diagonal = linalg.ONE + row.get(j, linalg.ZERO)
                if diagonal:
                    row[j] = diagonal
                else:
                    del row[j]
                if row:
                    rows.append(row)
        proj, sect = linalg.quotient_by_rowspace(rows, dim)
        if proj:
            projs[n], sects[n], dims[n] = proj, sect, len(proj)
    boundary = {}
    for n in sorted(dims):
        if dims.get(n - 1):
            boundary[n] = linalg.mat_mul(projs[n - 1], linalg.mat_mul(space.d(n), sects[n]))
    quotient = ChainComplex(dims, boundary)
    proj_map = ChainMap(space, quotient, projs, check=False)
    sect_map = ChainMap(quotient, space, sects, check=False)
    return quotient, proj_map, sect_map


def tensor_over_sigma(x: BimoduleComponent, y: BimoduleComponent) -> BimoduleComponent:
    """The middle-orbit composite: coinvariants of X (x) Y under the diagonal
    middle stabilizer action x.g (x) y ~ x (x) g.y, with the residual outer
    actions descended to the quotient."""
    if x.in_key != y.out_key:
        raise BimoduleError(
            "middle orbit mismatch: %r vs %r" % (x.in_key, y.out_key)
        )
    space = TensorSpace([x.carrier, y.carrier])
    xs = TensorSpace([x.carrier])
    ys = TensorSpace([y.carrier])

    def diagonal(g: Permutation) -> ChainMap:
        return assemble_tensor_map(
            space,
            space,
            [(xs, xs, x.rho_in(g.inverse())), (ys, ys, y.rho_out(g))],
        )

    relations = [diagonal(g) for g in stabilizer_generators(x.in_key)]
    quotient, proj, sect = coinvariant_quotient(space.complex, relations)

    def act(side, s):
        """The outer action of s on X (x) Y, descended to the quotient."""
        if side == "out":
            maps = (x.rho_out(s), ChainMap.identity(y.carrier))
        else:
            maps = (ChainMap.identity(x.carrier), y.rho_in(s))
        big = assemble_tensor_map(space, space, [(xs, xs, maps[0]), (ys, ys, maps[1])])
        return proj.compose(big).compose(sect)

    layout = CoinvariantLayout(space, proj, sect, x, y)
    return BimoduleComponent.acting(x.out_key, y.in_key, quotient, act, layout)


def box_v(p: ColoredBimodule, q: ColoredBimodule) -> ColoredBimodule:
    """Vertical product: sum over middle orbits of the coinvariant composites."""
    if p.palette != q.palette:
        raise BimoduleError("palette mismatch")
    buckets = {}
    for (kd, kb), px in sorted(p.components.items()):
        for (kb2, kc), qy in sorted(q.components.items()):
            if kb != kb2:
                continue
            comp = tensor_over_sigma(px, qy)
            if comp.carrier.is_zero():
                continue
            buckets.setdefault((kd, kc), []).append(SumPiece(kb, comp))
    components = {key: sum_components(pieces) for key, pieces in buckets.items()}
    return ColoredBimodule(p.palette, components)


# ---------------------------------------------------------------------------
# induced representations and the horizontal product


def merge_keys(palette, keys) -> OrbitKey:
    """Orbit of the concatenation of the keys' representatives: the
    palette's one key on it (orbit_key), so every order and every split of
    one orbit gives the same key object."""
    entries = []
    for k in keys:
        entries.extend(k.rep.entries)
    entries.sort(key=palette.order)
    return orbit_key(palette, tuple(entries))


def placements(palette, factor_keys, merged: OrbitKey):
    """All distributions of the merged representative's positions to the factors.

    A placement is a tuple over merged positions naming the factor; within a
    factor the positions map monotonically onto its representative.  These are
    canonical transversal representatives for the cosets of the blockwise
    Young subgroup, ordered lexicographically.
    """
    rep = merged.rep.entries
    per_color_positions = {}
    for i, c in enumerate(rep):
        per_color_positions.setdefault(c, []).append(i)
    per_color_choices = []
    colors = sorted(per_color_positions, key=palette.order)
    for c in colors:
        positions = per_color_positions[c]
        counts = [sum(1 for e in k.rep.entries if e == c) for k in factor_keys]
        arrangements = _arrangements([i for i, cnt in enumerate(counts) for _ in range(cnt)])
        per_color_choices.append((positions, arrangements))
    out = []
    for combo in itertools.product(*(arr for _, arr in per_color_choices)):
        assignment = [None] * len(rep)
        for (positions, _), arrangement in zip(per_color_choices, combo):
            for pos, fac in zip(positions, arrangement):
                assignment[pos] = fac
        out.append(tuple(assignment))
    out.sort()
    return out


def _arrangements(letters):
    """The distinct orderings of a sorted list, in lexicographic order: each
    is the next permutation of the one before, so repeated letters are never
    ordered twice."""
    word = list(letters)
    out = [tuple(word)]
    while True:
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = reversed(word[i + 1:])
        out.append(tuple(word))


def box_dot_many(palette, factors) -> BimoduleComponent:
    """Iterated induced representation of a list of components.

    Carrier = one copy of (x)_i V_i per (out placement, in placement) pair;
    dim = [G : H] prod dim V_i.  The rule is only asked for a stabilizer
    generator s, the swap of positions t and t+1 inside one colour block, and
    s is its own inverse, so both sides move placements the same way.  A
    placement a with a[t] != a[t+1] swaps the two entries and every twist is
    the identity: the decoration is the call's one identity.  One with
    a[t] == a[t+1] == f stays, and factor f alone is twisted by its own
    generator (l+1 l+2), l = a[:t].count(f): that decoration is built at most
    once per (side, f, l), on first use.
    """
    if not factors:
        raise BimoduleError("box_dot_many needs at least one factor")
    out_keys = [f.out_key for f in factors]
    in_keys = [f.in_key for f in factors]
    merged_out = merge_keys(palette, out_keys)
    merged_in = merge_keys(palette, in_keys)
    layout = InducedLayout.of(
        factors,
        placements(palette, out_keys, merged_out),
        placements(palette, in_keys, merged_in),
        TensorSpace([f.carrier for f in factors]),
    )
    # copy-major: Q^copies (x) tensor is the direct sum of the copies
    copies = ChainComplex({0: len(layout.outs) * len(layout.ins)})
    carrier = TensorSpace([copies, layout.tensor.complex]).complex

    factor_spaces = [TensorSpace([f.carrier]) for f in factors]
    identity = ChainMap.identity(layout.tensor.complex)
    twisted = {}

    def decoration(side, f, ell):
        """Factor f's generator (ell+1 ell+2) on one side, tensored with the
        identities of the other factors."""
        dec = twisted.get((side, f, ell))
        if dec is None:
            images = list(range(1, factors[f]._key(side).length + 1))
            images[ell], images[ell + 1] = ell + 2, ell + 1
            maps = [ChainMap.identity(g.carrier) for g in factors]
            maps[f] = factors[f]._side_gens(side)[tuple(images)]
            groups = [(fs, fs, m) for fs, m in zip(factor_spaces, maps)]
            dec = twisted[(side, f, ell)] = assemble_tensor_map(layout.tensor, layout.tensor, groups)
        return dec

    def copy_offsets(out_place, in_place):
        return layout.copy_offsets(layout.copy_number(out_place, in_place))

    def action_blocks(side, s):
        """(decoration, target offsets, source offsets) per copy.  A placement
        moves on one side only, so its decoration is shared by the copies of
        all its partner placements."""
        t = next(i for i, image in enumerate(s.images) if image != i + 1)
        moving, partners = (layout.outs, layout.ins) if side == "out" else (layout.ins, layout.outs)
        for a in moving:
            f = a[t]
            if f != a[t + 1]:
                moved, dec = a[:t] + (a[t + 1], f) + a[t + 2:], identity
            else:
                moved, dec = a, decoration(side, f, a[:t].count(f))
            for b in partners:
                if side == "out":
                    yield dec, copy_offsets(moved, b), copy_offsets(a, b)
                else:
                    yield dec, copy_offsets(b, moved), copy_offsets(b, a)

    def act(side, s):
        return place_blocks(carrier, carrier, action_blocks(side, s))

    return BimoduleComponent.acting(merged_out, merged_in, carrier, act, layout)


def box_h(p: ColoredBimodule, q: ColoredBimodule) -> ColoredBimodule:
    """Horizontal product: one induced summand per ordered pair of orbit splittings."""
    if p.palette != q.palette:
        raise BimoduleError("palette mismatch")
    buckets = {}
    for (kd1, kc1), px in sorted(p.components.items()):
        for (kd2, kc2), qy in sorted(q.components.items()):
            comp = box_dot_many(p.palette, [px, qy])
            key = (comp.out_key, comp.in_key)
            buckets.setdefault(key, []).append(SumPiece(((kd1, kc1), (kd2, kc2)), comp))
    components = {key: sum_components(pieces) for key, pieces in buckets.items()}
    return ColoredBimodule(p.palette, components)


# ---------------------------------------------------------------------------
# change of colors


def _profiles_with_image(source_palette, alpha, target_profile):
    """All source profiles mapping entrywise onto the given target profile."""
    choices = [[c for c in source_palette.colors if alpha[c] == color] for color in target_profile.entries]
    return [Profile(source_palette, combo) for combo in itertools.product(*choices)]


def restrict_colors(alpha, module: ColoredBimodule, source_palette: Palette) -> ColoredBimodule:
    """Precompose with alpha: `module` lives over the target palette, the
    result over `source_palette`.  alpha: dict source color -> target color."""
    out = {}
    lengths_out = sorted({k[0].length for k in module.components})
    lengths_in = sorted({k[1].length for k in module.components})
    for lo in lengths_out:
        for li in lengths_in:
            # the sorted color tuples are the orbit representatives
            for combo_o in itertools.combinations_with_replacement(source_palette.colors, lo):
                kd, _ = canonicalize_profile(Profile(source_palette, combo_o))
                for combo_i in itertools.combinations_with_replacement(source_palette.colors, li):
                    kc, _ = canonicalize_profile(Profile(source_palette, combo_i))
                    comp = _restricted_component(alpha, module, kd, kc)
                    if comp is not None:
                        out[(kd, kc)] = comp
    return ColoredBimodule(source_palette, out)


def induce_colors(alpha, module: ColoredBimodule, target_palette: Palette) -> ColoredBimodule:
    """Sum over preimage profiles: `module` lives over the source palette of
    alpha, the result over `target_palette`.  alpha: dict source color ->
    target color."""
    images = set()
    for kd, kc in module.components:
        image_out = Profile(target_palette, [alpha[c] for c in kd.rep.entries])
        image_in = Profile(target_palette, [alpha[c] for c in kc.rep.entries])
        images.add((canonicalize_profile(image_out)[0], canonicalize_profile(image_in)[0]))
    out = {key: _induced_component(alpha, module, *key) for key in sorted(images)}
    return ColoredBimodule(target_palette, out)


def _restricted_component(alpha, module, kd, kc):
    image_out = Profile(module.palette, [alpha[c] for c in kd.rep.entries])
    image_in = Profile(module.palette, [alpha[c] for c in kc.rep.entries])
    carrier, structure = component_at(module, image_out, image_in)
    if carrier.is_zero():
        return None

    def act(side, s):
        if side == "out":
            return structure(s, Permutation.identity(kc.length))
        return structure(Permutation.identity(kd.length), s)

    return BimoduleComponent.acting(kd, kc, carrier, act)


def _induced_component(alpha, module, kd2, kc2):
    source_palette = module.palette
    pre_out = _profiles_with_image(source_palette, alpha, kd2.rep)
    pre_in = _profiles_with_image(source_palette, alpha, kc2.rep)
    summands = []
    for d_prof in pre_out:
        for c_prof in pre_in:
            kd, _ = canonicalize_profile(d_prof)
            kc, _ = canonicalize_profile(c_prof)
            comp = module.component(kd, kc)
            if comp is not None:
                summands.append((d_prof, c_prof, comp))
    carrier = direct_sum(*(comp.carrier for _, _, comp in summands))
    offsets = sum_offsets(comp.carrier for _, _, comp in summands)
    index_of = {(d.entries, c.entries): i for i, (d, c, _) in enumerate(summands)}

    def act_blocks(side, s: Permutation):
        for i, (d_prof, c_prof, comp) in enumerate(summands):
            _, structure = component_at(module, d_prof, c_prof)
            if side == "out":
                new_d = apply_permutation(s, d_prof, "left")
                new_c = c_prof
                m = structure(s, Permutation.identity(len(c_prof)))
            else:
                new_d = d_prof
                new_c = apply_permutation(s, c_prof, "right")
                m = structure(Permutation.identity(len(d_prof)), s)
            j = index_of[(new_d.entries, new_c.entries)]
            yield m, offsets[j], offsets[i]

    def act(side, s):
        return place_blocks(carrier, carrier, act_blocks(side, s))

    return BimoduleComponent.acting(kd2, kc2, carrier, act)
