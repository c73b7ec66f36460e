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

The transported compositions (vertical on box_h, horizontal on box_v) are
sums of kernel maps iota o (f (x) g) o switch o split, with a projection to
the coinvariants before iota on box_v; split reads (p1 (x) q1) (x) (p2 (x)
q2) off two basis pieces and the switch moves q1 past p2, Koszul-signed.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import NamedTuple

from propcalc import linalg
from propcalc.chains import (
    ZERO_COMPLEX,
    ChainComplex,
    ChainMap,
    TensorSpace,
    assemble_tensor_map,
    direct_sum,
    factor_permutation_map,
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


# BimoduleComponent.validate checks a group law on the full multiplication
# table up to this many elements, and on sampled pairs beyond
_GROUP_TABLE_CAP = 48
_GROUP_LAW_SAMPLES = 20
_GROUP_LAW_SEED = 0


class BimoduleError(ValueError):
    pass


class BimoduleComponent:
    """Carrier complex with the two stabilizer actions, given on Young generators.

    out_gens / in_gens: dict one-line-image tuple -> ChainMap on the carrier.
    The out side satisfies M(s's) = M(s') M(s), the in side the reversed law.
    layout: how a product's carrier is built from its pieces (a
    CoinvariantLayout, InducedLayout or DirectSumLayout), None otherwise.
    """

    __slots__ = ("out_key", "in_key", "carrier", "out_gens", "in_gens", "layout")

    def __init__(self, out_key: OrbitKey, in_key: OrbitKey, carrier: ChainComplex, out_gens, in_gens, layout=None):
        self.out_key = out_key
        self.in_key = in_key
        self.carrier = carrier
        self.out_gens = {tuple(k): v for k, v in out_gens.items()}
        self.in_gens = {tuple(k): v for k, v in in_gens.items()}
        out_generators = stabilizer_generators(out_key)
        in_generators = stabilizer_generators(in_key)
        for s in out_generators:
            if s.images not in self.out_gens:
                raise BimoduleError("missing out-generator action %r" % (s.images,))
        for s in in_generators:
            if s.images not in self.in_gens:
                raise BimoduleError("missing in-generator action %r" % (s.images,))
        # every generator has its key, so a side holds other keys iff it holds more keys
        for side, gens, generators in (
            ("out", self.out_gens, out_generators),
            ("in", self.in_gens, in_generators),
        ):
            if len(gens) > len(generators):
                allowed = {s.images for s in generators}
                extra = next(k for k in gens if k not in allowed)
                raise BimoduleError(
                    "%s-action given for %r, which is not a stabilizer generator" % (side, extra)
                )
        self.layout = layout

    @classmethod
    def trivial(cls, out_key, in_key, carrier) -> "BimoduleComponent":
        ident = ChainMap.identity(carrier)
        return cls(
            out_key,
            in_key,
            carrier,
            {s.images: ident for s in stabilizer_generators(out_key)},
            {s.images: ident for s in stabilizer_generators(in_key)},
        )

    def dim(self, n=0) -> int:
        return self.carrier.dim(n)

    def total_dim(self) -> int:
        return self.carrier.total_dim()

    def rho_out(self, sigma: Permutation) -> ChainMap:
        """Action of (sigma; 1) for sigma in the out stabilizer: the product of
        the generator maps of its word, a generator's own map for a generator.

        A generator is looked up before any word is built: the constructor
        keeps exactly the stabilizer generators as keys, and a generator's
        word is itself, so the lookup returns what the word would."""
        m = self.out_gens.get(sigma.images)
        if m is not None:
            return m
        word = word_in_block_transpositions(self.out_key, sigma)
        if not word:
            return ChainMap.identity(self.carrier)
        m = self.out_gens[word[0].images]
        for s in word[1:]:
            m = m.compose(self.out_gens[s.images])
        return m

    def rho_in(self, tau: Permutation) -> ChainMap:
        """Action of (1; tau) for tau in the in stabilizer (contravariant side),
        with the generator lookup first, as in rho_out."""
        m = self.in_gens.get(tau.images)
        if m is not None:
            return m
        word = word_in_block_transpositions(self.in_key, tau)
        if not word:
            return ChainMap.identity(self.carrier)
        m = self.in_gens[word[0].images]
        for s in word[1:]:
            m = self.in_gens[s.images].compose(m)
        return m

    def rho(self, sigma: Permutation, tau: Permutation) -> ChainMap:
        return self.rho_out(sigma).compose(self.rho_in(tau))

    def validate(self):
        """Check the action axioms: the generator actions are chain maps; the
        group law on the full table up to 48 elements, sampled beyond; the two
        sides commute on generators, which span both actions.  Each element's
        action is built at most once per call.
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
        for g, h in _table_pairs(stabilizer_elements(self.out_key)):
            if rho_out(g).compose(rho_out(h)) != rho_out(g * h):
                failures.append("out-action group law fails at %r, %r" % (g.images, h.images))
                break
        for g, h in _table_pairs(stabilizer_elements(self.in_key)):
            if rho_in(h).compose(rho_in(g)) != rho_in(g * h):
                failures.append("in-action group law fails at %r, %r" % (g.images, h.images))
                break
        outs = [self.out_gens[s.images] for s in stabilizer_generators(self.out_key)]
        ins = [self.in_gens[s.images] for s in stabilizer_generators(self.in_key)]
        if any(a.compose(b) != b.compose(a) for a in outs for b in ins):
            failures.append("out/in actions do not commute")
        return failures


def _table_pairs(elems):
    """The pairs on which validate checks a group law: the full table up to
    _GROUP_TABLE_CAP elements, else _GROUP_LAW_SAMPLES pairs drawn with a
    generator seeded by _GROUP_LAW_SEED."""
    if len(elems) <= _GROUP_TABLE_CAP:
        return itertools.product(elems, elems)
    rng = random.Random(_GROUP_LAW_SEED)
    return [(rng.choice(elems), rng.choice(elems)) for _ in range(_GROUP_LAW_SAMPLES)]


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

    The pair (outs[a], ins[b]) is copy number index[(outs[a], ins[b])] =
    a * len(ins) + b, and copy s occupies rows s * tensor.complex.dim(n)
    onward in degree n.  Build it with InducedLayout.of.
    """

    factors: tuple
    outs: tuple
    ins: tuple
    tensor: TensorSpace
    index: dict

    @classmethod
    def of(cls, factors, outs, ins, tensor) -> "InducedLayout":
        n_ins = len(ins)
        index = {(ao, ai): a * n_ins + b for a, ao in enumerate(outs) for b, ai in enumerate(ins)}
        return cls(tuple(factors), tuple(outs), tuple(ins), tensor, index)

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

    def find(self, key):
        """Number of the piece with the given key, or None."""
        for i, piece in enumerate(self.pieces):
            if piece.key == key:
                return i
        return None

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
    out_key, in_key = comps[0].out_key, comps[0].in_key
    carrier = direct_sum(*(c.carrier for c in comps))
    offsets = sum_offsets(c.carrier for c in comps)

    def blockwise(maps):
        return place_blocks(carrier, carrier, zip(maps, offsets, offsets))

    out_gens = {
        s.images: blockwise(c.rho_out(s) for c in comps) for s in stabilizer_generators(out_key)
    }
    in_gens = {
        s.images: blockwise(c.rho_in(s) for c in comps) for s in stabilizer_generators(in_key)
    }
    layout = DirectSumLayout(tuple(pieces), tuple(offsets))
    return BimoduleComponent(out_key, in_key, carrier, out_gens, in_gens, layout)


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
        return sorted(self.components, key=lambda kk: (kk[0], kk[1]))

    def component(self, out_key, in_key):
        return self.components.get((out_key, in_key))

    def total_dim(self):
        return sum(c.total_dim() for c in self.components.values())


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
        return comp.rho(u, v)

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

    def descend(m: ChainMap) -> ChainMap:
        return proj.compose(m).compose(sect)

    out_gens = {}
    for s in stabilizer_generators(x.out_key):
        big = assemble_tensor_map(
            space, space, [(xs, xs, x.rho_out(s)), (ys, ys, ChainMap.identity(y.carrier))]
        )
        out_gens[s.images] = descend(big)
    in_gens = {}
    for s in stabilizer_generators(y.in_key):
        big = assemble_tensor_map(
            space, space, [(xs, xs, ChainMap.identity(x.carrier)), (ys, ys, y.rho_in(s))]
        )
        in_gens[s.images] = descend(big)
    layout = CoinvariantLayout(space, proj, sect, x, y)
    return BimoduleComponent(x.out_key, y.in_key, quotient, out_gens, in_gens, layout)


def box_v(p: ColoredBimodule, q: ColoredBimodule) -> ColoredBimodule:
    """Vertical product: sum over middle orbits of the coinvariant composites."""
    if p.palette != q.palette:
        raise BimoduleError("palette mismatch")
    buckets = {}
    for (kd, kb), px in sorted(p.components.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        for (kb2, kc), qy in sorted(q.components.items(), key=lambda kv: (kv[0][0], kv[0][1])):
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
        arrangements = sorted(set(itertools.permutations(
            [i for i, cnt in enumerate(counts) for _ in range(cnt)]
        )))
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


def _placement_blocks(assignment, n_factors):
    """Positions (ascending) owned by each factor."""
    blocks = [[] for _ in range(n_factors)]
    for pos, fac in enumerate(assignment):
        blocks[fac].append(pos)
    return blocks


def _moved_placement(assignment, perm_positions):
    """Placement after moving position p to perm_positions[p]."""
    out = [None] * len(assignment)
    for pos, fac in enumerate(assignment):
        out[perm_positions[pos]] = fac
    return tuple(out)


def _twists(assignment, new_assignment, perm_positions, n_factors):
    """Per-factor correction permutations pi_i with m'_i pi_i = sigma m_i.

    Each is a permutation by construction, so it is built without the check:
    perm_positions maps factor i's positions in the placement one to one onto
    its positions in the moved placement."""
    old_blocks = _placement_blocks(assignment, n_factors)
    new_blocks = _placement_blocks(new_assignment, n_factors)
    twists = []
    for i in range(n_factors):
        new_index = {pos: k for k, pos in enumerate(new_blocks[i])}
        images = [0] * len(old_blocks[i])
        for ell, pos in enumerate(old_blocks[i]):
            images[ell] = new_index[perm_positions[pos]] + 1
        twists.append(Permutation._trusted(images))
    return twists


def box_dot_many(palette, factors) -> BimoduleComponent:
    """Iterated induced representation of a list of components.

    Carrier = one copy of (x)_i V_i per (out placement, in placement) pair;
    dim = [G : H] prod dim V_i.  The Young actions permute placements and
    twist the decorations through the block corrections.
    """
    if not factors:
        raise BimoduleError("box_dot needs at least one factor")
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
    carrier = direct_sum(*[layout.tensor.complex] * len(layout.index))

    factor_spaces = [TensorSpace([f.carrier]) for f in factors]
    identity = ChainMap.identity(layout.tensor.complex)

    def decorated(side, twists):
        """The tensor of the factors' actions of the twists on one side; when
        every twist is the identity, the one identity of this call."""
        if all(t.is_identity() for t in twists):
            return identity
        maps = [f.rho_out(t) if side == "out" else f.rho_in(t) for f, t in zip(factors, twists)]
        return assemble_tensor_map(
            layout.tensor, layout.tensor, [(fs, fs, m) for fs, m in zip(factor_spaces, maps)]
        )

    def copy_offsets(out_place, in_place):
        return layout.copy_offsets(layout.index[(out_place, in_place)])

    def action_blocks(side, sigma):
        """(decoration, target offsets, source offsets) per copy.  A placement
        moves on one side only, so each moved placement's decoration is built
        once and shared by the copies of all its partner placements."""
        if side == "out":
            perm_positions = [sigma(i + 1) - 1 for i in range(sigma.n)]
            for ao in layout.outs:
                new_a = _moved_placement(ao, perm_positions)
                tw = _twists(ao, new_a, perm_positions, len(factors))
                dec = decorated(side, tw)
                for ai in layout.ins:
                    yield dec, copy_offsets(new_a, ai), copy_offsets(ao, ai)
        else:
            perm_positions = [sigma.inverse()(i + 1) - 1 for i in range(sigma.n)]
            for ai in layout.ins:
                new_a = _moved_placement(ai, perm_positions)
                tw = _twists(ai, new_a, perm_positions, len(factors))
                dec = decorated(side, [t.inverse() for t in tw])
                for ao in layout.outs:
                    yield dec, copy_offsets(ao, new_a), copy_offsets(ao, ai)

    out_gens = {
        s.images: place_blocks(carrier, carrier, action_blocks("out", s))
        for s in stabilizer_generators(merged_out)
    }
    in_gens = {
        s.images: place_blocks(carrier, carrier, action_blocks("in", s))
        for s in stabilizer_generators(merged_in)
    }
    return BimoduleComponent(merged_out, merged_in, carrier, out_gens, in_gens, layout)


def box_dot(palette, x: BimoduleComponent, y: BimoduleComponent) -> BimoduleComponent:
    return box_dot_many(palette, [x, y])


def box_h(p: ColoredBimodule, q: ColoredBimodule) -> ColoredBimodule:
    """Horizontal product: one induced summand per ordered pair of orbit splittings."""
    if p.palette != q.palette:
        raise BimoduleError("palette mismatch")
    buckets = {}
    for (kd1, kc1), px in sorted(p.components.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        for (kd2, kc2), qy in sorted(q.components.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            comp = box_dot_many(p.palette, [px, qy])
            if comp.carrier.is_zero():
                continue
            key = (comp.out_key, comp.in_key)
            buckets.setdefault(key, []).append(SumPiece(((kd1, kc1), (kd2, kc2)), comp))
    components = {key: sum_components(pieces) for key, pieces in buckets.items()}
    return ColoredBimodule(p.palette, components)


# ---------------------------------------------------------------------------
# change of colors


def _profiles_with_image(source_palette, alpha, target_profile):
    """All source profiles mapping entrywise onto the given target profile."""
    choices = []
    for color in target_profile.entries:
        pre = [c for c in source_palette.colors if alpha[c] == color]
        if not pre:
            return []
        choices.append(pre)
    return [Profile(source_palette, combo) for combo in itertools.product(*choices)]


def change_colors(alpha, direction, module: ColoredBimodule, source_palette=None, target_palette=None) -> ColoredBimodule:
    """Restrict (precompose with alpha) or induce (sum over preimage profiles).

    alpha: dict source color -> target color.  For `restrict`, `module` lives
    over the target palette and the result over the source palette; for
    `induce` the other way around.
    """
    if direction == "restrict":
        if source_palette is None:
            raise BimoduleError("restrict needs the source palette")
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
    if direction == "induce":
        if target_palette is None:
            raise BimoduleError("induce needs the target palette")
        out = {}
        buckets = {}
        for (kd, kc), comp in module.components.items():
            image_out = Profile(target_palette, [alpha[c] for c in kd.rep.entries])
            image_in = Profile(target_palette, [alpha[c] for c in kc.rep.entries])
            kd2, _ = canonicalize_profile(image_out)
            kc2, _ = canonicalize_profile(image_in)
            buckets.setdefault((kd2, kc2), None)
        for (kd2, kc2) in sorted(buckets, key=lambda kk: (kk[0], kk[1])):
            comp = _induced_component(alpha, module, kd2, kc2)
            if comp is not None:
                out[(kd2, kc2)] = comp
        return ColoredBimodule(target_palette, out)
    raise BimoduleError("direction must be 'restrict' or 'induce'")


def _restricted_component(alpha, module, kd, kc):
    image_out = Profile(module.palette, [alpha[c] for c in kd.rep.entries])
    image_in = Profile(module.palette, [alpha[c] for c in kc.rep.entries])
    carrier, structure = component_at(module, image_out, image_in)
    if carrier.is_zero():
        return None
    out_gens = {}
    for s in stabilizer_generators(kd):
        out_gens[s.images] = structure(s, Permutation.identity(kc.length))
    in_gens = {}
    for s in stabilizer_generators(kc):
        in_gens[s.images] = structure(Permutation.identity(kd.length), s)
    return BimoduleComponent(kd, kc, carrier, out_gens, in_gens)


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
    if not summands:
        return None
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

    out_gens = {
        s.images: place_blocks(carrier, carrier, act_blocks("out", s))
        for s in stabilizer_generators(kd2)
    }
    in_gens = {
        s.images: place_blocks(carrier, carrier, act_blocks("in", s))
        for s in stabilizer_generators(kc2)
    }
    return BimoduleComponent(kd2, kc2, carrier, out_gens, in_gens)


# ---------------------------------------------------------------------------
# transported compositions: vertical structure on box_h, horizontal on box_v


class VPropData:
    """Bimodule with an associative vertical composition.

    vcomp[(kd, kb, kc)]: ChainMap from tensor(P(kd,kb), P(kb,kc)) to P(kd,kc)
    in skeletal coordinates; it must coequalize the middle stabilizer (the
    relation x.g (x) y ~ x (x) g.y) and be associative.
    """

    def __init__(self, module: ColoredBimodule, vcomp):
        self.module = module
        self.vcomp = dict(vcomp)

    def compose_map(self, kd, kb, kc):
        m = self.vcomp.get((kd, kb, kc))
        if m is not None:
            return m
        left = self.module.component(kd, kb)
        right = self.module.component(kb, kc)
        target = self.module.component(kd, kc)
        src = (
            TensorSpace([left.carrier, right.carrier]).complex
            if left and right
            else ZERO_COMPLEX
        )
        tgt = target.carrier if target else ZERO_COMPLEX
        return ChainMap.zero(src, tgt)

    def validate(self):
        failures = []
        for (kd, kb, kc), m in self.vcomp.items():
            left = self.module.component(kd, kb)
            right = self.module.component(kb, kc)
            if left is None or right is None:
                failures.append("composition on a zero component at %r" % ((kd, kb, kc),))
                continue
            space = TensorSpace([left.carrier, right.carrier])
            ls, rs = TensorSpace([left.carrier]), TensorSpace([right.carrier])
            for g in stabilizer_generators(kb):
                rel = assemble_tensor_map(
                    space, space, [(ls, ls, left.rho_in(g.inverse())), (rs, rs, right.rho_out(g))]
                )
                if m.compose(rel) != m:
                    failures.append("middle coequalization fails at %r" % ((kd, kb, kc),))
                    break
        # associativity on available triples
        for (kd, kb, kc) in list(self.vcomp):
            for (kb2, kc2, ka) in list(self.vcomp):
                if (kb2, kc2) != (kb, kc):
                    continue
                if (kd, kb, ka) not in self.vcomp and (kd, kc, ka) not in self.vcomp:
                    continue
                left = self.module.component(kd, kb)
                mid = self.module.component(kb, kc)
                right = self.module.component(kc, ka)
                if left is None or mid is None or right is None:
                    continue
                space3 = TensorSpace([left.carrier, mid.carrier, right.carrier])
                s1 = TensorSpace([left.carrier])
                s2 = TensorSpace([mid.carrier])
                s3 = TensorSpace([right.carrier])
                lm = self.compose_map(kd, kb, kc)
                lm_r = self.compose_map(kd, kc, ka)
                mr = self.compose_map(kb, kc, ka)
                l_mr = self.compose_map(kd, kb, ka)
                pair12 = TensorSpace([lm.target, right.carrier])
                first = assemble_tensor_map(
                    space3,
                    pair12,
                    [(TensorSpace([left.carrier, mid.carrier]), TensorSpace([lm.target]), lm), (s3, s3, ChainMap.identity(right.carrier))],
                )
                route1 = lm_r.compose(first)
                pair23 = TensorSpace([left.carrier, mr.target])
                second = assemble_tensor_map(
                    space3,
                    pair23,
                    [(s1, s1, ChainMap.identity(left.carrier)), (TensorSpace([mid.carrier, right.carrier]), TensorSpace([mr.target]), mr)],
                )
                route2 = l_mr.compose(second)
                if route1 != route2:
                    failures.append(
                        "vertical associativity fails on (%r, %r, %r, %r)" % (kd, kb, kc, ka)
                    )
        return failures


class HPropData:
    """Bimodule with an associative bi-equivariant horizontal composition.

    hcomp[((kd1,kc1),(kd2,kc2))]: ChainMap from tensor of the two carriers to
    the component at the merged orbit keys, in skeletal coordinates (the
    concrete concatenated object transported onto the representative by the
    canonical transports).
    """

    def __init__(self, module: ColoredBimodule, hcomp):
        self.module = module
        self.hcomp = dict(hcomp)

    def compose_map(self, key1, key2):
        m = self.hcomp.get((key1, key2))
        if m is not None:
            return m
        c1 = self.module.component(*key1)
        c2 = self.module.component(*key2)
        merged_out = merge_keys(self.module.palette, [key1[0], key2[0]])
        merged_in = merge_keys(self.module.palette, [key1[1], key2[1]])
        target = self.module.component(merged_out, merged_in)
        src = (
            TensorSpace([c1.carrier, c2.carrier]).complex if c1 and c2 else ZERO_COMPLEX
        )
        tgt = target.carrier if target else ZERO_COMPLEX
        return ChainMap.zero(src, tgt)


def _switched_tensor(f: ChainMap, g: ChainMap, first: TensorSpace, second: TensorSpace, target: TensorSpace):
    """The shared core (f (x) g) o switch of the transported compositions.

    On first (x) second = a (x) b (x) c (x) d, the switch sends a (x) b (x) c
    (x) d to a (x) c (x) b (x) d with the Koszul sign, then f: a (x) c and
    g: b (x) d map into the two factors of target.  Returns the TensorSpace
    over [a, b, c, d] and the map.
    """
    a, b = first.factors
    c, d = second.factors
    space, switched = TensorSpace([a, b, c, d]), TensorSpace([a, c, b, d])
    switch = factor_permutation_map(space.factors, Permutation([1, 3, 2, 4]), space, switched)
    fg = assemble_tensor_map(
        switched,
        target,
        [(TensorSpace([a, c]), TensorSpace([f.target]), f), (TensorSpace([b, d]), TensorSpace([g.target]), g)],
    )
    return space, fg.compose(switch)


def _shifted(offsets, extra):
    return {n: offsets.get(n, 0) + extra.get(n, 0) for n in offsets.keys() | extra.keys()}


def _copy_projection(carrier: ChainComplex, layout: InducedLayout, piece_offsets, pair) -> ChainMap:
    """carrier -> layout.tensor: the coordinates of the copy of the placement
    pair, in the induced piece that starts at piece_offsets."""
    cols = _shifted(piece_offsets, layout.copy_offsets(layout.index[pair]))
    tensor = layout.tensor.complex
    return place_blocks(carrier, tensor, [(ChainMap.identity(tensor), {}, cols)])


def induce_vertical_on_boxh(p_data: VPropData, q_data: VPropData):
    """Vertical composition on P box_h Q.  Returns (module, VPropData).

    An upper copy (out placement, middle placement) of a piece P(kd1,kb1) .
    Q(kd2,kb2) and a lower copy (that middle placement, in placement) of
    P(kb1,kc1) . Q(kb2,kc2) compose to iota_t o (vcomp_P (x) vcomp_Q) o
    switch o split: split projects onto the copies as p1 (x) q1 (x) p2 (x) q2,
    and iota_t includes the result as the copy (out placement, in placement)
    of the target piece.  Copies whose middle placements differ compose to
    zero; a triple whose target is zero gets no map.
    """
    r = box_h(p_data.module, q_data.module)
    vcomp = {}
    for (kd, kb), upper in r.components.items():
        for (kb2, kc), lower in r.components.items():
            target = r.component(kd, kc)
            if kb2 == kb and target is not None:
                space = TensorSpace([upper.carrier, lower.carrier])
                terms = _boxh_vertical_terms(p_data, q_data, space, upper, lower, target)
                vcomp[(kd, kb, kc)] = place_blocks(space.complex, target.carrier, terms)
    return r, VPropData(r, vcomp)


def _boxh_vertical_terms(p_data, q_data, space, upper, lower, target):
    """The terms as place_blocks blocks; each reads its own pair of copies, so
    no two share an entry."""
    us, ls = TensorSpace([upper.carrier]), TensorSpace([lower.carrier])
    tgt = target.layout
    for u_piece, u_off in zip(upper.layout.pieces, upper.layout.offsets):
        (kd1, kb1), (kd2, kb2) = u_piece.key
        for l_piece, l_off in zip(lower.layout.pieces, lower.layout.offsets):
            (kb1_, kc1), (kb2_, kc2) = l_piece.key
            t = tgt.find(((kd1, kc1), (kd2, kc2))) if (kb1_, kb2_) == (kb1, kb2) else None
            if t is None:
                continue
            vc_p = p_data.compose_map(kd1, kb1, kc1)
            vc_q = q_data.compose_map(kd2, kb2, kc2)
            if vc_p.is_zero() or vc_q.is_zero():
                continue
            ue, le = u_piece.component.layout, l_piece.component.layout
            te = tgt.pieces[t].component.layout
            four, core = _switched_tensor(vc_p, vc_q, ue.tensor, le.tensor, te.tensor)
            for ao, mid, ai in itertools.product(ue.outs, ue.ins, le.ins):
                halves = [
                    (us, ue.tensor, _copy_projection(upper.carrier, ue, u_off, (ao, mid))),
                    (ls, le.tensor, _copy_projection(lower.carrier, le, l_off, (mid, ai))),
                ]
                rows = _shifted(tgt.offsets[t], te.copy_offsets(te.index[(ao, ai)]))
                yield core.compose(assemble_tensor_map(space, four, halves)), rows, {}


def induce_horizontal_on_boxv(p_data: HPropData, q_data: HPropData, module=None):
    """Horizontal composition on P box_v Q.  Returns (module, HPropData).

    Middle pieces P(kd1,kb1) (x)_S Q(kb1,kc1) and P(kd2,kb2) (x)_S Q(kb2,kc2)
    compose to iota_t o proj_t o (hcomp_P (x) hcomp_Q) o switch o split:
    split lifts the classes through the sections as x1 (x) y1 (x) x2 (x) y2,
    and proj_t and iota_t take the result to the target piece's coinvariants.

    `module` may supply a prebuilt box_v(P, Q); the result does not depend on
    the choice of its sections, which is what makes it well defined on classes.
    """
    r = module if module is not None else box_v(p_data.module, q_data.module)
    hcomp = {}
    keys = sorted(r.components, key=lambda kk: (kk[0], kk[1]))
    for key1, key2 in itertools.product(keys, keys):
        merged_out = merge_keys(r.palette, [key1[0], key2[0]])
        merged_in = merge_keys(r.palette, [key1[1], key2[1]])
        target = r.component(merged_out, merged_in)
        if target is not None:
            c1, c2 = r.component(*key1), r.component(*key2)
            space = TensorSpace([c1.carrier, c2.carrier])
            terms = _boxv_horizontal_terms(p_data, q_data, space, c1, c2, target)
            hcomp[(key1, key2)] = place_blocks(space.complex, target.carrier, terms)
    return r, HPropData(r, hcomp)


def _boxv_horizontal_terms(p_data, q_data, space, c1, c2, target):
    """The terms as place_blocks blocks, one per pair of middle pieces, so no
    two share an entry."""
    s1, s2 = TensorSpace([c1.carrier]), TensorSpace([c2.carrier])
    tgt = target.layout
    for piece1, off1 in zip(c1.layout.pieces, c1.layout.offsets):
        for piece2, off2 in zip(c2.layout.pieces, c2.layout.offsets):
            t = tgt.find(merge_keys(p_data.module.palette, [piece1.key, piece2.key]))
            if t is None:
                continue
            e1, e2 = piece1.component.layout, piece2.component.layout
            h_p = p_data.compose_map((e1.left.out_key, e1.left.in_key), (e2.left.out_key, e2.left.in_key))
            h_q = q_data.compose_map((e1.right.out_key, e1.right.in_key), (e2.right.out_key, e2.right.in_key))
            if h_p.is_zero() or h_q.is_zero():
                continue
            te = tgt.pieces[t].component.layout
            four, core = _switched_tensor(h_p, h_q, e1.space, e2.space, te.space)
            halves = [
                (s1, e1.space, place_blocks(c1.carrier, e1.space.complex, [(e1.sect, {}, off1)])),
                (s2, e2.space, place_blocks(c2.carrier, e2.space.complex, [(e2.sect, {}, off2)])),
            ]
            term = te.proj.compose(core).compose(assemble_tensor_map(space, four, halves))
            yield term, tgt.offsets[t], {}
