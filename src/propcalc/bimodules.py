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
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from propcalc import linalg
from propcalc.chains import (
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
    ProfileError,
    apply_permutation,
    canonicalize_profile,
    stabilizer_elements,
    stabilizer_generators,
    stabilizer_order,
    word_in_block_transpositions,
)

ONE = Fraction(1)


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
        for s in stabilizer_generators(out_key):
            if s.images not in self.out_gens:
                raise BimoduleError("missing out-generator action %r" % (s.images,))
        for s in stabilizer_generators(in_key):
            if s.images not in self.in_gens:
                raise BimoduleError("missing in-generator action %r" % (s.images,))
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
        """Action of (sigma; 1) for sigma in the out stabilizer."""
        word = word_in_block_transpositions(self.out_key, sigma)
        m = ChainMap.identity(self.carrier)
        for s in word:
            m = m.compose(self.out_gens[s.images])
        return m

    def rho_in(self, tau: Permutation) -> ChainMap:
        """Action of (1; tau) for tau in the in stabilizer (contravariant side)."""
        word = word_in_block_transpositions(self.in_key, tau)
        m = ChainMap.identity(self.carrier)
        for s in word:
            m = self.in_gens[s.images].compose(m)
        return m

    def rho(self, sigma: Permutation, tau: Permutation) -> ChainMap:
        return self.rho_out(sigma).compose(self.rho_in(tau))

    def validate(self, group_order_cap=48, rng=None, samples=20):
        """Check the action axioms; exhaustive when the stabilizers are small.

        Verifies: actions are chain maps, the group laws hold (full
        multiplication tables up to group_order_cap, sampled otherwise), and
        the two sides commute.
        """
        failures = []
        for mats in (self.out_gens, self.in_gens):
            for images, m in mats.items():
                for n in self.carrier.degrees():
                    if n == 0:
                        continue
                    lhs = linalg.mat_mul(self.carrier.d(n), m.mat(n))
                    rhs = linalg.mat_mul(m.mat(n - 1), self.carrier.d(n))
                    if not linalg.mat_eq(lhs, rhs):
                        failures.append(
                            "action %r does not commute with the differential" % (images,)
                        )
                        break
        out_elems = stabilizer_elements(self.out_key)
        in_elems = stabilizer_elements(self.in_key)

        def pairs(elems):
            if len(elems) <= group_order_cap:
                return itertools.product(elems, elems)
            rng2 = rng
            if rng2 is None:
                import random as _random

                rng2 = _random.Random(0)
            return [(rng2.choice(elems), rng2.choice(elems)) for _ in range(samples)]

        for g, h in pairs(out_elems):
            if self.rho_out(g).compose(self.rho_out(h)) != self.rho_out(g * h):
                failures.append("out-action group law fails at %r, %r" % (g.images, h.images))
                break
        for g, h in pairs(in_elems):
            if self.rho_in(h).compose(self.rho_in(g)) != self.rho_in(g * h):
                failures.append("in-action group law fails at %r, %r" % (g.images, h.images))
                break
        for g in out_elems[: min(len(out_elems), 8)]:
            for h in in_elems[: min(len(in_elems), 8)]:
                if self.rho_out(g).compose(self.rho_in(h)) != self.rho_in(h).compose(self.rho_out(g)):
                    failures.append("out/in actions do not commute")
                    break
        return failures


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

    def flat(self, n: int, out_place, in_place, tensor_flat: int) -> int:
        """Degree-n carrier index of tensor basis vector tensor_flat in the copy
        of the placement pair."""
        return self.index[(out_place, in_place)] * self.tensor.complex.dim(n) + tensor_flat

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
        zero = ChainComplex({})

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
            mat = m.mat(n)
            for j in range(dim):
                row = [ -mat[i][j] for i in range(dim) ]
                row[j] += ONE
                if any(x != 0 for x in row):
                    rows.append(row)
        proj, sect = linalg.quotient_by_rowspace(rows, dim)
        projs[n] = proj
        sects[n] = sect
        if proj:
            dims[n] = len(proj)
    boundary = {}
    for n in sorted(dims):
        if dims.get(n) and dims.get(n - 1):
            boundary[n] = linalg.mat_mul(projs[n - 1], linalg.mat_mul(space.d(n), sects[n]))
    quotient = ChainComplex(dims, boundary)
    proj_map = ChainMap(space, quotient, {n: projs[n] for n in dims}, check=False)
    sect_map = ChainMap(quotient, space, {n: sects[n] for n in dims}, check=False)
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
    """Orbit of the concatenation of the keys' representatives."""
    entries = []
    for k in keys:
        entries.extend(k.rep.entries)
    entries.sort(key=palette.order)
    return OrbitKey(Profile(palette, entries))


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
    """Per-factor correction permutations pi_i with m'_i pi_i = sigma m_i."""
    old_blocks = _placement_blocks(assignment, n_factors)
    new_blocks = _placement_blocks(new_assignment, n_factors)
    twists = []
    for i in range(n_factors):
        new_index = {pos: k for k, pos in enumerate(new_blocks[i])}
        images = [0] * len(old_blocks[i])
        for ell, pos in enumerate(old_blocks[i]):
            images[ell] = new_index[perm_positions[pos]] + 1
        twists.append(Permutation(images))
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

    def decorated(maps):
        return assemble_tensor_map(
            layout.tensor, layout.tensor, [(fs, fs, m) for fs, m in zip(factor_spaces, maps)]
        )

    def action_blocks(side, sigma):
        perm_positions = (
            [sigma(i + 1) - 1 for i in range(sigma.n)]
            if side == "out"
            else [sigma.inverse()(i + 1) - 1 for i in range(sigma.n)]
        )
        for (ao, ai), src in layout.index.items():
            if side == "out":
                new_a = _moved_placement(ao, perm_positions)
                tw = _twists(ao, new_a, perm_positions, len(factors))
                tgt = layout.index[(new_a, ai)]
                dec = decorated([f.rho_out(t) for f, t in zip(factors, tw)])
            else:
                new_a = _moved_placement(ai, perm_positions)
                tw = _twists(ai, new_a, perm_positions, len(factors))
                tgt = layout.index[(ao, new_a)]
                dec = decorated([f.rho_in(t.inverse()) for f, t in zip(factors, tw)])
            yield dec, layout.copy_offsets(tgt), layout.copy_offsets(src)

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


def induced_dim_law(palette, factors) -> bool:
    """[G:H] prod dims by explicit coset enumeration equals the built dimension."""
    comp = box_dot_many(palette, factors)
    merged_out = comp.out_key
    merged_in = comp.in_key
    index = _coset_count(palette, [f.out_key for f in factors], merged_out) * _coset_count(
        palette, [f.in_key for f in factors], merged_in
    )
    prod = 1
    for f in factors:
        prod *= f.carrier.total_dim()
    return comp.carrier.total_dim() == index * prod


def _coset_count(palette, keys, merged) -> int:
    """#G / #H by enumerating the subgroup embedding through a transport."""
    concat_entries = []
    for k in keys:
        concat_entries.extend(k.rep.entries)
    concat = Profile(palette, concat_entries)
    _, transport = canonicalize_profile(concat)
    g_elems = stabilizer_elements(merged)
    h_embedded = set()
    blocks = [stabilizer_elements(k) for k in keys]
    for combo in itertools.product(*blocks):
        acc = None
        for piece in combo:
            acc = piece if acc is None else acc.block_sum(piece)
        emb = transport.inverse() * acc * transport
        h_embedded.add(emb.images)
    seen = set()
    count = 0
    for g in g_elems:
        if g.images in seen:
            continue
        count += 1
        for h in h_embedded:
            seen.add((g * Permutation(h)).images)
    return count


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
                for combo_o in itertools.product(source_palette.colors, repeat=lo):
                    d_prof = Profile(source_palette, combo_o)
                    kd, _ = canonicalize_profile(d_prof)
                    if kd.rep != d_prof:
                        continue
                    for combo_i in itertools.product(source_palette.colors, repeat=li):
                        c_prof = Profile(source_palette, combo_i)
                        kc, _ = canonicalize_profile(c_prof)
                        if kc.rep != c_prof:
                            continue
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
            else ChainComplex({})
        )
        tgt = target.carrier if target else ChainComplex({})
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
            TensorSpace([c1.carrier, c2.carrier]).complex if c1 and c2 else ChainComplex({})
        )
        tgt = target.carrier if target else ChainComplex({})
        return ChainMap.zero(src, tgt)


def induce_vertical_on_boxh(p_data: VPropData, q_data: VPropData):
    """Vertical composition on P box_h Q, summandwise along matching middles.

    The composite of basis elements is zero unless the two middle splittings
    agree (same orbit pair and same placement); otherwise it composes the P
    and Q decorations with the Koszul switch sign.  Returns (module, VPropData).
    """
    p, q = p_data.module, q_data.module
    r = box_h(p, q)
    vcomp = {}
    keys = set(r.components)
    for (kd, kb) in keys:
        for (kb2, kc) in keys:
            if kb2 != kb:
                continue
            upper = r.component(kd, kb)
            lower = r.component(kb, kc)
            target = r.component(kd, kc)
            space = TensorSpace([upper.carrier, lower.carrier])
            mats = {
                n: linalg.zeros(target.carrier.dim(n), space.complex.dim(n))
                for n in space.complex.degrees()
            }
            _fill_boxh_vertical(
                p_data, q_data, upper, lower, target, space, mats
            )
            mats = {n: m for n, m in mats.items() if not linalg.is_zero(m)}
            vcomp[(kd, kb, kc)] = ChainMap(
                space.complex, target.carrier, mats, check=False
            )
    return r, VPropData(r, vcomp)


def _fill_boxh_vertical(p_data, q_data, upper, lower, target, space, mats):
    up, low, tgt = upper.layout, lower.layout, target.layout
    for u_piece, u_off in zip(up.pieces, up.offsets):
        (kd1, kb1), (kd2, kb2) = u_piece.key
        for l_piece, l_off in zip(low.pieces, low.offsets):
            (kb1p, kc1), (kb2p, kc2) = l_piece.key
            if kb1p != kb1 or kb2p != kb2:
                continue
            t = tgt.find(((kd1, kc1), (kd2, kc2)))
            if t is None:
                continue
            vc_p = p_data.compose_map(kd1, kb1, kc1)
            vc_q = q_data.compose_map(kd2, kb2, kc2)
            if vc_p.is_zero() and vc_q.is_zero():
                continue
            _fill_boxh_vertical_piece(
                (u_piece.component.layout, u_off),
                (l_piece.component.layout, l_off),
                (tgt.pieces[t].component.layout, tgt.offsets[t]),
                vc_p,
                vc_q,
                space,
                mats,
            )


def _fill_boxh_vertical_piece(upper, lower, target, vc_p, vc_q, space, mats):
    """Add the composites of one (upper piece, lower piece) pair; each of
    upper, lower, target is (InducedLayout, per-degree offset of the piece)."""
    (ue, u_off), (le, l_off), (te, t_off) = upper, lower, target
    u_tensor = ue.tensor
    l_tensor = le.tensor
    t_tensor = te.tensor
    p1 = u_tensor.factors[0]
    q1 = u_tensor.factors[1]
    p2 = l_tensor.factors[0]
    q2 = l_tensor.factors[1]
    tp_space = TensorSpace([p1, p2])
    tq_space = TensorSpace([q1, q2])
    for ao_u in ue.outs:
        for mid_a in ue.ins:
            if mid_a not in le.outs:
                continue
            for ai_l in le.ins:
                for du in u_tensor.complex.degrees():
                    u_start = u_off.get(du, 0) + ue.flat(du, ao_u, mid_a, 0)
                    for dl in l_tensor.complex.degrees():
                        n = du + dl
                        if space.complex.dim(n) == 0:
                            continue
                        l_start = l_off.get(dl, 0) + le.flat(dl, mid_a, ai_l, 0)
                        t_start = t_off.get(n, 0) + te.flat(n, ao_u, ai_l, 0)
                        for (cu, iu) in u_tensor.basis(du):
                            u_global = u_start + u_tensor.flat_index(cu, iu)
                            for (cl, il) in l_tensor.basis(dl):
                                l_global = l_start + l_tensor.flat_index(cl, il)
                                col = space.flat_index((du, dl), (u_global, l_global))
                                dx1, dx2 = cu
                                dy1, dy2 = cl
                                i1, i2 = iu
                                j1, j2 = il
                                sign = -1 if (dx2 % 2 and dy1 % 2) else 1
                                pcol = tp_space.flat_index((dx1, dy1), (i1, j1))
                                qcol = tq_space.flat_index((dx2, dy2), (i2, j2))
                                mp = vc_p.mat(dx1 + dy1)
                                mq = vc_q.mat(dx2 + dy2)
                                if not mp or not mp[0] or not mq or not mq[0]:
                                    continue
                                for rp in range(len(mp)):
                                    a = mp[rp][pcol]
                                    if a == 0:
                                        continue
                                    for rq in range(len(mq)):
                                        b = mq[rq][qcol]
                                        if b == 0:
                                            continue
                                        # rows live in P(kd1,kc1) at degree dx1+dy1, Q part likewise
                                        trow = t_tensor.flat_index((dx1 + dy1, dx2 + dy2), (rp, rq))
                                        mats[n][t_start + trow][col] += sign * a * b


def induce_horizontal_on_boxv(p_data: HPropData, q_data: HPropData, module=None):
    """Horizontal composition on P box_v Q: switch, compose in P and Q, project
    back to the middle coinvariants.  Returns (module, HPropData).

    `module` may supply a prebuilt box_v(P, Q); the construction only depends
    on it through projections onto the middle coinvariants, never on the
    choice of sections (section-independence is what makes the map well
    defined on classes).
    """
    p, q = p_data.module, q_data.module
    r = module if module is not None else box_v(p, q)
    hcomp = {}
    keys = sorted(r.components, key=lambda kk: (kk[0], kk[1]))
    for key1 in keys:
        for key2 in keys:
            c1 = r.component(*key1)
            c2 = r.component(*key2)
            merged_out = merge_keys(r.palette, [key1[0], key2[0]])
            merged_in = merge_keys(r.palette, [key1[1], key2[1]])
            target = r.component(merged_out, merged_in)
            if target is None:
                continue
            space = TensorSpace([c1.carrier, c2.carrier])
            mats = {
                n: linalg.zeros(target.carrier.dim(n), space.complex.dim(n))
                for n in space.complex.degrees()
            }
            _fill_boxv_horizontal(p_data, q_data, c1, c2, target, space, mats)
            mats = {n: m for n, m in mats.items() if not linalg.is_zero(m)}
            hcomp[(key1, key2)] = ChainMap(space.complex, target.carrier, mats, check=False)
    return r, HPropData(r, hcomp)


def _fill_boxv_horizontal(p_data, q_data, c1, c2, target, space, mats):
    lay1, lay2, tgt = c1.layout, c2.layout, target.layout
    for piece1, off1 in zip(lay1.pieces, lay1.offsets):
        for piece2, off2 in zip(lay2.pieces, lay2.offsets):
            t = tgt.find(merge_keys(p_data.module.palette, [piece1.key, piece2.key]))
            if t is None:
                continue
            e1 = piece1.component.layout
            e2 = piece2.component.layout
            h_p = p_data.compose_map(
                (e1.left.out_key, e1.left.in_key), (e2.left.out_key, e2.left.in_key)
            )
            h_q = q_data.compose_map(
                (e1.right.out_key, e1.right.in_key), (e2.right.out_key, e2.right.in_key)
            )
            if h_p.is_zero() or h_q.is_zero():
                continue
            _fill_boxv_piece(
                (piece1.component, off1),
                (piece2.component, off2),
                (tgt.pieces[t].component.layout, tgt.offsets[t]),
                h_p,
                h_q,
                space,
                mats,
            )


def _fill_boxv_piece(first, second, target, h_p, h_q, space, mats):
    """Add the composites of one pair of middle pieces; first and second are
    (piece component, its per-degree offset), target is (CoinvariantLayout,
    per-degree offset)."""
    (c1, off1), (c2, off2), (te, t_off) = first, second, target
    e1, e2 = c1.layout, c2.layout
    sp1 = e1.space  # TensorSpace([x1, y1])
    sp2 = e2.space
    xp_space = TensorSpace([sp1.factors[0], sp2.factors[0]])
    yq_space = TensorSpace([sp1.factors[1], sp2.factors[1]])
    tgt_space = te.space  # TensorSpace([P(kd,mid), Q(mid,kc)])
    for d1 in c1.carrier.degrees():
        v1 = e1.sect.mat(d1)
        for d2 in c2.carrier.degrees():
            v2 = e2.sect.mat(d2)
            n = d1 + d2
            if space.complex.dim(n) == 0:
                continue
            pm = te.proj.mat(n)
            for b1 in range(c1.carrier.dim(d1)):
                for b2 in range(c2.carrier.dim(d2)):
                    col = space.flat_index(
                        (d1, d2), (off1.get(d1, 0) + b1, off2.get(d2, 0) + b2)
                    )
                    # expand representatives
                    for r1 in range(len(v1)):
                        a1 = v1[r1][b1]
                        if a1 == 0:
                            continue
                        (dx1, dy1), (i1, j1) = sp1.unflatten(d1, r1)
                        for r2 in range(len(v2)):
                            a2 = v2[r2][b2]
                            if a2 == 0:
                                continue
                            (dx2, dy2), (i2, j2) = sp2.unflatten(d2, r2)
                            sign = -1 if (dy1 % 2 and dx2 % 2) else 1
                            pcol = xp_space.flat_index((dx1, dx2), (i1, i2))
                            qcol = yq_space.flat_index((dy1, dy2), (j1, j2))
                            mp = h_p.mat(dx1 + dx2)
                            mq = h_q.mat(dy1 + dy2)
                            if not mp or not mp[0] or not mq or not mq[0]:
                                continue
                            for rp in range(len(mp)):
                                ap = mp[rp][pcol]
                                if ap == 0:
                                    continue
                                for rq in range(len(mq)):
                                    aq = mq[rq][qcol]
                                    if aq == 0:
                                        continue
                                    traw = tgt_space.flat_index(
                                        (dx1 + dx2, dy1 + dy2), (rp, rq)
                                    )
                                    for rt in range(len(pm)):
                                        c = pm[rt][traw]
                                        if c == 0:
                                            continue
                                        row = t_off.get(n, 0) + rt
                                        mats[n][row][col] += sign * a1 * a2 * ap * aq * c
