"""Colored operads with truncated arity, the underlying-operad functor, the
free PROP on an operad, and the algebra equivalence bookkeeping.

Operad components reuse the skeletal bimodule storage with a single-color
output: O(d; c) is a carrier with a right action of Stab(c).  Composition data
gamma is stored per aligned skeletal key (d, [c], ([b_1], ..., [b_n])) as an
exact matrix from the tensor of carriers to the component at the merged input
orbit; the stored map includes the canonical transport onto the sorted
representative, so every element is kept in normal form.
"""

from __future__ import annotations

import itertools
import operator

from propcalc import linalg
from propcalc.bimodules import (
    BimoduleComponent,
    SumPiece,
    box_dot_many,
    merge_keys as merge_in_keys,
    sum_components,
)
from propcalc.chains import ZERO_COMPLEX, ChainComplex, ChainMap, TensorSpace, shared_space
from propcalc.endo import (
    ColoredFamily,
    EndoElement,
    EndoError,
    endo_component,
    endo_horizontal,
    endo_permute,
    endo_vertical,
)
from propcalc.profiles import (
    OrbitKey,
    Palette,
    Permutation,
    Profile,
    canonicalize_profile,
    stabilizer_elements,
    stabilizer_generators,
)



class OperadError(ValueError):
    pass


def color_key(palette, color) -> OrbitKey:
    k, _ = canonicalize_profile(Profile(palette, [color]))
    return k


def profile_key(palette, colors) -> OrbitKey:
    k, _ = canonicalize_profile(Profile(palette, list(colors)))
    return k


class ColoredOperad:
    """components: dict (d, in_key) -> BimoduleComponent (single-color out).

    gamma: dict (d, in_key, tuple of in_keys aligned to the representative
    positions) -> ChainMap from the tensor of the carriers to the component at
    (d, merged key).
    """

    def __init__(self, palette: Palette, max_arity: int, components, gamma):
        self.palette = palette
        self.max_arity = int(max_arity)
        self.components = {}
        for (d, in_key), comp in dict(components).items():
            if comp.carrier.is_zero():
                continue
            if in_key.length > self.max_arity:
                raise OperadError("component exceeds the declared arity bound")
            self.components[(d, in_key)] = comp
        self.gamma = dict(gamma)
        self._spaces = {}  # shared_space's table
        self._plans = {}
        self._aligned = {}

    def component(self, d, in_key):
        return self.components.get((d, in_key))

    def support(self):
        return sorted(self.components)

    def space(self, d, in_key, b_keys) -> TensorSpace:
        """The tensor of the carriers at (d, in_key) and at the inputs b_keys.

        Taken from the operad's table of spaces, keyed by the carriers'
        values (shared_space): gamma keys whose carriers are equal in dims
        and boundary entries share one space, a missing component counting
        as the zero complex.
        """
        comps = [self.component(d, in_key)]
        comps += [self.component(c, bk) for c, bk in zip(in_key.rep.entries, b_keys)]
        return shared_space(self._spaces, [comp.carrier if comp else ZERO_COMPLEX for comp in comps])

    def plan(self, d, in_key, b_keys):
        """(gamma map, merged key, tensor space, nonzero columns of gamma per
        degree as {column: [(row, entry)]}) at (d, in_key, b_keys); built on
        first use and again once gamma[key] is replaced.  The space gives
        compose_elements the (offset, strides) pair of each composition of
        degrees it reads (TensorSpace.strides)."""
        key = (d, in_key, b_keys)
        gm = self.gamma.get(key)
        plan = self._plans.get(key)
        if plan is None or plan[0] is not gm:
            merged = merge_in_keys(self.palette, b_keys)
            columns = {}
            for n, rows in gm.rows.items() if gm is not None else ():
                cols = columns[n] = {}
                for r, row in enumerate(rows):
                    for c, x in row.items():
                        cols.setdefault(c, []).append((r, x))
            space = self.space(d, in_key, b_keys) if columns else None
            plan = self._plans[key] = (gm, merged, space, columns)
        return plan

    # -- element-level operations -------------------------------------------

    def unit(self, d, in_key, degree, i) -> "OperadElement":
        """The i-th basis element of the component at (d, in_key) in a degree."""
        return OperadElement(self, d, in_key, degree, {i: linalg.ONE})

    def basis_elements(self, d, in_key):
        comp = self.component(d, in_key)
        if comp is None:
            return []
        return [
            self.unit(d, in_key, k, i)
            for k in comp.carrier.degrees()
            for i in range(comp.carrier.dim(k))
        ]

    def first_unit(self, d, in_key, memo):
        """The first basis vector of the lowest degree at (d, in_key), None
        without a component; memo, a dict that one check makes, holds the
        units it has built."""
        key = (d, in_key)
        if key not in memo:
            comp = self.component(d, in_key)
            memo[key] = None if comp is None else self.unit(d, in_key, comp.carrier.degrees()[0], 0)
        return memo[key]

    def first_units(self, in_key, b_keys, memo):
        """The first units at the inputs b_keys aligned to in_key's
        representative, None if one of them has no component."""
        units = [self.first_unit(c, bk, memo) for c, bk in zip(in_key.rep.entries, b_keys)]
        return None if None in units else units

    def validate(self):
        """Equivariance and associativity of gamma, on first basis elements.

        Not exhaustive: every input is its component's first unit
        (first_unit).  Equivariance is checked at every stored gamma key, for
        every basis element p of the outer component and every non-identity
        tau of its stabilizer, with first units as the inputs q.
        Associativity is checked at every component, every aligned tuple of
        inputs and every aligned tuple of their inputs within the truncation,
        with p, every q and every r first units; instances that leave the
        truncation are skipped.  gamma is multilinear, so a defect that
        spares the first units goes unseen.
        """
        return self._validate_equivariance() + self._validate_associativity()

    def _validate_equivariance(self):
        """gamma(p tau; q_{tau(1)}..) = gamma(p; q).(block permutation of tau),
        with the block permutation conjugated through the normal-form transports."""
        failures = []
        units = {}
        for (d, in_key, b_keys) in sorted(self.gamma, key=repr):
            q_els = self.first_units(in_key, b_keys, units)
            if q_els is None:
                continue
            n = in_key.length
            t_w = concat_transport(self.palette, b_keys)
            identities = [Permutation.identity(k.length) for k in b_keys]
            # the basis of p and gamma(p; q) do not depend on tau; built at the
            # first tau that needs them, so a trivial stabilizer builds nothing
            p_pairs = None
            for tau in stabilizer_elements(in_key):
                if tau.is_identity():
                    continue
                if p_pairs is None:
                    p_pairs = [(p_el, compose_elements(p_el, q_els)) for p_el in self.basis_elements(d, in_key)]
                # delta: position s of the permuted arrangement (block i holds
                # the inputs of q_{tau(i)}) to block tau(i) of the standard one
                delta = block_substitution(tau, identities)
                moved = [b_keys[tau(i) - 1] for i in range(1, n + 1)]
                u = t_w.inverse() * delta * concat_transport(self.palette, moved)
                for p_el, composite in p_pairs:
                    lhs = compose_elements(p_el.act_right(tau), [q_els[tau(i) - 1] for i in range(1, n + 1)])
                    if lhs != composite.act_right(u):
                        failures.append(
                            "gamma not equivariant at %r"
                            % ((d, in_key, b_keys, tau.images),)
                        )
                        break
        return failures

    def _validate_associativity(self):
        """gamma(gamma(p; q); r) = gamma(p; gamma(q_1; r-block_1), ...) on the
        first units of every aligned instance within the truncation.

        Instances share their factors: `units` (first_unit's memo) and
        `composites` live for one call; `composites` holds each composition
        of first units, keyed (color, in_key, input keys).  Both routes are
        still compared per instance.
        """
        units = {}
        composites = {}

        def composite(d, in_key, b_keys):
            key = (d, in_key, b_keys)
            if key not in composites:
                composites[key] = compose_elements(self.first_unit(d, in_key, units), self.first_units(in_key, b_keys, units))
            return composites[key]

        failures = []
        for (d, in_key) in self.support():
            p = self.first_unit(d, in_key, units)
            for b_keys in self._aligned_tuples(in_key):
                merged = merge_in_keys(self.palette, b_keys)
                # rep position j of `merged` is concat position t(j), which lies
                # in the block of input owners[j - 1]
                owner = [i for i, bk in enumerate(b_keys) for _ in range(bk.length)]
                t = concat_transport(self.palette, b_keys)
                owners = [owner[t(j) - 1] for j in range(1, merged.length + 1)]
                for r_choice in self._aligned_tuples(merged):
                    # route 1: (p o q) o r
                    route1 = compose_elements(composite(d, in_key, b_keys), self.first_units(merged, r_choice, units))
                    # route 2: p o (q_i o r-block_i)
                    blocks = [[] for _ in b_keys]
                    for i, rk in zip(owners, r_choice):
                        blocks[i].append(rk)
                    inner = [
                        composite(c, bk, tuple(block))
                        for c, bk, block in zip(in_key.rep.entries, b_keys, blocks)
                    ]
                    if route1 != compose_elements(p, inner):
                        failures.append(
                            "gamma not associative at %r" % ((d, in_key, b_keys, r_choice),)
                        )
        return failures

    def _aligned_tuples(self, in_key):
        """Tuples of in-keys aligned to the representative positions, within
        support; memoized, as the components are fixed at construction."""
        if in_key not in self._aligned:
            options = [sorted(k for (dd, k) in self.components if dd == c) for c in in_key.rep.entries]
            self._aligned[in_key] = [
                combo for combo in itertools.product(*options) if sum(k.length for k in combo) <= self.max_arity
            ]
        return self._aligned[in_key]


def block_substitution(sigma: Permutation, rhos) -> Permutation:
    """gamma of the permutation operad: the permutation of the concatenated
    blocks that reads them in sigma's order, block i ordered within by rhos[i]."""
    starts = list(itertools.accumulate((rho.n for rho in rhos), initial=0))
    return Permutation._trusted(
        starts[b - 1] + rhos[b - 1](l) for b in sigma.images for l in range(1, rhos[b - 1].n + 1)
    )


def concat_transport(palette, keys) -> Permutation:
    """The transport of the concatenated representatives of the keys onto the
    sorted representative of their merged orbit."""
    return canonicalize_profile(Profile(palette, [c for k in keys for c in k.rep.entries]))[1]


class OperadElement:
    """Normal-form element: skeletal coordinates at (d, in_key), one degree.

    coords is an {index: entry} dict over the component's basis in that
    degree, holding only the nonzero entries.
    """

    __slots__ = ("operad", "d", "in_key", "degree", "coords")

    def __init__(self, operad, d, in_key, degree, coords):
        self.operad = operad
        self.d = d
        self.in_key = in_key
        self.degree = int(degree)
        self.coords = coords

    def act_right(self, tau: Permutation) -> "OperadElement":
        """Right action by an element of the stabilizer (normal form kept)."""
        comp = self.operad.component(self.d, self.in_key)
        v = self.coords
        out = {}
        for r, row in enumerate(comp.rho_in(tau).block(self.degree)):
            x = sum(y * v[j] for j, y in row.items() if j in v)
            if x:
                out[r] = x
        return OperadElement(self.operad, self.d, self.in_key, self.degree, out)

    def __eq__(self, other):
        return (
            isinstance(other, OperadElement)
            and self.d == other.d
            and self.in_key == other.in_key
            and self.degree == other.degree
            and self.coords == other.coords
        )

    def __repr__(self):
        return "OperadElement(%s; %s, deg %d, %s)" % (
            self.d,
            self.in_key,
            self.degree,
            self.coords,
        )


def compose_elements(p: OperadElement, q_els) -> OperadElement:
    """gamma(p; q_1..q_n) with inputs aligned to the representative positions.

    Each combination of the factors' nonzero coordinates adds its multiple of
    one column of gamma, read sparse from the operad's plan; a coefficient of 1
    is not multiplied, and entries that cancel to zero are dropped.  The
    column is folded from the degrees' (offset, strides) pair, read once per
    call, and the combination's indices.
    """
    operad = p.operad
    in_key = p.in_key
    colors = in_key.rep.entries
    if len(q_els) != len(colors):
        raise OperadError("wrong number of inputs")
    comp = [p.degree]
    b_keys = []
    for c, q in zip(colors, q_els):
        if q.d != c:
            raise OperadError("input color mismatch: %r vs %r" % (q.d, c))
        comp.append(q.degree)
        b_keys.append(q.in_key)
    total_deg = sum(comp)
    _, merged, space, columns = operad.plan(p.d, in_key, tuple(b_keys))
    out = {}
    cols = columns.get(total_deg)
    factors = [p.coords.items()] + [q.coords.items() for q in q_els]
    if not cols or not all(factors):
        return OperadElement(operad, p.d, merged, total_deg, out)
    one = linalg.ONE
    offset, steps = space.strides(tuple(comp))
    for terms in itertools.product(*factors):
        coeff = one
        col = offset
        for (i, x), step in zip(terms, steps):
            col += i * step
            if x is not one:
                coeff = x if coeff is one else coeff * x
        for r, x in cols.get(col, ()):
            if coeff is not one:
                x = coeff * x
            out[r] = out[r] + x if r in out else x
    return OperadElement(operad, p.d, merged, total_deg, {r: x for r, x in out.items() if x})


# ---------------------------------------------------------------------------
# the forgetful functor from the endomorphism PROP


class EndoHomComponent(BimoduleComponent):
    """Hom(X_rep, X_d) as a component; bases[k] lists the (j, row, col)
    coordinates of degree k and index[k] maps each triple back to its
    position in bases[k], both as endo_component returns them."""

    __slots__ = ("bases", "index")


class EndoPropData:
    """Endomorphism PROP over a colored family, exposed for the operad functor.

    A matrix unit composed with tensors and Koszul-signed shuffles of matrix
    units is zero or plus or minus one matrix unit, so the stabilizer actions
    and rho are signed matchings of basis triples, computed here by index
    arithmetic on the (j, row, col) triples and endo_component's index of
    them; rho moves the concatenated sources by concat_transport.
    """

    def __init__(self, family: ColoredFamily):
        self.family = family
        self.palette = family.palette
        self._components = {}
        self._spaces = {}  # shared_space's table

    def component(self, d, in_key):
        """Component view of Hom(X_rep, X_d) with the right action, built once
        per (d, in_key); None where the hom complex is zero."""
        key = (d, in_key)
        if key not in self._components:
            self._components[key] = self._build_component(d, in_key)
        return self._components[key]

    def _build_component(self, d, in_key):
        hom, bases, index = endo_component(self.family, Profile(self.palette, [d]), in_key.rep)
        if hom.is_zero():
            return None
        family = self.family  # the rule holds the family, not this table of its own components

        def act(side, s):
            # the in side: one output leaves no out generator.  The unit at
            # (j, r, c) composed with the shuffle by s is +-(j, r, c'), with c'
            # the source column that s moves onto c: the inverse shuffle sends
            # c to +-c', the one entry of its column c
            shuffle = family.shuffle(in_key.rep, s.inverse())
            moved = {j: linalg.columns(rows, len(rows)) for j, rows in shuffle.rows.items()}
            mats = {}
            for k, basis in bases.items():
                rows = mats[k] = [None] * len(basis)
                for i, (j, r, c) in enumerate(basis):
                    ((target, sign),) = moved[j][c]
                    rows[index[k][(j, r, target)]] = {i: sign}
            return ChainMap(hom, hom, mats, check=False)

        comp = EndoHomComponent.acting(color_key(self.palette, d), in_key, hom, act)
        comp.bases, comp.index = bases, index
        return comp

    def rho(self, d, in_key, b_keys):
        """The operad structure map on basis elements, as one exact matrix.

        The column of p (x) q_1 (x) ... (x) q_n, on units (j_i, r_i, c_i) of
        degree k_i, is zero unless p reads at its source column c_p the output
        (j_1 + k_1, ..., j_n + k_n; r_1, ..., r_n) of the q_i.  Then it is the
        unit at (j_1 + ... + j_n, r_p, c') of the merged component, where c'
        is the source of the q_i concatenated and moved by the transport onto
        the merged representative, with the Koszul signs of the horizontal fold
        and of that shuffle.

        The source is the tensor of the carriers, taken from this object's
        table of spaces, keyed by the carriers' values (shared_space): keys
        whose hom complexes are equal in dims and boundary entries share one
        space.
        """
        p_comp = self.component(d, in_key)
        q_comps = [self.component(c, bk) for c, bk in zip(in_key.rep.entries, b_keys)]
        if p_comp is None or any(q is None for q in q_comps):
            return None
        merged = merge_in_keys(self.palette, b_keys)
        target = self.component(d, merged)
        if target is None:
            return None
        space = shared_space(self._spaces, [p_comp.carrier] + [q.carrier for q in q_comps])
        transport = concat_transport(self.palette, b_keys)
        mats = {n: [{} for _ in range(target.carrier.dim(n))] for n in space.complex.degrees()}
        fam = self.family
        out_dim = fam.complexes[d].dim
        middle = fam.space(in_key.rep)
        # row s of the shuffle X_merged -> X_concat by the transport holds the
        # one merged basis vector sent onto +-s, with its Koszul sign
        concat_space = fam.space(Profile(self.palette, [c for bk in b_keys for c in bk.rep.entries]))
        shuffle = fam.shuffle(merged.rep, transport).rows
        # per q_i: (degree, position, source degree, row, source composition, source indices)
        units = []
        for q, bk in zip(q_comps, b_keys):
            src = fam.space(bk.rep)
            sources = {j: src.basis(j) for j in src.complex.degrees()}
            units.append(
                [(k, pos, j, r) + sources[j][c] for k, basis in q.bases.items() for pos, (j, r, c) in enumerate(basis)]
            )
        for combo in itertools.product(*units):
            sign = 1
            src_deg = q_deg = 0
            q_comp, q_pos, mid_comp, mid_idx = [], [], [], []
            src_comp, src_idx = (), ()
            for k, pos, j, r, comp, idxs in combo:
                # endo_horizontal's left fold: (-1)^(k_i (j_1 + ... + j_{i-1}))
                if k % 2 and src_deg % 2:
                    sign = -sign
                src_deg += j
                q_deg += k
                q_comp.append(k)
                q_pos.append(pos)
                mid_comp.append(j + k)
                mid_idx.append(r)
                src_comp += comp
                src_idx += idxs
            c_p = middle.flat_index(mid_comp, mid_idx)
            j_p = sum(mid_comp)
            ((c_t, shuffle_sign),) = shuffle[src_deg][concat_space.flat_index(src_comp, src_idx)].items()
            value = shuffle_sign if sign > 0 else -shuffle_sign
            q_comp = tuple(q_comp)
            for k_p, p_index in p_comp.index.items():
                out_rows = out_dim(j_p + k_p)
                if not out_rows:
                    continue
                n = k_p + q_deg
                rows, t_index = mats[n], target.index[n]
                # the q-part of the column is fixed; p's index steps by its stride
                offset, (p_step, *q_steps) = space.strides((k_p,) + q_comp)
                col = offset + sum(map(operator.mul, q_steps, q_pos))
                for r_p in range(out_rows):
                    rows[t_index[(src_deg, r_p, c_t)]][col + p_step * p_index[(j_p, r_p, c_p)]] = value
        return ChainMap(space.complex, target.carrier, mats, check=False)


def forget_to_operad(prop_data: EndoPropData, max_arity: int) -> ColoredOperad:
    """The underlying operad of the endomorphism PROP: its single-output
    components up to max_arity, with gamma = vertical o (id x horizontal)
    read from EndoPropData.rho."""
    palette = prop_data.palette
    components = {}
    for d in palette.colors:
        for n in range(1, max_arity + 1):
            for combo in itertools.combinations_with_replacement(palette.colors, n):
                in_key = profile_key(palette, combo)
                comp = prop_data.component(d, in_key)
                if comp is not None:
                    components[(d, in_key)] = comp
    operad = ColoredOperad(palette, max_arity, components, {})
    for (d, in_key) in sorted(operad.components, key=repr):
        for b_keys in operad._aligned_tuples(in_key):
            rho = prop_data.rho(d, in_key, b_keys)
            if rho is not None and not rho.is_zero():
                operad.gamma[(d, in_key, b_keys)] = rho
    return operad


# ---------------------------------------------------------------------------
# the free PROP generated by an operad


class TruncationExceeded(OperadError):
    pass


class OPropData:
    """PROP components generated by a colored operad, through the placement
    model, keyed (out_key, in_key); its one-output part is the operad's
    components again (check_unit_identity).  It keeps no composition of its
    own: the round trip composes through the operad."""

    def __init__(self, operad: ColoredOperad, max_out: int, max_in: int):
        self.operad = operad
        self.palette = operad.palette
        self.max_out = int(max_out)
        self.max_in = int(max_in)
        self._components = {}
        self._build()

    def _build(self):
        palette = self.palette
        by_color = {}
        for (d, k) in self.operad.support():
            by_color.setdefault(d, []).append(k)
        for m in range(1, self.max_out + 1):
            for out_combo in itertools.combinations_with_replacement(palette.colors, m):
                out_key = profile_key(palette, out_combo)
                rep = out_key.rep.entries
                options = [by_color.get(c, []) for c in rep]
                if any(not o for o in options):
                    continue
                buckets = {}
                for tup in itertools.product(*options):
                    total = sum(k.length for k in tup)
                    if total > self.max_in:
                        continue
                    in_key = merge_in_keys(palette, tup)
                    buckets.setdefault(in_key, []).append(tup)
                for in_key, tuples in buckets.items():
                    pieces = [
                        SumPiece(
                            tup,
                            box_dot_many(
                                palette,
                                [self.operad.component(c, k) for c, k in zip(rep, tup)],
                            ),
                        )
                        for tup in sorted(tuples, key=repr)
                    ]
                    self._components[(out_key, in_key)] = sum_components(pieces)

    def support(self):
        return sorted(self._components)

    def opp_component(self, out_key, in_key):
        return self._components.get((out_key, in_key))


def _locate(comp, deg, flat):
    """(piece, out placement, in placement, tensor index) of a basis vector of
    a free PROP component."""
    i, inner = comp.layout.locate(deg, flat)
    piece = comp.layout.pieces[i]
    return (piece,) + piece.component.layout.locate(deg, inner)


def prop_from_operad(operad: ColoredOperad, max_out: int, max_in: int) -> OPropData:
    """The free PROP on the operad, truncated to the given profile lengths."""
    if max_in > 0 and max_out > 0:
        return OPropData(operad, max_out, max_in)
    raise TruncationExceeded("truncation bounds must be positive")


def check_unit_identity(operad: ColoredOperad) -> bool:
    """U((-)_prop) is the identity on carriers and in-actions: the free PROP
    truncated to one output and the operad's arity has exactly the operad's
    components, with the operad's carriers and in-actions.  gamma is not
    compared: the free PROP keeps no composition of its own."""
    opp = prop_from_operad(operad, 1, operad.max_arity)
    theirs = {(out_key.rep.entries[0], k): opp.opp_component(out_key, k) for out_key, k in opp.support()}
    if theirs.keys() != operad.components.keys():
        return False
    for (d, k), comp in theirs.items():
        ours = operad.components[(d, k)]
        if ours.carrier != comp.carrier:
            return False
        if any(ours.rho_in(s) != comp.rho_in(s) for s in stabilizer_generators(k)):
            return False
    return True


# ---------------------------------------------------------------------------
# operad algebras and the round trip


class OperadAlgebra:
    """Classical algebra over a colored operad: per-component structure maps.

    values: dict (d, in_key) -> list over carrier basis (degree-major order as
    in basis_elements) of EndoElement from X_rep(in_key) to X_d.
    """

    def __init__(self, operad: ColoredOperad, family: ColoredFamily, values):
        self.operad = operad
        self.family = family
        self.values = dict(values)
        for key in operad.components:
            if key not in self.values:
                raise OperadError("algebra misses the values at component %r" % (key,))
        for (d, in_key), vals in self.values.items():
            comp = operad.component(d, in_key)
            if comp is None:
                raise OperadError("algebra value for a missing component %r" % ((d, in_key),))
            degrees = [k for k in comp.carrier.degrees() for _ in range(comp.carrier.dim(k))]
            if len(vals) != len(degrees):
                raise OperadError(
                    "algebra at %r needs %d basis values, got %d"
                    % ((d, in_key), len(degrees), len(vals))
                )
            out_profile = Profile(family.palette, [d])
            for k, v in zip(degrees, vals):
                if v.out_profile != out_profile or v.in_profile != in_key.rep or v.degree != k:
                    raise EndoError("endo element shape mismatch")
        # kept under the operad's own keys, which the operad's elements carry,
        # so value() finds them by identity when the values came over an
        # equal palette of another file
        self.values = {key: self.values[key] for key in operad.components}

    def value(self, element: OperadElement) -> EndoElement:
        """The sum of the stored basis values over the nonzero coordinates; a
        coefficient of 1 takes the stored value itself."""
        comp = self.operad.component(element.d, element.in_key)
        basis = self.values[(element.d, element.in_key)]
        offset = 0
        for k in comp.carrier.degrees():
            if k == element.degree:
                break
            offset += comp.carrier.dim(k)
        total = None
        for i, x in element.coords.items():
            v = basis[offset + i]
            if x != 1:
                v = v.scale(x)
            total = v if total is None else total.add(v)
        if total is None:
            out_profile = Profile(self.family.palette, [element.d])
            return EndoElement.zero(self.family, out_profile, element.in_key.rep, element.degree)
        return total

    def check(self):
        """gamma-compatibility and equivariance within the truncation.

        gamma: at every gamma key, lambda(gamma(p; q)) against lambda(p) o h
        for every basis element p, with the q first units and h the tensor
        of the lambda(q) moved by the transport of the concatenated inputs.
        h is built and moved once per key, so each p costs one vertical
        composite.  Equivariance: lambda(p s) against lambda(p) moved by s,
        for every basis element p and stabilizer generator s.  The first
        failing p of a key or a generator is reported, with its residual.
        """
        failures = []
        operad = self.operad
        one = Permutation.identity(1)
        units = {}
        for (d, in_key, b_keys) in sorted(operad.gamma, key=repr):
            q_els = operad.first_units(in_key, b_keys, units)
            basis = operad.basis_elements(d, in_key)
            if q_els is None or not basis:
                continue
            # lambda(p) o (lambda(q_1) (x) ... (x) lambda(q_n)), renormalized by the
            # transport of the concatenated inputs: (a o h) o shuffle = a o (h o
            # shuffle), so h is shuffled once per key and each p costs one composite
            h = self.value(q_els[0])
            for q in q_els[1:]:
                h = endo_horizontal(h, self.value(q))
            h = endo_permute(Permutation.identity(in_key.length), concat_transport(self.family.palette, b_keys), h)
            for p_el in basis:
                lhs = self.value(compose_elements(p_el, q_els))
                rhs = endo_vertical(self.value(p_el), h)
                if lhs != rhs:
                    failures.append(
                        ("gamma", (d, in_key, tuple(b_keys)), lhs.sub(rhs))
                    )
                    break
        for (d, in_key) in operad.support():
            for s in stabilizer_generators(in_key):
                for el in operad.basis_elements(d, in_key):
                    lhs = self.value(el.act_right(s))
                    rhs = endo_permute(one, s, self.value(el))
                    if lhs != rhs:
                        failures.append(("equivariance", (d, in_key, s.images), lhs.sub(rhs)))
                        break
        return failures


def operad_algebra_to_prop_algebra(alg: OperadAlgebra, opp: OPropData):
    """Phi: extend the structure maps over the free PROP's basis.

    Returns dict (out_key, in_key) -> list of EndoElement per basis column
    (per degree, degree-major).
    """
    out = {}
    for (out_key, in_key) in opp.support():
        comp = opp.opp_component(out_key, in_key)
        values = []
        for deg in comp.carrier.degrees():
            for flat in range(comp.carrier.dim(deg)):
                values.append(_phi_basis_value(alg, comp, deg, flat))
        out[(out_key, in_key)] = values
    return out


def _phi_basis_value(alg, comp, deg, flat):
    family = alg.family
    (tup, sub), out_place, in_place, tensor_i = _locate(comp, deg, flat)
    degs, idxs = sub.layout.tensor.unflatten(deg, tensor_i)
    out_rep = comp.out_key.rep
    in_rep = comp.in_key.rep
    factors = []
    for i, k in enumerate(tup):
        c = out_rep.entries[out_place.index(i)]
        factors.append(alg.value(alg.operad.unit(c, k, degs[i], idxs[i])))
    h = None
    for v in factors:
        h = v if h is None else endo_horizontal(h, v)
    # h: X_{concat of factor in-reps} -> X_{(d_f1, d_f2, ...)}
    # out shuffle: factor i's single output goes to its placed position
    m = len(tup)
    out_perm = Permutation([out_place.index(i) + 1 for i in range(m)])
    # in shuffle: concat slot (factor-major) s -> its global position; the
    # sort is stable, so each factor's positions stay ascending
    in_perm = Permutation([pos + 1 for pos in sorted(range(len(in_place)), key=in_place.__getitem__)])
    # element at (out_rep; in_rep): permute h's outputs by out_perm and inputs
    # from X_{in_rep} arranged concat-major: right action by in_perm^{-1}
    moved = endo_permute(out_perm, in_perm.inverse(), h)
    # moved: X_{sigma(concat-outs)} <- X_{concat-ins . tau}; both equal the reps
    return EndoElement(family, out_rep, in_rep, moved.chain)


def prop_algebra_to_operad_algebra(values) -> dict:
    """Psi: restrict to the single-output components."""
    out = {}
    for (out_key, in_key), vals in values.items():
        if out_key.length != 1:
            continue
        d = out_key.rep.entries[0]
        out[(d, in_key)] = vals
    return out


def algebra_round_trip(operad: ColoredOperad, alg: OperadAlgebra):
    """Check Psi(Phi(alg)) = alg exactly, after alg.check(), through the free
    PROP truncated to one output and the operad's arity.

    Returns a report list; empty means the algebra checks and the round trip
    is exact.
    """
    report = []
    input_failures = alg.check()
    if input_failures:
        return [("input", key, residual) for _, key, residual in input_failures]
    # Psi reads the single-output components only
    opp = prop_from_operad(operad, 1, operad.max_arity)
    values = operad_algebra_to_prop_algebra(alg, opp)
    back = prop_algebra_to_operad_algebra(values)
    for (d, in_key) in operad.support():
        original = [alg.value(el) for el in operad.basis_elements(d, in_key)]
        if back.get((d, in_key)) != original:
            report.append(("round_trip", (d, in_key), None))
    return report


# ---------------------------------------------------------------------------
# standard operads


def _linearized_set_operad(max_arity, elements, act, compose) -> ColoredOperad:
    """Q[S] for a set operad S on the one colour "x": O(n) has the basis
    elements(key) of arity n in degree 0, s sends the basis element g to
    act(s, g), and gamma sends g (x) h_1 (x) ... (x) h_n to compose(g, [h_1,
    ..., h_n])."""
    color = "x"
    palette = Palette([color])
    cells = {}  # arity -> (basis elements, their positions, carrier)

    def action(side, s):
        # the in side of arity s.n: one output leaves no out generator
        elems, index, carrier = cells[s.n]
        rows = [None] * len(elems)
        for i, g in enumerate(elems):
            rows[index[act(s, g)]] = {i: linalg.ONE}
        return ChainMap(carrier, carrier, {0: rows}, check=False)

    components = {}
    for n in range(1, max_arity + 1):
        k = profile_key(palette, [color] * n)
        elems = elements(k)
        carrier = ChainComplex({0: len(elems)})
        cells[n] = (elems, {g: i for i, g in enumerate(elems)}, carrier)
        components[(color, k)] = BimoduleComponent.acting(color_key(palette, color), k, carrier, action)
    operad = ColoredOperad(palette, max_arity, components, {})
    for (d, in_key) in operad.support():
        outer = cells[in_key.length][0]
        for b_keys in operad._aligned_tuples(in_key):
            inner = [cells[k.length][0] for k in b_keys]
            elems, index, target = cells[sum(k.length for k in b_keys)]
            src = operad.space(d, in_key, b_keys)
            rows = [{} for _ in elems]
            for comp_tuple, idxs in src.basis(0):
                g = compose(outer[idxs[0]], [hs[i] for hs, i in zip(inner, idxs[1:])])
                rows[index[g]][src.flat_index(comp_tuple, idxs)] = linalg.ONE
            operad.gamma[(d, in_key, b_keys)] = ChainMap(src.complex, target, {0: rows}, check=False)
    return operad


def trivial_operad(max_arity=3) -> ColoredOperad:
    """O(n) = Q with trivial actions and gamma = multiplication: the
    linearized one-point set operad."""
    return _linearized_set_operad(max_arity, lambda k: [()], lambda s, g: g, lambda g, hs: g)


def associative_operad(max_arity=3) -> ColoredOperad:
    """O(n) = Q[Sigma_n]; basis sigma = the operation (b_1..b_n) |-> prod_j b_{sigma(j)}.

    Right action: (mult_sigma . tau) = mult_{tau^-1 sigma}.  Composition is
    the permutation operad's block substitution: the composite of sigma with
    (rho_1..rho_n) reads the blocks in sigma's order, each internally ordered
    by its rho.
    """
    return _linearized_set_operad(
        max_arity, stabilizer_elements, lambda s, g: s.inverse() * g, block_substitution
    )


def endomorphism_operad(family: ColoredFamily, max_arity: int) -> ColoredOperad:
    """The underlying operad of the endomorphism PROP of a family."""
    return forget_to_operad(EndoPropData(family), max_arity)


def tautological_endo_algebra(operad: ColoredOperad, family: ColoredFamily) -> OperadAlgebra:
    """For operads built from EndoPropData: the identity structure map."""
    data = EndoPropData(family)
    values = {}
    for (d, in_key) in operad.support():
        comp = data.component(d, in_key)
        bases = comp.bases
        vals = []
        out_profile = Profile(family.palette, [d])
        for k in comp.carrier.degrees():
            for flat in range(comp.carrier.dim(k)):
                vals.append(EndoElement.unit(family, out_profile, in_key.rep, k, *bases[k][flat]))
        values[(d, in_key)] = vals
    return OperadAlgebra(operad, family, values)
