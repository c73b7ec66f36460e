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
from fractions import Fraction

from propcalc import linalg
from propcalc.bimodules import (
    BimoduleComponent,
    SumPiece,
    box_dot_many,
    merge_keys as merge_in_keys,
    sum_components,
)
from propcalc.chains import ChainComplex, ChainMap, TensorSpace
from propcalc.endo import ColoredFamily, EndoElement, endo_horizontal, endo_permute, endo_vertical
from propcalc.graphs import koszul_reorder_sign
from propcalc.profiles import (
    OrbitKey,
    Palette,
    Permutation,
    Profile,
    canonicalize_profile,
    stabilizer_elements,
    stabilizer_generators,
)

F = Fraction


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

    def component(self, d, in_key):
        return self.components.get((d, in_key))

    def support(self):
        return sorted(self.components, key=lambda k: (k[0], k[1]))

    def gamma_map(self, d, in_key, b_keys):
        key = (d, in_key, tuple(b_keys))
        if key in self.gamma:
            return self.gamma[key]
        p = self.component(d, in_key)
        qs = [self.component(c, bk) for c, bk in zip(in_key.rep.entries, b_keys)]
        merged = merge_in_keys(self.palette, b_keys)
        target = self.component(d, merged)
        factors = [p.carrier if p else ChainComplex({})]
        factors += [q.carrier if q else ChainComplex({}) for q in qs]
        src = TensorSpace(factors).complex
        tgt = target.carrier if target else ChainComplex({})
        return ChainMap.zero(src, tgt)

    def compose(self, d, in_key, b_keys, p_vec_chain):
        """Apply gamma as stored; p_vec_chain is the tensor input ChainMap column."""
        return self.gamma_map(d, in_key, b_keys).compose(p_vec_chain)

    # -- element-level operations -------------------------------------------

    def element(self, d, in_key, degree, coords):
        return OperadElement(self, d, in_key, degree, [F(x) for x in coords])

    def basis_elements(self, d, in_key):
        comp = self.component(d, in_key)
        out = []
        if comp is None:
            return out
        for k in comp.carrier.degrees():
            for i in range(comp.carrier.dim(k)):
                coords = [F(0)] * comp.carrier.dim(k)
                coords[i] = F(1)
                out.append(self.element(d, in_key, k, coords))
        return out

    def validate(self, sample_cap=3):
        """Equivariance and associativity of gamma on in-truncation instances.

        Exhaustive over the stored keys whose arity data stays within the
        truncation; associativity instances whose inner composites leave the
        truncation are skipped (they are not desk-checkable data).
        """
        failures = []
        failures += self._validate_equivariance()
        failures += self._validate_associativity()
        return failures

    def _validate_equivariance(self):
        """gamma(p tau; q_{tau(1)}..) = gamma(p; q).(block permutation of tau),
        with the block permutation conjugated through the normal-form transports."""
        failures = []
        for (d, in_key, b_keys) in sorted(self.gamma, key=repr):
            comp = self.component(d, in_key)
            if comp is None:
                continue
            n = in_key.length
            sizes = [k.length for k in b_keys]
            starts = [0] * n
            acc = 0
            for j, s in enumerate(sizes):
                starts[j] = acc
                acc += s
            total = acc
            concat_w = []
            for bk in b_keys:
                concat_w.extend(bk.rep.entries)
            _, t_w = canonicalize_profile(Profile(self.palette, concat_w))
            for tau in stabilizer_elements(in_key):
                if tau.is_identity():
                    continue
                # delta: position s of the permuted arrangement (block i holds
                # the inputs of q_{tau(i)}) to block tau(i) of the standard one
                images = [0] * total
                pos = 0
                for i in range(1, n + 1):
                    src_block = tau(i)
                    for l in range(1, sizes[src_block - 1] + 1):
                        images[pos] = starts[src_block - 1] + l
                        pos += 1
                delta = Permutation(images)
                concat_wp = []
                for i in range(1, n + 1):
                    concat_wp.extend(b_keys[tau(i) - 1].rep.entries)
                _, t_wp = canonicalize_profile(Profile(self.palette, concat_wp))
                u = t_w.inverse() * delta * t_wp
                for p_el in self.basis_elements(d, in_key):
                    q_els = []
                    ok = True
                    for c, bk in zip(in_key.rep.entries, b_keys):
                        basis = self.basis_elements(c, bk)
                        if not basis:
                            ok = False
                            break
                        q_els.append(basis[0])
                    if not ok:
                        continue
                    lhs = compose_elements(
                        p_el.act_right(tau),
                        [q_els[tau(i) - 1] for i in range(1, n + 1)],
                    )
                    rhs = compose_elements(p_el, q_els).act_right(u)
                    if lhs != rhs:
                        failures.append(
                            "gamma not equivariant at %r"
                            % ((d, in_key, b_keys, tau.images),)
                        )
                        break
        return failures

    def _validate_associativity(self):
        failures = []
        for (d, in_key) in self.support():
            n = in_key.length
            for b_keys in self._aligned_tuples(in_key):
                merged = merge_in_keys(self.palette, b_keys)
                for r_choice in self._aligned_tuples(merged):
                    total = sum(k.length for k in r_choice)
                    if total > self.max_arity:
                        continue
                    fail = self._check_assoc_instance(d, in_key, b_keys, r_choice)
                    if fail:
                        failures.append(fail)
        return failures

    def _aligned_tuples(self, in_key):
        """Tuples of in-keys aligned to the representative positions, within support."""
        options = []
        for c in in_key.rep.entries:
            opts = sorted(
                {k for (dd, k) in self.components if dd == c}, key=lambda k: k
            )
            if not opts:
                return []
            options.append(opts)
        out = []
        for combo in itertools.product(*options):
            if sum(k.length for k in combo) <= self.max_arity:
                out.append(tuple(combo))
        return out

    def _check_assoc_instance(self, d, in_key, b_keys, r_choice):
        p_candidates = self.basis_elements(d, in_key)[:1]
        if not p_candidates:
            return None
        p = p_candidates[0]
        q_els = []
        for c, bk in zip(in_key.rep.entries, b_keys):
            basis = self.basis_elements(c, bk)
            if not basis:
                return None
            q_els.append(basis[0])
        merged = merge_in_keys(self.palette, b_keys)
        r_els = []
        for c, rk in zip(merged.rep.entries, r_choice):
            basis = self.basis_elements(c, rk)
            if not basis:
                return None
            r_els.append(basis[0])
        # route 1: (p o q) o r
        pq = compose_elements(p, q_els)
        route1 = compose_elements(pq, r_els)
        # route 2: p o (q_i o r-block_i); blocks follow the merge transport
        concat_entries = []
        for bk in b_keys:
            concat_entries.extend(bk.rep.entries)
        _, t = canonicalize_profile(Profile(self.palette, concat_entries))
        # rep position j of `merged` corresponds to concat position t(j)
        owner = []
        pos = 0
        for i, bk in enumerate(b_keys):
            for _ in range(bk.length):
                owner.append(i)
                pos += 1
        blocks = [[] for _ in b_keys]
        for j in range(1, merged.length + 1):
            concat_pos = t(j) - 1
            blocks[owner[concat_pos]].append(r_els[j - 1])
        inner = []
        for q_el, block in zip(q_els, blocks):
            inner.append(compose_elements(q_el, block))
        route2 = compose_elements(p, inner)
        if route1 != route2:
            return "gamma not associative at %r" % ((d, in_key, b_keys, r_choice),)
        return None


class OperadElement:
    """Normal-form element: skeletal coordinates at (d, in_key), one degree."""

    __slots__ = ("operad", "d", "in_key", "degree", "coords")

    def __init__(self, operad, d, in_key, degree, coords):
        self.operad = operad
        self.d = d
        self.in_key = in_key
        self.degree = int(degree)
        self.coords = list(coords)

    def act_right(self, tau: Permutation) -> "OperadElement":
        """Right action by an element of the stabilizer (normal form kept)."""
        comp = self.operad.component(self.d, self.in_key)
        m = comp.rho_in(tau).mat(self.degree)
        return OperadElement(
            self.operad, self.d, self.in_key, self.degree, linalg.mat_vec(m, self.coords)
        )

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
    """gamma(p; q_1..q_n) with inputs aligned to the representative positions."""
    operad = p.operad
    in_key = p.in_key
    if len(q_els) != in_key.length:
        raise OperadError("wrong number of inputs")
    for c, q in zip(in_key.rep.entries, q_els):
        if q.d != c:
            raise OperadError("input color mismatch: %r vs %r" % (q.d, c))
    b_keys = tuple(q.in_key for q in q_els)
    gm = operad.gamma_map(p.d, in_key, b_keys)
    # tensor input coordinates
    space = TensorSpace(
        [operad.component(p.d, in_key).carrier]
        + [operad.component(q.d, q.in_key).carrier for q in q_els]
    )
    total_deg = p.degree + sum(q.degree for q in q_els)
    vec = [F(0)] * space.dim(total_deg)
    comp_tuple = tuple([p.degree] + [q.degree for q in q_els])
    all_coords = [p.coords] + [q.coords for q in q_els]
    for idxs in itertools.product(*[range(len(c)) for c in all_coords]):
        coeff = F(1)
        for c_list, i in zip(all_coords, idxs):
            coeff *= c_list[i]
        if coeff == 0:
            continue
        vec[space.flat_index(comp_tuple, idxs)] += coeff
    mat = gm.mat(total_deg)
    merged = merge_in_keys(operad.palette, b_keys)
    target = operad.component(p.d, merged)
    tdim = target.carrier.dim(total_deg) if target else 0
    if not mat or not mat[0]:
        out = [F(0)] * tdim
    else:
        out = linalg.mat_vec(mat, vec)
    return OperadElement(operad, p.d, merged, total_deg, out)


# ---------------------------------------------------------------------------
# the forgetful functor from PROP-like data


class EndoHomComponent(BimoduleComponent):
    """Hom(X_rep, X_d) as a component; bases[k] lists the (j, row, col)
    coordinates of degree k, as endo_component returns them."""

    __slots__ = ("bases",)

    def __init__(self, out_key, in_key, carrier, in_gens, bases):
        super().__init__(out_key, in_key, carrier, {}, in_gens)
        self.bases = bases


class EndoPropData:
    """Endomorphism PROP over a colored family, exposed for the operad functor."""

    def __init__(self, family: ColoredFamily):
        self.family = family
        self.palette = family.palette

    def component(self, d, in_key):
        """Component view of Hom(X_rep, X_d) with the right action."""
        from propcalc.endo import endo_component

        out_profile = Profile(self.palette, [d])
        hom, bases = endo_component(self.family, out_profile, in_key.rep)
        if hom.is_zero():
            return None
        in_gens = {}
        for s in stabilizer_generators(in_key):
            mats = {}
            for k in hom.degrees():
                basis = bases[k]
                cols = []
                for (j, r, c) in basis:
                    el = EndoElement.unit(self.family, out_profile, in_key.rep, k, j, r, c)
                    moved = endo_permute(Permutation.identity(1), s, el)
                    cols.append(_coords_of(moved, bases[k], k))
                mats[k] = [[cols[j][i] for j in range(len(cols))] for i in range(len(basis))]
            in_gens[s.images] = ChainMap(hom, hom, mats, check=False)
        return EndoHomComponent(color_key(self.palette, d), in_key, hom, in_gens, bases)

    def rho(self, d, in_key, b_keys):
        """The operad structure map on basis elements, as one exact matrix."""
        out_profile = Profile(self.palette, [d])
        p_comp = self.component(d, in_key)
        q_comps = [self.component(c, bk) for c, bk in zip(in_key.rep.entries, b_keys)]
        if p_comp is None or any(q is None for q in q_comps):
            return None
        merged = merge_in_keys(self.palette, b_keys)
        target = self.component(d, merged)
        if target is None:
            return None
        space = TensorSpace([p_comp.carrier] + [q.carrier for q in q_comps])
        concat_entries = []
        for bk in b_keys:
            concat_entries.extend(bk.rep.entries)
        concat_profile = Profile(self.palette, concat_entries)
        _, transport = canonicalize_profile(concat_profile)
        mats = {}
        p_bases = p_comp.bases
        q_bases = [q.bases for q in q_comps]
        t_bases = target.bases
        for n in space.complex.degrees():
            rows = target.carrier.dim(n)
            cols = space.dim(n)
            if rows == 0 or cols == 0:
                continue
            big = linalg.zeros(rows, cols)
            for comp_tuple, idxs in space.basis(n):
                col = space.flat_index(comp_tuple, idxs)
                p_el = _element_from_basis(
                    self.family, out_profile, in_key.rep, p_bases, comp_tuple[0], idxs[0]
                )
                q_els = []
                for qi, (qc, bk) in enumerate(zip(in_key.rep.entries, b_keys)):
                    q_els.append(
                        _element_from_basis(
                            self.family,
                            Profile(self.palette, [qc]),
                            bk.rep,
                            q_bases[qi],
                            comp_tuple[qi + 1],
                            idxs[qi + 1],
                        )
                    )
                h = q_els[0]
                for q in q_els[1:]:
                    h = endo_horizontal(h, q)
                composite = endo_vertical(p_el, h)
                normalized = endo_permute(
                    Permutation.identity(1), transport, composite
                )
                coords = _coords_of(normalized, t_bases.get(n, []), n)
                for r, val in enumerate(coords):
                    if val != 0:
                        big[r][col] = val
            mats[n] = big
        return ChainMap(space.complex, target.carrier, mats, check=False)


def _element_from_basis(family, out_profile, in_profile, bases, k, flat_idx):
    return EndoElement.unit(family, out_profile, in_profile, k, *bases[k][flat_idx])


def _coords_of(el: EndoElement, basis, k):
    coords = [F(0)] * len(basis)
    index = {trip: i for i, trip in enumerate(basis)}
    for j, m in el.chain.mats.items():
        for r in range(len(m)):
            for c in range(len(m[0])):
                if m[r][c] != 0:
                    coords[index[(j, r, c)]] = m[r][c]
    return coords


def forget_to_operad(prop_data, max_arity: int) -> ColoredOperad:
    """Single-output components of the PROP data with gamma = vertical o (id x horizontal)."""
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
    for (d, in_key) in sorted(components, key=repr):
        options = []
        for c in in_key.rep.entries:
            options.append(sorted({kk for (dd2, kk) in components if dd2 == c}, key=lambda k: k))
        for b_keys in itertools.product(*options):
            if sum(k.length for k in b_keys) > max_arity:
                continue
            rho = prop_data.rho(d, in_key, tuple(b_keys))
            if rho is not None and not rho.is_zero():
                operad.gamma[(d, in_key, tuple(b_keys))] = rho
    return operad


# ---------------------------------------------------------------------------
# the free PROP generated by an operad


class TruncationExceeded(OperadError):
    pass


class OPropData:
    """PROP components generated by a colored operad, with the structure map
    rho induced from gamma through the placement model."""

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
        return sorted(self._components, key=lambda kk: (kk[0], kk[1]))

    def opp_component(self, out_key, in_key):
        return self._components.get((out_key, in_key))

    # single-output view (the forgetful interface)

    def component(self, d, in_key):
        return self._components.get((color_key(self.palette, d), in_key))

    def rho(self, d, in_key, b_keys):
        """Structure map on basis columns, through horizontal + vertical."""
        p_bim = self.component(d, in_key)
        q_bims = [self.component(c, bk) for c, bk in zip(in_key.rep.entries, b_keys)]
        if p_bim is None or any(q is None for q in q_bims):
            return None
        if sum(k.length for k in b_keys) > self.max_in:
            raise TruncationExceeded(
                "inputs %r exceed the truncation %d" % (b_keys, self.max_in)
            )
        merged = merge_in_keys(self.palette, b_keys)
        target = self.component(d, merged)
        if target is None:
            return None
        space = TensorSpace([p_bim.carrier] + [q.carrier for q in q_bims])
        gm = self.operad.gamma_map(d, in_key, tuple(b_keys))
        mats = {n: gm.mat(n) for n in space.complex.degrees() if gm.mat(n) and gm.mat(n)[0]}
        return ChainMap(space.complex, target.carrier, mats, check=False)

    # full vertical composition via gamma, on a single summand basis vector

    def vertical_basis(self, out_key, mid_key, in_key, u_index, v_index, u_deg, v_deg):
        """Compose basis elements of O_prop(out;mid) and O_prop(mid;in).

        Returns a dict {target flat index: coefficient} in the (out;in)
        component at degree u_deg + v_deg, or None if a needed gamma instance
        leaves the truncation.  The composite grafts every middle position:
        produced by one lower factor, consumed by one upper factor; each upper
        factor's gamma composite is then twisted by the residual permutation
        reconciling the gamma normal form with the global leg positions, and
        placed canonically.
        """
        upper = self._components[(out_key, mid_key)]
        lower = self._components[(mid_key, in_key)]
        target = self._components.get((out_key, in_key))
        if target is None:
            return {}
        (u_tup, u_comp), u_out_place, u_in_place, u_tensor_idx = _locate(upper, u_deg, u_index)
        (v_tup, v_comp), v_out_place, v_in_place, v_tensor_idx = _locate(lower, v_deg, v_index)
        m_up = len(u_tup)
        mid_len = mid_key.length
        u_degs, u_idxs = u_comp.layout.tensor.unflatten(u_deg, u_tensor_idx)
        v_degs, v_idxs = v_comp.layout.tensor.unflatten(v_deg, v_tensor_idx)
        # middle position -> producing lower factor (each produces exactly one)
        producer = {}
        for pos in range(mid_len):
            producer[pos] = v_out_place[pos]
        # global in position lists per lower factor (ascending = its rep order)
        lower_global = [[] for _ in range(len(v_tup))]
        for g, f in enumerate(v_in_place):
            lower_global[f].append(g)
        blocks = [[] for _ in range(m_up)]
        for pos in range(mid_len):
            blocks[u_in_place[pos]].append(pos)
        composed = []
        leg_targets = []  # per upper factor: global position of each concat leg
        for i in range(m_up):
            c = out_key.rep.entries[_position_of_factor(u_out_place, i)]
            p_el = self.operad.element(
                c,
                u_tup[i],
                u_degs[i],
                _unit_coords(
                    self.operad.component(c, u_tup[i]).carrier.dim(u_degs[i]), u_idxs[i]
                ),
            )
            q_els = []
            concat_globals = []
            for pos in blocks[i]:
                j = producer[pos]
                qc = mid_key.rep.entries[pos]
                q_els.append(
                    self.operad.element(
                        qc,
                        v_tup[j],
                        v_degs[j],
                        _unit_coords(
                            self.operad.component(qc, v_tup[j]).carrier.dim(v_degs[j]),
                            v_idxs[j],
                        ),
                    )
                )
                concat_globals.extend(lower_global[j])
            if sum(q.in_key.length for q in q_els) > self.operad.max_arity:
                return None
            el = compose_elements(p_el, q_els)
            # gamma's normal form orders legs by the lex-least transport of the
            # concatenated input profile; recover each leg's global position
            concat_entries = []
            for q in q_els:
                concat_entries.extend(q.in_key.rep.entries)
            if concat_entries:
                _, t_block = canonicalize_profile(
                    Profile(self.palette, concat_entries)
                )
                legs_global = [
                    concat_globals[t_block(ell) - 1] for ell in range(1, len(concat_entries) + 1)
                ]
            else:
                legs_global = []
            composed.append(el)
            leg_targets.append(legs_global)
        t_index = target.layout.find(tuple(el.in_key for el in composed))
        if t_index is None:
            return {}
        t_layout = target.layout.pieces[t_index].component.layout
        t_out_place = u_out_place
        t_in_place = [None] * in_key.length
        for i in range(m_up):
            for g in leg_targets[i]:
                t_in_place[g] = i
        t_in_place = tuple(t_in_place)
        # residual per-factor twist: canonical placement orders factor i's legs
        # by ascending global position; gamma's normal form listed them in
        # legs_global order
        twisted_coords = []
        for i, el in enumerate(composed):
            ascending = sorted(leg_targets[i])
            images = [ascending.index(g) + 1 for g in leg_targets[i]]
            pi = Permutation(images)
            comp_i = self.operad.component(
                out_key.rep.entries[_position_of_factor(u_out_place, i)], el.in_key
            )
            m = comp_i.rho_in(pi.inverse()).mat(el.degree)
            twisted_coords.append((el.degree, linalg.mat_vec(m, el.coords)))
        total_deg = u_deg + v_deg
        out = {}
        # Koszul sign for regrouping (u_1..u_m, v_1..v_k) into
        # (u_1, its q's, u_2, its q's, ...)
        letter_degrees = list(u_degs) + list(v_degs)
        new_order = []
        for i in range(m_up):
            new_order.append(i)
            for pos in blocks[i]:
                new_order.append(m_up + producer[pos])
        sign = koszul_reorder_sign(letter_degrees, new_order)
        terms = [(F(sign), [])]
        for deg, coords in twisted_coords:
            nxt = []
            for coeff, idx_list in terms:
                for i, c in enumerate(coords):
                    if c != 0:
                        nxt.append((coeff * c, idx_list + [(deg, i)]))
            terms = nxt
        if not terms:
            return {}
        if (t_out_place, t_in_place) not in t_layout.index:
            return {}
        base_offset = target.layout.offsets[t_index].get(total_deg, 0)
        for coeff, idx_list in terms:
            degs = tuple(d for d, _ in idx_list)
            idxs = tuple(i for _, i in idx_list)
            if sum(degs) != total_deg:
                continue
            flat = t_layout.tensor.flat_index(degs, idxs)
            row = base_offset + t_layout.flat(total_deg, t_out_place, t_in_place, flat)
            out[row] = out.get(row, F(0)) + coeff
        return out


def _locate(comp, deg, flat):
    """(piece, out placement, in placement, tensor index) of a basis vector of
    a free PROP component."""
    i, inner = comp.layout.locate(deg, flat)
    piece = comp.layout.pieces[i]
    return (piece,) + piece.component.layout.locate(deg, inner)


def _unit_coords(dim, i):
    coords = [F(0)] * dim
    coords[i] = F(1)
    return coords


def prop_from_operad(operad: ColoredOperad, max_out: int, max_in: int) -> OPropData:
    """The free PROP on the operad, truncated to the given profile lengths."""
    if max_in > 0 and max_out > 0:
        return OPropData(operad, max_out, max_in)
    raise TruncationExceeded("truncation bounds must be positive")


def check_unit_identity(operad: ColoredOperad, max_out=None, max_in=None) -> bool:
    """U((-)_prop) is the identity: components, actions, and gamma agree."""
    max_in = max_in or operad.max_arity
    opp = prop_from_operad(operad, max_out or 1, max_in)
    back = forget_to_operad(opp, operad.max_arity)
    for (d, k) in set(list(operad.support()) + list(back.support())):
        ours = operad.component(d, k)
        theirs = back.component(d, k)
        if (ours is None) != (theirs is None):
            return False
        if ours is None:
            continue
        if ours.carrier != theirs.carrier:
            return False
        for s in stabilizer_generators(k):
            if ours.rho_in(s) != theirs.rho_in(s):
                return False
    keys = set(operad.gamma) | set(back.gamma)
    for key in keys:
        d, in_key, b_keys = key
        if sum(k.length for k in b_keys) > operad.max_arity:
            continue
        a = operad.gamma_map(d, in_key, b_keys)
        b = back.gamma_map(d, in_key, b_keys)
        if a != b:
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

    def value(self, element: OperadElement) -> EndoElement:
        comp = self.operad.component(element.d, element.in_key)
        out_profile = Profile(self.family.palette, [element.d])
        total = EndoElement.zero(
            self.family, out_profile, element.in_key.rep, element.degree
        )
        basis = self.values[(element.d, element.in_key)]
        offset = 0
        for k in comp.carrier.degrees():
            for i in range(comp.carrier.dim(k)):
                if k == element.degree and element.coords[i] != 0:
                    total = total.add(basis[offset].scale(element.coords[i]))
                offset += 1
        return total

    def check(self):
        """gamma-compatibility and equivariance within the truncation."""
        failures = []
        operad = self.operad
        for (d, in_key, b_keys), gm in sorted(operad.gamma.items(), key=repr):
            p_basis = operad.basis_elements(d, in_key)
            q_bases = [
                operad.basis_elements(c, bk)
                for c, bk in zip(in_key.rep.entries, b_keys)
            ]
            if any(not qb for qb in q_bases):
                continue
            for p_el in p_basis:
                q_els = [qb[0] for qb in q_bases]
                composite = compose_elements(p_el, q_els)
                lhs = self.value(composite)
                rhs = self._direct_value(p_el, q_els)
                if lhs != rhs:
                    failures.append(
                        ("gamma", (d, in_key, tuple(b_keys)), lhs.sub(rhs))
                    )
                    break
        for (d, in_key) in operad.support():
            for s in stabilizer_generators(in_key):
                for el in operad.basis_elements(d, in_key):
                    lhs = self.value(el.act_right(s))
                    rhs = endo_permute(
                        Permutation.identity(1), s, self.value(el)
                    )
                    if lhs != rhs:
                        failures.append(("equivariance", (d, in_key, s.images), lhs.sub(rhs)))
                        break
        return failures

    def _direct_value(self, p_el, q_els):
        """lambda(p) o (lambda(q_1) (x) ... (x) lambda(q_n)), renormalized."""
        h = None
        for q in q_els:
            v = self.value(q)
            h = v if h is None else endo_horizontal(h, v)
        composite = endo_vertical(self.value(p_el), h)
        concat_entries = []
        for q in q_els:
            concat_entries.extend(q.in_key.rep.entries)
        _, transport = canonicalize_profile(
            Profile(self.family.palette, concat_entries)
        )
        return endo_permute(Permutation.identity(1), transport, composite)


def operad_algebra_to_prop_algebra(alg: OperadAlgebra, opp: OPropData):
    """Phi: extend the structure maps over the free PROP's basis.

    Returns dict (out_key, in_key) -> list of EndoElement per basis column
    (per degree, degree-major).
    """
    from propcalc.chains import factor_permutation_map

    family = alg.family
    palette = family.palette
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
    palette = family.palette
    (tup, sub), out_place, in_place, tensor_i = _locate(comp, deg, flat)
    degs, idxs = sub.layout.tensor.unflatten(deg, tensor_i)
    out_rep = comp.out_key.rep
    in_rep = comp.in_key.rep
    factors = []
    for i, k in enumerate(tup):
        c = out_rep.entries[_position_of_factor(out_place, i)]
        el = alg.operad.element(
            c, k, degs[i], _unit_coords(alg.operad.component(c, k).carrier.dim(degs[i]), idxs[i])
        )
        factors.append(alg.value(el))
    h = None
    for v in factors:
        h = v if h is None else endo_horizontal(h, v)
    # h: X_{concat of factor in-reps} -> X_{(d_f1, d_f2, ...)}
    # out shuffle: factor i's single output goes to its placed position
    m = len(tup)
    out_perm = Permutation([_position_of_factor(out_place, i) + 1 for i in range(m)])
    # in shuffle: concat slot (factor-major) s -> its global position
    concat_positions = []
    blocks = [[] for _ in range(m)]
    for pos, f in enumerate(in_place):
        blocks[f].append(pos)
    for i in range(m):
        concat_positions.extend(blocks[i])
    in_perm = Permutation([p + 1 for p in concat_positions])
    # element at (out_rep; in_rep): permute h's outputs by out_perm and inputs
    # from X_{in_rep} arranged concat-major: right action by in_perm^{-1}
    moved = endo_permute(out_perm, in_perm.inverse(), h)
    # moved: X_{sigma(concat-outs)} <- X_{concat-ins . tau}; both equal the reps
    return EndoElement(family, out_rep, in_rep, moved.chain)


def _position_of_factor(place, factor):
    for pos, f in enumerate(place):
        if f == factor:
            return pos
    raise IndexError("factor not placed")


def prop_algebra_to_operad_algebra(values, opp: OPropData, family: ColoredFamily) -> dict:
    """Psi: restrict to the single-output components."""
    out = {}
    for (out_key, in_key), vals in values.items():
        if out_key.length != 1:
            continue
        d = out_key.rep.entries[0]
        out[(d, in_key)] = vals
    return out


def algebra_round_trip(operad: ColoredOperad, alg: OperadAlgebra, max_in=None):
    """Check Psi(Phi(alg)) = alg exactly, plus sampled PROP-axiom instances.

    Returns a report list; empty means the round trip is exact and the sampled
    axioms hold.
    """
    report = []
    input_failures = alg.check()
    if input_failures:
        return [("input", key, residual) for _, key, residual in input_failures]
    max_in = max_in or operad.max_arity
    opp = prop_from_operad(operad, 2, max_in)
    values = operad_algebra_to_prop_algebra(alg, opp)
    back = prop_algebra_to_operad_algebra(values, opp, alg.family)
    for (d, in_key) in operad.support():
        original = []
        comp = operad.component(d, in_key)
        for el in operad.basis_elements(d, in_key):
            original.append(alg.value(el))
        if back.get((d, in_key)) != original:
            report.append(("round_trip", (d, in_key), None))
    # sampled axiom: evaluating rho through Phi matches endo composition
    for (d, in_key, b_keys) in sorted(operad.gamma, key=repr)[:6]:
        p_basis = operad.basis_elements(d, in_key)
        q_bases = [
            operad.basis_elements(c, bk) for c, bk in zip(in_key.rep.entries, b_keys)
        ]
        if not p_basis or any(not qb for qb in q_bases):
            continue
        p_el = p_basis[0]
        q_els = [qb[0] for qb in q_bases]
        composite = compose_elements(p_el, q_els)
        lhs = alg.value(composite)
        rhs = alg._direct_value(p_el, q_els)
        if lhs != rhs:
            report.append(("prop_axiom", (d, in_key, tuple(b_keys)), lhs.sub(rhs)))
    return report


# ---------------------------------------------------------------------------
# standard operads


def trivial_operad(max_arity=3, color="x") -> ColoredOperad:
    """O(n) = Q with trivial actions and gamma = multiplication."""
    palette = Palette([color])
    components = {}
    for n in range(1, max_arity + 1):
        k = profile_key(palette, [color] * n)
        components[(color, k)] = BimoduleComponent.trivial(
            color_key(palette, color), k, ChainComplex({0: 1})
        )
    operad = ColoredOperad(palette, max_arity, components, {})
    for (d, in_key) in operad.support():
        keys = [
            kk
            for (dd, kk) in operad.support()
            if dd == color
        ]
        for b_keys in itertools.product(keys, repeat=in_key.length):
            if sum(k.length for k in b_keys) > max_arity:
                continue
            merged = merge_in_keys(palette, b_keys)
            src = TensorSpace(
                [components[(color, in_key)].carrier]
                + [components[(color, k)].carrier for k in b_keys]
            ).complex
            operad.gamma[(d, in_key, tuple(b_keys))] = ChainMap(
                src, components[(color, merged)].carrier, {0: [[F(1)]]}, check=False
            )
    return operad


def associative_operad(max_arity=3, color="x") -> ColoredOperad:
    """O(n) = Q[Sigma_n]; basis sigma = the operation (b_1..b_n) |-> prod_j b_{sigma(j)}.

    Right action: (mult_sigma . tau) = mult_{tau^-1 sigma}.  Composition
    substitutes block words: the composite of sigma with (rho_1..rho_n) reads
    the blocks in sigma's order, each internally ordered by its rho.
    """
    palette = Palette([color])
    components = {}
    basis_cache = {}
    for n in range(1, max_arity + 1):
        k = profile_key(palette, [color] * n)
        elems = stabilizer_elements(k)
        basis_cache[n] = {g.images: i for i, g in enumerate(elems)}
        carrier = ChainComplex({0: len(elems)})
        in_gens = {}
        for s in stabilizer_generators(k):
            m = linalg.zeros(len(elems), len(elems))
            for i, g in enumerate(elems):
                target = s.inverse() * g
                m[basis_cache[n][target.images]][i] = F(1)
            in_gens[s.images] = ChainMap(carrier, carrier, {0: m}, check=False)
        components[(color, k)] = BimoduleComponent(
            color_key(palette, color), k, carrier, {}, in_gens
        )
    operad = ColoredOperad(palette, max_arity, components, {})
    for n in range(1, max_arity + 1):
        in_key = profile_key(palette, [color] * n)
        elems_n = stabilizer_elements(in_key)
        for sizes in itertools.product(range(1, max_arity + 1), repeat=n):
            total = sum(sizes)
            if total > max_arity:
                continue
            b_keys = tuple(profile_key(palette, [color] * s) for s in sizes)
            merged = profile_key(palette, [color] * total)
            elems_out = stabilizer_elements(merged)
            index_out = basis_cache[total]
            src = TensorSpace(
                [components[(color, in_key)].carrier]
                + [components[(color, k)].carrier for k in b_keys]
            )
            rows = len(elems_out)
            cols = src.dim(0)
            big = linalg.zeros(rows, cols)
            block_start = [0] * n
            acc = 0
            for i, s in enumerate(sizes):
                block_start[i] = acc
                acc += s
            for comp_tuple, idxs in src.basis(0):
                col = src.flat_index(comp_tuple, idxs)
                sigma = elems_n[idxs[0]]
                rhos = [stabilizer_elements(b_keys[i])[idxs[i + 1]] for i in range(n)]
                word = []
                for j in range(1, n + 1):
                    blk = sigma(j)
                    for l in range(1, sizes[blk - 1] + 1):
                        word.append(block_start[blk - 1] + rhos[blk - 1](l))
                pi = Permutation(word)
                big[index_out[pi.images]][col] = F(1)
            operad.gamma[(color, in_key, b_keys)] = ChainMap(
                src.complex, components[(color, merged)].carrier, {0: big}, check=False
            )
    return operad


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
                vals.append(
                    _element_from_basis(family, out_profile, in_key.rep, bases, k, flat)
                )
        values[(d, in_key)] = vals
    return OperadAlgebra(operad, family, values)
