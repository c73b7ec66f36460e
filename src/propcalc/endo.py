"""Endomorphism, mixed, and relative endomorphism constructions over colored
families of chain complexes.

An endo element of biarity (m, n) at profiles (d, c) and degree k is a family
of matrices Hom(X_c1 (x) ... (x) X_cn, X_d1 (x) ... (x) X_dm)_k.  Vertical
composition is plain composition (no sign), horizontal composition is the
Koszul tensor of maps, and permutations act through signed factor shuffles.
"""

from __future__ import annotations

from propcalc import linalg
from propcalc.chains import (
    ChainComplex,
    ChainMap,
    TensorSpace,
    assemble_tensor_map,
    boundary_of_map,
    classify_map,
    factor_permutation_map,
)
from propcalc.profiles import Palette, Permutation, Profile, apply_permutation, concat


class EndoError(ValueError):
    pass


class ColoredFamily:
    """Assignment of a chain complex to every color of a palette."""

    def __init__(self, palette: Palette, complexes):
        self.palette = palette
        self.complexes = dict(complexes)
        for c in palette.colors:
            if c not in self.complexes:
                raise EndoError("family misses color %r" % (c,))
        for c in self.complexes:
            if c not in palette:
                raise EndoError("family has a complex at color %r outside its palette" % (c,))
        # spaces and shuffles are keyed by the first color of equal complex, so
        # profiles whose complexes agree share them
        self._first = {
            c: next(b for b in palette.colors if self.complexes[b] == self.complexes[c])
            for c in palette.colors
        }
        self._spaces = {}
        self._shuffles = {}

    def space(self, profile: Profile) -> TensorSpace:
        key = tuple(map(self._first.__getitem__, profile.entries))
        if key not in self._spaces:
            self._spaces[key] = TensorSpace([self.complexes[c] for c in key])
        return self._spaces[key]

    def shuffle(self, profile: Profile, sigma: Permutation) -> ChainMap:
        """X_profile -> X_{sigma profile}, factor i to slot sigma(i), Koszul
        signs; built once per (profile up to equal complexes, sigma)."""
        key = (tuple(map(self._first.__getitem__, profile.entries)), sigma.images)
        if key not in self._shuffles:
            self._shuffles[key] = factor_permutation_map(
                [self.complexes[c] for c in profile.entries],
                sigma,
                src_space=self.space(profile),
                tgt_space=self.space(apply_permutation(sigma, profile, "left")),
            )
        return self._shuffles[key]


class EndoElement:
    """Element of Hom(X_c, X_d)_k, stored as the underlying per-degree matrices."""

    __slots__ = ("family", "out_profile", "in_profile", "chain")

    def __init__(self, family, out_profile, in_profile, chain: ChainMap):
        self.family = family
        self.out_profile = out_profile
        self.in_profile = in_profile
        self.chain = chain

    @classmethod
    def from_mats(cls, family, out_profile, in_profile, degree, mats) -> "EndoElement":
        """The element whose matrices are mats, per degree j the rows of its
        block X_in_j -> X_out_{j+degree} (see chains)."""
        src = family.space(in_profile).complex
        tgt = family.space(out_profile).complex
        return cls(
            family, out_profile, in_profile, ChainMap(src, tgt, mats, degree, check=False)
        )

    @classmethod
    def unit(cls, family, out_profile, in_profile, degree, j, r, c) -> "EndoElement":
        """The element whose only nonzero entry is 1 at (r, c) of its degree-j block."""
        src = family.space(in_profile).complex
        tgt = family.space(out_profile).complex
        rows = [{} for _ in range(tgt.dim(j + degree))]
        rows[r][c] = linalg.ONE
        chain = ChainMap(src, tgt, {j: rows}, degree, check=False)
        return cls(family, out_profile, in_profile, chain)

    @classmethod
    def zero(cls, family, out_profile, in_profile, degree=0) -> "EndoElement":
        return cls.from_mats(family, out_profile, in_profile, degree, {})

    @classmethod
    def identity(cls, family, profile) -> "EndoElement":
        space = family.space(profile).complex
        return cls(family, profile, profile, ChainMap.identity(space))

    @property
    def degree(self):
        return self.chain.degree

    def boundary(self) -> "EndoElement":
        return EndoElement(
            self.family, self.out_profile, self.in_profile, boundary_of_map(self.chain)
        )

    def add(self, other):
        self._same_shape(other)
        return EndoElement(self.family, self.out_profile, self.in_profile, self.chain.add(other.chain))

    def sub(self, other):
        self._same_shape(other)
        return EndoElement(self.family, self.out_profile, self.in_profile, self.chain.sub(other.chain))

    def scale(self, c):
        return EndoElement(self.family, self.out_profile, self.in_profile, self.chain.scale(c))

    def is_zero(self):
        return self.chain.is_zero()

    def _same_shape(self, other):
        if (
            self.out_profile != other.out_profile
            or self.in_profile != other.in_profile
            or self.degree != other.degree
        ):
            raise EndoError("endo element shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, EndoElement):
            return NotImplemented
        return (
            self.out_profile == other.out_profile
            and self.in_profile == other.in_profile
            and self.chain == other.chain
        )

    def __repr__(self):
        return "EndoElement(%s <- %s, deg %d)" % (
            ",".join(map(str, self.out_profile.entries)),
            ",".join(map(str, self.in_profile.entries)),
            self.degree,
        )


def endo_component(family: ColoredFamily, out_profile, in_profile):
    """The internal hom complex Hom(X_c, X_d) truncated to degrees >= 0.

    Returns (complex, bases, index): bases[k] lists the (j, row, col) triples
    of degree k, the units X_j -> X_{j+k}, fixing the coordinate order, and
    index[k] maps each triple to its position in bases[k].  The differential
    D(f) = d f - (-1)^k f d is read off the boundary entries: the unit at
    (j, r, c) goes to column r of d_{j+k} on the units (j, r', c), and to row
    c of d_{j+1}, times -(-1)^k, on the units (j+1, r, c').
    """
    src = family.space(in_profile).complex
    tgt = family.space(out_profile).complex
    bases = {}
    index = {}
    for k in range(tgt.top_degree + 1):
        basis = [
            (j, r, c) for j in src.degrees() for r in range(tgt.dim(j + k)) for c in range(src.dim(j))
        ]
        if basis:
            bases[k] = basis
            index[k] = {t: i for i, t in enumerate(basis)}
    out_columns = {n: linalg.columns(tgt.d(n), tgt.dim(n)) for n in tgt.degrees()}
    in_rows = {j: src.d(j + 1) for j in src.degrees()}
    boundary = {}
    for k, basis in bases.items():
        if k - 1 not in bases:
            continue
        below = index[k - 1]
        rows = boundary[k] = [{} for _ in bases[k - 1]]
        for col, (j, r, c) in enumerate(basis):
            for r2, x in out_columns[j + k][r]:
                rows[below[(j, r2, c)]][col] = x
            for c2, x in in_rows[j][c].items():
                rows[below[(j + 1, r, c2)]][col] = x if k % 2 else -x
    return ChainComplex({k: len(basis) for k, basis in bases.items()}, boundary), bases, index


def endo_vertical(f: EndoElement, g: EndoElement) -> EndoElement:
    """f o g; the middle profiles must agree as sequences."""
    if f.in_profile != g.out_profile:
        raise EndoError(
            "vertical middle mismatch: %r vs %r" % (f.in_profile, g.out_profile)
        )
    return EndoElement(f.family, f.out_profile, g.in_profile, f.chain.compose(g.chain))


def endo_horizontal(f: EndoElement, g: EndoElement) -> EndoElement:
    """f (x) g with the Koszul sign (-1)^{|g| |x|}."""
    if f.family is not g.family:
        raise EndoError("horizontal composition needs one family")
    fam = f.family
    out_p = concat(f.out_profile, g.out_profile)
    in_p = concat(f.in_profile, g.in_profile)
    src = fam.space(in_p)
    tgt = fam.space(out_p)
    chain = assemble_tensor_map(
        src,
        tgt,
        [
            (fam.space(f.in_profile), fam.space(f.out_profile), f.chain),
            (fam.space(g.in_profile), fam.space(g.out_profile), g.chain),
        ],
    )
    return EndoElement(fam, out_p, in_p, chain)


def endo_permute(sigma: Permutation, tau: Permutation, f: EndoElement) -> EndoElement:
    """The bimodule structure map (sigma; tau): element at (d; c) to (sigma d; c tau).

    The shuffles come from the family's cache; an identity side is skipped.
    """
    if sigma.n != len(f.out_profile) or tau.n != len(f.in_profile):
        raise EndoError("permutation lengths do not match the profiles")
    fam = f.family
    out_p, in_p, chain = f.out_profile, f.in_profile, f.chain
    if not tau.is_identity():
        # X_{c tau} -> X_c: source factor i carries color c_{tau(i)} and lands in slot tau(i)
        in_p = apply_permutation(tau, f.in_profile, "right")
        chain = chain.compose(fam.shuffle(in_p, tau))
    if not sigma.is_identity():
        out_p = apply_permutation(sigma, f.out_profile, "left")
        chain = fam.shuffle(f.out_profile, sigma).compose(chain)
    return EndoElement(fam, out_p, in_p, chain)


# ---------------------------------------------------------------------------
# families of maps, mixed and relative endomorphism constructions


class FamilyMap:
    """Color-indexed collection of degree-0 chain maps f_c: X_c -> Y_c."""

    def __init__(self, source: ColoredFamily, target: ColoredFamily, maps):
        self.source = source
        self.target = target
        self.maps = dict(maps)
        for c in source.palette.colors:
            if c not in self.maps:
                raise EndoError("family map misses color %r" % (c,))
            f = self.maps[c]
            if f.source.dims != source.complexes[c].dims or f.target.dims != target.complexes[c].dims:
                raise EndoError("family map at color %r has wrong shape" % (c,))
        self._profile_cache = {}

    @classmethod
    def identity(cls, family: ColoredFamily) -> "FamilyMap":
        return cls(
            family,
            family,
            {c: ChainMap.identity(family.complexes[c]) for c in family.palette.colors},
        )

    def profile_map(self, profile: Profile) -> ChainMap:
        """f_c1 (x) ... (x) f_cn on the flat tensor spaces (degree 0, no signs)."""
        key = profile.entries
        if key not in self._profile_cache:
            src = self.source.space(profile)
            tgt = self.target.space(profile)
            groups = []
            for c in key:
                groups.append(
                    (
                        TensorSpace([self.source.complexes[c]]),
                        TensorSpace([self.target.complexes[c]]),
                        self.maps[c],
                    )
                )
            self._profile_cache[key] = assemble_tensor_map(src, tgt, groups)
        return self._profile_cache[key]

    def classify(self):
        """Model-structure flags per color."""
        return {c: classify_map(self.maps[c]) for c in self.source.palette.colors}


def relative_endo_membership(f: FamilyMap, phi_x: EndoElement, phi_y: EndoElement):
    """Does (phi_x, phi_y) lie in the relative construction E_f?

    Both push-forward f_* phi_x and pull-back f^* phi_y land in the mixed
    component Hom(X_c, Y_d); membership means they agree there.  Returns
    (bool, residual EndoElement-like ChainMap).
    """
    if phi_x.out_profile != phi_y.out_profile or phi_x.in_profile != phi_y.in_profile:
        raise EndoError("profile mismatch between the two elements")
    if phi_x.degree != phi_y.degree:
        raise EndoError("degree mismatch between the two elements")
    push = f.profile_map(phi_x.out_profile).compose(phi_x.chain)
    pull = phi_y.chain.compose(f.profile_map(phi_x.in_profile))
    residual = push.sub(pull)
    return residual.is_zero(), residual

