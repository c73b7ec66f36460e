"""Colors, profiles, permutations, and the connected groupoids of profiles.

A profile is a finite non-empty sequence of colors from a palette.  The
permutation groupoid on a profile's orbit is never materialized: each orbit is
represented by a canonical sorted representative (OrbitKey) together with its
stabilizer, a Young subgroup, and transport permutations connecting concrete
profiles to the representative.

Conventions, used consistently everywhere downstream:

* left action:   (sigma * p)[i] = p[sigma^-1(i)]   (position j moves to sigma(j))
* right action:  (p * tau)[i]  = p[tau(i)]
* composition:   (sigma' * sigma)(i) = sigma'(sigma(i)), so sigma'*(sigma*p) =
  (sigma'sigma)*p and (p*tau)*tau' = p*(tau tau').
* p * tau == tau^-1 * p.
"""

from __future__ import annotations

import itertools
import math


class PaletteError(ValueError):
    pass


class ProfileError(ValueError):
    pass


class Palette:
    """Ordered finite set of distinct color symbols; declaration order is the total order."""

    __slots__ = ("colors", "_index", "_canonical", "_keys")

    def __init__(self, colors):
        colors = tuple(colors)
        if not colors:
            raise PaletteError("palette must be non-empty")
        if len(set(colors)) != len(colors):
            raise PaletteError("palette has duplicate colors: %r" % (colors,))
        self.colors = colors
        self._index = {c: i for i, c in enumerate(colors)}
        self._canonical = {}  # profile entries -> canonicalize_profile's (key, t)
        self._keys = {}  # sorted representative's entries -> its one OrbitKey (orbit_key)

    def order(self, color) -> int:
        try:
            return self._index[color]
        except KeyError:
            raise PaletteError("color %r not in palette %r" % (color, self.colors))

    def __contains__(self, color):
        return color in self._index

    def __eq__(self, other):
        return isinstance(other, Palette) and self.colors == other.colors

    def __hash__(self):
        return hash(self.colors)

    def __repr__(self):
        return "Palette(%r)" % (list(self.colors),)


class Profile:
    """Non-empty sequence of colors from one palette.  Immutable, structural
    equality; the hash is computed once, since profiles key most caches."""

    __slots__ = ("palette", "entries", "_hash")

    def __init__(self, palette: Palette, entries):
        entries = tuple(entries)
        if not entries:
            raise ProfileError("profiles are non-empty")
        for c in entries:
            if c not in palette:
                raise ProfileError("entry %r not in palette %r" % (c, palette.colors))
        self.palette = palette
        self.entries = entries
        # equal palettes have equal colors; hashing those skips Palette.__hash__
        self._hash = hash((palette.colors, entries))

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Profile)
            and self.palette == other.palette
            and self.entries == other.entries
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Profile(%s)" % (",".join(str(c) for c in self.entries))


def concat(p: Profile, q: Profile) -> Profile:
    """Concatenation of two profiles over the same palette."""
    if p.palette != q.palette:
        raise ProfileError("palette mismatch: %r vs %r" % (p.palette, q.palette))
    return Profile(p.palette, p.entries + q.entries)


class Permutation:
    """Bijection of {1..n} in one-line notation: images[i-1] = sigma(i).

    Permutation(images) checks that images is a permutation of 1..n; file and
    user input come in that way.  Products, inverses and the Young-group
    builders below go through _trusted instead, which skips the check: their
    images are permutations by construction.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (n, images))
        self.images = images

    @classmethod
    def _trusted(cls, images) -> "Permutation":
        """The permutation with these images (ints), without the check."""
        sigma = object.__new__(cls)
        sigma.images = tuple(images)
        return sigma

    @property
    def n(self):
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation._trusted(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation._trusted(inv)

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def block_sum(self, other: "Permutation") -> "Permutation":
        shifted = tuple(x + self.n for x in other.images)
        return Permutation(self.images + shifted)

    def sign(self) -> int:
        inv = 0
        im = self.images
        for i in range(len(im)):
            for j in range(i + 1, len(im)):
                if im[i] > im[j]:
                    inv += 1
        return -1 if inv % 2 else 1

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return "Permutation(%s)" % (list(self.images),)


def apply_permutation(sigma: Permutation, p: Profile, side: str = "left") -> Profile:
    """Act on a profile; 'left' sends position j to sigma(j), 'right' is the inverse convention."""
    if sigma.n != len(p):
        raise ProfileError(
            "permutation size %d does not match profile length %d" % (sigma.n, len(p))
        )
    if side == "left":
        out = [None] * len(p)
        for j, c in enumerate(p.entries, start=1):
            out[sigma(j) - 1] = c
        return Profile(p.palette, out)
    if side == "right":
        return Profile(p.palette, (p.entries[sigma(i) - 1] for i in range(1, len(p) + 1)))
    raise ValueError("side must be 'left' or 'right'")


class OrbitKey:
    """Canonical representative of a profile orbit: entries sorted by palette order.

    Build keys through orbit_key (or canonicalize_profile), never directly:
    a palette keeps one key per representative, so equal keys over one
    palette are the same object and compare by identity.  Keys over two
    equal palettes, as from two files loaded in one run, are distinct
    objects that still compare and hash equal by value.
    """

    __slots__ = ("rep", "block_sizes", "_hash", "_generators")

    def __init__(self, rep: Profile):
        orders = [rep.palette.order(c) for c in rep.entries]
        if orders != sorted(orders):
            raise ProfileError("orbit representative must be sorted: %r" % (rep,))
        self.rep = rep
        sizes = []
        for _, grp in itertools.groupby(rep.entries):
            sizes.append(len(list(grp)))
        self.block_sizes = tuple(sizes)
        self._hash = hash(("orbit", rep))
        self._generators = None  # stabilizer_generators' tuple, built on first use

    @property
    def length(self):
        return len(self.rep)

    def __eq__(self, other):
        return self is other or (isinstance(other, OrbitKey) and self.rep == other.rep)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        me = tuple(self.rep.palette.order(c) for c in self.rep.entries)
        them = tuple(other.rep.palette.order(c) for c in other.rep.entries)
        return (len(me), me) < (len(them), them)

    def __repr__(self):
        return "OrbitKey(%s)" % (",".join(str(c) for c in self.rep.entries))


def orbit_key(palette: Palette, entries) -> OrbitKey:
    """The palette's one OrbitKey on the sorted representative with these entries (a tuple)."""
    key = palette._keys.get(entries)
    if key is None:
        key = palette._keys[entries] = OrbitKey(Profile(palette, entries))
    return key


def canonicalize_profile(p: Profile):
    """Return (key, t) with t the lexicographically least permutation satisfying t(rep) = p.

    The greedy choice (smallest unused target position of the right color, in
    rep order) is lexicographically least because positions of distinct colors
    never compete.  Memoized per palette: equal profiles over one palette get
    the same permutation object, and every profile of one orbit gets the
    palette's one key from orbit_key, so keys over one palette compare by
    identity.  Over two equal palettes the keys are distinct objects that
    compare and hash equal by value.
    """
    memo = p.palette._canonical
    if p.entries in memo:
        return memo[p.entries]
    rep_entries = tuple(sorted(p.entries, key=p.palette.order))
    # t(rep) = p under the left action means p[t(j)] = rep[j]
    positions = {}
    for i, c in enumerate(p.entries, start=1):
        positions.setdefault(c, []).append(i)
    taken = {c: 0 for c in positions}
    images = []
    for c in rep_entries:
        k = taken[c]
        images.append(positions[c][k])
        taken[c] = k + 1
    memo[p.entries] = orbit_key(p.palette, rep_entries), Permutation(images)
    return memo[p.entries]


def _blocks(key: OrbitKey):
    """Start offsets and sizes of the equal-color blocks of the representative."""
    out = []
    start = 0
    for size in key.block_sizes:
        out.append((start, size))
        start += size
    return out


def stabilizer_generators(key: OrbitKey):
    """Generators (adjacent transpositions inside each color block) of the Young subgroup.

    Built once per key object and kept on it, so the cache lives as long as
    the key (a palette keeps one key per orbit, see orbit_key); each call
    returns a fresh list of the same immutable permutations.
    """
    length = key.length
    if key._generators is None:
        gens = []
        for start, size in _blocks(key):
            for i in range(start + 1, start + size):
                images = list(range(1, length + 1))
                images[i - 1], images[i] = images[i], images[i - 1]
                gens.append(Permutation._trusted(images))
        key._generators = tuple(gens)
    return list(key._generators)


def stabilizer_order(key: OrbitKey) -> int:
    out = 1
    for b in key.block_sizes:
        out *= math.factorial(b)
    return out


def stabilizer_elements(key: OrbitKey):
    """All elements of the Young subgroup, deterministic order (lex per block)."""
    length = key.length
    per_block = []
    for start, size in _blocks(key):
        block_perms = []
        for imgs in itertools.permutations(range(start + 1, start + size + 1)):
            block_perms.append(imgs)
        per_block.append((start, size, block_perms))
    out = []
    for chosen in itertools.product(*[bp for _, _, bp in per_block]):
        images = list(range(1, length + 1))
        for (start, size, _), imgs in zip(per_block, chosen):
            for offset, img in enumerate(imgs):
                images[start + offset] = img
        out.append(Permutation._trusted(images))
    return out


def in_stabilizer(key: OrbitKey, sigma: Permutation) -> bool:
    rep = key.rep.entries
    return all(rep[sigma(i) - 1] == rep[i - 1] for i in range(1, len(rep) + 1))


def word_in_block_transpositions(key: OrbitKey, sigma: Permutation):
    """Write a Young-subgroup element as a word in the generator transpositions.

    Bubble sort; every swap happens inside a color block because sigma
    permutes within blocks.  Returns a list of generator permutations whose
    product (left to right) is sigma.
    """
    if not in_stabilizer(key, sigma):
        raise ProfileError("%r does not stabilize %r" % (sigma, key))
    length = key.length
    arr = list(sigma.images)
    word_positions = []
    changed = True
    while changed:
        changed = False
        for i in range(length - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                word_positions.append(i)
                changed = True
    # product of the recorded adjacent transpositions, in reverse, rebuilds sigma
    gens = []
    for i in reversed(word_positions):
        images = list(range(1, length + 1))
        images[i], images[i + 1] = images[i + 1], images[i]
        gens.append(Permutation._trusted(images))
    return gens
