import itertools
import math
import random

import pytest

from helpers import assert_checked, orbit_object_count, reference_canonicalize_profile, young_keys
from propcalc.bimodules import merge_keys
from propcalc.profiles import (
    Palette,
    PaletteError,
    Permutation,
    Profile,
    ProfileError,
    apply_permutation,
    canonicalize_profile,
    concat,
    in_stabilizer,
    koszul_sign,
    orbit_key,
    stabilizer_elements,
    stabilizer_generators,
    word_in_block_transpositions,
)

PAL = Palette(["a", "b", "c"])


def prof(*colors):
    return Profile(PAL, colors)


def test_palette_rejects_duplicates_and_empty():
    with pytest.raises(PaletteError):
        Palette([])
    with pytest.raises(PaletteError):
        Palette(["a", "a"])


def test_equal_palettes_hash_equal():
    # Palette defines __eq__, so without its own __hash__ it is unhashable
    same = Palette(["a", "b", "c"])
    assert same is not PAL and same == PAL and hash(same) == hash(PAL)
    assert len({PAL, same, Palette(["a", "b"]), Palette(["b", "a", "c"])}) == 3
    assert {PAL: 1}[same] == 1


def test_profile_validation():
    with pytest.raises(ProfileError):
        Profile(PAL, [])
    with pytest.raises(ProfileError):
        Profile(PAL, ["z"])


def test_concat_definition():
    assert concat(prof("a", "b"), prof("b")).entries == ("a", "b", "b")
    assert concat(prof("a"), prof("a")).entries == ("a", "a")
    assert concat(prof("b", "a"), prof("a", "c")).entries == ("b", "a", "a", "c")


def test_concat_palette_mismatch():
    other = Palette(["a", "b"])
    with pytest.raises(ProfileError):
        concat(prof("a"), Profile(other, ["a"]))


def test_left_action_swap():
    sigma = Permutation([2, 1])
    assert apply_permutation(sigma, prof("a", "b"), "left").entries == ("b", "a")


def test_identity_action():
    for p in [prof("a"), prof("a", "b", "b"), prof("c", "c")]:
        e = Permutation.identity(len(p))
        assert apply_permutation(e, p, "left") == p
        assert apply_permutation(e, p, "right") == p


def test_left_action_is_group_action_exhaustive():
    p = prof("a", "b", "b")
    for s_imgs in itertools.permutations([1, 2, 3]):
        for t_imgs in itertools.permutations([1, 2, 3]):
            s, t = Permutation(s_imgs), Permutation(t_imgs)
            lhs = apply_permutation(s * t, p, "left")
            rhs = apply_permutation(s, apply_permutation(t, p, "left"), "left")
            assert lhs == rhs


def test_right_action_is_inverse_convention():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        p = Profile(PAL, [rng.choice(PAL.colors) for _ in range(n)])
        imgs = list(range(1, n + 1))
        rng.shuffle(imgs)
        t = Permutation(imgs)
        assert apply_permutation(t, p, "right") == apply_permutation(t.inverse(), p, "left")
        # (p*t)*t' = p*(t t')
        imgs2 = list(range(1, n + 1))
        rng.shuffle(imgs2)
        t2 = Permutation(imgs2)
        lhs = apply_permutation(t2, apply_permutation(t, p, "right"), "right")
        rhs = apply_permutation(t * t2, p, "right")
        assert lhs == rhs


def test_length_mismatch_rejected():
    with pytest.raises(ProfileError):
        apply_permutation(Permutation([1, 2]), prof("a"), "left")


def test_canonicalize_sorting():
    key, t = canonicalize_profile(prof("b", "a", "b"))
    assert key.rep.entries == ("a", "b", "b")
    assert apply_permutation(t, key.rep, "left") == prof("b", "a", "b")


def test_canonicalize_identity_on_sorted():
    key, t = canonicalize_profile(prof("a", "a"))
    assert key.rep.entries == ("a", "a")
    assert t.is_identity()


def test_canonicalize_constant_on_orbit():
    base = prof("a", "b", "b")
    keys = set()
    for imgs in itertools.permutations([1, 2, 3]):
        q = apply_permutation(Permutation(imgs), base, "left")
        key, t = canonicalize_profile(q)
        keys.add(key)
        assert apply_permutation(t, key.rep, "left") == q
    assert len(keys) == 1


def test_canonicalize_transport_lex_least():
    # brute force the lexicographically least transport
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        p = Profile(PAL, [rng.choice(PAL.colors) for _ in range(n)])
        key, t = canonicalize_profile(p)
        candidates = [
            Permutation(imgs)
            for imgs in itertools.permutations(range(1, n + 1))
            if apply_permutation(Permutation(imgs), key.rep, "left") == p
        ]
        assert t == min(candidates, key=lambda p: p.images)


def test_stabilizer_order_and_generators():
    key, _ = canonicalize_profile(prof("a", "b", "b"))
    gens = stabilizer_generators(key)
    assert len(stabilizer_elements(key)) == 2
    # all generators fix the representative
    for g in gens:
        assert apply_permutation(g, key.rep, "left") == key.rep


def test_stabilizer_distinct_colors_trivial():
    key, _ = canonicalize_profile(prof("a", "b", "c"))
    assert len(stabilizer_elements(key)) == 1
    assert stabilizer_generators(key) == []
    assert orbit_object_count(key) == 6


def test_stabilizer_one_color_full_group():
    key, _ = canonicalize_profile(prof("a", "a", "a"))
    assert len(stabilizer_elements(key)) == 6
    assert orbit_object_count(key) == 1


def test_stabilizer_matches_brute_force():
    key, _ = canonicalize_profile(prof("a", "b", "b"))
    fixing = [
        imgs
        for imgs in itertools.permutations([1, 2, 3])
        if apply_permutation(Permutation(imgs), key.rep, "left") == key.rep
    ]
    assert len(fixing) == 2


def test_orbit_stabilizer_product():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        p = Profile(PAL, [rng.choice(PAL.colors) for _ in range(n)])
        key, _ = canonicalize_profile(p)
        assert orbit_object_count(key) * len(stabilizer_elements(key)) == math.factorial(n)


def test_orbit_count_multinomial():
    key, _ = canonicalize_profile(prof("a", "b", "b"))
    assert orbit_object_count(key) == 3


def test_word_decomposition_rebuilds_element():
    key, _ = canonicalize_profile(prof("a", "a", "b", "b", "b"))
    for sigma in stabilizer_elements(key):
        word = word_in_block_transpositions(key, sigma)
        acc = Permutation.identity(key.length)
        for w in word:
            acc = acc * w
        assert acc == sigma
        for w in word:
            assert in_stabilizer(key, w)


def test_young_group_builders_give_checked_permutations():
    """Products, inverses, generators, elements and words skip the constructor's
    check; on seeded keys (blocks up to 4, length up to 6) each of them is
    what the check accepts, and each word multiplies out to its element.  The
    generators are built once per key: changing the list one call returned
    does not change the next call's."""
    rng = random.Random(24)
    for key in young_keys(rng, PAL, 40):
        gens = stabilizer_generators(key)
        kept = list(gens)
        gens.reverse()
        gens.append(Permutation.identity(key.length))
        assert stabilizer_generators(key) == kept
        elements = stabilizer_elements(key)
        for g in kept + elements:
            assert_checked(g)
            assert_checked(g.inverse())
        for g in elements:
            for h in rng.sample(elements, min(len(elements), 12)):
                assert_checked(g * h)
            word = word_in_block_transpositions(key, g)
            product = Permutation.identity(key.length)
            for s in word:
                assert_checked(s)
                product = product * s
            assert product == g


def test_block_sum_and_sign():
    s = Permutation([2, 1])
    t = Permutation([1, 3, 2])
    assert s.block_sum(t).images == (2, 1, 3, 5, 4)
    # the sign of a permutation is koszul_sign with every letter odd
    assert koszul_sign([1, 1], [i - 1 for i in s.images]) == -1
    assert koszul_sign([1, 1], [i - 1 for i in (s * s).images]) == 1


def koszul_sign_by_adjacent_swaps(degrees, slots):
    """Bubble the letters into their slots one adjacent swap at a time; each
    swap of two odd letters flips the sign."""
    word = list(range(len(slots)))
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for a in range(end):
            x, y = word[a], word[a + 1]
            if slots[x] > slots[y]:
                word[a], word[a + 1] = y, x
                if degrees[x] % 2 and degrees[y] % 2:
                    sign = -sign
    assert [slots[x] for x in word] == sorted(slots)
    return sign


def parity_by_cycles(slots):
    """(-1)^(n - number of cycles) of the permutation i -> slots[i]."""
    seen = set()
    cycles = 0
    for i in range(len(slots)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = slots[i]
    return -1 if (len(slots) - cycles) % 2 else 1


def test_koszul_sign_matches_adjacent_swaps():
    """Seeded degrees and permutations up to seven letters: koszul_sign equals
    the brute force by adjacent swaps, is the permutation's parity when every
    letter is odd, and is 1 when every letter is even."""
    rng = random.Random(38)
    flips = 0
    for n in range(8):
        for _ in range(60):
            slots = rng.sample(range(n), n)
            degrees = [rng.randint(0, 3) for _ in range(n)]
            sign = koszul_sign(degrees, slots)
            assert sign == koszul_sign_by_adjacent_swaps(degrees, slots)
            flips += sign == -1
            odd = [rng.choice((1, 3)) for _ in range(n)]
            assert koszul_sign(odd, slots) == koszul_sign_by_adjacent_swaps(odd, slots) == parity_by_cycles(slots)
            assert koszul_sign([2 * d for d in degrees], slots) == 1
    assert flips >= 100, flips


def test_canonicalize_profile_matches_the_unmemoized_reference():
    """Random profiles over random palettes: the memoized (key, t) equals the
    fresh reference, and an equal profile over the same palette object gets
    the very same key and permutation objects back."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    palettes = st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True).map(Palette)

    @st.composite
    def palette_and_entries(draw):
        palette = draw(palettes)
        return palette, draw(st.lists(st.sampled_from(palette.colors), min_size=1, max_size=7))

    @settings(max_examples=300, deadline=None)
    @given(palette_and_entries())
    def check(case):
        palette, entries = case
        key, t = canonicalize_profile(Profile(palette, entries))
        ref_key, ref_t = reference_canonicalize_profile(Profile(palette, entries))
        assert (key, t) == (ref_key, ref_t)
        assert key.rep.entries == ref_key.rep.entries and key.rep.palette is palette
        assert key.block_sizes == ref_key.block_sizes
        again = canonicalize_profile(Profile(palette, list(entries)))
        assert again[0] is key and again[1] is t
        other = canonicalize_profile(Profile(Palette(palette.colors), entries))
        assert other == (key, t) and other[0] is not key

    check()


def test_one_orbit_key_per_orbit_and_palette():
    """Seeded profiles: every order of one orbit, and every split of it into
    consecutive pieces handed to merge_keys in any order, gives the one key
    object of the palette; the key over an equal but distinct palette is
    another object that compares and hashes equal."""
    rng = random.Random(27)
    for _ in range(60):
        palette = Palette(rng.sample("abcde", rng.randint(1, 4)))
        entries = [rng.choice(palette.colors) for _ in range(rng.randint(1, 6))]
        key = orbit_key(palette, tuple(sorted(entries, key=palette.colors.index)))
        for order in set(itertools.permutations(entries)):
            assert canonicalize_profile(Profile(palette, order))[0] is key
            # a split: cut points between positions, each piece by its own key
            cuts = sorted(rng.sample(range(1, len(order)), rng.randint(0, len(order) - 1)))
            pieces = [order[i:j] for i, j in zip([0] + cuts, cuts + [len(order)])]
            piece_keys = [canonicalize_profile(Profile(palette, piece))[0] for piece in pieces]
            rng.shuffle(piece_keys)
            assert merge_keys(palette, piece_keys) is key
        twin = Palette(list(palette.colors))
        other = merge_keys(twin, [canonicalize_profile(Profile(twin, entries))[0]])
        assert other is not key and other.rep.palette is twin
        assert other == key and key == other and hash(other) == hash(key)
        assert other is canonicalize_profile(Profile(twin, entries[::-1]))[0]
