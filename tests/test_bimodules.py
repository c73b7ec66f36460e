import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from helpers import (
    _moved_placement,
    _twists,
    dense_add,
    dense_mat,
    dense_mats,
    dense_rank,
    dense_scale,
    dense_sub,
    identity,
    induced_dim_law,
    is_signed_permutation,
    kron,
    reference_box_dot_gens,
    reference_coinvariant_quotient,
    reference_rho_in,
    reference_rho_out,
    reference_validate_component,
    rows_of,
    young_keys,
    zeros,
)
from propcalc import bimodules, formats
from propcalc.bimodules import (
    BimoduleComponent,
    BimoduleError,
    ColoredBimodule,
    InducedLayout,
    box_dot,
    box_dot_many,
    box_h,
    box_v,
    coinvariant_quotient,
    component_at,
    induce_colors,
    placements,
    restrict_colors,
    tensor_over_sigma,
)
from propcalc.chains import (
    ChainComplex,
    ChainMap,
    TensorSpace,
    assemble_tensor_map,
    base_field_complex,
)
from propcalc.profiles import (
    OrbitKey,
    Palette,
    Permutation,
    Profile,
    apply_permutation,
    canonicalize_profile,
    stabilizer_elements,
    stabilizer_generators,
)

F = Fraction
PAL = Palette(["a", "b"])
PAL1 = Palette(["x"])


def key(palette, *colors):
    k, _ = canonicalize_profile(Profile(palette, colors))
    return k


def perm_matrix_rep(group_key, side):
    """Natural position action of the Young subgroup on Q^n as generator matrices."""
    n = group_key.length
    gens = {}
    for s in stabilizer_generators(group_key):
        use = s if side == "out" else s.inverse()
        m = zeros(n, n)
        for i in range(1, n + 1):
            m[use(i) - 1][i - 1] = F(1)
        gens[s.images] = m
    return gens


def sign_rep(group_key):
    return {s.images: [[F(-1)]] for s in stabilizer_generators(group_key)}


def trivial_rep(group_key, dim=1, deg_dims=None):
    carrier = ChainComplex(deg_dims or {0: dim})
    ident = ChainMap.identity(carrier)
    return {s.images: ident for s in stabilizer_generators(group_key)}


def make_component(out_key, in_key, carrier, out_mats=None, in_mats=None):
    """Wrap raw degree-0 matrices (applied in every degree) into a component."""

    def to_chain(m):
        if isinstance(m, ChainMap):
            return m
        return ChainMap(carrier, carrier, rows_of({n: m for n in carrier.degrees()}), check=False)

    out_gens = {}
    for s in stabilizer_generators(out_key):
        out_gens[s.images] = to_chain((out_mats or {}).get(s.images, identity(carrier.dim(0))))
    in_gens = {}
    for s in stabilizer_generators(in_key):
        in_gens[s.images] = to_chain((in_mats or {}).get(s.images, identity(carrier.dim(0))))
    return BimoduleComponent(out_key, in_key, carrier, out_gens, in_gens)


def regular_rep_mats(group_key, side):
    """Regular representation of the Young subgroup: permutation of group elements."""
    elems = stabilizer_elements(group_key)
    index = {g.images: i for i, g in enumerate(elems)}
    out = {}
    for s in stabilizer_generators(group_key):
        m = zeros(len(elems), len(elems))
        for i, g in enumerate(elems):
            target = (s * g) if side == "out" else (g * s)
            m[index[target.images]][i] = F(1)
        out[s.images] = m
    return out


# -- components and transports ---------------------------------------------------


def test_component_validate_small_groups():
    kd = key(PAL1, "x", "x")
    kc = key(PAL1, "x")
    carrier = ChainComplex({0: 2})
    comp = make_component(kd, kc, carrier, out_mats=perm_matrix_rep(kd, "out"))
    assert comp.validate() == []


def test_validate_rejects_actions_that_do_not_commute_with_d():
    """On the disc, a generator acting by 1 in degree 0 and -1 in degree 1
    (a signed permutation) or by 2 and 1 (a general map) is no chain map."""
    disc = ChainComplex({0: 1, 1: 1}, rows_of({1: [[F(1)]]}))
    out_key, in_key = key(PAL1, "x", "x"), key(PAL1, "x")
    s = stabilizer_generators(out_key)[0].images
    for mats, signed in (({0: [[F(1)]], 1: [[F(-1)]]}, True), ({0: [[F(2)]], 1: [[F(1)]]}, False)):
        action = ChainMap(disc, disc, rows_of(mats), check=False)
        assert is_signed_permutation(action) == signed
        comp = BimoduleComponent(out_key, in_key, disc, {s: action}, {})
        failures = comp.validate()
        assert "action %r does not commute with the differential" % (s,) in failures
        assert failures == reference_validate_component(comp)


def test_component_validate_rejects_bad_action():
    kd = key(PAL1, "x", "x")
    kc = key(PAL1, "x")
    carrier = ChainComplex({0: 1})
    bad = make_component(kd, kc, carrier, out_mats={(2, 1): [[F(2)]]})
    failures = bad.validate()
    assert any("group law" in f for f in failures)


def noncommuting_component():
    """Q^5 with S_5 permuting coordinates on the out side and the in generator
    acting by diag(1, -1, -1, -1, -1): both actions are lawful, but they do
    not commute, and (1 2) is the out generator that shows it."""
    kd = key(PAL1, *"xxxxx")
    kc = key(PAL1, "x", "x")
    diag = [[F(1) if i == j == 0 else F(-1) if i == j else F(0) for j in range(5)] for i in range(5)]
    return make_component(
        kd, kc, ChainComplex({0: 5}), out_mats=perm_matrix_rep(kd, "out"), in_mats={(2, 1): diag}
    )


def test_component_validate_rejects_noncommuting_actions():
    comp = noncommuting_component()
    assert comp.validate() == ["out/in actions do not commute"]


def test_component_rejects_action_keys_that_are_not_generators():
    """An action on a permutation that is not a stabilizer generator is never
    read, so validate could not see it: the identity given as 5 on either
    side, or a 3-cycle, is refused, also when loaded from a file."""
    kd, kc = key(PAL1, "x", "x"), key(PAL1, "x")
    kddd = key(PAL1, "x", "x", "x")
    carrier = ChainComplex({0: 1})
    five = ChainMap(carrier, carrier, rows_of({0: [[F(5)]]}))
    comp = make_component(kd, kd, carrier, out_mats=sign_rep(kd))
    with pytest.raises(BimoduleError, match=r"^out-action given for \(1, 2\), which is not a stabilizer generator$"):
        BimoduleComponent(kd, kc, carrier, {**comp.out_gens, (1, 2): five}, {})
    with pytest.raises(BimoduleError, match=r"^in-action given for \(1, 2\), which is not a stabilizer generator$"):
        BimoduleComponent(kd, kd, carrier, comp.out_gens, {**comp.in_gens, (1, 2): five})
    cycle = make_component(kddd, kc, carrier)
    with pytest.raises(BimoduleError, match=r"for \(2, 3, 1\), which"):
        BimoduleComponent(kddd, kc, carrier, {**cycle.out_gens, (2, 3, 1): five}, {})
    # a missing generator is still reported first
    with pytest.raises(BimoduleError, match=r"^missing out-generator action \(2, 1\)$"):
        BimoduleComponent(kd, kc, carrier, {(1, 2): five}, {})

    with open(os.path.join(GOLDEN_INPUTS, "sign_a.json"), encoding="utf-8") as handle:
        data = json.load(handle)
    data["components"][1]["out_actions"].append({"perm": [1, 2], "mats": {"0": [["5/1"]]}})
    with pytest.raises(BimoduleError, match=r"^out-action given for \(1, 2\)"):
        formats.bimodule_from_json(data)


def young_rep(rng, k, side, natural):
    """Generator matrices of a representation of the Young subgroup of k: the
    natural permutation action on Q^n (natural) or the trivial one on Q,
    twisted by the sign character of a random set of colour blocks."""
    signs = {c: rng.choice([F(1), F(-1)]) for c in k.rep.entries}
    perms = perm_matrix_rep(k, side) if natural else None
    out = {}
    for s in stabilizer_generators(k):
        color = k.rep.entries[next(i for i, x in enumerate(s.images) if x != i + 1)]
        out[s.images] = dense_scale(signs[color], perms[s.images] if natural else [[F(1)]])
    return out


def random_young_component(rng, out_key, in_key, max_dim=8):
    """Random lawful component over degrees 0 and 1 with zero differential:
    in each degree an out representation tensored with an in representation,
    so the two sides commute; sign twists put -1 entries in both degrees."""
    dims, out_mats, in_mats = {}, {}, {}
    for j in (0, 1):
        out_natural = out_key.length > 1 and rng.random() < 0.6
        a = out_key.length if out_natural else 1
        in_natural = in_key.length > 1 and a * in_key.length <= max_dim and rng.random() < 0.6
        b = in_key.length if in_natural else 1
        dims[j] = a * b
        out_mats[j] = {g: kron(m, identity(b)) for g, m in young_rep(rng, out_key, "out", out_natural).items()}
        in_mats[j] = {g: kron(identity(a), m) for g, m in young_rep(rng, in_key, "in", in_natural).items()}
    carrier = ChainComplex(dims)

    def gens(mats, group_key):
        return {
            s.images: ChainMap(carrier, carrier, rows_of({j: mats[j][s.images] for j in (0, 1)}), check=False)
            for s in stabilizer_generators(group_key)
        }

    return BimoduleComponent(out_key, in_key, carrier, gens(out_mats, out_key), gens(in_mats, in_key))


def random_young_key(rng, palette, max_length):
    return key(palette, *[rng.choice(palette.colors) for _ in range(rng.randint(1, max_length))])


def with_generator(comp, side, images, degree, m):
    """A copy of comp whose side generator `images` has matrix m in one degree."""
    gens = {"out": dict(comp.out_gens), "in": dict(comp.in_gens)}
    mats = dict(dense_mats(gens[side][images]))
    mats[degree] = m
    gens[side][images] = ChainMap(comp.carrier, comp.carrier, rows_of(mats), check=False)
    return BimoduleComponent(comp.out_key, comp.in_key, comp.carrier, gens["out"], gens["in"])


def test_rho_of_a_generator_is_its_stored_map():
    rng = random.Random(31)
    for _ in range(20):
        comp = random_young_component(rng, random_young_key(rng, PAL, 5), random_young_key(rng, PAL, 3))
        for s in stabilizer_generators(comp.out_key):
            assert comp.rho_out(s) is comp.out_gens[s.images]
        for s in stabilizer_generators(comp.in_key):
            assert comp.rho_in(s) is comp.in_gens[s.images]
        ident = ChainMap.identity(comp.carrier)
        assert dense_mats(comp.rho_out(Permutation.identity(comp.out_key.length))) == dense_mats(ident)
        assert dense_mats(comp.rho_in(Permutation.identity(comp.in_key.length))) == dense_mats(ident)
        for g in stabilizer_elements(comp.out_key)[:30]:
            assert dense_mats(comp.rho_out(g)) == dense_mats(reference_rho_out(comp, g))
        for h in stabilizer_elements(comp.in_key)[:30]:
            assert dense_mats(comp.rho_in(h)) == dense_mats(reference_rho_in(comp, h))


def commute_everywhere(comp):
    """Exhaustive oracle: every out element's action commutes with every in
    element's action."""
    outs = [reference_rho_out(comp, g) for g in stabilizer_elements(comp.out_key)]
    ins = [reference_rho_in(comp, h) for h in stabilizer_elements(comp.in_key)]
    return all(a.compose(b) == b.compose(a) for a in outs for b in ins)


COMMUTE = "out/in actions do not commute"


def assert_validate_matches_reference(comp):
    """validate agrees with the reference except that it tests commutation on
    generators, which is exact, and reports a failure once."""
    failures = comp.validate()
    reference = reference_validate_component(comp)
    assert [f for f in failures if f != COMMUTE] == [f for f in reference if f != COMMUTE]
    assert failures.count(COMMUTE) == (0 if commute_everywhere(comp) else 1)
    if COMMUTE in reference:
        assert COMMUTE in failures
    return failures


def test_validate_matches_reference_on_valid_broken_and_noncommuting_components():
    rng = random.Random(32)
    seen = {"law": 0, "commute": 0, "sampled": 0}
    # every fourth out key has 120 or 144 elements, so validate samples its table
    big = [key(PAL, *"aaaaa"), key(PAL, *"aaaabbb")]
    for trial in range(36):
        out_key = big[trial % 8 // 4] if trial % 4 == 0 else random_young_key(rng, PAL, 5)
        in_key = random_young_key(rng, PAL, 3)
        comp = random_young_component(rng, out_key, in_key)
        assert assert_validate_matches_reference(comp) == []
        seen["sampled"] += len(stabilizer_elements(out_key)) > 48
        out_gens = stabilizer_generators(out_key)
        in_gens = stabilizer_generators(in_key)
        if out_gens:
            # a generator scaled by 2 is no involution: the out group law fails
            s = rng.choice(out_gens)
            j = rng.choice([0, 1])
            broken = with_generator(comp, "out", s.images, j, dense_scale(F(2), dense_mat(comp.out_gens[s.images], j)))
            failures = assert_validate_matches_reference(broken)
            seen["law"] += any("group law" in f for f in failures)
        if in_gens and comp.carrier.dim(0) > 1:
            # a sign on all but the first coordinate keeps the in generator an
            # involution but need not commute with the out side
            n = comp.carrier.dim(0)
            diag = [[F(1) if i == c == 0 else F(-1) if i == c else F(0) for c in range(n)] for i in range(n)]
            mixed = with_generator(comp, "in", rng.choice(in_gens).images, 0, diag)
            failures = assert_validate_matches_reference(mixed)
            seen["commute"] += COMMUTE in failures
    assert all(seen.values()), seen
    # validate and the exhaustive oracle flag the repro; the reference's 8 x 8 prefix does not
    assert assert_validate_matches_reference(noncommuting_component()) == [COMMUTE]
    assert COMMUTE not in reference_validate_component(noncommuting_component())


def test_validate_sampled_path_builds_only_sampled_actions(monkeypatch):
    comp = noncommuting_component()
    calls = []
    rho_out = BimoduleComponent.rho_out

    def counting(self, sigma):
        calls.append(sigma)
        return rho_out(self, sigma)

    monkeypatch.setattr(BimoduleComponent, "rho_out", counting)
    assert comp.validate() == [COMMUTE]
    # 120 elements: 20 sampled pairs name at most 60 distinct elements, each built once
    assert len(calls) == len(set(calls)) <= 60


# stabilizers of 2, 6, 24, 36 and 48 elements: S2, S3, S4, S3 x S3, S4 x S2
LAW_KEYS = [key(PAL, *"aa"), key(PAL, *"aaa"), key(PAL, *"aaaa"), key(PAL, *"aaabbb"), key(PAL, *"aaaabb")]


def test_validate_generator_rows_match_the_full_table():
    """validate checks the group law on generator rows only; the reference
    checks the full table.  On seeded components over each stabilizer, on
    either side, valid and broken (one generator scaled by 2, or one in a
    block of 3 or more negated so that a braid relation fails), the failures
    agree, first failing pair included."""
    rng = random.Random(35)
    failing, braids = set(), 0
    for group_key in LAW_KEYS:
        for side in ("out", "in"):
            for _ in range(3):
                other = random_young_key(rng, PAL, 2)
                keys = (group_key, other) if side == "out" else (other, group_key)
                comp = random_young_component(rng, *keys)
                assert comp.validate() == reference_validate_component(comp) == []
                gens = comp.out_gens if side == "out" else comp.in_gens
                s = rng.choice(stabilizer_generators(group_key))
                j = rng.choice([0, 1])
                scaled = with_generator(comp, side, s.images, j, dense_scale(F(2), dense_mat(gens[s.images], j)))
                # a generator in a colour block of 3 or more is in a braid relation
                colours = group_key.rep.entries
                braided = [
                    g for g in stabilizer_generators(group_key) if colours.count(colours[swapped_position(g)]) >= 3
                ]
                negated = [
                    with_generator(comp, side, g.images, j, dense_scale(F(-1), dense_mat(gens[g.images], j)))
                    for g in braided[:1]
                ]
                braids += len(negated)
                for broken in [scaled] + negated:
                    failures = broken.validate()
                    assert failures == reference_validate_component(broken)
                    assert any(f.startswith(side + "-action group law fails") for f in failures)
                    failing.update(f for f in failures if "group law" in f)
    # every key but S2's has a block of 3 or more
    assert braids == 4 * 2 * 3 and len(failing) > 10, (braids, failing)


def test_validate_composes_k_times_order_group_law_pairs(monkeypatch):
    """With every action built beforehand, a valid component on a carrier
    with no differential makes k |G| group-law compositions per side, k the
    number of generators, and two per pair of out and in generators for
    commutation."""
    rng = random.Random(36)
    calls = []
    compose = ChainMap.compose

    def counting(self, other):
        calls.append(1)
        return compose(self, other)

    for out_key, in_key in zip(LAW_KEYS, reversed(LAW_KEYS)):
        comp = random_young_component(rng, out_key, in_key, max_dim=4)
        assert not comp.carrier.boundary
        built = {
            side: {g.images: comp._action(side, g) for g in stabilizer_elements(comp._key(side))}
            for side in ("out", "in")
        }
        with monkeypatch.context() as patch:
            patch.setattr(BimoduleComponent, "rho_out", lambda self, g: built["out"][g.images])
            patch.setattr(BimoduleComponent, "rho_in", lambda self, g: built["in"][g.images])
            patch.setattr(ChainMap, "compose", counting)
            del calls[:]
            assert comp.validate() == []
        k_out, k_in = len(stabilizer_generators(out_key)), len(stabilizer_generators(in_key))
        order_out, order_in = len(built["out"]), len(built["in"])
        assert len(calls) == k_out * order_out + k_in * order_in + 2 * k_out * k_in


def test_box_dot_generators_match_per_pair_reference():
    rng = random.Random(33)
    for n_factors, max_length in ((2, 2), (2, 2), (2, 3), (3, 1), (3, 2)):
        for _ in range(3):
            factors = [
                random_young_component(
                    rng, random_young_key(rng, PAL, max_length), random_young_key(rng, PAL, max_length), max_dim=2
                )
                for _ in range(n_factors)
            ]
            comp = box_dot_many(PAL, factors)
            out_gens, in_gens = reference_box_dot_gens(PAL, factors)
            assert set(comp.out_gens) == set(out_gens) and set(comp.in_gens) == set(in_gens)
            for ours, theirs in ((comp.out_gens, out_gens), (comp.in_gens, in_gens)):
                for images, m in theirs.items():
                    assert dense_mats(ours[images]) == dense_mats(m)


def swapped_position(s):
    """The t (from 0) of a stabilizer generator s, the swap of t and t+1."""
    return next(i for i, image in enumerate(s.images) if image != i + 1)


def generator_swaps(places, merged):
    """(t, placement) for every stabilizer generator of merged and every
    placement on that side."""
    for s in stabilizer_generators(merged):
        for a in places:
            yield swapped_position(s), a


def test_box_dot_shares_one_identity_decoration(monkeypatch):
    """A placement that gives the swapped positions to two factors is
    decorated with the call's one identity; one that gives both to factor f
    twists f alone, and that decoration is assembled once per (side, f, l),
    l the number of f's positions before the swap.  Both kinds agree with
    the per-pair reference, which assembles every decoration.  Construction
    builds no action: the work is counted once both sides are read."""
    import propcalc.bimodules as bimodules

    assembled = []
    real_assemble = bimodules.assemble_tensor_map

    def counting_assemble(*args):
        assembled.append(args)
        return real_assemble(*args)

    monkeypatch.setattr(bimodules, "assemble_tensor_map", counting_assemble)
    rng = random.Random(34)
    shared = built = repeats = 0
    for n_factors, max_length in ((2, 2), (2, 3), (3, 1), (3, 2)):
        for _ in range(3):
            factors = [
                random_young_component(
                    rng, random_young_key(rng, PAL, max_length), random_young_key(rng, PAL, max_length), max_dim=2
                )
                for _ in range(n_factors)
            ]
            del assembled[:]
            comp = box_dot_many(PAL, factors)
            assert not assembled
            actions = (comp.out_gens, comp.in_gens)
            twisted = set()
            for side, places, merged in (("out", comp.layout.outs, comp.out_key), ("in", comp.layout.ins, comp.in_key)):
                for t, a in generator_swaps(places, merged):
                    if a[t] == a[t + 1]:
                        twist = (side, a[t], a[:t].count(a[t]))
                        repeats += twist in twisted
                        twisted.add(twist)
                    else:
                        shared += 1
            assert len(assembled) == len(twisted)
            built += len(assembled)
            for ours, theirs in zip(actions, reference_box_dot_gens(PAL, factors)):
                assert set(ours) == set(theirs)
                for images, m in theirs.items():
                    assert dense_mats(ours[images]) == dense_mats(m)
    assert shared and built and repeats, (shared, built, repeats)


def test_component_at_zero():
    mod = ColoredBimodule(PAL1, {})
    carrier, structure = component_at(
        mod, Profile(PAL1, ["x"]), Profile(PAL1, ["x"])
    )
    assert carrier.is_zero()
    # the identity (1; 1) acts as the zero map of the zero complex
    m = structure(Permutation([1]), Permutation([1]))
    assert (m.source, m.target, m.degree) == (carrier, carrier, 0)
    assert m.is_zero()


def test_component_at_trivial_action_transports_identically():
    kd = key(PAL1, "x", "x")
    kc = key(PAL1, "x")
    comp = make_component(kd, kc, ChainComplex({0: 3}))
    mod = ColoredBimodule(PAL1, {(kd, kc): comp})
    carrier, structure = component_at(mod, kd.rep, kc.rep)
    for imgs in itertools.permutations([1, 2]):
        m = structure(Permutation(imgs), Permutation([1]))
        assert dense_mat(m, 0) == identity(3)


def test_component_at_sign_action():
    kd = key(PAL1, "x", "x")
    kc = key(PAL1, "x")
    comp = make_component(kd, kc, ChainComplex({0: 1}), out_mats=sign_rep(kd))
    mod = ColoredBimodule(PAL1, {(kd, kc): comp})
    _, structure = component_at(mod, kd.rep, kc.rep)
    m = structure(Permutation([2, 1]), Permutation([1]))
    assert dense_mat(m, 0) == [[F(-1)]]


def test_component_at_functoriality_random():
    rng = random.Random(0)
    kd = key(PAL, "a", "a", "b")
    kc = key(PAL, "b", "b")
    neg3 = {s.images: dense_scale(F(-1), identity(3)) for s in stabilizer_generators(kc)}
    comp = make_component(
        kd,
        kc,
        ChainComplex({0: 3}),
        out_mats=perm_matrix_rep(kd, "out"),
        in_mats=neg3,
    )
    mod = ColoredBimodule(PAL, {(kd, kc): comp})
    for _ in range(30):
        d_prof = apply_permutation(
            Permutation(rng.sample(range(1, 4), 3)), kd.rep, "left"
        )
        c_prof = apply_permutation(
            Permutation(rng.sample(range(1, 3), 2)), kc.rep, "left"
        )
        _, structure = component_at(mod, d_prof, c_prof)
        s1 = Permutation(rng.sample(range(1, 4), 3))
        s2 = Permutation(rng.sample(range(1, 4), 3))
        t1 = Permutation(rng.sample(range(1, 3), 2))
        t2 = Permutation(rng.sample(range(1, 3), 2))
        d2 = apply_permutation(s1, d_prof, "left")
        c2 = apply_permutation(t1, c_prof, "right")
        _, structure2 = component_at(mod, d2, c2)
        lhs = structure2(s2, t2).compose(structure(s1, t1))
        rhs = structure(s2 * s1, t1 * t2)
        assert lhs == rhs


# -- tensor_over_sigma -------------------------------------------------------------


def test_coinvariants_regular_against_trivial():
    mid = key(PAL1, "x", "x")
    out_k = key(PAL1, "x")
    in_k = key(PAL1, "x")
    x = make_component(out_k, mid, ChainComplex({0: 2}), in_mats=regular_rep_mats(mid, "in"))
    y = make_component(mid, in_k, ChainComplex({0: 1}))
    comp = tensor_over_sigma(x, y)
    assert comp.carrier.dims == {0: 1}


def test_coinvariants_sign_sign():
    mid = key(PAL1, "x", "x")
    out_k = key(PAL1, "x")
    in_k = key(PAL1, "x")
    x = make_component(out_k, mid, ChainComplex({0: 1}), in_mats=sign_rep(mid))
    y = make_component(mid, in_k, ChainComplex({0: 1}), out_mats=sign_rep(mid))
    comp = tensor_over_sigma(x, y)
    assert comp.carrier.dims == {0: 1}


def random_rep_component(rng, out_key, in_key, dim=None, graded=False):
    """Random valid component: permutation/sign/trivial/regular actions."""
    style_out = rng.choice(["trivial", "sign", "perm", "regular"])
    style_in = rng.choice(["trivial", "sign", "perm", "regular"])

    def pick(style, k, side):
        if style == "trivial":
            return None, None
        if style == "sign":
            return sign_rep(k), 1
        if style == "perm":
            return perm_matrix_rep(k, side), k.length
        return regular_rep_mats(k, side), len(stabilizer_elements(k))

    out_mats, dim_out = pick(style_out, out_key, "out")
    in_mats, dim_in = pick(style_in, in_key, "in")
    dims = [d for d in (dim_out, dim_in) if d is not None]
    if len(dims) == 2 and dims[0] != dims[1]:
        # tensor the two actions into one space
        a = ChainComplex({0: dims[0]})
        b = ChainComplex({0: dims[1]})
        space = TensorSpace([a, b])
        carrier = space.complex
        out_gens = {}
        for s in stabilizer_generators(out_key):
            m = out_mats[s.images]
            out_gens[s.images] = kron(m, identity(dims[1]))
        in_gens = {}
        for s in stabilizer_generators(in_key):
            m = in_mats[s.images]
            in_gens[s.images] = kron(identity(dims[0]), m)
        return make_component(out_key, in_key, carrier, out_gens, in_gens)
    d = dims[0] if dims else rng.randint(1, 2)
    carrier_dims = {0: d}
    if graded and rng.random() < 0.5:
        carrier_dims[1] = d
    carrier = ChainComplex(carrier_dims)
    return make_component(out_key, in_key, carrier, out_mats, in_mats)


def classical_tensor_over_group_dim(x, y, mid_key):
    """Independent route: relations from the full middle group, raw row reduction."""
    dim = x.carrier.dim(0) * y.carrier.dim(0)
    rows = []
    for g in stabilizer_elements(mid_key):
        a = dense_mat(x.rho_in(g), 0)
        b = dense_mat(y.rho_out(g), 0)
        rel = dense_sub(kron(a, identity(y.carrier.dim(0))),
                             kron(identity(x.carrier.dim(0)), b))
        for j in range(dim):
            rows.append([rel[i][j] for i in range(dim)])
    if not rows:
        return dim
    return dim - dense_rank(rows)


def averaging_rank(x, y, mid_key):
    dim_x = x.carrier.dim(0)
    dim_y = y.carrier.dim(0)
    total = zeros(dim_x * dim_y, dim_x * dim_y)
    elems = stabilizer_elements(mid_key)
    for g in elems:
        a = dense_mat(x.rho_in(g.inverse()), 0)
        b = dense_mat(y.rho_out(g), 0)
        total = dense_add(total, kron(a, b))
    total = dense_scale(F(1, len(elems)), total)
    return dense_rank(total)


def test_coinvariants_against_independent_routes():
    rng = random.Random(1)
    for _ in range(60):
        k = rng.randint(1, 3)
        mid = key(PAL1, *(["x"] * k))
        out_k = key(PAL1, "x")
        in_k = key(PAL1, "x")
        x = random_rep_component(rng, out_k, mid)
        y = random_rep_component(rng, mid, in_k)
        comp = tensor_over_sigma(x, y)
        expected = classical_tensor_over_group_dim(x, y, mid)
        assert comp.carrier.dim(0) == expected
        assert averaging_rank(x, y, mid) == expected


def test_coinvariant_quotient_matches_reference():
    """The relation rows built from nonzeros give bit for bit the quotient,
    proj and sect of the old rows, which negated every entry."""
    rng = random.Random(11)
    cases = []
    for _ in range(40):
        mid = key(PAL1, *(["x"] * rng.randint(1, 3)))
        x = random_rep_component(rng, key(PAL1, "x"), mid, graded=True)
        y = random_rep_component(rng, mid, key(PAL1, "x"), graded=True)
        gens = stabilizer_generators(mid)
        space = TensorSpace([x.carrier, y.carrier])
        xs, ys = TensorSpace([x.carrier]), TensorSpace([y.carrier])
        diagonal = [
            assemble_tensor_map(space, space, [(xs, xs, x.rho_in(g.inverse())), (ys, ys, y.rho_out(g))])
            for g in gens
        ]
        cases += [(x.carrier, [x.rho_in(g) for g in gens]), (space.complex, diagonal)]
    # most relations are signed permutations
    assert sum(is_signed_permutation(m) for _, relations in cases for m in relations) >= 60
    # maps that are not signed permutations: column 0 of the shear has a 1 on
    # the diagonal and another nonzero entry, and is its only relation
    shear = [[F(1), F(0), F(0)], [F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    involution = [[F(1, 2), F(3, 4)], [F(1), F(-1, 2)]]
    for mat in (shear, involution):
        carrier = ChainComplex({0: len(mat), 1: len(mat)})
        cases.append((carrier, [ChainMap(carrier, carrier, rows_of({0: mat, 1: mat}))]))
    entries = set()
    for carrier, relations in cases:
        for m in relations:
            entries.update(v for mat in dense_mats(m).values() for row in mat for v in row)
        got = coinvariant_quotient(carrier, relations)
        want = reference_coinvariant_quotient(carrier, relations)
        assert got[0].dims == want[0].dims and got[0] == want[0]
        assert dense_mats(got[1]) == dense_mats(want[1])
        assert dense_mats(got[2]) == dense_mats(want[2])
    # sign actions give -1 entries, permutation and regular actions 0 and 1
    assert {F(-1), F(0), F(1)} <= entries


def test_coinvariants_residual_action_well_defined_and_lawful():
    rng = random.Random(2)
    for _ in range(20):
        mid = key(PAL, "a", "b")
        out_k = key(PAL, "a", "a")
        in_k = key(PAL, "b", "b")
        x = random_rep_component(rng, out_k, mid)
        y = random_rep_component(rng, mid, in_k)
        comp = tensor_over_sigma(x, y)
        assert comp.validate() == []


def test_box_v_zero_and_single():
    kd = key(PAL1, "x")
    kb = key(PAL1, "x", "x")
    kc = key(PAL1, "x")
    p = ColoredBimodule(PAL1, {(kd, kb): make_component(kd, kb, ChainComplex({0: 1}))})
    q_empty = ColoredBimodule(PAL1, {})
    assert box_v(p, q_empty).components == {}
    q = ColoredBimodule(PAL1, {(kb, kc): make_component(kb, kc, ChainComplex({0: 1}))})
    pq = box_v(p, q)
    assert set(pq.components) == {(kd, kc)}
    # single middle orbit, trivial actions: dim = 1 (coinvariants of the
    # trivial action on a 1-dim space)
    assert pq.component(kd, kc).carrier.dims == {0: 1}


def test_box_v_associativity_dims():
    rng = random.Random(3)
    for _ in range(10):
        keys = [key(PAL1, *["x"] * rng.randint(1, 2)) for _ in range(4)]
        k1, k2, k3, k4 = keys
        p = ColoredBimodule(PAL1, {(k1, k2): random_rep_component(rng, k1, k2)})
        q = ColoredBimodule(PAL1, {(k2, k3): random_rep_component(rng, k2, k3)})
        r = ColoredBimodule(PAL1, {(k3, k4): random_rep_component(rng, k3, k4)})
        left = box_v(box_v(p, q), r)
        right = box_v(p, box_v(q, r))
        assert set(left.components) == set(right.components)
        for kk in left.components:
            assert left.component(*kk).carrier.dims == right.component(*kk).carrier.dims


# -- box_dot ------------------------------------------------------------------------


def test_box_dot_one_color_dims():
    k1 = key(PAL1, "x")
    x = make_component(k1, k1, ChainComplex({0: 1}))
    y = make_component(k1, k1, ChainComplex({0: 1}))
    comp = box_dot(PAL1, x, y)
    assert comp.out_key == key(PAL1, "x", "x")
    assert comp.carrier.dims == {0: 4}


def test_box_dot_distinct_colors_dim_one():
    ka = key(PAL, "a")
    kb = key(PAL, "b")
    x = make_component(ka, ka, ChainComplex({0: 1}))
    y = make_component(kb, kb, ChainComplex({0: 1}))
    comp = box_dot(PAL, x, y)
    assert comp.carrier.dims == {0: 1}


def test_box_dot_dim_law_against_coset_enumeration():
    rng = random.Random(4)
    for _ in range(25):
        def rand_key():
            length = rng.randint(1, 2)
            return key(PAL, *[rng.choice(PAL.colors) for _ in range(length)])

        x = random_rep_component(rng, rand_key(), rand_key())
        y = random_rep_component(rng, rand_key(), rand_key())
        total = (
            x.out_key.length + y.out_key.length + x.in_key.length + y.in_key.length
        )
        if total > 8:
            continue
        assert induced_dim_law(PAL, [x, y])


def test_box_dot_action_laws():
    rng = random.Random(5)
    for _ in range(10):
        ka = key(PAL, "a")
        kab = key(PAL, "a", "b")
        x = random_rep_component(rng, ka, kab)
        y = random_rep_component(rng, kab, ka)
        comp = box_dot(PAL, x, y)
        assert comp.validate() == []


def flatten_nested(palette, nested, parts):
    """Intertwiner basis map from ((X . Y) . Z) to (X . Y . Z) coordinates.

    nested = box_dot(box_dot(x, y), z) or box_dot(x, box_dot(y, z)); parts =
    (x, y, z).  Returns per-degree permutation matrices.
    """
    flat = box_dot_many(palette, list(parts))
    meta_o = nested.layout
    inner = meta_o.factors[0] if isinstance(meta_o.factors[0].layout, InducedLayout) else meta_o.factors[1]
    outer_first = inner is meta_o.factors[0]
    inner_meta = inner.layout
    mats = {}
    for n in nested.carrier.degrees():
        m = zeros(flat.carrier.dim(n), nested.carrier.dim(n))
        outer_tensor = meta_o.tensor
        base = outer_tensor.complex
        for s_out_i, ao in enumerate(meta_o.outs):
            for s_in_i, ai in enumerate(meta_o.ins):
                s_idx = s_out_i * len(meta_o.ins) + s_in_i
                for flat_b in range(base.dim(n)):
                    col = s_idx * base.dim(n) + flat_b
                    comp_deg, idxs = outer_tensor.unflatten(n, flat_b)
                    if outer_first:
                        inner_deg, inner_idx = comp_deg[0], idxs[0]
                        other_deg, other_idx = comp_deg[1], idxs[1]
                    else:
                        inner_deg, inner_idx = comp_deg[1], idxs[1]
                        other_deg, other_idx = comp_deg[0], idxs[0]
                    inner_tensor = inner_meta.tensor
                    ibase = inner_tensor.complex
                    inner_summand = inner_idx // ibase.dim(inner_deg)
                    inner_flat = inner_idx % ibase.dim(inner_deg)
                    n_inner_ins = len(inner_meta.ins)
                    iao = inner_meta.outs[inner_summand // n_inner_ins]
                    iai = inner_meta.ins[inner_summand % n_inner_ins]
                    icomp, iidx = inner_tensor.unflatten(inner_deg, inner_flat)
                    # composed placements
                    comp_ao = _compose_placement(ao, iao, 0 if outer_first else 1)
                    comp_ai = _compose_placement(ai, iai, 0 if outer_first else 1)
                    if not outer_first:
                        comp_ao = _compose_placement_right(ao, iao)
                        comp_ai = _compose_placement_right(ai, iai)
                    fm = flat.layout
                    fs_idx = fm.copy_number(comp_ao, comp_ai)
                    ftensor = fm.tensor
                    if outer_first:
                        fcomp = icomp + (other_deg,)
                        fidx = iidx + (other_idx,)
                    else:
                        fcomp = (other_deg,) + icomp
                        fidx = (other_idx,) + iidx
                    frow = fs_idx * ftensor.complex.dim(n) + ftensor.flat_index(fcomp, fidx)
                    m[frow][col] = F(1)
        mats[n] = m
    return flat, mats


def _compose_placement(outer, inner, inner_slot):
    """outer distributes positions to {inner_slot, other}; refine inner block."""
    out = []
    rank = 0
    for fac in outer:
        if fac == inner_slot:
            out.append(inner[rank] if inner_slot == 0 else inner[rank] + 1)
            rank += 1
        else:
            out.append(len(set(inner)) if inner_slot == 0 else 0)
    return tuple(out)


def _compose_placement_right(outer, inner):
    out = []
    rank = 0
    for fac in outer:
        if fac == 1:
            out.append(inner[rank] + 1)
            rank += 1
        else:
            out.append(0)
    return tuple(out)


def test_box_dot_associativity_intertwiner():
    rng = random.Random(6)
    for _ in range(8):
        ka = key(PAL, rng.choice(PAL.colors))
        kb = key(PAL, rng.choice(PAL.colors))
        kc = key(PAL, rng.choice(PAL.colors))
        x = random_rep_component(rng, ka, ka)
        y = random_rep_component(rng, kb, kb)
        z = random_rep_component(rng, kc, kc)
        nested_left = box_dot(PAL, box_dot(PAL, x, y), z)
        flat3 = box_dot_many(PAL, [x, y, z])
        nested_right = box_dot(PAL, x, box_dot(PAL, y, z))
        assert nested_left.carrier.dims == flat3.carrier.dims
        assert nested_right.carrier.dims == flat3.carrier.dims
        flat, mats = flatten_nested(PAL, nested_left, (x, y, z))
        for n, m in mats.items():
            # permutation matrix: invertible
            assert dense_rank(m) == flat3.carrier.dim(n)
        # the intertwiner transports the generator actions
        inter = ChainMap(nested_left.carrier, flat.carrier, rows_of(mats), check=False)
        for s in stabilizer_generators(flat3.out_key):
            lhs = inter.compose(nested_left.rho_out(s))
            rhs = flat3.rho_out(s).compose(inter)
            assert lhs == rhs
        for s in stabilizer_generators(flat3.in_key):
            lhs = inter.compose(nested_left.rho_in(s))
            rhs = flat3.rho_in(s).compose(inter)
            assert lhs == rhs


# -- box_h -------------------------------------------------------------------------


def single_component_module(palette, comp):
    return ColoredBimodule(palette, {(comp.out_key, comp.in_key): comp})


def test_box_h_single_pair():
    ka = key(PAL, "a")
    kb = key(PAL, "b")
    p = single_component_module(PAL, make_component(ka, kb, ChainComplex({0: 1})))
    q = single_component_module(PAL, make_component(kb, ka, ChainComplex({0: 1})))
    pq = box_h(p, q)
    assert len(pq.components) == 1
    comp = pq.component(key(PAL, "a", "b"), key(PAL, "a", "b"))
    assert comp is not None
    assert comp.carrier.dims == {0: 1}


def test_box_h_zero_factor():
    ka = key(PAL, "a")
    p = single_component_module(PAL, make_component(ka, ka, ChainComplex({0: 1})))
    assert box_h(p, ColoredBimodule(PAL, {})).components == {}


def test_box_h_dim_symmetry():
    rng = random.Random(7)
    for _ in range(10):
        def rand_comp():
            def rand_key():
                return key(PAL, *[rng.choice(PAL.colors) for _ in range(rng.randint(1, 2))])

            return random_rep_component(rng, rand_key(), rand_key())

        p = single_component_module(PAL, rand_comp())
        q = single_component_module(PAL, rand_comp())
        pq = box_h(p, q)
        qp = box_h(q, p)
        assert set(pq.components) == set(qp.components)
        for kk in pq.components:
            assert pq.component(*kk).carrier.dims == qp.component(*kk).carrier.dims


def test_box_h_associativity_dims():
    rng = random.Random(8)
    for _ in range(6):
        def rand_comp():
            def rand_key():
                return key(PAL, rng.choice(PAL.colors))

            return random_rep_component(rng, rand_key(), rand_key())

        p = single_component_module(PAL, rand_comp())
        q = single_component_module(PAL, rand_comp())
        r = single_component_module(PAL, rand_comp())
        left = box_h(box_h(p, q), r)
        right = box_h(p, box_h(q, r))
        assert set(left.components) == set(right.components)
        for kk in left.components:
            assert left.component(*kk).carrier.dims == right.component(*kk).carrier.dims


# -- change of colors -----------------------------------------------------------


def test_change_colors_identity():
    rng = random.Random(9)
    ka = key(PAL, "a")
    comp = random_rep_component(rng, ka, ka)
    mod = single_component_module(PAL, comp)
    alpha = {"a": "a", "b": "b"}
    restricted = restrict_colors(alpha, mod, PAL)
    assert set(restricted.components) == set(mod.components)
    induced = induce_colors(alpha, mod, PAL)
    assert set(induced.components) == set(mod.components)
    for kk in mod.components:
        assert induced.component(*kk).carrier.dims == mod.component(*kk).carrier.dims


def test_change_colors_injective_unit():
    # alpha injective: restrict(induce(P)) = P
    rng = random.Random(10)
    big = Palette(["a", "b", "z"])
    alpha = {"a": "a", "b": "b"}
    for _ in range(20):
        def rand_key():
            return key(PAL, *[rng.choice(PAL.colors) for _ in range(rng.randint(1, 2))])

        comp = random_rep_component(rng, rand_key(), rand_key())
        mod = single_component_module(PAL, comp)
        induced = induce_colors(alpha, mod, big)
        back = restrict_colors(alpha, induced, PAL)
        assert set(back.components) == set(mod.components)
        for kk in mod.components:
            b = back.component(*kk)
            o = mod.component(*kk)
            assert b.carrier == o.carrier
            for s in stabilizer_generators(kk[0]):
                assert b.rho_out(s) == o.rho_out(s)
            for s in stabilizer_generators(kk[1]):
                assert b.rho_in(s) == o.rho_in(s)


def test_change_colors_collapse_sums_preimages():
    one = Palette(["z"])
    alpha = {"a": "z", "b": "z"}
    ka = key(PAL, "a")
    kb = key(PAL, "b")
    p = ColoredBimodule(
        PAL,
        {
            (ka, ka): make_component(ka, ka, ChainComplex({0: 2})),
            (kb, ka): make_component(kb, ka, ChainComplex({0: 3})),
        },
    )
    induced = induce_colors(alpha, p, one)
    kz = key(one, "z")
    comp = induced.component(kz, kz)
    assert comp.carrier.dim(0) == 5


def test_change_colors_restricts_along_a_non_injective_map():
    """Restriction along {a, b, c} -> {x, y} with a, b -> x: the support is,
    in order, every pair of sorted source profiles whose image carries a
    component, found by walking all color tuples; each restricted component
    is valid and has the carrier of its image."""
    rng = random.Random(31)
    source = Palette(["a", "b", "c"])
    target = Palette(["x", "y"])
    alpha = {"a": "x", "b": "x", "c": "y"}
    pairs = [(("x",), ("x", "y")), (("x", "x"), ("x",)), (("y",), ("x", "x")), (("x", "y"), ("y", "y"))]
    mod = ColoredBimodule(
        target,
        {
            (key(target, *o), key(target, *i)): random_rep_component(rng, key(target, *o), key(target, *i))
            for o, i in pairs
        },
    )
    restricted = restrict_colors(alpha, mod, source)
    # the palette lists its colors in sorted order, so a representative is a sorted tuple
    expected = []
    for lo in sorted({len(o) for o, _ in pairs}):
        for li in sorted({len(i) for _, i in pairs}):
            for out_combo in itertools.product(source.colors, repeat=lo):
                if list(out_combo) != sorted(out_combo):
                    continue
                for in_combo in itertools.product(source.colors, repeat=li):
                    if list(in_combo) != sorted(in_combo):
                        continue
                    image = tuple(key(target, *[alpha[c] for c in combo]) for combo in (out_combo, in_combo))
                    if image in mod.components:
                        expected.append(((key(source, *out_combo), key(source, *in_combo)), image))
    assert list(restricted.components) == [kk for kk, _ in expected]
    assert len(expected) == 15  # 4 + 6 + 3 + 2 over the four components
    for kk, image in expected:
        comp = restricted.component(*kk)
        assert comp.validate() == []
        assert comp.carrier == mod.component(*image).carrier


def test_box_v_associativity_intertwiner():
    """The canonical reassociation map between iterated coinvariant quotients
    is invertible and intertwines the residual actions."""
    from propcalc.chains import assemble_tensor_map, ChainMap

    rng = random.Random(12)
    for _ in range(8):
        keys = [key(PAL1, *["x"] * rng.randint(1, 2)) for _ in range(4)]
        k1, k2, k3, k4 = keys
        x = random_rep_component(rng, k1, k2)
        y = random_rep_component(rng, k2, k3)
        z = random_rep_component(rng, k3, k4)
        xy = tensor_over_sigma(x, y)
        left = tensor_over_sigma(xy, z)
        yz = tensor_over_sigma(y, z)
        right = tensor_over_sigma(x, yz)
        assert left.carrier.dims == right.carrier.dims
        # build the canonical map: lift a left class to ((X (x) Y) (x) Z),
        # expand the inner section, reassociate (identity on flat indices),
        # and project down the right tower.
        meta_l = left.layout
        meta_r = right.layout
        sect_outer = meta_l.sect
        proj_inner_r = meta_r.proj
        space_l = meta_l.space  # [(XY)/~, Z]
        space_r = meta_r.space  # [X, (YZ)/~]
        xyz = TensorSpace([x.carrier, y.carrier, z.carrier])
        # expand: ((XY)/~ (x) Z) -> (X (x) Y (x) Z)
        expand = assemble_tensor_map(
            space_l,
            xyz,
            [
                (
                    TensorSpace([xy.carrier]),
                    TensorSpace([x.carrier, y.carrier]),
                    xy.layout.sect,
                ),
                (TensorSpace([z.carrier]), TensorSpace([z.carrier]), ChainMap.identity(z.carrier)),
            ],
        )
        # contract: (X (x) Y (x) Z) -> (X (x) (YZ)/~)
        contract = assemble_tensor_map(
            xyz,
            space_r,
            [
                (TensorSpace([x.carrier]), TensorSpace([x.carrier]), ChainMap.identity(x.carrier)),
                (
                    TensorSpace([y.carrier, z.carrier]),
                    TensorSpace([yz.carrier]),
                    yz.layout.proj,
                ),
            ],
        )
        inter = proj_inner_r.compose(contract).compose(expand).compose(sect_outer)
        for n in left.carrier.degrees():
            m = dense_mat(inter, n)
            assert dense_rank(m) == left.carrier.dim(n)
        # intertwines the outer actions
        for s in stabilizer_generators(k1):
            assert inter.compose(left.rho_out(s)) == right.rho_out(s).compose(inter)
        for s in stabilizer_generators(k4):
            assert inter.compose(left.rho_in(s)) == right.rho_in(s).compose(inter)


def test_all_product_outputs_satisfy_group_laws():
    """Every operation's output actions satisfy the group law (orders <= 48)."""
    rng = random.Random(13)
    big = Palette(["a", "b", "z"])
    alpha = {"a": "a", "b": "b"}
    for _ in range(6):
        def rand_key():
            return key(PAL, *[rng.choice(PAL.colors) for _ in range(rng.randint(1, 2))])

        c1 = random_rep_component(rng, rand_key(), rand_key())
        c2 = random_rep_component(rng, c1.in_key, rand_key())
        p = single_component_module(PAL, c1)
        q = single_component_module(PAL, c2)
        for mod in (box_v(p, q), box_h(p, q)):
            for comp in mod.components.values():
                assert comp.validate() == []
        induced = induce_colors(alpha, p, big)
        for comp in induced.components.values():
            assert comp.validate() == []
        restricted = restrict_colors(alpha, induced, PAL)
        for comp in restricted.components.values():
            assert comp.validate() == []


def graded_component(out_key, in_key, sign_out=False, sign_in=False, n=1):
    """Chain-valued component: identity differential disc, equal action in
    both degrees (so it commutes with d)."""
    carrier = ChainComplex({0: n, 1: n}, rows_of({1: identity(n)}))

    def mats(flag):
        m = dense_scale(F(-1) if flag else F(1), identity(n))
        return ChainMap(carrier, carrier, rows_of({0: m, 1: m}), check=False)

    out_gens = {s.images: mats(sign_out) for s in stabilizer_generators(out_key)}
    in_gens = {s.images: mats(sign_in) for s in stabilizer_generators(in_key)}
    return BimoduleComponent(out_key, in_key, carrier, out_gens, in_gens)


def test_graded_coinvariants_and_box_dot():
    mid = key(PAL1, "x", "x")
    k1 = key(PAL1, "x")
    x = graded_component(k1, mid, sign_in=True)
    y = graded_component(mid, k1, sign_out=True)
    comp = tensor_over_sigma(x, y)
    # diagonal action is (+1): nothing is quotiented; tensor of two discs
    assert comp.carrier.dims == {0: 1, 1: 2, 2: 1}
    assert comp.validate() == []
    z = graded_component(k1, k1)
    ind = box_dot(PAL1, x, z)
    assert ind.validate() == []
    # induced dims: out (x,x) merged with (x): G_out = Sigma_2 x ... the law
    assert induced_dim_law(PAL1, [x, z])


def test_multicolor_middle_averaging_cross_check():
    rng = random.Random(14)
    for _ in range(20):
        mid = key(PAL, "a", "a", "b")
        out_k = key(PAL, rng.choice(PAL.colors))
        in_k = key(PAL, rng.choice(PAL.colors))
        x = random_rep_component(rng, out_k, mid)
        y = random_rep_component(rng, mid, in_k)
        comp = tensor_over_sigma(x, y)
        dim_x = x.carrier.dim(0)
        dim_y = y.carrier.dim(0)
        total = zeros(dim_x * dim_y, dim_x * dim_y)
        elems = stabilizer_elements(mid)
        for g in elems:
            total = dense_add(
                total,
                kron(dense_mat(x.rho_in(g.inverse()), 0), dense_mat(y.rho_out(g), 0)),
            )
        avg_rank = dense_rank(dense_scale(F(1, len(elems)), total))
        assert comp.carrier.dim(0) == avg_rank


# -- general actions keep the dense path through load, validate and products ------

GOLDEN_INPUTS = os.path.join(os.path.dirname(__file__), "golden", "inputs")


def involution_bimodule(graded=True, inward=True, color="a"):
    """The component (c,c; c) on Q^2, in degrees 0 and 1 with d = id when
    graded, whose S_2 generator acts by the involution [[1, 0], [1, -1]] (not
    a signed permutation); when inward, also (c; c,c) with the same in action
    and (c; c) = Q.  Loaded through the JSON reader."""
    if graded:
        carrier = ChainComplex({0: 2, 1: 2}, rows_of({1: [[F(1), F(0)], [F(0), F(1)]]}))
    else:
        carrier = ChainComplex({0: 2})
    involution = ChainMap(carrier, carrier, rows_of({n: [[F(1), F(0)], [F(1), F(-1)]] for n in carrier.degrees()}))
    one, two = key(PAL, color), key(PAL, color, color)
    s = stabilizer_generators(two)[0].images
    comps = [BimoduleComponent(two, one, carrier, {s: involution}, {})]
    if inward:
        comps.append(BimoduleComponent(one, two, carrier, {}, {s: involution}))
        comps.append(BimoduleComponent(one, one, base_field_complex(), {}, {}))
    module = ColoredBimodule(PAL, {(c.out_key, c.in_key): c for c in comps})
    return formats.bimodule_from_json(json.loads(formats.dumps(formats.bimodule_to_json(module))))


def load_golden(name):
    with open(os.path.join(GOLDEN_INPUTS, name), encoding="utf-8") as handle:
        return formats.bimodule_from_json(json.load(handle))


def all_gens(module):
    return [m for comp in module.components.values() for m in list(comp.out_gens.values()) + list(comp.in_gens.values())]


def test_general_and_signed_actions_match_references_through_products():
    general = involution_bimodule()
    small = involution_bimodule(graded=False, inward=False)
    small_b = involution_bimodule(graded=False, inward=False, color="b")
    signed = load_golden("sign_a.json")
    # the involution is a general map, the sign action a signed permutation with -1 entries
    assert all_gens(general) and not any(map(is_signed_permutation, all_gens(general)))
    assert all_gens(signed) and all(map(is_signed_permutation, all_gens(signed)))
    assert any(x == -1 for m in all_gens(signed) for mat in dense_mats(m).values() for row in mat for x in row)
    for comp in general.components.values():
        assert comp.validate() == reference_validate_component(comp) == []
    products = [box_v(general, general), box_h(small, small_b), box_h(signed, small), box_h(small, signed)]
    assert all(product.components for product in products)
    for product in products:
        for comp in product.components.values():
            assert comp.validate() == reference_validate_component(comp) == []
    # box_h's pieces, the mixed pairs included, against the per-pair reference
    mixed = 0
    for product in products[1:]:
        for comp in product.components.values():
            for piece in comp.layout.pieces:
                factors = piece.component.layout.factors
                mixed += len({is_signed_permutation(m) for f in factors for m in list(f.out_gens.values()) + list(f.in_gens.values())}) == 2
                out_gens, in_gens = reference_box_dot_gens(PAL, list(factors))
                for ours, theirs in ((piece.component.out_gens, out_gens), (piece.component.in_gens, in_gens)):
                    assert set(ours) == set(theirs)
                    for images, m in theirs.items():
                        assert dense_mats(ours[images]) == dense_mats(m)
    assert mixed >= 2, mixed


def assert_rho_follows_the_words(comp):
    """rho_out and rho_in on every stabilizer element are the product of the
    generator maps along its word."""
    for g in stabilizer_elements(comp.out_key):
        assert dense_mats(comp.rho_out(g)) == dense_mats(reference_rho_out(comp, g)), g
    for h in stabilizer_elements(comp.in_key):
        assert dense_mats(comp.rho_in(h)) == dense_mats(reference_rho_in(comp, h)), h


def test_young_shortcuts_match_the_checked_rules():
    """rho_out and rho_in look a generator up before building a word, and
    box_dot_many moves placements by one adjacent transposition.  On
    box_dot_many results over seeded keys (blocks up to 4, merged length up
    to 6) and on the golden bimodules and their products, the actions equal
    the word rule.  For every generator and placement, the general twists
    (built by the checking constructor) are the identity when the swapped
    positions go to two factors, else the generator (l+1 l+2) on the one
    factor f that owns both, l = a[:t].count(f).  The first factor acts by
    sign on the out side only, so a lookup on the wrong side shows."""
    rng = random.Random(24)
    aa = key(PAL, "a", "a")
    signed = make_component(aa, aa, ChainComplex({0: 1}), out_mats=sign_rep(aa))
    cases = [[signed, signed]]
    while len(cases) < 8:
        keys = young_keys(rng, PAL, 4, max_length=3)
        merged = [bimodules.merge_keys(PAL, keys[:2]), bimodules.merge_keys(PAL, keys[2:])]
        if all(max(k.block_sizes) <= 4 for k in merged):
            cases.append([random_young_component(rng, keys[i], keys[i + 2], max_dim=2) for i in (0, 1)])
    for factors in cases:
        comp = box_dot_many(PAL, factors)
        assert_rho_follows_the_words(comp)
        for places, merged in ((comp.layout.outs, comp.out_key), (comp.layout.ins, comp.in_key)):
            for t, a in generator_swaps(places, merged):
                swap = list(range(len(a)))
                swap[t], swap[t + 1] = t + 1, t
                moved = _moved_placement(a, swap)
                twists = [tw.images for tw in _twists(a, moved, swap, len(factors))]
                expected = [tuple(range(1, len(tw) + 1)) for tw in twists]
                if a[t] == a[t + 1]:
                    ell = a[:t].count(a[t])
                    own = list(expected[a[t]])
                    own[ell], own[ell + 1] = ell + 2, ell + 1
                    expected[a[t]] = tuple(own)
                    assert moved == a
                else:
                    assert moved == a[:t] + (a[t + 1], a[t]) + a[t + 2:]
                assert twists == expected

    golden = [load_golden(name) for name in ("p.json", "q_bimodule.json", "sign_a.json", "perm_a.json")]
    products = [box_h(golden[3], golden[0]), box_v(golden[2], golden[2]), box_h(golden[2], golden[3])]
    for module in golden + products:
        for comp in module.components.values():
            assert_rho_follows_the_words(comp)


def test_arrangements_match_the_sorted_set_of_permutations():
    # placements once built each colour's arrangements as the sorted set of all
    # n! orderings; seeded multisets of up to 7 letters over up to 4 factors
    rng = random.Random(30)
    for size in range(8):
        for _ in range(5):
            letters = sorted(rng.randrange(rng.randint(1, 4)) for _ in range(size))
            assert bimodules._arrangements(letters) == sorted(set(itertools.permutations(letters)))
