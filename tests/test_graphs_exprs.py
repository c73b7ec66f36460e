import itertools
import json
import math
import random
import string
import unicodedata
from collections import Counter

import pytest

from helpers import (
    graphs_isomorphic_brute_force,
    interchange_quadruple,
    labelled_objects,
    random_expression,
    random_permutation,
    random_signature,
    reference_canonical,
    reference_enumerate_graphs,
)
from propcalc.cli import _relabel as cli_relabel
from propcalc.formats import dumps, presentation_from_json, presentation_to_json
from propcalc.exprs import (
    GenExpr,
    GraphPolynomial,
    HCompExpr,
    LeftActExpr,
    ParseError,
    PropPresentation,
    RightActExpr,
    TypeMismatch,
    VCompExpr,
    _tokenize,
    differentiate_expression,
    graphs_equal,
    parse,
    signed_certificate,
    validate_presentation,
)
from propcalc.graphs import (
    Generator,
    GraphError,
    PropGraph,
    ResourceCapExceeded,
    Signature,
    _discovery_order,
    _neighbours,
    enumerate_graphs,
    free_component_dim,
)
from propcalc.profiles import Palette, Permutation, Profile

PAL1 = Palette(["c"])


def one_color_sig():
    c = lambda *xs: Profile(PAL1, xs)
    return Signature(
        PAL1,
        [
            Generator("mu", c("c"), c("c", "c"), 0),
            Generator("i", c("c"), c("c"), 0),
            Generator("w", c("c", "c"), c("c"), 0),
        ],
    )


def ainf_sig():
    c = lambda *xs: Profile(PAL1, xs)
    return Signature(
        PAL1,
        [
            Generator("mu2", c("c"), c("c", "c"), 0),
            Generator("iota", c("c"), c("c"), 0),
            Generator("mu3", c("c"), c("c", "c", "c"), 1),
        ],
    )


# -- parsing -------------------------------------------------------------------


def test_parse_typing():
    sig = one_color_sig()
    e = parse("mu o (mu * i)", sig)
    assert e.out_profile.entries == ("c",)
    assert e.in_profile.entries == ("c", "c", "c")


def test_parse_left_action():
    sig = one_color_sig()
    e = parse("[2 1] . w", sig)
    assert isinstance(e, LeftActExpr)
    assert isinstance(parse("[1] . mu", sig), LeftActExpr)
    # actions require matching lengths
    with pytest.raises(TypeMismatch):
        parse("[2 1] . mu", sig)


def test_parse_type_error():
    sig = one_color_sig()
    with pytest.raises(TypeMismatch) as exc:
        parse("mu o mu", sig)
    assert "(c,c)" in str(exc.value) and "(c)" in str(exc.value)


def test_parse_errors_carry_position():
    sig = one_color_sig()
    with pytest.raises(ParseError) as exc:
        parse("mu o $", sig)
    assert exc.value.pos == 5
    with pytest.raises(ParseError):
        parse("nosuch", sig)
    with pytest.raises(ParseError):
        parse("mu o (mu", sig)
    with pytest.raises(ParseError):
        parse("[1 1] . mu", sig)


def reference_tokenize(text):
    """The expression tokens read one character at a time from the grammar:
    whitespace (str.isspace) is skipped; an ASCII letter or underscore starts
    a name of ASCII letters, digits and underscores, the name "o" being the
    composition; a run of Unicode decimal digits (category Nd) is an integer;
    each of ( ) [ ] . * is a symbol; anything else is an error at its own
    position.  A token's position is where the whitespace before it starts."""
    name_start = set(string.ascii_letters + "_")
    name_rest = name_start | set(string.digits)
    out = []
    i = 0
    while True:
        start = i
        while i < len(text) and text[i].isspace():
            i += 1
        if i == len(text):
            break
        ch = text[i]
        j = i + 1
        if ch in name_start:
            while j < len(text) and text[j] in name_rest:
                j += 1
            word = text[i:j]
            out.append(("o" if word == "o" else "ident", word, start))
        elif unicodedata.category(ch) == "Nd":
            while j < len(text) and unicodedata.category(text[j]) == "Nd":
                j += 1
            out.append(("int", int(text[i:j]), start))
        elif ch in "()[].*":
            out.append((ch, ch, start))
        else:
            raise ParseError("unexpected character %r" % ch, i)
        i = j
    out.append(("eof", None, len(text)))
    return out


def test_tokenizer_matches_the_grammar_on_a_seeded_corpus():
    """Tokens, positions and error texts agree with the character-by-character
    reference on random strings over names, digits, symbols, ASCII and Unicode
    spaces, Unicode digits and stray characters."""
    alphabet = list("abo_xAZ019()[].* \t\n") + [
        "\u00a0", "\u2003", "\u3000", "\x1c", "\x85",  # Unicode spaces
        "\u0663", "\u0969", "\uff11",  # Unicode decimal digits
        "$", "\u00e9", ",", "+", "\u2218", "\u00b2", "\u2167", "\u200b",  # stray characters
    ]
    rng = random.Random(26)
    outcomes = Counter()
    for _ in range(20000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            want = reference_tokenize(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                _tokenize(text)
            assert (str(got.value), got.value.pos) == (str(exc), exc.pos), text
            outcomes["error"] += 1
        else:
            assert _tokenize(text) == want, text
            outcomes["tokens"] += 1
            outcomes["unicode"] += not text.isascii()
    assert min(outcomes["error"], outcomes["tokens"], outcomes["unicode"]) > 1000


def test_parse_precedence():
    sig = one_color_sig()
    # 'o' binds tighter than '*'
    e = parse("i o i * i", sig)
    assert isinstance(e, HCompExpr)
    assert isinstance(e.left, VCompExpr)


# -- graphs from expressions ----------------------------------------------------


def test_single_generator_graph():
    sig = one_color_sig()
    g = parse("mu", sig).to_graph()
    assert g.vertices == ("mu",)
    assert g.in_legs == {(0, 1): 1, (0, 2): 2}
    assert g.out_legs == {(0, 1): 1}


def test_interchange_square_same_graph():
    sig = one_color_sig()
    e1 = parse("mu", sig)
    e2 = parse("i", sig)
    e3 = parse("mu * i", sig)  # matches in-profile of mu? mu: in (c,c); e3 out = (c,c)
    e4 = parse("i", sig)
    lhs = VCompExpr(HCompExpr(e1, e2), HCompExpr(e3, e4))
    rhs = HCompExpr(VCompExpr(e1, e3), VCompExpr(e2, e4))
    assert graphs_equal(lhs, rhs)


def test_interchange_randomized():
    rng = random.Random(42)
    for _ in range(120):
        sig = random_signature(rng)
        e1, e2, e3, e4 = interchange_quadruple(sig, rng)
        lhs = VCompExpr(HCompExpr(e1, e2), HCompExpr(e3, e4))
        rhs = HCompExpr(VCompExpr(e1, e3), VCompExpr(e2, e4))
        assert graphs_equal(lhs, rhs)


def test_action_compatibility_as_graphs():
    rng = random.Random(1)
    for _ in range(60):
        sig = random_signature(rng)
        e = random_expression(sig, rng)
        sigma = random_permutation(rng, len(e.out_profile))
        tau = random_permutation(rng, len(e.in_profile))
        a = RightActExpr(LeftActExpr(sigma, e), tau)
        b = LeftActExpr(sigma, RightActExpr(e, tau))
        assert graphs_equal(a, b)


def test_expressions_print_parseably():
    """str is the parser's input syntax: printing and parsing again gives the
    same text and the same graph, actions included."""
    rng = random.Random(34)
    with_actions = 0
    for _ in range(300):
        sig = random_signature(rng)
        e = random_expression(sig, rng, depth=rng.randint(1, 3))
        text = str(e)
        back = parse(text, sig)
        assert str(back) == text
        assert graphs_equal(back, e)
        with_actions += "[" in text
    assert with_actions >= 150


def test_presentation_with_action_terms_survives_json():
    palette = Palette(["c"])
    c1, c2 = Profile(palette, ["c"]), Profile(palette, ["c", "c"])
    sig = Signature(
        palette,
        [
            Generator("mu", c1, c2, 0),
            Generator("h", c1, c2, 1),
            Generator("delta", c2, c1, 0),
            Generator("k", c2, c1, 1),
        ],
    )
    pres = PropPresentation(
        sig,
        {
            "h": [(1, parse("mu", sig)), (-1, parse("mu . [2 1]", sig))],
            "k": [(1, parse("delta", sig)), (-1, parse("[2 1] . delta", sig))],
        },
    )
    data = presentation_to_json(pres)
    assert [t["expr"] for t in data["differential"]["k"]] == ["delta", "([2 1] . delta)"]
    back = presentation_from_json(json.loads(dumps(data)))
    assert presentation_to_json(back) == data
    for name, terms in pres.differential.items():
        got = back.delta(name)
        assert [c for c, _ in got] == [c for c, _ in terms]
        assert all(graphs_equal(a, b) for (_, a), (_, b) in zip(got, terms))


def test_middle_transport_identity():
    # (e1 . t^-1) o (t . e2) == e1 o e2
    rng = random.Random(2)
    for _ in range(60):
        sig = random_signature(rng)
        e1 = random_expression(sig, rng)
        from helpers import random_expression_with_out

        e2 = random_expression_with_out(sig, rng, e1.in_profile)
        tau = random_permutation(rng, len(e1.in_profile))
        lhs = VCompExpr(RightActExpr(e1, tau.inverse()), LeftActExpr(tau, e2))
        rhs = VCompExpr(e1, e2)
        assert graphs_equal(lhs, rhs)


def test_vertical_equivariance_square():
    rng = random.Random(3)
    for _ in range(60):
        sig = random_signature(rng)
        e1 = random_expression(sig, rng)
        from helpers import random_expression_with_out

        e2 = random_expression_with_out(sig, rng, e1.in_profile)
        sigma = random_permutation(rng, len(e1.out_profile))
        mu = random_permutation(rng, len(e2.in_profile))
        lhs = RightActExpr(LeftActExpr(sigma, VCompExpr(e1, e2)), mu)
        rhs = VCompExpr(LeftActExpr(sigma, e1), RightActExpr(e2, mu))
        assert graphs_equal(lhs, rhs)


def test_horizontal_biequivariance_square():
    rng = random.Random(4)
    for _ in range(60):
        sig = random_signature(rng)
        e1 = random_expression(sig, rng)
        e2 = random_expression(sig, rng)
        s1 = random_permutation(rng, len(e1.out_profile))
        s2 = random_permutation(rng, len(e2.out_profile))
        t1 = random_permutation(rng, len(e1.in_profile))
        t2 = random_permutation(rng, len(e2.in_profile))
        lhs = HCompExpr(
            RightActExpr(LeftActExpr(s1, e1), t1), RightActExpr(LeftActExpr(s2, e2), t2)
        )
        rhs = RightActExpr(
            LeftActExpr(s1.block_sum(s2), HCompExpr(e1, e2)), t1.block_sum(t2)
        )
        assert graphs_equal(lhs, rhs)


def test_associativity_same_graph():
    sig = one_color_sig()
    a, b, c = (parse(s, sig) for s in ("i", "i", "i"))
    assert graphs_equal(HCompExpr(HCompExpr(a, b), c), HCompExpr(a, HCompExpr(b, c)))
    assert graphs_equal(
        VCompExpr(VCompExpr(a, b), c), VCompExpr(a, VCompExpr(b, c))
    )


def test_leg_decorations_distinguish():
    sig = one_color_sig()
    mu = parse("mu", sig)
    mu_twisted = parse("mu . [2 1]", sig)
    assert not graphs_equal(mu, mu_twisted)


def test_canonical_reversal_invariance():
    rng = random.Random(5)
    for _ in range(50):
        sig = random_signature(rng)
        g = random_expression(sig, rng).to_graph()
        n = len(g.vertices)
        order = list(reversed(range(n)))
        relabeled = _relabel(g, order)
        assert g.canonical()[0] == relabeled.canonical()[0]


def _relabel(g, order):
    """Graph with vertices listed in a new order (old index order[i] at slot i)."""
    pos = {old: new for new, old in enumerate(order)}
    return PropGraph(
        g.signature,
        [g.vertices[old] for old in order],
        {((pos[u], p), (pos[v], q)) for (u, p), (v, q) in g.edges},
        {(pos[v], q): l for (v, q), l in g.in_legs.items()},
        {(pos[v], p): l for (v, p), l in g.out_legs.items()},
    )


def test_canonical_agrees_with_brute_force_oracle():
    rng = random.Random(6)
    pairs = 0
    while pairs < 150:
        sig = random_signature(rng)
        g1 = random_expression(sig, rng).to_graph()
        if len(g1.vertices) > 6:
            continue
        if rng.random() < 0.5:
            order = list(range(len(g1.vertices)))
            rng.shuffle(order)
            g2 = _relabel(g1, order)
        else:
            g2 = random_expression(sig, rng).to_graph()
            if len(g2.vertices) > 6:
                continue
        same_cert = False
        try:
            if (
                g1.out_profile() == g2.out_profile()
                and g1.in_profile() == g2.in_profile()
                and len(g1.vertices) == len(g2.vertices)
            ):
                same_cert = g1.canonical()[0] == g2.canonical()[0]
                assert same_cert == graphs_isomorphic_brute_force(g1, g2)
                pairs += 1
        except GraphError:
            continue


def test_canonical_idempotent():
    rng = random.Random(7)
    for _ in range(40):
        sig = random_signature(rng)
        g = random_expression(sig, rng).to_graph()
        cert, order = g.canonical()
        relabeled = _relabel(g, order)
        cert2, order2 = relabeled.canonical()
        assert cert2 == cert
        assert order2 == list(range(len(g.vertices)))


BUILDERS = ("from_generator", "horizontal", "vertical", "act_left", "act_right")


def test_builders_keep_every_graph_valid(monkeypatch):
    """The builders skip PropGraph._validate, since they turn valid graphs
    into valid graphs: run it on every graph they return while graphs of
    random expressions are built, and on each graph renumbered into its
    canonical order as `normalize` writes it."""
    built = Counter()

    def checked(name, builder):
        def build(*args):
            g = builder(*args)
            g._validate()
            built[name] += 1
            return g

        return build

    for name in BUILDERS:
        build = checked(name, getattr(PropGraph, name))
        monkeypatch.setattr(PropGraph, name, staticmethod(build) if name == "from_generator" else build)
    rng = random.Random(46)
    for _ in range(300):
        sig = random_signature(rng)
        g = random_expression(sig, rng, depth=rng.randint(1, 4)).to_graph()
        cli_relabel(g, g.canonical()[1])._validate()
    assert min(built[name] for name in BUILDERS) > 50, built


def test_builders_validate_operands_over_two_signatures():
    """A graph over another signature with the same palette: its vertex names
    mean other generators in the first operand's signature, so the result is
    checked, as hand-built graphs are."""
    c = lambda *xs: Profile(PAL1, xs)
    first = one_color_sig()
    other = Signature(
        PAL1,
        [Generator("mu", c("c"), c("c", "c", "c"), 0), Generator("v", c("c", "c"), c("c"), 0)],
    )
    mu = PropGraph.from_generator(first, "mu")
    with pytest.raises(GraphError, match="unattached input ports"):
        mu.horizontal(PropGraph.from_generator(other, "mu"))
    with pytest.raises(GraphError, match="unknown generator 'v'"):
        mu.vertical(PropGraph.from_generator(other, "v"))


# -- enumeration ----------------------------------------------------------------


def binary_sig():
    c = lambda *xs: Profile(PAL1, xs)
    return Signature(PAL1, [Generator("mu", c("c"), c("c", "c"), 0)])


def test_enumerate_one_vertex():
    sig = binary_sig()
    c = lambda *xs: Profile(PAL1, xs)
    graphs = enumerate_graphs(sig, c("c"), c("c", "c"), 1)
    assert len(graphs) == 2


def test_enumerate_arity_three():
    sig = binary_sig()
    c = lambda *xs: Profile(PAL1, xs)
    assert free_component_dim(sig, c("c"), c("c", "c", "c"), 2) == 12


def test_enumerate_parity_obstruction():
    sig = binary_sig()
    c = lambda *xs: Profile(PAL1, xs)
    assert free_component_dim(sig, c("c", "c"), c("c", "c", "c"), 4) == 0


def test_enumerate_stable_under_generator_shuffle():
    c = lambda *xs: Profile(PAL1, xs)
    gens = [
        Generator("mu", c("c"), c("c", "c"), 0),
        Generator("i", c("c"), c("c"), 0),
        Generator("w", c("c", "c"), c("c"), 0),
    ]
    rng = random.Random(8)
    baseline = None
    for _ in range(4):
        rng.shuffle(gens)
        sig = Signature(PAL1, list(gens))
        count = free_component_dim(sig, c("c"), c("c", "c"), 2)
        if baseline is None:
            baseline = count
        assert count == baseline


def test_enumerate_work_cap():
    sig = binary_sig()
    c = lambda *xs: Profile(PAL1, xs)
    with pytest.raises(ResourceCapExceeded):
        enumerate_graphs(sig, c("c"), c("c", "c", "c"), 2, work_cap=5)


def test_max_vertices_validated():
    sig = binary_sig()
    c = lambda *xs: Profile(PAL1, xs)
    with pytest.raises(GraphError):
        enumerate_graphs(sig, c("c"), c("c"), 0)


def _assert_same_classes(got, want):
    """got holds one graph per class of the reference's sorted list want:
    certificates pairwise distinct, and equal once sorted."""
    certs = [reference_canonical(g)[0] for g in got]
    assert len(set(certs)) == len(certs)
    assert sorted(certs) == [reference_canonical(g)[0] for g in want]


def _check_against_reference(sig, out_p, in_p, max_v, cap):
    """Compare with the checked reference; the graphs found, or None when both cap."""
    try:
        want = reference_enumerate_graphs(sig, out_p, in_p, max_v, work_cap=cap)
    except ResourceCapExceeded as exc:
        with pytest.raises(ResourceCapExceeded) as raised:
            enumerate_graphs(sig, out_p, in_p, max_v, work_cap=cap)
        assert str(raised.value) == str(exc)
        return None
    got = enumerate_graphs(sig, out_p, in_p, max_v, work_cap=cap)
    _assert_same_classes(got, want)
    for g in got:
        g._validate()
        assert (g.out_profile(), g.in_profile()) == (out_p, in_p)
    return got


def _repeating_case(rng, max_colors=None):
    """A small signature (mostly one colour unless max_colors says, at most
    two generators besides unaries) and leg profiles under which a generator
    can occur four times."""
    sig = random_signature(
        rng, max_colors=rng.choice((1, 1, 2)) if max_colors is None else max_colors, max_generators=2,
        max_arity=2, with_unaries=rng.random() < 0.3,
    )
    colors = sig.palette.colors
    out_p = Profile(sig.palette, [rng.choice(colors) for _ in range(rng.randint(1, 2))])
    in_p = Profile(sig.palette, [rng.choice(colors) for _ in range(rng.randint(1, 5))])
    return sig, out_p, in_p


def test_enumerate_matches_the_checked_reference():
    """The enumerator without per-graph checks or isomorphic copies returns
    what the checked one returned, and every graph it returns is valid with
    the asked profiles; that holds too where a generator occurs up to four
    times, so that up to 4! labelled copies share one class."""
    rng = random.Random(41)
    cap = 3_000
    found = capped = 0
    for _ in range(150):
        sig = random_signature(rng)
        colors = sig.palette.colors
        out_p = Profile(sig.palette, [rng.choice(colors) for _ in range(rng.randint(1, 3))])
        in_p = Profile(sig.palette, [rng.choice(colors) for _ in range(rng.randint(1, 3))])
        got = _check_against_reference(sig, out_p, in_p, rng.randint(1, 3), cap)
        if got is None:
            capped += 1
        else:
            found += len(got)
    assert found > 1_000 and 0 < capped < 20

    rng = random.Random(43)
    found = capped = 0
    repeats = Counter()
    for _ in range(150):
        got = _check_against_reference(*_repeating_case(rng), 4, 5_000)
        if got is None:
            capped += 1
            continue
        found += len(got)
        repeats.update(max(Counter(g.vertices).values()) for g in got)
    assert found > 1_000 and 0 < capped < 40 and repeats[4] > 20


def test_isomorph_rejection_keeps_one_copy_per_orbit():
    """Burnside's premise, counted: in each generator combination the
    permutations of equal generators act freely on the labelled objects, so
    there are (classes) x prod m_i! of them, and enumerate_graphs keeps
    exactly one representative of each class the reference finds by
    canonicalizing every labelled copy.  The discovery order the
    representative rule reads, seeded with the in-leg vertices alone,
    reaches every vertex of every object."""
    rng = random.Random(44)
    combos = 0
    while combos < 60:
        sig, out_p, in_p = _repeating_case(rng)
        try:
            graphs = enumerate_graphs(sig, out_p, in_p, 4, work_cap=5_000)
        except ResourceCapExceeded:
            continue
        kept = Counter(g.vertices for g in graphs)
        classes = Counter(g.vertices for g in reference_enumerate_graphs(sig, out_p, in_p, 4, work_cap=5_000))
        assert kept == classes
        labelled = Counter()
        for combo, wiring, in_legs, out_legs in labelled_objects(sig, out_p, in_p, 4):
            labelled[combo] += 1
            seeds = [v for v, _ in sorted(in_legs, key=in_legs.get)]
            order = _discovery_order(_neighbours(len(combo), wiring), seeds)
            assert sorted(order) == list(range(len(combo)))
        assert set(labelled) == set(classes)
        for combo, n_classes in classes.items():
            group_order = math.prod(math.factorial(m) for m in Counter(combo).values())
            assert labelled[combo] == n_classes * group_order
        combos += sum(1 for combo in classes if len(set(combo)) < len(combo))


def test_enumerate_returns_the_kept_labelled_objects_in_order():
    """enumerate_graphs returns, in order, exactly the labelled objects of
    labelled_objects that the discovery-order rule keeps: all of them in a
    combination of distinct names, and otherwise those whose discovery
    order, seeded with the in-leg vertices in label order, lists the
    vertices of each name in increasing index order.  Vertices, edges,
    in-legs and out-legs are compared, on seeded cases whose in-legs have
    one colour and two.  The oracle shares _wirings and _is_acyclic (through
    labelled_objects) and _neighbours and _discovery_order with src; it
    labels legs with its own _leg_assignments and reads the rule itself."""
    rng = random.Random(47)
    for n_colors in (1, 2):
        checked = 0
        while checked < 12:
            sig, out_p, in_p = _repeating_case(rng, max_colors=n_colors)
            try:
                got = enumerate_graphs(sig, out_p, in_p, 4, work_cap=5_000)
            except ResourceCapExceeded:
                continue
            want = []
            for combo, wiring, in_legs, out_legs in labelled_objects(sig, out_p, in_p, 4):
                seeds = [v for v, _ in sorted(in_legs, key=in_legs.get)]
                position = {v: i for i, v in enumerate(_discovery_order(_neighbours(len(combo), wiring), seeds))}
                pairs = itertools.combinations(range(len(combo)), 2)
                if all(position[v] < position[w] for v, w in pairs if combo[v] == combo[w]):
                    want.append((tuple(combo), frozenset(wiring), in_legs, out_legs))
            assert [(g.vertices, g.edges, g.in_legs, g.out_legs) for g in got] == want
            repeats = any(len(set(g.vertices)) < len(g.vertices) for g in got)
            checked += repeats and len(set(in_p.entries)) == n_colors


def test_every_work_cap_fails_or_succeeds_as_the_reference_does():
    """Every work_cap from 1 to the total work: both enumerators succeed
    with equal certificates, or both raise the same message.  The reference
    counts one step per leg labelling it builds; enumerate_graphs adds each
    wiring's leg steps at once, so every cap that falls in the leg phase is
    raised by enumerate_graphs itself, from that one count per wiring."""
    rng = random.Random(45)
    cases = in_leg_phase = 0
    while cases < 4:
        sig, out_p, in_p = _repeating_case(rng)
        try:
            if not enumerate_graphs(sig, out_p, in_p, 4, work_cap=500):
                continue
        except ResourceCapExceeded:
            continue
        cases += 1
        for cap in itertools.count(1):
            try:
                want = reference_enumerate_graphs(sig, out_p, in_p, 4, work_cap=cap)
            except ResourceCapExceeded as exc:
                with pytest.raises(ResourceCapExceeded) as raised:
                    enumerate_graphs(sig, out_p, in_p, 4, work_cap=cap)
                assert str(raised.value) == str(exc)
                in_leg_phase += raised.traceback[-1].name == "enumerate_graphs"
                continue
            got = enumerate_graphs(sig, out_p, in_p, 4, work_cap=cap)
            _assert_same_classes(got, want)
            break
    assert in_leg_phase > 100


def test_enumerate_graphs_never_canonicalizes(monkeypatch):
    """Isomorph rejection alone keeps one graph per class, so enumeration
    runs with PropGraph.canonical raising; the number kept is the Burnside
    count of the labelled objects, sum over combinations of labelled / prod m_i!."""
    def refuse(g):
        raise AssertionError("enumerate_graphs called PropGraph.canonical")

    monkeypatch.setattr(PropGraph, "canonical", refuse)
    rng = random.Random(46)
    found = with_repeats = 0
    while with_repeats < 20:
        sig, out_p, in_p = _repeating_case(rng)
        try:
            graphs = enumerate_graphs(sig, out_p, in_p, 4, work_cap=5_000)
        except ResourceCapExceeded:
            continue
        found += len(graphs)
        labelled = Counter(combo for combo, *_ in labelled_objects(sig, out_p, in_p, 4))
        burnside = Counter()
        for combo, n in labelled.items():
            burnside[combo] = n // math.prod(math.factorial(m) for m in Counter(combo).values())
        assert Counter(g.vertices for g in graphs) == burnside
        with_repeats += any(len(set(g.vertices)) < len(g.vertices) for g in graphs)
    assert found > 500


def test_canonical_matches_the_reference():
    """Refinement on integer ranks returns the (certificate, order) the nested
    colour tuples returned: on enumerated graphs, on graphs of expressions,
    and with the same message where refinement leaves a cell of two."""
    rng = random.Random(45)
    checked = 0
    for _ in range(80):
        sig, out_p, in_p = _repeating_case(rng)
        try:
            graphs = enumerate_graphs(sig, out_p, in_p, 4, work_cap=5_000)
        except ResourceCapExceeded:
            graphs = []
        with_unaries = random_signature(rng)
        graphs += [random_expression(with_unaries, rng, depth=3).to_graph() for _ in range(10)]
        for g in graphs:
            assert g.canonical() == reference_canonical(g)
            checked += 1
    assert checked > 1_500
    # a 2-cycle of unaries has no leg, so refinement cannot split it
    sig = one_color_sig()
    g = PropGraph(
        sig, ["i", "i", "i"], [((0, 1), (1, 1)), ((1, 1), (0, 1))], {(2, 1): 1}, {(2, 1): 1}, check=False
    )
    with pytest.raises(GraphError) as want:
        reference_canonical(g)
    with pytest.raises(GraphError) as got:
        g.canonical()
    assert str(got.value) == str(want.value) == "partition refinement left vertices 0 and 1 in one cell"


# -- graphs the constructor rejects ------------------------------------------------


def two_color_sig():
    pal = Palette(["a", "b"])
    p = lambda *xs: Profile(pal, xs)
    return Signature(
        pal,
        [
            Generator("mu", p("a"), p("a", "a"), 0),
            Generator("w", p("a", "a"), p("a"), 0),
            Generator("f", p("b"), p("a"), 0),
        ],
    )


BAD_GRAPHS = [
    # (vertices, edges, in_legs, out_legs, message)
    (["mu"], [((0, 1), (1, 1))], {(0, 1): 1, (0, 2): 2}, {(0, 1): 1}, "edge endpoint out of range"),
    (
        ["mu", "mu"],
        [((0, 2), (1, 1))],
        {(0, 1): 1, (0, 2): 2, (1, 2): 3},
        {(1, 1): 1},
        "output port 2 out of range on vertex 0",
    ),
    (
        ["mu", "mu"],
        [((0, 1), (1, 3))],
        {(0, 1): 1, (0, 2): 2, (1, 1): 3, (1, 2): 4},
        {(1, 1): 1},
        "input port 3 out of range on vertex 1",
    ),
    (
        ["f", "mu"],
        [((0, 1), (1, 1))],
        {(0, 1): 1, (1, 2): 2},
        {(1, 1): 1},
        "edge color mismatch",
    ),
    (
        ["w", "mu"],
        [((0, 1), (1, 1)), ((0, 1), (1, 2))],
        {(0, 1): 1},
        {(0, 2): 1, (1, 1): 2},
        r"output port \(0,1\) used twice",
    ),
    (
        ["mu", "mu", "mu"],
        [((0, 1), (2, 1)), ((1, 1), (2, 1))],
        {(0, 1): 1, (0, 2): 2, (1, 1): 3, (1, 2): 4, (2, 2): 5},
        {(2, 1): 1},
        r"input port \(2,1\) used twice",
    ),
    (["mu"], [], {(0, 1): 1}, {(0, 1): 1}, "input leg order must cover exactly"),
    (["mu"], [], {(0, 1): 1, (0, 2): 2}, {}, "output leg order must cover exactly"),
    (["mu"], [], {(0, 1): 1, (0, 2): 3}, {(0, 1): 1}, r"input leg labels must be a bijection onto 1\.\.n"),
    (["mu"], [], {(0, 1): 1, (0, 2): 2}, {(0, 1): 2}, r"output leg labels must be a bijection onto 1\.\.m"),
    (["w", "mu"], [((0, 1), (1, 1)), ((0, 2), (1, 2)), ((1, 1), (0, 1))], {}, {}, "non-empty leg profiles"),
    (["w", "mu"], [((0, 1), (1, 1)), ((1, 1), (0, 1))], {(1, 2): 1}, {(0, 2): 1}, "directed cycle"),
    ([], [], {}, {}, "at least one vertex"),
]


@pytest.mark.parametrize("vertices, edges, in_legs, out_legs, message", BAD_GRAPHS)
def test_prop_graph_rejects_invalid_structure(vertices, edges, in_legs, out_legs, message):
    sig = two_color_sig()
    with pytest.raises(GraphError, match=message):
        PropGraph(sig, vertices, edges, in_legs, out_legs)


# -- presentations ----------------------------------------------------------------


def ainf_presentation():
    sig = ainf_sig()
    d3 = [
        (1, parse("mu2 o (mu2 * iota)", sig)),
        (-1, parse("mu2 o (iota * mu2)", sig)),
    ]
    return PropPresentation(sig, {"mu3": d3})


def test_free_presentation_valid():
    sig = one_color_sig()
    assert validate_presentation(PropPresentation(sig)) == []


def test_ainf_presentation_valid():
    failures = validate_presentation(ainf_presentation())
    assert failures == []


def test_triangularity_violation():
    sig = ainf_sig()
    bad = PropPresentation(sig, {"mu2": [(1, parse("mu3 o (iota * iota * mu2)", sig))]})
    failures = validate_presentation(bad)
    assert any("triangularity" in f for f in failures)


def test_d_squared_violation_detected():
    c = lambda *xs: Profile(PAL1, xs)
    sig = Signature(
        PAL1,
        [
            Generator("mu2", c("c"), c("c", "c"), 0),
            Generator("iota", c("c"), c("c"), 0),
            Generator("mu3", c("c"), c("c", "c", "c"), 1),
            Generator("h", c("c"), c("c", "c", "c", "c"), 2),
        ],
    )
    d3 = [
        (1, parse("mu2 o (mu2 * iota)", sig)),
        (-1, parse("mu2 o (iota * mu2)", sig)),
    ]
    # d(h) hits mu3 whose differential is the nonzero associator: d^2(h) != 0
    bad = PropPresentation(
        sig, {"mu3": d3, "h": [(1, parse("mu3 o (mu2 * iota * iota)", sig))]}
    )
    failures = validate_presentation(bad)
    assert any("d^2(h)" in f for f in failures)


def leibniz_presentation(second_sign):
    """p, q: (c, c) <- (c, c) cycles of degree 0; a, b of degree 1 with
    da = p and db = q; c of degree 2 with
        dc = ([2 1] . p) o (b . [2 1]) + second_sign ([2 1] . a) o (q . [2 1]),
    and k of degree 3 with dk = ([2 1] . a) o (b . [2 1]) - c.  By the Leibniz
    rule d(dk) = d(([2 1] . a) o (b . [2 1])) - dc is zero exactly when
    second_sign is (-1)^|a| = -1, the sign of the right operand's term; both
    operands of dk's first term carry a permutation action."""
    c2 = Profile(PAL1, ("c", "c"))
    sig = Signature(
        PAL1,
        [Generator(name, c2, c2, degree) for name, degree in (("p", 0), ("q", 0), ("a", 1), ("b", 1), ("c", 2), ("k", 3))],
    )
    differential = {
        "a": [(1, parse("p", sig))],
        "b": [(1, parse("q", sig))],
        "c": [(1, parse("([2 1] . p) o (b . [2 1])", sig)), (second_sign, parse("([2 1] . a) o (q . [2 1])", sig))],
        "k": [(1, parse("([2 1] . a) o (b . [2 1])", sig)), (-1, parse("c", sig))],
    }
    return PropPresentation(sig, differential)


def test_leibniz_rule_signs_the_right_operand_through_actions():
    valid = leibniz_presentation(-1)
    assert validate_presentation(valid) == []
    assert any("d^2(k)" in f for f in validate_presentation(leibniz_presentation(1)))
    sig = valid.signature
    terms = differentiate_expression(parse("([2 1] . a) o (b . [2 1])", sig), valid)
    assert [c for c, _ in terms] == [1, -1]
    want = [parse("([2 1] . p) o (b . [2 1])", sig), parse("([2 1] . a) o (q . [2 1])", sig)]
    assert all(graphs_equal(t, w) for (_, t), w in zip(terms, want))


def test_degree_shape_violation_detected():
    sig = ainf_sig()
    bad = PropPresentation(sig, {"mu2": [(1, parse("mu2 o (mu2 * iota)", sig))]})
    failures = validate_presentation(bad)
    assert any("degree" in f for f in failures)


def test_graph_polynomial_koszul_sign():
    # conjugating an odd (x) odd horizontal product by the block swaps flips
    # its sign in the free graded PROP: one graph with opposite signs, so a
    # and b are distinct and a + b is the zero combination
    sig = ainf_sig()
    a = parse("mu3 * mu3", sig)
    swap_out = Permutation([2, 1])
    big_swap_in = Permutation([4, 5, 6, 1, 2, 3])
    b = LeftActExpr(swap_out, RightActExpr(parse("mu3 * mu3", sig), big_swap_in))
    (cert_a, sign_a), (cert_b, sign_b) = signed_certificate(a), signed_certificate(b)
    assert cert_a == cert_b and sign_a == -sign_b
    assert not graphs_equal(a, b)
    total = GraphPolynomial()
    total.add_expression(1, a)
    total.add_expression(1, b)
    assert total.is_zero()
    # even-degree version: conjugation is the identity, a - b vanishes
    sig0 = one_color_sig()
    a0 = parse("mu * mu", sig0)
    b0 = LeftActExpr(
        swap_out, RightActExpr(parse("mu * mu", sig0), Permutation([3, 4, 1, 2]))
    )
    assert signed_certificate(a0) == signed_certificate(b0)
    assert graphs_equal(a0, b0)
    diff = GraphPolynomial()
    diff.add_expression(1, a0)
    diff.add_expression(-1, b0)
    assert diff.is_zero()


def test_canonical_oracle_1000_pairs():
    rng = random.Random(60)
    pairs = 0
    while pairs < 1000:
        sig = random_signature(rng, max_colors=2, max_generators=3, max_arity=2)
        g1 = random_expression(sig, rng, depth=1).to_graph()
        if len(g1.vertices) > 6:
            continue
        if rng.random() < 0.5:
            order = list(range(len(g1.vertices)))
            rng.shuffle(order)
            g2 = _relabel(g1, order)
        else:
            g2 = random_expression(sig, rng, depth=1).to_graph()
            if len(g2.vertices) != len(g1.vertices):
                continue
            try:
                if (
                    g1.out_profile() != g2.out_profile()
                    or g1.in_profile() != g2.in_profile()
                ):
                    continue
            except GraphError:
                continue
        same = g1.canonical()[0] == g2.canonical()[0]
        assert same == graphs_isomorphic_brute_force(g1, g2)
        pairs += 1


def test_enumerate_arity_four():
    # five unlabeled binary trees with four leaves, 4! leaf labelings
    sig = binary_sig()
    c = lambda *xs: Profile(PAL1, xs)
    assert free_component_dim(sig, c("c"), c("c", "c", "c", "c"), 3) == 5 * 24
