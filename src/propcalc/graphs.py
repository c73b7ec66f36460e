"""Free colored PROP components as decorated directed acyclic graphs.

A graph is a set of generator-decorated vertices with ordered ports, edges
from output ports to input ports of matching color, and total orderings
(labelings) of the unattached input and output ports.  No through-wires and at
least one vertex (the non-unital convention: identity-like behavior is a unary
generator, not a bare wire).

Equality in the free PROP is decided by a canonical form: iterative partition
refinement on (generator, port structure, leg labels), which separates every
vertex because each connected part keeps a labelled leg.  Graphs are
isomorphic respecting all decorations iff their canonical certificates are
identical.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter

# canonicalize_profile is unused: perfbench/selftest.py's EXPECTED_SITES counts its 6 binding sites
from propcalc.profiles import Palette, Permutation, Profile, canonicalize_profile


class GraphError(ValueError):
    pass


class ResourceCapExceeded(RuntimeError):
    """Enumeration would exceed the explicit work cap."""


class Generator:
    """Named operation with an output profile, an input profile, and a degree."""

    __slots__ = ("name", "out_profile", "in_profile", "degree")

    def __init__(self, name: str, out_profile: Profile, in_profile: Profile, degree: int = 0):
        if not name:
            raise GraphError("generator needs a name")
        if int(degree) < 0:
            raise GraphError("generator degree must be >= 0")
        self.name = name
        self.out_profile = out_profile
        self.in_profile = in_profile
        self.degree = int(degree)

    def __repr__(self):
        return "Generator(%s: %s <- %s, deg %d)" % (
            self.name,
            list(self.out_profile.entries),
            list(self.in_profile.entries),
            self.degree,
        )


class Signature:
    """Palette plus a finite set of generators with unique names."""

    __slots__ = ("palette", "generators")

    def __init__(self, palette: Palette, generators):
        self.palette = palette
        gens = {}
        for g in generators:
            if g.name in gens:
                raise GraphError("duplicate generator name %r" % g.name)
            if g.out_profile.palette != palette or g.in_profile.palette != palette:
                raise GraphError("generator %r profiles not over the signature palette" % g.name)
            gens[g.name] = g
        self.generators = gens

    def __getitem__(self, name) -> Generator:
        try:
            return self.generators[name]
        except KeyError:
            raise GraphError("unknown generator %r" % name)

    def __contains__(self, name):
        return name in self.generators

    def names(self):
        return sorted(self.generators)


class PropGraph:
    """Decorated DAG with ordered colored legs.

    vertices: tuple of generator names (index = vertex id, in construction
    order, which for graphs built from expressions is the left-to-right order
    of generator occurrences).
    edges: frozenset of ((u, p), (v, q)): output port p of u feeds input port
    q of v; ports are 1-based.
    in_legs / out_legs: dict (vertex, port) -> leg label.

    The constructor validates by default.  The builders `from_generator`,
    `horizontal`, `vertical`, `act_left` and `act_right` skip it: each turns
    valid graphs into a valid graph, once its own operand check has passed
    (matching palettes for `horizontal`, matching profiles for `vertical`,
    the permutation size for `act_*`).  A generator is a valid graph since
    profiles are non-empty; a disjoint union or a relabelling by a
    permutation keeps ports, colours and leg bijections; and `vertical` sews
    each output leg of the lower graph to the input leg of equal label and
    colour above it, with every new edge pointing upward, so no cycle forms.
    `horizontal` and `vertical` still validate when the operands hold two
    signature objects, since the result reads the other operand's vertex
    names in the first operand's signature.
    """

    __slots__ = ("signature", "vertices", "edges", "in_legs", "out_legs")

    def __init__(self, signature, vertices, edges, in_legs, out_legs, check=True):
        self.signature = signature
        self.vertices = tuple(vertices)
        self.edges = frozenset(edges)
        self.in_legs = dict(in_legs)
        self.out_legs = dict(out_legs)
        if check:
            self._validate()

    def gen(self, v: int) -> Generator:
        return self.signature[self.vertices[v]]

    def _validate(self):
        if not self.vertices:
            raise GraphError("graphs have at least one vertex")
        n_v = len(self.vertices)
        used_out = set()
        used_in = set()
        for (u, p), (v, q) in self.edges:
            if not (0 <= u < n_v and 0 <= v < n_v):
                raise GraphError("edge endpoint out of range")
            gu, gv = self.gen(u), self.gen(v)
            if not (1 <= p <= len(gu.out_profile)):
                raise GraphError("output port %d out of range on vertex %d" % (p, u))
            if not (1 <= q <= len(gv.in_profile)):
                raise GraphError("input port %d out of range on vertex %d" % (q, v))
            if gu.out_profile[p - 1] != gv.in_profile[q - 1]:
                raise GraphError(
                    "edge color mismatch: %r vs %r" % (gu.out_profile[p - 1], gv.in_profile[q - 1])
                )
            if (u, p) in used_out:
                raise GraphError("output port (%d,%d) used twice" % (u, p))
            if (v, q) in used_in:
                raise GraphError("input port (%d,%d) used twice" % (v, q))
            used_out.add((u, p))
            used_in.add((v, q))
        free_in = []
        free_out = []
        for v in range(n_v):
            for q in range(1, len(self.gen(v).in_profile) + 1):
                if (v, q) not in used_in:
                    free_in.append((v, q))
            for p in range(1, len(self.gen(v).out_profile) + 1):
                if (v, p) not in used_out:
                    free_out.append((v, p))
        if set(self.in_legs) != set(free_in):
            raise GraphError("input leg order must cover exactly the unattached input ports")
        if set(self.out_legs) != set(free_out):
            raise GraphError("output leg order must cover exactly the unattached output ports")
        if sorted(self.in_legs.values()) != list(range(1, len(free_in) + 1)):
            raise GraphError("input leg labels must be a bijection onto 1..n")
        if sorted(self.out_legs.values()) != list(range(1, len(free_out) + 1)):
            raise GraphError("output leg labels must be a bijection onto 1..m")
        if not free_in or not free_out:
            raise GraphError("graphs must keep non-empty leg profiles")
        if not _is_acyclic(n_v, self.edges):
            raise GraphError("graph has a directed cycle")

    def in_profile(self) -> Profile:
        ordered = sorted(self.in_legs.items(), key=lambda kv: kv[1])
        return Profile(
            self.signature.palette, [self.gen(v).in_profile[q - 1] for (v, q), _ in ordered]
        )

    def out_profile(self) -> Profile:
        ordered = sorted(self.out_legs.items(), key=lambda kv: kv[1])
        return Profile(
            self.signature.palette, [self.gen(v).out_profile[p - 1] for (v, p), _ in ordered]
        )

    def vertex_degrees(self):
        return [self.gen(v).degree for v in range(len(self.vertices))]

    # -- construction -------------------------------------------------------

    @classmethod
    def from_generator(cls, signature, name) -> "PropGraph":
        g = signature[name]
        in_legs = {(0, q): q for q in range(1, len(g.in_profile) + 1)}
        out_legs = {(0, p): p for p in range(1, len(g.out_profile) + 1)}
        return cls(signature, [name], [], in_legs, out_legs, check=False)

    def horizontal(self, other: "PropGraph") -> "PropGraph":
        """Disjoint union; self's legs first, then other's (shifted)."""
        if self.signature is not other.signature and self.signature.palette != other.signature.palette:
            raise GraphError("signature mismatch")
        shift = len(self.vertices)
        n_in = len(self.in_legs)
        n_out = len(self.out_legs)
        edges = set(self.edges)
        for (u, p), (v, q) in other.edges:
            edges.add(((u + shift, p), (v + shift, q)))
        in_legs = dict(self.in_legs)
        for (v, q), label in other.in_legs.items():
            in_legs[(v + shift, q)] = label + n_in
        out_legs = dict(self.out_legs)
        for (v, p), label in other.out_legs.items():
            out_legs[(v + shift, p)] = label + n_out
        return PropGraph(
            self.signature,
            self.vertices + other.vertices,
            edges,
            in_legs,
            out_legs,
            check=self.signature is not other.signature,
        )

    def vertical(self, other: "PropGraph") -> "PropGraph":
        """self o other: sew every output leg of `other` onto the same-label input leg of self."""
        if self.in_profile() != other.out_profile():
            raise GraphError(
                "vertical composition profile mismatch: %r vs %r"
                % (self.in_profile(), other.out_profile())
            )
        shift = len(self.vertices)
        edges = set(self.edges)
        for (u, p), (v, q) in other.edges:
            edges.add(((u + shift, p), (v + shift, q)))
        upper_in_by_label = {label: port for port, label in self.in_legs.items()}
        for (v, p), label in other.out_legs.items():
            (tv, tq) = upper_in_by_label[label]
            edges.add(((v + shift, p), (tv, tq)))
        in_legs = {(v + shift, q): label for (v, q), label in other.in_legs.items()}
        out_legs = dict(self.out_legs)
        return PropGraph(
            self.signature,
            self.vertices + other.vertices,
            edges,
            in_legs,
            out_legs,
            check=self.signature is not other.signature,
        )

    def act_left(self, sigma: Permutation) -> "PropGraph":
        """Relabel output legs: label l becomes sigma(l)."""
        if sigma.n != len(self.out_legs):
            raise GraphError("permutation size mismatch on output legs")
        out_legs = {port: sigma(label) for port, label in self.out_legs.items()}
        return PropGraph(self.signature, self.vertices, self.edges, self.in_legs, out_legs, check=False)

    def act_right(self, tau: Permutation) -> "PropGraph":
        """Relabel input legs: label l becomes tau^-1(l)."""
        if tau.n != len(self.in_legs):
            raise GraphError("permutation size mismatch on input legs")
        inv = tau.inverse()
        in_legs = {port: inv(label) for port, label in self.in_legs.items()}
        return PropGraph(self.signature, self.vertices, self.edges, in_legs, self.out_legs, check=False)

    # -- canonical form ------------------------------------------------------

    def certificate_for_order(self, order):
        """Certificate tuple with vertices listed in the given order (old index list)."""
        pos = {old: new for new, old in enumerate(order)}
        verts = tuple(self.vertices[old] for old in order)
        edges = tuple(
            sorted(((pos[u], p), (pos[v], q)) for (u, p), (v, q) in self.edges)
        )
        in_legs = tuple(
            sorted((label, pos[v], q) for (v, q), label in self.in_legs.items())
        )
        out_legs = tuple(
            sorted((label, pos[v], p) for (v, p), label in self.out_legs.items())
        )
        return (verts, edges, in_legs, out_legs)

    def _refined_partition(self):
        """One sort key per vertex, equal exactly for vertices left in one cell.

        Colours start as (generator, sorted in-legs, sorted out-legs) and are
        refined by each vertex's sorted (direction, port, neighbour colour,
        neighbour port) edges until the number of cells stops growing.  Each
        colour is carried as its rank among the sorted colours of its round;
        ranks are monotone, so every comparison is the one the nested colour
        tuples would make.  The key is repr of the initial colour when no
        round refines it, and str of the last rank otherwise: with distinct
        ranks that sorts as repr of (rank, ...) does.
        """
        n_v = len(self.vertices)
        in_legs = [[] for _ in range(n_v)]
        out_legs = [[] for _ in range(n_v)]
        for (v, q), label in self.in_legs.items():
            in_legs[v].append((q, label))
        for (v, p), label in self.out_legs.items():
            out_legs[v].append((p, label))
        adjacency = [[] for _ in range(n_v)]
        for (u, p), (w, q) in self.edges:
            adjacency[u].append(("out", p, w, q))
            adjacency[w].append(("in", q, u, p))
        initial = [
            (name, tuple(sorted(ins)), tuple(sorted(outs)))
            for name, ins, outs in zip(self.vertices, in_legs, out_legs)
        ]
        ranks, cells = _ranks(initial)
        refined = False
        # a partition into singletons cannot grow, so the round that would only confirm it is skipped
        while cells < n_v:
            new_ranks, new_cells = _ranks(
                [
                    (ranks[v], tuple(sorted([(d, p, ranks[w], q) for d, p, w, q in adjacency[v]])))
                    for v in range(n_v)
                ]
            )
            if new_cells == cells:
                break
            ranks, cells, refined = new_ranks, new_cells, True
        if refined:
            return [str(r) for r in ranks]
        return [repr(c) for c in initial]

    def canonical(self):
        """Return (certificate, order): the certificate with vertices in the
        order of their refined cells.

        order[i] = original index of the vertex placed at canonical position i.
        Every connected part keeps a labelled leg and ports are ordered, so
        refinement separates all vertices; a cell with two vertices is an
        error.
        """
        keys = self._refined_partition()
        order = sorted(range(len(self.vertices)), key=keys.__getitem__)
        for v, w in zip(order, order[1:]):
            if keys[v] == keys[w]:
                raise GraphError("partition refinement left vertices %d and %d in one cell" % (v, w))
        return self.certificate_for_order(order), order


def _ranks(colors):
    """(rank of each colour among the sorted distinct colours, number of distinct colours)."""
    ranking = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [ranking[c] for c in colors], len(ranking)


# ---------------------------------------------------------------------------
# enumeration of free components


def enumerate_graphs(signature, out_profile, in_profile, max_vertices, work_cap=2_000_000):
    """One graph per isomorphism class with the given leg profiles and at
    most max_vertices vertices, in generation order.

    The graphs returned are orbit representatives, pairwise non-isomorphic,
    and none is canonicalized: callers that need a canonical order sort by
    the certificates of `PropGraph.canonical` themselves.  Raises
    ResourceCapExceeded when the search would exceed work_cap steps.

    Every graph built is valid by construction, so none is checked:
    `_wirings` pairs ports of equal color, each input port at most once and
    each output port at most once; `_leg_labellings` labels the unwired
    ports by a color-preserving bijection onto 1..n; profiles are non-empty,
    so legs remain on both sides; and wirings with a cycle are skipped.

    Work is counted as the search that builds every labelled object counts
    it: one step per wiring search call, one per in-leg labelling and,
    under each, one per out-leg labelling.  A wiring's leg steps therefore
    number n_in * (1 + n_out), with n_in and n_out the `_leg_assignment_count`
    of its free ports (n_in is 0 when the in-colors differ, since no
    labelling is tried).  They are added at once per wiring, which is exact:
    `_wirings` returns a list, so all wiring steps of a combination come
    before its leg steps, a wiring's leg steps are contiguous, and each
    raises the same message.  So work_cap fires at the same step with the
    same message.

    Exactly one labelled copy of each isomorphism class is kept (isomorph
    rejection, McKay, J. Algorithms 26, 1998).  Within one generator
    combination the group of permutations of equally named vertices maps
    the enumerated (wiring, in-legs, out-legs) objects onto themselves, and
    two of them are isomorphic iff one maps to the other; objects of
    different combinations have different vertex multisets, so they are
    never isomorphic.  The discovery order of `_discovery_order`, seeded
    with the vertices of the in-legs in label order, is invariant under that
    action on (wiring, in-legs) pairs.  It reaches every vertex: profiles
    are non-empty, so each connected part has a source vertex whose input
    ports are legs.  Hence only the identity fixes a pair, and exactly one
    pair in each orbit lists each name's vertices in increasing index order.
    The action on pairs is free, so each orbit of objects has exactly one
    copy over a kept pair, whatever its out-legs: that copy is the one
    kept.  The verdict depends on the in-legs only through their seed
    vertices, so it is judged once per seed order of a wiring, in a table
    that lives as long as the wiring.  Leg dicts are built for kept graphs
    only: the out-leg dicts once per wiring, the in-leg dict once per kept
    in-leg labelling.
    """
    if max_vertices < 1:
        raise GraphError("max_vertices must be >= 1")
    n_in = len(in_profile)
    n_out = len(out_profile)
    found = []
    work = [0]

    names = signature.names()
    for count in range(1, max_vertices + 1):
        for combo in itertools.combinations_with_replacement(names, count):
            gens = [signature[name] for name in combo]
            total_in = sum(len(g.in_profile) for g in gens)
            total_out = sum(len(g.out_profile) for g in gens)
            n_edges = total_in - n_in
            if n_edges < 0 or total_out - n_out != n_edges:
                continue
            in_ports = [
                (v, q, gens[v].in_profile[q - 1])
                for v in range(count)
                for q in range(1, len(gens[v].in_profile) + 1)
            ]
            out_ports = [
                (v, p, gens[v].out_profile[p - 1])
                for v in range(count)
                for p in range(1, len(gens[v].out_profile) + 1)
            ]
            repeats = len(set(combo)) < count
            for wiring in _wirings(in_ports, out_ports, n_edges, work, work_cap):
                if not _is_acyclic(count, wiring):
                    continue
                wired_out = {e[0] for e in wiring}
                wired_in = {e[1] for e in wiring}
                free_in = [ip for ip in in_ports if ip[:2] not in wired_in]
                free_out = [op for op in out_ports if op[:2] not in wired_out]
                n_in_legs = _leg_assignment_count(free_in, in_profile)
                n_out_legs = _leg_assignment_count(free_out, out_profile)
                work[0] += n_in_legs * (1 + n_out_legs)
                if work[0] > work_cap:
                    raise ResourceCapExceeded("leg assignment exceeded %d steps" % work_cap)
                if not n_in_legs * n_out_legs:
                    continue
                all_out_legs = [_legs_dict(ports) for ports in _leg_labellings(free_out, out_profile)]
                if repeats:
                    neighbours = _neighbours(count, wiring)
                    verdicts = {}
                for ports in _leg_labellings(free_in, in_profile):
                    if repeats:
                        seeds = tuple([v for v, _ in ports])
                        kept = verdicts.get(seeds)
                        if kept is None:
                            kept = verdicts[seeds] = _increasing_per_name(combo, _discovery_order(neighbours, seeds))
                        if not kept:
                            continue
                    in_legs = _legs_dict(ports)
                    for out_legs in all_out_legs:
                        found.append(PropGraph(signature, combo, wiring, in_legs, out_legs, check=False))
    return found


def _neighbours(n_vertices, edges):
    """Per vertex: its successors in output-port order, then its predecessors in input-port order."""
    succ = [[] for _ in range(n_vertices)]
    pred = [[] for _ in range(n_vertices)]
    for (u, p), (v, q) in edges:
        succ[u].append((p, v))
        pred[v].append((q, u))
    return [[w for _, w in sorted(s)] + [w for _, w in sorted(p)] for s, p in zip(succ, pred)]


def _discovery_order(neighbours, seeds):
    """Vertices in breadth-first discovery order from the seeds, taken in order."""
    order = list(dict.fromkeys(seeds))
    seen = set(order)
    for v in order:  # grows while it is read: a breadth-first queue
        for w in neighbours[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def _increasing_per_name(names, order):
    """Whether order lists the vertices of each name in increasing index order."""
    last = {}
    for v in order:
        if last.get(names[v], -1) > v:
            return False
        last[names[v]] = v
    return True


def _is_acyclic(n_vertices, edges) -> bool:
    """Kahn's algorithm on vertices 0..n_vertices-1 and edges ((u, p), (v, q))."""
    adj = {v: [] for v in range(n_vertices)}
    indeg = {v: 0 for v in range(n_vertices)}
    for (u, _p), (v, _q) in edges:
        adj[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(n_vertices) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == n_vertices


def _wirings(in_ports, out_ports, n_edges, work, work_cap):
    """Lists of edges: injective color-matching pairings of size n_edges."""
    results = []
    _extend_wirings(results, 0, set(), [], in_ports, out_ports, n_edges, work, work_cap)
    return results


def _extend_wirings(results, i, used_out, acc, in_ports, out_ports, n_edges, work, work_cap):
    """Append to results every wiring that extends the edges acc, which wire
    input ports before i to the output ports numbered in used_out: port i is
    first left as a leg, then wired to each unused matching output port."""
    work[0] += 1
    if work[0] > work_cap:
        raise ResourceCapExceeded("graph enumeration exceeded %d steps" % work_cap)
    remaining_ports = len(in_ports) - i
    if len(acc) + remaining_ports < n_edges:
        return
    if i == len(in_ports):
        # the pruning above and the guard below leave exactly n_edges edges
        results.append(list(acc))
        return
    v, q, color = in_ports[i]
    # leave this port as a leg
    _extend_wirings(results, i + 1, used_out, acc, in_ports, out_ports, n_edges, work, work_cap)
    # or wire it to any unused matching output port
    if len(acc) < n_edges:
        for j, (u, p, ocolor) in enumerate(out_ports):
            if j in used_out or ocolor != color:
                continue
            used_out.add(j)
            acc.append(((u, p), (v, q)))
            _extend_wirings(results, i + 1, used_out, acc, in_ports, out_ports, n_edges, work, work_cap)
            acc.pop()
            used_out.remove(j)


def _leg_labellings(free_ports, profile):
    """Every color-preserving bijection from the labels 1..n onto the
    (v, q, color) free_ports, as the tuple of (v, q) ports in label order;
    the colors of free_ports are those of profile.  The order is that of the
    product over sorted colors of the permutations of each color's ports."""
    by_color = {}
    for v, q, color in free_ports:
        by_color.setdefault(color, []).append((v, q))
    if len(by_color) == 1:
        return itertools.permutations(by_color.popitem()[1])
    colors = sorted(by_color)
    # the k-th port of the ports joined in color order takes label slots[k] + 1
    slots = [label for c in colors for label, color in enumerate(profile.entries) if color == c]
    merge = operator.itemgetter(*sorted(range(len(slots)), key=slots.__getitem__))
    products = itertools.product(*(itertools.permutations(by_color[c]) for c in colors))
    return (merge(sum(chosen, ())) for chosen in products)


def _legs_dict(ports):
    """The leg dict (v, q) -> label of ports listed in label order."""
    return {port: label for label, port in enumerate(ports, 1)}


def _leg_assignment_count(free_ports, profile):
    """How many color-preserving labelings of free_ports by profile exist:
    prod over colors of (ports of that color)!, or 0 when the colors differ."""
    counts = Counter(color for _, _, color in free_ports)
    if counts != Counter(profile.entries):
        return 0
    return math.prod(math.factorial(k) for k in counts.values())


def free_component_dim(signature, out_profile, in_profile, max_vertices, work_cap=2_000_000):
    """Dimension of the free component = number of graphs (free generating orbits)."""
    return len(enumerate_graphs(signature, out_profile, in_profile, max_vertices, work_cap))
