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

from propcalc.profiles import (
    OrbitKey,
    Palette,
    Permutation,
    Profile,
    ProfileError,
    canonicalize_profile,
)


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

    def degree(self) -> int:
        return sum(self.gen(v).degree for v in range(len(self.vertices)))

    def vertex_degrees(self):
        return [self.gen(v).degree for v in range(len(self.vertices))]

    # -- construction -------------------------------------------------------

    @classmethod
    def from_generator(cls, signature, name) -> "PropGraph":
        g = signature[name]
        in_legs = {(0, q): q for q in range(1, len(g.in_profile) + 1)}
        out_legs = {(0, p): p for p in range(1, len(g.out_profile) + 1)}
        return cls(signature, [name], [], in_legs, out_legs)

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
            self.signature, self.vertices + other.vertices, edges, in_legs, out_legs
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
            self.signature, self.vertices + other.vertices, edges, in_legs, out_legs
        )

    def act_left(self, sigma: Permutation) -> "PropGraph":
        """Relabel output legs: label l becomes sigma(l)."""
        if sigma.n != len(self.out_legs):
            raise GraphError("permutation size mismatch on output legs")
        out_legs = {port: sigma(label) for port, label in self.out_legs.items()}
        return PropGraph(self.signature, self.vertices, self.edges, self.in_legs, out_legs)

    def act_right(self, tau: Permutation) -> "PropGraph":
        """Relabel input legs: label l becomes tau^-1(l)."""
        if tau.n != len(self.in_legs):
            raise GraphError("permutation size mismatch on input legs")
        inv = tau.inverse()
        in_legs = {port: inv(label) for port, label in self.in_legs.items()}
        return PropGraph(self.signature, self.vertices, self.edges, in_legs, self.out_legs)

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
        n_v = len(self.vertices)
        in_leg_by_vertex = {}
        for (v, q), label in self.in_legs.items():
            in_leg_by_vertex.setdefault(v, []).append((q, label))
        out_leg_by_vertex = {}
        for (v, p), label in self.out_legs.items():
            out_leg_by_vertex.setdefault(v, []).append((p, label))
        colors = {}
        for v in range(n_v):
            colors[v] = (
                self.vertices[v],
                tuple(sorted(in_leg_by_vertex.get(v, []))),
                tuple(sorted(out_leg_by_vertex.get(v, []))),
            )
        while True:
            new_colors = {}
            for v in range(n_v):
                nbrs = []
                for (u, p), (w, q) in self.edges:
                    if u == v:
                        nbrs.append(("out", p, colors[w], q))
                    if w == v:
                        nbrs.append(("in", q, colors[u], p))
                new_colors[v] = (colors[v], tuple(sorted(nbrs)))
            # compress to ranks for stability
            ranking = {c: i for i, c in enumerate(sorted(set(new_colors.values())))}
            compressed = {v: (ranking[new_colors[v]],) for v in range(n_v)}
            if len(set(compressed.values())) == len(set(colors.values())):
                return colors
            colors = {v: (compressed[v][0], new_colors[v]) for v in range(n_v)}

    def canonical(self):
        """Return (certificate, order): the certificate with vertices in the
        order of their refined cells.

        order[i] = original index of the vertex placed at canonical position i.
        Every connected part keeps a labelled leg and ports are ordered, so
        refinement separates all vertices; a cell with two vertices is an
        error.
        """
        colors = self._refined_partition()
        order = sorted(range(len(self.vertices)), key=lambda v: repr(colors[v]))
        for v, w in zip(order, order[1:]):
            if colors[v] == colors[w]:
                raise GraphError("partition refinement left vertices %d and %d in one cell" % (v, w))
        return self.certificate_for_order(order), order


def canonical_graph(g: PropGraph):
    """Canonical certificate of a graph; equal certificates iff isomorphic."""
    cert, _ = g.canonical()
    return cert


def graphs_isomorphic_brute_force(g1: PropGraph, g2: PropGraph) -> bool:
    """Exhaustive isomorphism oracle over all vertex bijections (test use)."""
    if len(g1.vertices) != len(g2.vertices):
        return False
    base = g2.certificate_for_order(list(range(len(g2.vertices))))
    for order in itertools.permutations(range(len(g1.vertices))):
        if g1.certificate_for_order(list(order)) == base:
            return True
    return False


def koszul_reorder_sign(degrees, order) -> int:
    """Sign for reordering graded letters; order[i] = original index at new slot i."""
    pos = [0] * len(order)
    for new, old in enumerate(order):
        pos[old] = new
    sign = 1
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if pos[i] > pos[j] and degrees[i] % 2 and degrees[j] % 2:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# enumeration of free components


def enumerate_graphs(signature, out_profile, in_profile, max_vertices, work_cap=2_000_000):
    """All canonical graphs with the given leg profiles and at most max_vertices vertices.

    Complete and duplicate-free; output sorted by certificate.  Raises
    ResourceCapExceeded when the wiring search would exceed work_cap steps.
    """
    if max_vertices < 1:
        raise GraphError("max_vertices must be >= 1")
    n_in = len(in_profile)
    n_out = len(out_profile)
    found = {}
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
            for wiring in _wirings(in_ports, out_ports, n_edges, work, work_cap):
                edges = [((u, p), (v, q)) for (u, p), (v, q) in wiring]
                try:
                    skeleton = _legless_check(signature, combo, edges)
                except GraphError:
                    continue
                free_in = [ip for ip in in_ports if (ip[0], ip[1]) not in {e[1] for e in edges}]
                free_out = [op for op in out_ports if (op[0], op[1]) not in {e[0] for e in edges}]
                for in_legs in _leg_assignments(free_in, in_profile, work, work_cap):
                    for out_legs in _leg_assignments(free_out, out_profile, work, work_cap):
                        g = PropGraph(signature, combo, edges, in_legs, out_legs, check=False)
                        try:
                            g._validate()
                        except GraphError:
                            continue
                        cert, _ = g.canonical()
                        if cert not in found:
                            found[cert] = g
    return [found[c] for c in sorted(found)]


def _legless_check(signature, combo, edges):
    # quick structural sanity before assigning legs: port reuse and cycles
    used_out = set()
    used_in = set()
    for (u, p), (v, q) in edges:
        if (u, p) in used_out or (v, q) in used_in:
            raise GraphError("port reuse")
        used_out.add((u, p))
        used_in.add((v, q))
    if not _is_acyclic(len(combo), edges):
        raise GraphError("cycle")
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
    """Yield sets of edges: injective color-matching pairings of size n_edges."""
    results = []

    def rec(i, used_out, acc):
        work[0] += 1
        if work[0] > work_cap:
            raise ResourceCapExceeded("graph enumeration exceeded %d steps" % work_cap)
        remaining_ports = len(in_ports) - i
        if len(acc) + remaining_ports < n_edges:
            return
        if i == len(in_ports):
            if len(acc) == n_edges:
                results.append(list(acc))
            return
        v, q, color = in_ports[i]
        # leave this port as a leg
        rec(i + 1, used_out, acc)
        # or wire it to any unused matching output port
        if len(acc) < n_edges:
            for j, (u, p, ocolor) in enumerate(out_ports):
                if j in used_out or ocolor != color:
                    continue
                used_out.add(j)
                acc.append(((u, p), (v, q)))
                rec(i + 1, used_out, acc)
                acc.pop()
                used_out.remove(j)

    rec(0, set(), [])
    return results


def _leg_assignments(free_ports, profile, work, work_cap):
    """All leg labelings: bijections label -> port with matching colors."""
    if len(free_ports) != len(profile):
        return
    by_color = {}
    for v, q, color in free_ports:
        by_color.setdefault(color, []).append((v, q))
    label_slots = {}
    for label, color in enumerate(profile.entries, start=1):
        label_slots.setdefault(color, []).append(label)
    if set(by_color) != set(label_slots):
        return
    for color in by_color:
        if len(by_color[color]) != len(label_slots[color]):
            return
    colors = sorted(by_color)
    per_color_perms = []
    for color in colors:
        ports = by_color[color]
        per_color_perms.append(list(itertools.permutations(ports)))
    for chosen in itertools.product(*per_color_perms):
        work[0] += 1
        if work[0] > work_cap:
            raise ResourceCapExceeded("leg assignment exceeded %d steps" % work_cap)
        legs = {}
        for color, ports in zip(colors, chosen):
            for label, port in zip(label_slots[color], ports):
                legs[port] = label
        yield legs


def free_component_dim(signature, out_profile, in_profile, max_vertices, work_cap=2_000_000):
    """Dimension of the free component = number of graphs (free generating orbits)."""
    return len(enumerate_graphs(signature, out_profile, in_profile, max_vertices, work_cap))
