"""Typed expression language for free PROP elements, and quasi-free presentations.

Grammar (ASCII):

    expr     := vterm ('*' vterm)*            horizontal composition, lowest
    vterm    := action ('o' action)*          vertical composition
    action   := '[' INT+ ']' '.' action       left permutation action
              | atom ('.' '[' INT+ ']')*      right permutation action
    atom     := IDENT | '(' expr ')'

Identifiers are generator names ([A-Za-z_][A-Za-z0-9_]*, except the keyword
`o`).  Permutations are one-line bracket notation.  Every node is profile
annotated at parse time; mismatches raise TypeMismatch naming both profiles.

Expressions with equal canonical graphs are equal in the free PROP up to the
Koszul sign of reordering their generator occurrences; GraphPolynomial tracks
exactly that sign, which is what makes d^2 = 0 checks on graded presentations
exact.
"""

from __future__ import annotations

import re

from propcalc.graphs import (
    PropGraph,
    Signature,
    canonical_graph,
    koszul_reorder_sign,
)
from propcalc.linalg import exact
from propcalc.profiles import Permutation, Profile, apply_permutation, concat


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class TypeMismatch(ValueError):
    pass


# -- AST ---------------------------------------------------------------------


class Expression:
    __slots__ = ("out_profile", "in_profile", "degree")

    def generators(self):
        """Generator occurrences, left to right."""
        raise NotImplementedError

    def to_graph(self) -> PropGraph:
        raise NotImplementedError


class GenExpr(Expression):
    __slots__ = ("signature", "name")

    def __init__(self, signature: Signature, name: str):
        g = signature[name]
        self.signature = signature
        self.name = name
        self.out_profile = g.out_profile
        self.in_profile = g.in_profile
        self.degree = g.degree

    def generators(self):
        yield self.name

    def to_graph(self):
        return PropGraph.from_generator(self.signature, self.name)

    def __str__(self):
        return self.name


class VCompExpr(Expression):
    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression):
        if left.in_profile != right.out_profile:
            raise TypeMismatch(
                "vertical composition needs matching profiles: %s <- ... vs ... <- %s"
                % (_pstr(left.in_profile), _pstr(right.out_profile))
            )
        self.left = left
        self.right = right
        self.out_profile = left.out_profile
        self.in_profile = right.in_profile
        self.degree = left.degree + right.degree

    def generators(self):
        yield from self.left.generators()
        yield from self.right.generators()

    def to_graph(self):
        return self.left.to_graph().vertical(self.right.to_graph())

    def __str__(self):
        return "(%s o %s)" % (self.left, self.right)


class HCompExpr(Expression):
    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right
        self.out_profile = concat(left.out_profile, right.out_profile)
        self.in_profile = concat(left.in_profile, right.in_profile)
        self.degree = left.degree + right.degree

    def generators(self):
        yield from self.left.generators()
        yield from self.right.generators()

    def to_graph(self):
        return self.left.to_graph().horizontal(self.right.to_graph())

    def __str__(self):
        return "(%s * %s)" % (self.left, self.right)


class LeftActExpr(Expression):
    __slots__ = ("perm", "body")

    def __init__(self, perm: Permutation, body: Expression):
        if perm.n != len(body.out_profile):
            raise TypeMismatch(
                "left action size %d does not match output profile %s"
                % (perm.n, _pstr(body.out_profile))
            )
        self.perm = perm
        self.body = body
        self.out_profile = apply_permutation(perm, body.out_profile, "left")
        self.in_profile = body.in_profile
        self.degree = body.degree

    def generators(self):
        yield from self.body.generators()

    def to_graph(self):
        return self.body.to_graph().act_left(self.perm)

    def __str__(self):
        return "([%s] . %s)" % (" ".join(map(str, self.perm.images)), self.body)


class RightActExpr(Expression):
    __slots__ = ("perm", "body")

    def __init__(self, body: Expression, perm: Permutation):
        if perm.n != len(body.in_profile):
            raise TypeMismatch(
                "right action size %d does not match input profile %s"
                % (perm.n, _pstr(body.in_profile))
            )
        self.perm = perm
        self.body = body
        self.out_profile = body.out_profile
        self.in_profile = apply_permutation(perm, body.in_profile, "right")
        self.degree = body.degree

    def generators(self):
        yield from self.body.generators()

    def to_graph(self):
        return self.body.to_graph().act_right(self.perm)

    def __str__(self):
        return "(%s . [%s])" % (self.body, " ".join(map(str, self.perm.images)))


def _pstr(p: Profile):
    return "(" + ",".join(str(c) for c in p.entries) + ")"


# -- parser -------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<sym>[()\[\].*])|(?P<bad>\S))")


def _tokenize(text):
    """(kind, value, position) per token, then ("eof", None, len(text)); a
    token's position is that of the whitespace before it."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "bad":
            raise ParseError("unexpected character %r" % value, m.start(kind))
        if kind == "int":
            value = int(value)
        elif kind == "sym" or value == "o":  # a symbol and the composition o are their own kinds
            kind = value
        out.append((kind, value, m.start()))
    out.append(("eof", None, len(text)))
    return out


class _Parser:
    def __init__(self, text, signature):
        self.tokens = _tokenize(text)
        self.signature = signature
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %s, found %r" % (kind, tok[1]), tok[2])
        self.i += 1
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError("trailing input %r" % (tok[1],), tok[2])
        return e

    def expr(self):
        e = self.vterm()
        while self.peek()[0] == "*":
            self.take("*")
            e = HCompExpr(e, self.vterm())
        return e

    def vterm(self):
        e = self.action()
        while self.peek()[0] == "o":
            self.take("o")
            e = VCompExpr(e, self.action())
        return e

    def action(self):
        if self.peek()[0] == "[":
            perm = self.bracket_perm()
            self.take(".")
            return LeftActExpr(perm, self.action())
        e = self.atom()
        while self.peek()[0] == ".":
            self.take(".")
            perm = self.bracket_perm()
            e = RightActExpr(e, perm)
        return e

    def bracket_perm(self):
        self.take("[")
        nums = []
        while self.peek()[0] == "int":
            nums.append(self.take("int")[1])
        tok = self.take("]")
        try:
            return Permutation(nums)
        except ValueError as exc:
            raise ParseError(str(exc), tok[2])

    def atom(self):
        tok = self.peek()
        if tok[0] == "(":
            self.take("(")
            e = self.expr()
            self.take(")")
            return e
        if tok[0] == "ident":
            self.take()
            if tok[1] not in self.signature:
                raise ParseError("unknown generator %r" % tok[1], tok[2])
            return GenExpr(self.signature, tok[1])
        raise ParseError("expected a generator, '(' or '['; found %r" % (tok[1],), tok[2])


def parse(text: str, signature: Signature) -> Expression:
    """Parse and profile-annotate an expression over the signature."""
    return _Parser(text, signature).parse()


# -- graph polynomials and expression equality --------------------------------


def expr_to_graph(e: Expression) -> PropGraph:
    return e.to_graph()


def graphs_equal(e1: Expression, e2: Expression) -> bool:
    """Equality in the free PROP: identical canonical graphs."""
    if e1.out_profile != e2.out_profile or e1.in_profile != e2.in_profile:
        raise TypeMismatch(
            "cannot compare expressions of profiles %s<-%s and %s<-%s"
            % (
                _pstr(e1.out_profile),
                _pstr(e1.in_profile),
                _pstr(e2.out_profile),
                _pstr(e2.in_profile),
            )
        )
    return canonical_graph(expr_to_graph(e1)) == canonical_graph(expr_to_graph(e2))


def kappa(e: Expression):
    """Koszul sign from the expression's generator order to the canonical vertex order."""
    g = expr_to_graph(e)
    _, order = g.canonical()
    return koszul_reorder_sign(g.vertex_degrees(), order)


class GraphPolynomial:
    """Q-linear combination of canonical graphs.

    Each expression contributes coeff * kappa(e) to the bucket of its
    canonical certificate, where kappa is the Koszul sign of reordering the
    expression's generator occurrences into canonical vertex order.  That sign
    is what identifies expressions that differ by interchange moves past odd
    generators.
    """

    def __init__(self):
        self.terms = {}

    def add_expression(self, coeff, e: Expression):
        g = expr_to_graph(e)
        cert, order = g.canonical()
        kappa = koszul_reorder_sign(g.vertex_degrees(), order)
        c = exact(coeff) * kappa
        cur = self.terms.get(cert, 0) + c
        if cur:
            self.terms[cert] = cur
        else:
            self.terms.pop(cert, None)
        return self

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, GraphPolynomial) and self.terms == other.terms


# -- presentations -------------------------------------------------------------


class PresentationError(ValueError):
    pass


class PropPresentation:
    """Signature with a quasi-free differential and optional strict relations.

    differential: dict generator name -> list of (exact scalar, Expression), all
    with the generator's profiles and degree one less.  relations: list of
    (Expression, Expression) pairs of equal profiles.
    """

    def __init__(self, signature: Signature, differential=None, relations=None):
        self.signature = signature
        self.differential = {
            name: [(exact(c), e) for c, e in terms]
            for name, terms in (differential or {}).items()
        }
        self.relations = list(relations or [])

    def delta(self, name):
        return self.differential.get(name, [])

    def generators_by_degree(self):
        """Generator names sorted by (degree, name); the transfer solve order."""
        return sorted(self.signature.generators, key=lambda n: (self.signature[n].degree, n))


def differentiate_expression(e: Expression, presentation: PropPresentation):
    """Leibniz expansion: substitute the presentation differential one occurrence at a time.

    d(a o b) = da o b + (-1)^{|a|} a o db, and likewise for (x); actions
    commute with d.  Returns a list of (coeff, Expression).
    """
    out = []
    if isinstance(e, GenExpr):
        for c, term in presentation.delta(e.name):
            out.append((c, term))
        return out
    if isinstance(e, (VCompExpr, HCompExpr)):
        ctor = VCompExpr if isinstance(e, VCompExpr) else HCompExpr
        for c, dl in differentiate_expression(e.left, presentation):
            out.append((c, ctor(dl, e.right)))
        sign = -1 if e.left.degree % 2 else 1
        for c, dr in differentiate_expression(e.right, presentation):
            out.append((sign * c, ctor(e.left, dr)))
        return out
    if isinstance(e, LeftActExpr):
        for c, db in differentiate_expression(e.body, presentation):
            out.append((c, LeftActExpr(e.perm, db)))
        return out
    if isinstance(e, RightActExpr):
        for c, db in differentiate_expression(e.body, presentation):
            out.append((c, RightActExpr(db, e.perm)))
        return out
    raise TypeError("unknown expression node %r" % (e,))


def validate_presentation(p: PropPresentation):
    """Report on the quasi-free contract: shapes, triangularity, d^2 = 0, relations.

    Returns a list of failure strings; empty means valid.
    """
    failures = []
    sig = p.signature
    for name, terms in p.differential.items():
        if name not in sig:
            failures.append("differential assigned to unknown generator %r" % name)
            continue
        g = sig[name]
        for c, e in terms:
            if e.out_profile != g.out_profile or e.in_profile != g.in_profile:
                failures.append(
                    "d(%s): term %s has profiles %s<-%s, generator has %s<-%s"
                    % (
                        name,
                        e,
                        _pstr(e.out_profile),
                        _pstr(e.in_profile),
                        _pstr(g.out_profile),
                        _pstr(g.in_profile),
                    )
                )
            if e.degree != g.degree - 1:
                failures.append(
                    "d(%s): term %s has degree %d, expected %d" % (name, e, e.degree, g.degree - 1)
                )
            for used in e.generators():
                if sig[used].degree >= g.degree:
                    failures.append(
                        "d(%s): mentions %s of degree %d >= %d (triangularity)"
                        % (name, used, sig[used].degree, g.degree)
                    )
    # d^2 = 0 on every generator, as canonical graph combinations
    if not any(f.startswith("d(") for f in failures):
        for name in sorted(p.differential):
            poly = GraphPolynomial()
            for c, e in p.delta(name):
                for c2, e2 in differentiate_expression(e, p):
                    poly.add_expression(c * c2, e2)
            if not poly.is_zero():
                failures.append("d^2(%s) != 0" % name)
    for i, (lhs, rhs) in enumerate(p.relations):
        if lhs.out_profile != rhs.out_profile or lhs.in_profile != rhs.in_profile:
            failures.append(
                "relation %d: profile mismatch %s<-%s vs %s<-%s"
                % (
                    i,
                    _pstr(lhs.out_profile),
                    _pstr(lhs.in_profile),
                    _pstr(rhs.out_profile),
                    _pstr(rhs.in_profile),
                )
            )
        if lhs.degree != rhs.degree:
            failures.append("relation %d: degree mismatch %d vs %d" % (i, lhs.degree, rhs.degree))
    return failures
