"""Algebra structures over quasi-free presentations and the transfer engine.

An algebra is an assignment of generator names to endo elements whose
hom-complex boundaries match the presentation differential (D(lambda g) =
lambda(dg)) and which satisfies the declared relations.  Transfer moves such a
structure through an entrywise acyclic (co)fibration by solving, generator by
generator in increasing degree, the linear system consisting of the
chain-compatibility constraint and the morphism square; triangularity of the
differential is what makes the right-hand sides available when needed.
"""

from __future__ import annotations

from propcalc.chains import LiftProblem, Unsolvable
from propcalc.endo import (
    ColoredFamily,
    EndoElement,
    FamilyMap,
    endo_horizontal,
    endo_permute,
    endo_vertical,
    relative_endo_membership,
)
from propcalc.exprs import (
    Expression,
    GenExpr,
    HCompExpr,
    LeftActExpr,
    PropPresentation,
    RightActExpr,
    VCompExpr,
    validate_presentation,
)
from propcalc.linalg import ONE
from propcalc.profiles import Permutation


class AlgebraError(ValueError):
    pass


class TransferError(RuntimeError):
    """Unsolvable transfer system: names the generator and what to re-examine."""

    def __init__(self, generator, message, certificate=None):
        super().__init__("generator %r: %s" % (generator, message))
        self.generator = generator
        self.certificate = certificate


class AlgebraStructure:
    """presentation + family + assignment (generator name -> EndoElement)."""

    def __init__(self, presentation: PropPresentation, family: ColoredFamily, assignment):
        if presentation.signature.palette != family.palette:
            raise AlgebraError("presentation and family use different palettes")
        self.presentation = presentation
        self.family = family
        self.assignment = dict(assignment)
        for name, gen in presentation.signature.generators.items():
            if name not in self.assignment:
                raise AlgebraError("assignment misses generator %r" % name)
            el = self.assignment[name]
            if (
                el.out_profile.entries != gen.out_profile.entries
                or el.in_profile.entries != gen.in_profile.entries
                or el.degree != gen.degree
            ):
                raise AlgebraError("assignment for %r has the wrong shape" % name)
        extra = self.assignment.keys() - presentation.signature.generators.keys()
        if extra:
            raise AlgebraError("assignment for unknown generator %r" % min(extra))


def evaluate(e: Expression, structure: AlgebraStructure) -> EndoElement:
    """Structural evaluation under a structure: generators through its
    assignment, compositions through the endomorphism operations."""
    return _eval(e, structure.assignment)


def _eval(e, assignment):
    if isinstance(e, GenExpr):
        try:
            return assignment[e.name]
        except KeyError:
            raise AlgebraError("no assignment for generator %r" % e.name)
    if isinstance(e, VCompExpr):
        return endo_vertical(_eval(e.left, assignment), _eval(e.right, assignment))
    if isinstance(e, HCompExpr):
        return endo_horizontal(_eval(e.left, assignment), _eval(e.right, assignment))
    if isinstance(e, LeftActExpr):
        body = _eval(e.body, assignment)
        return endo_permute(e.perm, Permutation.identity(len(body.in_profile)), body)
    if isinstance(e, RightActExpr):
        body = _eval(e.body, assignment)
        return endo_permute(Permutation.identity(len(body.out_profile)), e.perm, body)
    raise TypeError("unknown expression node %r" % (e,))


def evaluate_combination(terms, assignment, zero: EndoElement) -> EndoElement:
    """zero + the sum of coeff * (expr through the assignment) over the
    terms; zero is the zero element of the terms' shape."""
    total = zero
    for coeff, expr in terms:
        total = total.add(_eval(expr, assignment).scale(coeff))
    return total


def check_algebra(structure: AlgebraStructure):
    """Verify D(lambda g) = lambda(dg) for every generator and all relations.

    Returns a report list of (kind, name_or_index, residual); empty = pass.
    """
    report = []
    pres = structure.presentation
    fam = structure.family
    for name in sorted(pres.signature.generators):
        el = structure.assignment[name]
        lhs = el.boundary()
        rhs = evaluate_combination(
            pres.delta(name),
            structure.assignment,
            EndoElement.zero(fam, el.out_profile, el.in_profile, el.degree - 1),
        )
        residual = lhs.sub(rhs)
        if not residual.is_zero():
            report.append(("differential", name, residual))
    for idx, (lhs_e, rhs_e) in enumerate(pres.relations):
        lhs = _eval(lhs_e, structure.assignment)
        rhs = _eval(rhs_e, structure.assignment)
        residual = lhs.sub(rhs)
        if not residual.is_zero():
            report.append(("relation", idx, residual))
    return report


def check_morphism(f: FamilyMap, structure_x: AlgebraStructure, structure_y: AlgebraStructure):
    """f is a morphism of algebras iff every generator's pair of images lies
    in the relative construction E_f (relative_endo_membership).  Returns
    (bool, failures): failures is [(name, residual)] for the first generator
    in sorted order outside E_f, where the check stops, and empty otherwise."""
    if structure_x.presentation is not structure_y.presentation:
        # same presentation content is enough; identity check is the cheap gate
        if structure_x.presentation.signature.generators.keys() != structure_y.presentation.signature.generators.keys():
            raise AlgebraError("morphism check needs a common presentation")
    assignment_x, assignment_y = structure_x.assignment, structure_y.assignment
    for name in sorted(assignment_x):
        ok, residual = relative_endo_membership(f, assignment_x[name], assignment_y[name])
        if not ok:
            return False, [(name, residual)]
    return True, []


# ---------------------------------------------------------------------------
# transfer


def _require_entrywise(f: FamilyMap, flag: str, message: str):
    bad = [color for color, flags in f.classify().items() if not flags[flag]]
    if bad:
        raise AlgebraError(message % (bad,))


def _require_family(family: ColoredFamily, expected: ColoredFamily, message: str):
    """Raise unless the families carry equal complexes at every color."""
    if family.palette != expected.palette or any(
        family.complexes[c] != expected.complexes[c] for c in expected.palette.colors
    ):
        raise AlgebraError(message)


def _require_presentation(structure: AlgebraStructure, presentation: PropPresentation, message: str):
    """Raise unless the structure was made for the presentation's generators:
    the same names, profiles and degrees."""

    def shapes(pres):
        return {
            name: (gen.out_profile, gen.in_profile, gen.degree)
            for name, gen in pres.signature.generators.items()
        }

    if shapes(structure.presentation) != shapes(presentation):
        raise AlgebraError(message)


def _lift(presentation: PropPresentation, family: ColoredFamily, into=(), out_of=()):
    """Solve for a structure on `family`, generator by generator in increasing degree.

    Each generator g gets the D-constraint D(phi) = phi(dg), then one morphism
    square per (f, structure) in `into`, phi o f_c = f_d o lambda(g) with phi on
    f's target, then one per pair in `out_of`, f_d o phi = lambda(g) o f_c with
    phi on f's source.
    """
    assignment = {}
    for name in presentation.generators_by_degree():
        gen = presentation.signature[name]
        k = gen.degree
        src = family.space(gen.in_profile).complex
        tgt = family.space(gen.out_profile).complex
        rhs_d = evaluate_combination(
            presentation.delta(name),
            assignment,
            EndoElement.zero(family, gen.out_profile, gen.in_profile, k - 1),
        ).chain
        sign = -ONE if k % 2 else ONE
        prob = LiftProblem(src, tgt, k)
        for j in src.degrees():
            terms = []
            if tgt.dim(j + k):
                terms.append((ONE, tgt.d(j + k), j, None))
            if src.dim(j - 1):
                terms.append((-sign, None, j - 1, src.d(j)))
            prob.add_equation(terms, rhs_d.block(j), src.dim(j))
        for f, structure in into:
            f_in = f.profile_map(gen.in_profile)
            rhs = f.profile_map(gen.out_profile).compose(structure.assignment[name].chain)
            for j in f_in.source.degrees():
                prob.add_equation([(ONE, None, j, f_in.block(j))], rhs.block(j), f_in.source.dim(j))
        for f, structure in out_of:
            f_out = f.profile_map(gen.out_profile)
            rhs = structure.assignment[name].chain.compose(f.profile_map(gen.in_profile))
            for j in src.degrees():
                prob.add_equation([(ONE, f_out.block(j + k), j, None)], rhs.block(j), src.dim(j))
        try:
            chain = prob.solve()
        except Unsolvable as exc:
            raise TransferError(
                name,
                "lift system inconsistent; re-examine the map classification "
                "(acyclic fibration/cofibration entrywise) and the triangular "
                "quasi-free differential",
                certificate=exc.certificate,
            )
        assignment[name] = EndoElement(family, gen.out_profile, gen.in_profile, chain)
    return AlgebraStructure(presentation, family, assignment)


def transfer(presentation: PropPresentation, f: FamilyMap, direction: str, source: AlgebraStructure):
    """Move an algebra structure through f, per generator in increasing degree.

    direction 'alongAcyclicFibration': f: X -> Y entrywise acyclic fibration,
    `source` lives on Y, the result on X with f a morphism (result, source).
    direction 'alongAcyclicCofibration': f: X -> Y entrywise acyclic
    cofibration, `source` lives on X, the result on Y with f a morphism
    (source, result).

    Returns (structure, report).  Raises TransferError when the solver hits an
    inconsistent system, which signals violated preconditions.
    """
    report = {"direction": direction, "notes": []}
    failures = validate_presentation(presentation)
    if failures:
        raise AlgebraError("presentation invalid: %s" % "; ".join(failures))
    if presentation.relations:
        report["notes"].append(
            "presentation has strict relations: transfer attempted, relation "
            "checks reported, no guarantee applies"
        )
    _require_presentation(source, presentation, "source structure is for another presentation")
    if direction == "alongAcyclicFibration":
        _require_entrywise(
            f, "acyclicFibration", "map is not an entrywise acyclic fibration at colors %r"
        )
        _require_family(source.family, f.target, "source structure must live on the map target")
        result = _lift(presentation, f.source, out_of=[(f, source)])
        morphism_pair = (result, source)
    elif direction == "alongAcyclicCofibration":
        _require_entrywise(
            f, "acyclicCofibration", "map is not an entrywise acyclic cofibration at colors %r"
        )
        _require_family(source.family, f.source, "source structure must live on the map source")
        result = _lift(presentation, f.target, into=[(f, source)])
        morphism_pair = (source, result)
    else:
        raise AlgebraError(
            "direction must be 'alongAcyclicFibration' or 'alongAcyclicCofibration'"
        )

    algebra_report = check_algebra(result)
    ok, _ = check_morphism(f, *morphism_pair)
    report["algebra_failures"] = algebra_report
    report["morphism_ok"] = ok
    differential_failures = [r for r in algebra_report if r[0] == "differential"]
    if differential_failures or not ok:
        raise TransferError(
            differential_failures[0][1] if differential_failures else "<morphism>",
            "post-verification failed after a successful solve; this indicates "
            "an internal inconsistency",
        )
    return result, report


def factor_algebra(
    g: FamilyMap,
    lambda_a: AlgebraStructure,
    lambda_c: AlgebraStructure,
    b_family: ColoredFamily,
    i: FamilyMap,
    p: FamilyMap,
):
    """Equip the middle of a factorization A --i--> B --p--> C with a structure
    making both legs morphisms.

    Preconditions: i entrywise acyclic cofibration, p entrywise fibration,
    p o i = g, one triangular quasi-free presentation on both ends.
    Returns (structure on B, report); the report holds i_morphism_ok and
    p_morphism_ok.
    """
    presentation = lambda_a.presentation
    failures = validate_presentation(presentation)
    if failures:
        raise AlgebraError("presentation invalid: %s" % "; ".join(failures))
    _require_presentation(lambda_c, presentation, "structures A and C must share one presentation")
    _require_entrywise(i, "acyclicCofibration", "i is not an entrywise acyclic cofibration at %r")
    _require_entrywise(p, "fibration", "p is not an entrywise fibration at %r")
    _require_family(lambda_a.family, i.source, "structure A must live on the source of i")
    _require_family(lambda_c.family, p.target, "structure C must live on the target of p")
    for end in (i.target, p.source):
        _require_family(b_family, end, "family B must be the target of i and the source of p")
    _require_family(lambda_a.family, g.source, "structure A must live on the source of g")
    _require_family(lambda_c.family, g.target, "structure C must live on the target of g")
    for c in g.source.palette.colors:
        if p.maps[c].compose(i.maps[c]) != g.maps[c]:
            raise AlgebraError("p o i differs from g at color %r" % (c,))

    result = _lift(presentation, b_family, into=[(i, lambda_a)], out_of=[(p, lambda_c)])
    ok_i, _ = check_morphism(i, lambda_a, result)
    ok_p, _ = check_morphism(p, result, lambda_c)
    if not ok_i or not ok_p or any(r[0] == "differential" for r in check_algebra(result)):
        raise TransferError("<factorization>", "post-verification failed")
    return result, {"i_morphism_ok": ok_i, "p_morphism_ok": ok_p}
