"""The cover engine: normalize a two-piece cover, split its maximal
subgroup along a conjugator, refine, and descend to a pair whose B-side
maximal subgroup is (ball-locally) normal, yielding a left-order witness.

All ball-local verdicts carry the radius they were checked at; the engine
never silently promotes a ball verdict to a global claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .cones import (
    ConeSet,
    CoverPair,
    Verdict,
    ProductScan,
    ball_members,
    compile_cone,
    complement,
    conjugate_escapes,
    explicit,
    finite_bits,
    identity_cone,
    intersection,
    inverse_pairs,
    is_cover_pair,
    is_subsemigroup,
    joint_homs,
    scan_domain,
    symmetric_part,
    union,
)
from .errors import (
    ClosureViolation,
    CoveringMismatch,
    DepthExceeded,
    IdentityOnlyH,
    LemmaViolation,
    NotACover,
    NothingToRefine,
)
from .covering import subsemigroup_census, two_cover_search
from .groups import DEFAULT_BALL_CAP, FiniteGroup, GroupModel, element_order
from .orders import LeftOrderWitness, validate_witness, witness_ok

B_SIDE = "B_side"
A_SIDE = "A_side"


# ---------------------------------------------------------------------------
# Intersection classification (orientation of the shared part)
# ---------------------------------------------------------------------------

@dataclass
class IntersectionSplit:
    """I = A n B on the domain.  On value-pure sides `i_a` and `i_b` hold
    one element per image class (`inverse_pairs`), and on a class domain
    so does `i_members`; the first element of each is the ball's."""

    side: str                 # which side is guaranteed to absorb <I>
    i_a: list                 # x in I with x^-1 in A only
    i_b: list                 # x in I with x^-1 in B only
    i_members: list


def classify_intersection(model: GroupModel, a: ConeSet, b: ConeSet,
                          radius: int, cap: int = DEFAULT_BALL_CAP) -> IntersectionSplit:
    """Split I = A n B by where inverses land.  For a genuine cover one of
    the two parts is empty; both nonempty is reported as a LemmaViolation
    with the concrete non-closure evidence it implies."""
    domain = scan_domain(model, radius, cap, a, b)
    elements = domain.elements
    mem_a, mem_b = ball_members(a, domain), ball_members(b, domain)
    shared = mem_a & mem_b
    i_a, i_b = [], []
    for i, j in inverse_pairs(model, domain, a, b, among=shared):
        in_a, in_b = j in mem_a, j in mem_b
        if in_a != in_b:
            (i_a if in_a else i_b).append(elements[i])
    if i_a and i_b:
        x, y = i_a[0], i_b[0]
        z = model.mul(model.inv(x), model.inv(y))
        # whichever side holds z, multiplying back escapes that side
        if a.member(z):
            evidence = ("A", (x, z), model.mul(x, z))   # x*z = y^-1, not in A
        elif b.member(z):
            evidence = ("B", (z, y), model.mul(z, y))   # z*y = x^-1, not in B
        else:
            evidence = ("cover", (z,), z)               # z escapes both sides
        raise LemmaViolation(
            "both halves of the intersection split are nonempty",
            witness=(x, y), non_closure=evidence,
        )
    side = A_SIDE if i_a else B_SIDE
    return IntersectionSplit(side, i_a, i_b, [elements[i] for i in sorted(shared)])


# ---------------------------------------------------------------------------
# Lemma-conclusion verifiers
# ---------------------------------------------------------------------------

_A_INVERSE = "inverse of an A element is not in B - H"
_BH_INVERSE = "inverse of a B - H element is not in A - {1}"


def check_coset_saturation(model: GroupModel, cover: CoverPair, radius: int,
                           cap: int = DEFAULT_BALL_CAP) -> Verdict:
    """For h in H and x in A - {1}: hx and xh stay in A - {1}; likewise
    B - H is stable under multiplication by H on both sides.  The compiled
    forms of A - {1} and B - H are read by one `ProductScan` each: when
    both are clean over H - {1} the cover is saturated on the ball, and
    otherwise each h's first escaping x is found element by element."""
    domain = scan_domain(model, radius, cap, cover.a, cover.b)
    h_cone = symmetric_part(model, cover.b)
    sides = ((intersection(cover.a, complement(identity_cone(model))), "A - {1}"),
             (intersection(cover.b, complement(h_cone)), "B - H"))
    homs = joint_homs(*(side for side, _ in sides))
    scans = [(ProductScan(model, domain, homs, side, side), name) for side, name in sides]
    if all(scan.clean(h_cone) for scan, _ in scans):
        return Verdict.of(None, domain)
    scans = [(scan.by_element(cap), name) for scan, name in scans]
    domain = scans[0][0].domain
    # 1x = x1 = x, and x is drawn from A - {1} or B - H: h = 1 is skipped
    elements = domain.elements
    for h in sorted(ball_members(h_cone, domain) - {0}):
        for scan, name in scans:
            left, right = scan.first(h, left=True), scan.first(h, left=False)
            x = min((i for i in (left, right) if i is not None), default=None)
            if x is not None:
                hand = "left" if x == left else "right"
                return Verdict.of((elements[h], elements[x]), domain,
                                  f"{hand} product leaves {name}")
    return Verdict.of(None, domain)


def check_inverse_duality(model: GroupModel, cover: CoverPair, radius: int,
                          cap: int = DEFAULT_BALL_CAP) -> Verdict:
    """(A - {1})^-1 = B - H, both inclusions checked on the domain, from the
    sides' member sets.  Each element is paired with the index of its
    inverse, one pair per image class on a value-pure cover
    (`inverse_pairs`), and x is in B - H exactly when x is in B and x^-1
    is not, as H = B n B^-1."""
    domain = scan_domain(model, radius, cap, cover.a, cover.b)
    mem_a = ball_members(cover.a, domain)
    mem_b = ball_members(cover.b, domain)
    a_star = mem_a - {0}
    pairs = inverse_pairs(model, domain, cover.a, cover.b)
    bad = next((i for i, j in pairs if i in a_star and (i in mem_b or j not in mem_b)), None)
    if bad is not None:
        return Verdict.first_failure(domain, bad, _A_INVERSE)
    bad = next((i for i, j in pairs if i in mem_b and j not in mem_b and j not in a_star),
               None)
    return Verdict.first_failure(domain, bad, _BH_INVERSE)


# ---------------------------------------------------------------------------
# Cover normalization
# ---------------------------------------------------------------------------

def reduce_cover(model: GroupModel, a: ConeSet, b: ConeSet, radius: int,
                 cap: int = DEFAULT_BALL_CAP) -> CoverPair:
    """Normalize a verified cover: orient the shared part into B, strip it
    from A (keeping the identity), and, in the degenerate branch where the
    maximal subgroup of B is exactly the nontrivial shared part, swap the
    roles of the two sides first.

    The output flags include trivial intersection and inverse duality.
    """
    base = is_cover_pair(model, a, b, radius, cap, check_intersection=False)
    if not base.core_ok():
        bad = sorted(k for k, v in base.flags.items() if not v.ok)
        raise NotACover(f"input pair fails {', '.join(bad)}", flags=base.flags)

    # the construction assumes the identity sits in both sides
    one_cone = identity_cone(model)
    a = union(a, one_cone)
    b = union(b, one_cone)

    split = classify_intersection(model, a, b, radius, cap)
    if split.side == A_SIDE:
        a, b = b, a

    domain = scan_domain(model, radius, cap, a, b)
    i_ball = ball_members(intersection(a, b), domain)
    h_ball = ball_members(symmetric_part(model, b), domain)
    nontrivial_i = len(i_ball) > 1

    def build(a_side: ConeSet, b_side: ConeSet) -> CoverPair:
        shared = intersection(a_side, b_side)
        a_star = union(intersection(a_side, complement(shared)), one_cone)
        out = is_cover_pair(model, a_star, b_side, radius, cap, check_duality=True)
        return out

    if h_ball == i_ball and nontrivial_i:
        # degenerate branch: H = I, so the mirrored argument applies and
        # the names of the two sides are switched before extraction
        return build(b, a)
    result = build(a, b)
    if h_ball == i_ball and not result.flags["inverse_duality"].ok:
        # trivial shared part with a one-sided failure: the mirrored
        # orientation is the one the duality argument supports
        swapped = build(b, a)
        if swapped.flags["inverse_duality"].ok:
            return swapped
    return result


# ---------------------------------------------------------------------------
# Conjugate split and refinement
# ---------------------------------------------------------------------------

@dataclass
class ConjugateSplit:
    h_a: ConeSet
    h_b: ConeSet
    g: object
    already_normal: bool
    h_a_members: list = field(default_factory=list)


def conjugate_split(model: GroupModel, cover: CoverPair, g,
                    radius: Optional[int] = None,
                    cap: int = DEFAULT_BALL_CAP) -> ConjugateSplit:
    """Split H = symmetric_part(B), the maximal subgroup of B, by where
    conjugation by g sends each element: H_A collects the part landing in
    A, H_B the part landing in B.
    Ball-local: the split sets are explicit element lists."""
    radius = cover.radius if radius is None else radius
    domain = model.domain(radius, cap)
    one = model.identity()
    h_cone = symmetric_part(model, cover.b)
    hmem = [domain.elements[i] for i in sorted(ball_members(h_cone, domain))]
    if all(x == one for x in hmem):
        raise IdentityOnlyH("the maximal subgroup of B is trivial on the ball")
    h_a, h_b = [], []
    stable = True
    for h in hmem:
        if h == one:
            continue
        c = model.conj(g, h)
        if not h_cone.member(c):
            stable = False
        if cover.a.member(c) and not cover.b.member(c):
            h_a.append(h)
        else:
            h_b.append(h)
    if stable and not h_a:
        return ConjugateSplit(identity_cone(model), h_cone, g, already_normal=True)
    if model.kind == "finite":
        ha_cone = finite_bits(model, [one] + h_a) if h_a else identity_cone(model)
        hb_cone = finite_bits(model, [one] + h_b)
    else:
        ha_cone = union(explicit(model, h_a), identity_cone(model)) if h_a \
            else identity_cone(model)
        hb_cone = union(explicit(model, h_b), identity_cone(model)) if h_b \
            else identity_cone(model)
    return ConjugateSplit(ha_cone, hb_cone, g, already_normal=False, h_a_members=h_a)


def refine_pair(model: GroupModel, cover: CoverPair, g,
                radius: Optional[int] = None, cap: int = DEFAULT_BALL_CAP,
                verify: bool = True) -> CoverPair:
    """Move the A-landing part of H across: A' = A u H_A and
    B' = (B - H_A) u {1}.  With verify=True the construction is checked on
    the ball: both sides closed, strict inclusions, inverse property, and
    no nontrivial subgroup inside A'."""
    radius = cover.radius if radius is None else radius
    split = conjugate_split(model, cover, g, radius, cap)
    if split.already_normal or not split.h_a_members:
        raise NothingToRefine(f"conjugation by {g!r} moves nothing into A")
    ha = split.h_a
    a_new = union(cover.a, ha)
    b_new = union(intersection(cover.b, complement(ha)), identity_cone(model))
    refined = is_cover_pair(model, a_new, b_new, radius, cap, check_duality=False)
    if not verify:
        return refined

    domain = model.domain(radius, cap)
    for name, cone in (("B'", b_new), ("A'", a_new)):
        v = is_subsemigroup(model, cone, radius, cap)
        if not v.ok:
            witness = v.witness
            if name == "B'":
                # prefer a pair whose product lands in the moved piece: the
                # exact case the construction's closure argument excludes
                outside = union(complement(ha), identity_cone(model))
                witness = ProductScan(model, domain, joint_homs(outside, b_new), outside,
                                      b_new).first_pair() or witness
            raise ClosureViolation(
                f"{name} is not closed at the working radius",
                witness=witness, check=f"closure_{name}",
            )
    a_old = ball_members(cover.a, domain)
    a_star = ball_members(a_new, domain)
    b_old = ball_members(cover.b, domain)
    b_star = ball_members(b_new, domain)
    if not (a_old < a_star):
        raise ClosureViolation("A does not grow strictly", check="a_strict")
    if not (b_star < b_old):
        raise ClosureViolation("B does not shrink strictly", check="b_strict")
    inverse = domain.inverses(model.inv)
    for i in sorted(a_star - {0}):
        if inverse[i] not in b_star:
            raise ClosureViolation("inverse of an A' element is missing from B'",
                                   witness=(domain.elements[i],), check="inverse_property")
        if inverse[i] in a_star:
            raise ClosureViolation("A' contains a nontrivial symmetric pair",
                                   witness=(domain.elements[i],), check="no_subgroup")
    return refined


# ---------------------------------------------------------------------------
# Descent
# ---------------------------------------------------------------------------

@dataclass
class DescentState:
    current: CoverPair
    step: int
    history: list
    outcome: str                     # already_normal | normal_found | depth_exceeded
    normal: Optional[ConeSet] = None

    @property
    def succeeded(self) -> bool:
        return self.outcome in ("already_normal", "normal_found")

    def to_obj(self, element_fmt) -> dict:
        return {
            "outcome": self.outcome,
            "step": self.step,
            "history": [
                {"step": s, "g": element_fmt(g), "witness": element_fmt(h)}
                for s, g, h in self.history
            ],
        }


def _normality_violation(model: GroupModel, n_cone: ConeSet, radius: int, cap: int):
    """First (g, h) in BFS order with a conjugate of h by g escaping N.
    Cones whose AST proves conjugation stability are exact: no scan."""
    if compile_cone(n_cone).pure:
        return None
    domain = model.domain(radius, cap)
    for g in domain.elements:
        if g == model.identity():
            continue
        bad = conjugate_escapes(model, n_cone, g, domain) + \
            conjugate_escapes(model, n_cone, model.inv(g), domain)
        if bad:
            return g, domain.elements[min(bad)]
    return None


def minimal_pair_descent(model: GroupModel, cover: CoverPair, max_depth: int,
                         radius: Optional[int] = None,
                         cap: int = DEFAULT_BALL_CAP) -> DescentState:
    """Iteratively refine the pair until the maximal subgroup of the B side
    is ball-locally normal, or the depth budget runs out.  The violating
    conjugator is always the first one in BFS order, so runs are
    reproducible."""
    radius = cover.radius if radius is None else radius
    current = cover
    history: list = []
    step = 0
    while True:
        n_cone = symmetric_part(model, current.b)
        violation = _normality_violation(model, n_cone, radius, cap)
        if violation is None:
            outcome = "already_normal" if step == 0 else "normal_found"
            return DescentState(current, step, history, outcome, normal=n_cone)
        if step >= max_depth:
            return DescentState(current, step, history, "depth_exceeded")
        g, h = violation
        domain = model.domain(radius, cap)
        v_before = len(ball_members(current.b, domain))
        current = refine_pair(model, current, g, radius, cap)
        v_after = len(ball_members(current.b, domain))
        if not v_after < v_before:
            raise ClosureViolation("descent did not strictly shrink the B side",
                                   check="descent_monotone")
        history.append((step + 1, g, h))
        step += 1


def order_witness_from_cover(model: GroupModel, a: ConeSet, b: ConeSet,
                             radius: int, max_depth: int = 8,
                             cap: int = DEFAULT_BALL_CAP) -> tuple[LeftOrderWitness, dict]:
    """Normalize, descend, and package the resulting pair as a left-order
    witness with kernel N and cone V (the final B side).  Returns the
    witness and its `validate_witness` verdicts, all of which hold."""
    normalized = reduce_cover(model, a, b, radius, cap)
    state = minimal_pair_descent(model, normalized, max_depth, radius, cap)
    if not state.succeeded:
        raise DepthExceeded(f"descent exhausted after {state.step} steps", state=state)
    witness = LeftOrderWitness(model, kernel=state.normal, cone=state.current.b)
    verdicts = validate_witness(witness, radius, cap)
    if not witness_ok(verdicts):
        bad = sorted(k for k, v in verdicts.items() if not v.ok)
        raise NotACover(f"descended witness fails {', '.join(bad)}", flags=verdicts)
    return witness, verdicts


# ---------------------------------------------------------------------------
# Torsion obstruction
# ---------------------------------------------------------------------------

@dataclass
class TorsionReport:
    group_name: str
    order: int
    traces: list            # (element, order, inverse witness power)
    conclusion: str
    exhaustive: Optional[dict] = None

    def to_obj(self) -> dict:
        obj = {
            "group": self.group_name,
            "order": self.order,
            "generator_traces": [
                {"element": g, "order": n, "inverse_as_power": w}
                for g, n, w in self.traces
            ],
            "conclusion": self.conclusion,
        }
        if self.exhaustive is not None:
            obj["exhaustive_search"] = self.exhaustive
        return obj


def torsion_obstruction(group: FiniteGroup, exhaustive_cap: int = 8) -> TorsionReport:
    """Proof-trace report that a group generated by finite-order elements
    admits no two-piece cover: every generator g of order n satisfies
    g^(n-1) = g^-1, forcing g into the maximal subgroup of B.  Small groups
    additionally get an exhaustive search confirming zero covers."""
    traces = []
    for g in range(1, group.order):
        n, wit = element_order(group, g)
        if wit != group.inv(g):
            raise CoveringMismatch(f"g^(n-1) != g^-1 for g = {g} in {group.name}")
        traces.append((g, n, wit))
    conclusion = (
        "every generator equals a positive power of its inverse, so both lie "
        "in the B side's maximal subgroup; no two proper closed subsets cover "
        "the group"
    )
    exhaustive = None
    if group.order <= exhaustive_cap:
        exhaustive = two_cover_search(group, subsemigroup_census(group, exhaustive_cap))
    return TorsionReport(group.name, group.order, traces, conclusion, exhaustive)
