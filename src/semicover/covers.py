"""The cover engine: normalize a two-piece cover, split its maximal
subgroup along a conjugator, refine, and descend to a pair whose B-side
maximal subgroup is (ball-locally) normal, yielding a left-order witness.

All ball-local verdicts carry the radius they were checked at; the engine
never silently promotes a ball verdict to a global claim.
"""

from __future__ import annotations

from typing import Optional

from .cones import (
    ConeSet,
    CoverPair,
    Verdict,
    ProductScan,
    ball_members,
    complement,
    decide_once,
    explicit,
    identity_cone,
    intersection,
    inverse_members,
    is_cover_pair,
    joint_homs,
    normality_verdict,
    scan_domain,
    symmetric_part,
    union,
)
from .errors import (
    ClosureViolation,
    DepthExceeded,
    IdentityOnlyH,
    LemmaViolation,
    NotACover,
    NothingToRefine,
)
from .groups import GroupModel, format_element
from .orders import LeftOrderWitness, validate_witness, witness_ok

B_SIDE = "B_side"
A_SIDE = "A_side"


# ---------------------------------------------------------------------------
# Intersection classification (orientation of the shared part)
# ---------------------------------------------------------------------------

class IntersectionSplit:
    """I = A n B on the domain, in BFS order: `i_members` all of it, `i_a`
    and `i_b` the parts whose inverses land in one side only.  On a class
    domain each holds one element per image class; the first element of
    each is the ball's."""

    def __init__(self, side: str, i_a: list, i_b: list, i_members: list):
        self.side = side            # which side is guaranteed to absorb <I>
        self.i_a = i_a              # x in I with x^-1 in A only
        self.i_b = i_b              # x in I with x^-1 in B only
        self.i_members = i_members


def classify_intersection(model: GroupModel, a: ConeSet, b: ConeSet,
                          radius: int) -> IntersectionSplit:
    """Split I = A n B by where inverses land.  For a genuine cover one of
    the two parts is empty; both nonempty is reported as a LemmaViolation
    with the concrete non-closure evidence it implies."""
    domain = scan_domain(model, radius, a, b)
    elements = domain.elements
    shared = ball_members(a, domain) & ball_members(b, domain)
    inv_a, inv_b = inverse_members(a, domain), inverse_members(b, domain)
    i_a = [elements[i] for i in sorted(shared & inv_a - inv_b)]
    i_b = [elements[i] for i in sorted(shared & inv_b - inv_a)]
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


def check_coset_saturation(model: GroupModel, cover: CoverPair, radius: int) -> Verdict:
    """For h in H and x in A - {1}: hx and xh stay in A - {1}; likewise
    B - H is stable under multiplication by H on both sides.  The compiled
    forms of A - {1} and B - H are read by one `ProductScan` each: when
    both are clean over H - {1} the cover is saturated on the ball, and
    otherwise each h's first escaping x is found element by element, h
    running over the members of the H node other than 1."""
    domain = scan_domain(model, radius, cover.a, cover.b)
    h_cone = symmetric_part(model, cover.b)
    sides = ((intersection(cover.a, complement(identity_cone(model))), "A - {1}"),
             (intersection(cover.b, complement(h_cone)), "B - H"))
    homs = joint_homs(*(side for side, _ in sides))
    scans = [(ProductScan(model, domain, homs, side, side), name) for side, name in sides]
    if all(scan.clean(h_cone) for scan, _ in scans):
        return Verdict.of(None, domain)
    scans = [(scan.by_element(), name) for scan, name in scans]
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


def check_inverse_duality(model: GroupModel, cover: CoverPair, radius: int) -> Verdict:
    """(A - {1})^-1 = B - H, both inclusions checked on the domain, from the
    sides' member sets and inverse member sets (`inverse_members`): x is in
    B - H exactly when x is in B and x^-1 is not, as H = B n B^-1, and
    x^-1 is in A - {1} exactly when x is an inverse member of A other than
    the identity.  Decided once per domain (`decide_once`)."""
    a, b = cover.a, cover.b
    domain = scan_domain(model, radius, a, b)

    def decide() -> Verdict:
        a_star, mem_b = ball_members(a, domain) - {0}, ball_members(b, domain)
        inv_a, inv_b = inverse_members(a, domain), inverse_members(b, domain)
        bad = min((a_star & mem_b) | (a_star - inv_b), default=None)
        if bad is not None:
            return Verdict.first_failure(domain, bad, _A_INVERSE)
        # B - B^-1 never holds the identity, so x^-1 = 1 needs no check
        return Verdict.first_failure(domain, min(mem_b - inv_b - inv_a, default=None),
                                     _BH_INVERSE)
    return decide_once(domain, ("inverse_duality",), (a, b), decide)


# ---------------------------------------------------------------------------
# Cover normalization
# ---------------------------------------------------------------------------

def reduce_cover(model: GroupModel, a: ConeSet, b: ConeSet, radius: int) -> CoverPair:
    """Normalize a verified cover: orient the shared part into B, strip it
    from A (keeping the identity), and, in the degenerate branch where the
    maximal subgroup of B is exactly the nontrivial shared part, swap the
    roles of the two sides first.

    The output flags include trivial intersection and inverse duality.
    """
    base = is_cover_pair(model, a, b, radius, check_intersection=False)
    if not base.core_ok():
        bad = sorted(k for k, v in base.flags.items() if not v.ok)
        raise NotACover(f"input pair fails {', '.join(bad)}", flags=base.flags)

    # the construction assumes the identity sits in both sides
    one_cone = identity_cone(model)
    a = union(a, one_cone)
    b = union(b, one_cone)

    split = classify_intersection(model, a, b, radius)
    if split.side == A_SIDE:
        a, b = b, a

    domain = scan_domain(model, radius, a, b)
    mem_b = ball_members(b, domain)
    i_ball = ball_members(a, domain) & mem_b
    h_ball = mem_b & inverse_members(b, domain)
    nontrivial_i = len(i_ball) > 1

    def build(a_side: ConeSet, b_side: ConeSet) -> CoverPair:
        shared = intersection(a_side, b_side)
        a_star = union(intersection(a_side, complement(shared)), one_cone)
        return is_cover_pair(model, a_star, b_side, radius, check_duality=True)

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

def conjugate_split(model: GroupModel, cover: CoverPair, g) -> list:
    """H_A: the members h != 1 of H = B n B^-1, the maximal subgroup of B,
    whose conjugate g^-1 h g lands in A - B, in BFS order.  Ball-local, at
    the cover's radius."""
    domain, b = model.domain(cover.radius), cover.b
    hmem = ball_members(b, domain) & inverse_members(b, domain) - {0}
    if not hmem:
        raise IdentityOnlyH("the maximal subgroup of B is trivial on the ball")
    elements = domain.elements
    conjugates = [(elements[i], model.conj(g, elements[i])) for i in sorted(hmem)]
    return [h for h, c in conjugates if cover.a.member(c) and not cover.b.member(c)]


def refine_pair(model: GroupModel, cover: CoverPair, g, *, verify: bool = True) -> CoverPair:
    """Move the A-landing part of H across: A' = A u H_A and
    B' = (B - H_A) u {1}.  With verify=True the construction is checked on
    the ball of the cover's radius: both sides closed, strict inclusions,
    inverse property, and no nontrivial subgroup inside A'."""
    radius = cover.radius
    h_a = conjugate_split(model, cover, g)
    if not h_a:
        raise NothingToRefine(f"conjugation by {g!r} moves nothing into A")
    ha = union(explicit(model, h_a), identity_cone(model))
    a_new = union(cover.a, ha)
    b_new = union(intersection(cover.b, complement(ha)), identity_cone(model))
    refined = is_cover_pair(model, a_new, b_new, radius)
    if not verify:
        return refined

    domain = model.domain(radius)
    # is_cover_pair has checked both sides' closure on this ball
    for name, v in (("B'", refined.flags["closed_B"]), ("A'", refined.flags["closed_A"])):
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
    nontrivial = a_star - {0}
    missing = nontrivial - inverse_members(b_new, domain)
    paired = nontrivial & inverse_members(a_new, domain)
    if missing or paired:
        # the first failing element; the inverse property wins a tie
        i = min(missing | paired)
        if i in missing:
            raise ClosureViolation("inverse of an A' element is missing from B'",
                                   witness=(domain.elements[i],), check="inverse_property")
        raise ClosureViolation("A' contains a nontrivial symmetric pair",
                               witness=(domain.elements[i],), check="no_subgroup")
    return refined


# ---------------------------------------------------------------------------
# Descent
# ---------------------------------------------------------------------------

class DescentState:
    def __init__(self, current: CoverPair, step: int, history: list, outcome: str,
                 normal: Optional[ConeSet] = None):
        self.current, self.step, self.history = current, step, history
        self.outcome = outcome  # already_normal | normal_found | depth_exceeded
        self.normal = normal

    @property
    def succeeded(self) -> bool:
        return self.outcome in ("already_normal", "normal_found")

    def to_obj(self) -> dict:
        model = self.current.model
        return {
            "outcome": self.outcome,
            "step": self.step,
            "history": [
                {"step": s, "g": format_element(model, g), "witness": format_element(model, h)}
                for s, g, h in self.history
            ],
        }


def minimal_pair_descent(model: GroupModel, cover: CoverPair, max_depth: int) -> DescentState:
    """Iteratively refine the pair until the maximal subgroup of the B side
    is normal on the ball of the cover's radius, or the depth budget runs
    out.  The violating conjugator is always the first one in BFS order,
    so runs are reproducible.  Each refinement shrinks B strictly on that
    ball (`refine_pair` checks it)."""
    current = cover
    history: list = []
    step = 0
    while True:
        n_cone = symmetric_part(model, current.b)
        verdict = normality_verdict(model, n_cone, cover.radius)
        if verdict.ok:
            outcome = "already_normal" if step == 0 else "normal_found"
            return DescentState(current, step, history, outcome, normal=n_cone)
        if step >= max_depth:
            return DescentState(current, step, history, "depth_exceeded")
        g, h = verdict.witness
        current = refine_pair(model, current, g)
        history.append((step + 1, g, h))
        step += 1


def order_witness_from_cover(model: GroupModel, a: ConeSet, b: ConeSet,
                             radius: int, max_depth: int = 8) -> tuple[LeftOrderWitness, dict]:
    """Normalize, descend, and package the resulting pair as a left-order
    witness with kernel N and cone V (the final B side).  Returns the
    witness and its `validate_witness` verdicts, all of which hold."""
    normalized = reduce_cover(model, a, b, radius)
    state = minimal_pair_descent(model, normalized, max_depth)
    if not state.succeeded:
        raise DepthExceeded(f"descent exhausted after {state.step} steps", state=state)
    witness = LeftOrderWitness(model, kernel=state.normal, cone=state.current.b)
    verdicts = validate_witness(witness, radius)
    if not witness_ok(verdicts):
        bad = sorted(k for k, v in verdicts.items() if not v.ok)
        raise NotACover(f"descended witness fails {', '.join(bad)}", flags=verdicts)
    return witness, verdicts
