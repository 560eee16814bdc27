"""Left orders from positive cones and back.

The central object is a LeftOrderWitness: a kernel cone describing a normal
subgroup N together with a cone on the whole group inducing the order on
G/N via x <= y iff x^-1 y lands in the cone.  Quotient orders pull back to
two-piece covers; lexicographic combination and cover merging build new
witnesses out of old ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Optional

from .cones import (
    ConeSet,
    CoverPair,
    Verdict,
    ball_members,
    check_model,
    compile_cone,
    complement,
    cone_to_obj,
    conjugate_escapes,
    ext_equal,
    finite_bits,
    identity_cone,
    intersection,
    inverse_pairs,
    invert_cone,
    is_cover_pair,
    is_subsemigroup,
    pullback,
    scan_domain,
    symmetric_part,
    union,
    Pullback,
    Union as UnionNode,
    Intersection as IntersectionNode,
    Complement as ComplementNode,
    Identity as IdentityNode,
)
from .errors import ModelMismatch, NotACone, NotNormalized, TrivialQuotient
from .groups import DEFAULT_BALL_CAP, GroupModel, Homomorphism, joint_image, zr_identity_hom


# ---------------------------------------------------------------------------
# Pulling cones back through homomorphisms
# ---------------------------------------------------------------------------

def pullback_cone(target_cone: ConeSet, hom: Homomorphism) -> ConeSet:
    """Preimage of a target cone under a homomorphism, as a source cone.

    Supported target nodes: pullbacks (composed through hom), boolean
    operations, and the identity singleton (which becomes the kernel cone).
    Finite targets use the table form and bitset cones.
    """
    src = hom.source
    if hom.table_map is not None:
        # finite quotient: materialize the target cone exactly, then pull
        # the bitset back through the element map
        if hom.target.kind != "finite":
            raise ModelMismatch("table-map homomorphisms require a finite target")
        check_model(hom.target, target_cone)
        hits = {q for q in hom.target.group.elements() if target_cone.member(q)}
        good = {i for i, c in enumerate(hom.table_map) if c in hits}
        return finite_bits(src, good)

    return _pull_back(target_cone, hom)


def _pull_back(node: ConeSet, hom: Homomorphism) -> ConeSet:
    if isinstance(node, Pullback):
        return pullback(hom.compose_into(node.hom), node.region)
    if isinstance(node, UnionNode):
        return union(*[_pull_back(c, hom) for c in node.parts])
    if isinstance(node, IntersectionNode):
        return intersection(*[_pull_back(c, hom) for c in node.parts])
    if isinstance(node, ComplementNode):
        return complement(_pull_back(node.part, hom))
    if isinstance(node, IdentityNode):
        return pullback(hom, "lex_zero")
    raise ModelMismatch(
        f"cannot pull back a {type(node).__name__} node through a homomorphism"
    )


def standard_lex_cone(rank: int) -> ConeSet:
    """The non-negative lex cone on Z^rank."""
    return pullback(zr_identity_hom(rank), "lex_nonneg")


# ---------------------------------------------------------------------------
# Comparators
# ---------------------------------------------------------------------------

@dataclass
class LeftOrderComparator:
    """Total left-invariant comparator induced by a positive cone."""

    model: GroupModel
    cone: ConeSet

    def __post_init__(self):
        check_model(self.model, self.cone)
        form = compile_cone(self.cone)
        self._homs = form.homs
        self._pred = form.reader(form.homs) if form.pure else None
        self._images: dict = {}  # validated element -> joint image

    def le(self, x, y) -> bool:
        if self._pred is not None and x != y:
            # a value-pure cone reads x^-1 y off image(y) - image(x)
            return self._pred(tuple(map(sub, self._image(y), self._image(x))))
        model = self.model
        v = model.mul(model.inv(x), y)
        model.validate(v)
        return self.cone.member(v)

    def _image(self, x) -> tuple:
        try:
            return self._images[x]
        except (KeyError, TypeError):
            self.model.validate(x)  # so x is an int or a tuple of ints
        w = self._images[x] = joint_image(self._homs, x)
        return w

    def lt(self, x, y) -> bool:
        return self.le(x, y) and not self.le(y, x)


def validate_cone_axioms(model: GroupModel, cone: ConeSet, radius: int,
                         cap: int = DEFAULT_BALL_CAP) -> None:
    """Check P u P^-1 covers the ball and P n P^-1 is only the identity.
    Raises NotACone with the first failing element."""
    check_model(model, cone)
    inv_cone = invert_cone(model, cone)
    domain = scan_domain(model, radius, cap, cone)
    mem = ball_members(cone, domain)
    mem_inv = ball_members(inv_cone, domain)
    missing = min(domain.indices - (mem | mem_inv), default=None)
    if missing is not None:
        raise NotACone("cone union its inverse misses an element",
                       witness=(domain.elements[missing],))
    bad = min((mem & mem_inv) - {0}, default=None)
    if bad is not None:
        raise NotACone("cone meets its inverse off the identity",
                       witness=(domain.elements[bad],))


def order_from_cone(model: GroupModel, cone: ConeSet, radius: int,
                    cap: int = DEFAULT_BALL_CAP) -> LeftOrderComparator:
    """Comparator x <= y iff x^-1 y is in the cone, after verifying the
    cone axioms at the working radius."""
    validate_cone_axioms(model, cone, radius, cap)
    return LeftOrderComparator(model, cone)


# ---------------------------------------------------------------------------
# Left-order witnesses
# ---------------------------------------------------------------------------

@dataclass
class LeftOrderWitness:
    """Kernel cone N plus a quotient cone V: xN <= yN iff x^-1 y in V."""

    model: GroupModel
    kernel: ConeSet
    cone: ConeSet

    def comparator(self) -> LeftOrderComparator:
        return LeftOrderComparator(self.model, self.cone)

    def to_obj(self) -> dict:
        return {
            "model": self.model.selector(),
            "kernel": cone_to_obj(self.kernel),
            "cone": cone_to_obj(self.cone),
        }


def validate_witness(witness: LeftOrderWitness, radius: int,
                     cap: int = DEFAULT_BALL_CAP) -> dict:
    """Verdicts for the witness invariants: kernel closure, inverse
    closure, conjugation stability; cone coverage and antisymmetry into
    the kernel."""
    model = witness.model
    check_model(model, witness.kernel)
    check_model(model, witness.cone)
    domain = scan_domain(model, radius, cap, witness.kernel, witness.cone)
    elements = domain.elements
    kern, cone = witness.kernel, witness.cone
    out: dict = {}
    out["kernel_closed"] = is_subsemigroup(model, kern, radius, cap)

    kset = ball_members(kern, domain)
    pairs = inverse_pairs(model, domain, kern, among=kset)
    bad = next((i for i, j in pairs if j not in kset), None)
    out["kernel_inverse_closed"] = Verdict.first_failure(domain, bad)

    if compile_cone(kern).pure:
        # abelian-image leaves cannot distinguish conjugates: exact verdict
        out["kernel_conjugation_stable"] = Verdict("verified", radius_checked=0)
    else:
        escapes = ((g, conjugate_escapes(model, kern, g, domain)) for g in elements)
        conj_bad = next(((g, elements[bad[0]]) for g, bad in escapes if bad), None)
        out["kernel_conjugation_stable"] = Verdict.of(conj_bad, domain)

    inv_cone = invert_cone(model, cone)
    cmem = ball_members(cone, domain)
    imem = ball_members(inv_cone, domain)
    missing = min(domain.indices - (cmem | imem), default=None)
    out["cone_covers"] = Verdict.first_failure(domain, missing)
    stray = min(cmem & imem - kset, default=None)
    out["cone_antisymmetric_mod_kernel"] = Verdict.first_failure(domain, stray)
    return out


def witness_ok(verdicts: dict) -> bool:
    return all(v.ok for v in verdicts.values())


def totality_mod_kernel(witness: LeftOrderWitness, radius: int,
                        cap: int = DEFAULT_BALL_CAP) -> Optional[tuple]:
    """Exactly one of x < y, y < x, x^-1 y in kernel, for all pairs in the
    radius ball.  The condition depends only on v = x^-1 y, and the set of
    such products over ball(radius) pairs is exactly ball(2 * radius): any
    word of length <= 2r splits into two halves of length <= r.

    When both cones are value-pure the condition depends only on the
    image class of v, so ball(2r) is cut down to its class domain
    (`scan_domain`).  Returns None when verified, else a failing product.
    """
    model, cone, kern = witness.model, witness.cone, witness.kernel
    for v in scan_domain(model, 2 * radius, cap, cone, kern).elements:
        le_xy, le_yx = cone.member(v), cone.member(model.inv(v))
        if (le_xy and not le_yx) + (le_yx and not le_xy) + kern.member(v) != 1:
            return (v,)
    return None


# ---------------------------------------------------------------------------
# Quotient orders and pullback covers
# ---------------------------------------------------------------------------

def cone_from_quotient_order(model: GroupModel, quotient_hom: Homomorphism,
                             quotient_cone: ConeSet, radius: int = 6,
                             cap: int = DEFAULT_BALL_CAP) -> LeftOrderWitness:
    """Package the order pulled back from a quotient as a witness with
    kernel = preimage of the target identity."""
    if quotient_hom.source != model:
        raise ModelMismatch("homomorphism source differs from the model")
    target = quotient_hom.target
    validate_cone_axioms(target, quotient_cone, radius, cap)
    kernel = pullback_cone(identity_cone(target), quotient_hom)
    cone = pullback_cone(quotient_cone, quotient_hom)
    return LeftOrderWitness(model, kernel, cone)


def pullback_cover(model: GroupModel, quotient_hom: Homomorphism,
                   quotient_cone: ConeSet | None = None, radius: int = 6,
                   cap: int = DEFAULT_BALL_CAP) -> CoverPair:
    """The two-piece cover induced by a nontrivial quotient order:
    B = preimage of the non-negative region, A = preimage of the strictly
    negative region with the identity adjoined."""
    if quotient_hom.source != model:
        raise ModelMismatch("homomorphism source differs from the model")
    target = quotient_hom.target
    if quotient_cone is None:
        if target.kind != "zr_cross_finite" or target.orders:
            raise ModelMismatch("default cone requires a Z^r target")
        quotient_cone = standard_lex_cone(target.rank)
    validate_cone_axioms(target, quotient_cone, radius, cap)

    # nontriviality: some ball element must map outside cone n cone^-1
    tkernel = intersection(quotient_cone, invert_cone(target, quotient_cone))
    if all(tkernel.member(quotient_hom.apply(x))
           for x in model.domain(radius, cap, [quotient_hom]).elements):
        raise TrivialQuotient("every ball element maps into the trivial part of the order")

    b = pullback_cone(quotient_cone, quotient_hom)
    a = union(complement(b), identity_cone(model))
    return is_cover_pair(model, a, b, radius, cap, check_duality=True)


def cover_from_witness(witness: LeftOrderWitness, radius: int = 6,
                       cap: int = DEFAULT_BALL_CAP) -> CoverPair:
    """The cover determined directly by a witness cone: B is the cone,
    A is its complement plus the identity."""
    model = witness.model
    b = witness.cone
    a = union(complement(b), identity_cone(model))
    return is_cover_pair(model, a, b, radius, cap, check_duality=True)


# ---------------------------------------------------------------------------
# Lexicographic combination and cover merging
# ---------------------------------------------------------------------------

def lex_combine(w1: LeftOrderWitness, w2: LeftOrderWitness) -> LeftOrderWitness:
    """Order by w1 first, breaking ties inside its kernel by w2.  The new
    kernel is the intersection of the two kernels."""
    if w1.model != w2.model:
        raise ModelMismatch("witnesses over different models")
    model = w1.model
    kernel = intersection(w1.kernel, w2.kernel)
    strict1 = intersection(w1.cone, complement(w1.kernel))
    cone = union(strict1, intersection(w1.kernel, w2.cone))
    return LeftOrderWitness(model, kernel, cone)


def _require_normalized(cover: CoverPair, radius: int, cap: int) -> ConeSet:
    """Checks a merge input is normalized; returns its maximal subgroup."""
    model = cover.model
    flags = is_cover_pair(model, cover.a, cover.b, radius, cap)
    if not flags.normalized_ok():
        bad = sorted(k for k, v in flags.flags.items() if not v.ok)
        raise NotNormalized(f"cover fails {', '.join(bad)}")
    n = symmetric_part(model, cover.b)
    if compile_cone(n).pure:
        return n  # conjugation stable by AST shape
    domain = model.domain(radius, cap)
    # conjugators from a small ball (all of a finite group); explicit-set
    # inputs only
    for g in model.domain(min(radius, 2), cap).elements:
        if conjugate_escapes(model, n, g, domain):
            raise NotNormalized(f"maximal subgroup not normal at conjugator {g!r}")
    return n


def merge_covers(c1: CoverPair, c2: CoverPair, radius: int = 6,
                 cap: int = DEFAULT_BALL_CAP) -> CoverPair:
    """Merge two normalized covers: the new B keeps the strictly positive
    part of the first cover and refines its kernel by the second cover."""
    if c1.model != c2.model:
        raise ModelMismatch("covers over different models")
    model = c1.model
    n1 = _require_normalized(c1, radius, cap)
    n2 = _require_normalized(c2, radius, cap)
    b_new = union(intersection(c1.b, complement(n1)), intersection(n1, c2.b))
    a_new = union(complement(b_new), identity_cone(model))
    merged = is_cover_pair(model, a_new, b_new, radius, cap, check_duality=True)

    domain = scan_domain(model, radius, cap, b_new, c1.b, c1.a, a_new)
    stray = min(ball_members(b_new, domain) - ball_members(c1.b, domain), default=None)
    merged.flags["b_shrinks"] = Verdict.first_failure(domain, stray)
    stray = min(ball_members(c1.a, domain) - ball_members(a_new, domain), default=None)
    merged.flags["a_grows"] = Verdict.first_failure(domain, stray)
    diff = ext_equal(model, symmetric_part(model, b_new), intersection(n1, n2), radius, cap)
    merged.flags["merged_kernel"] = Verdict.of(diff, domain)
    return merged
