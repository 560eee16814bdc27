"""Left orders from positive cones and back.

The central object is a LeftOrderWitness: a kernel cone describing a normal
subgroup N together with a cone on the whole group inducing the order on
G/N via x <= y iff x^-1 y lands in the cone.  Quotient orders pull back to
two-piece covers; lexicographic combination and cover merging build new
witnesses out of old ones.
"""

from __future__ import annotations

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
    ext_equal,
    identity_cone,
    intersection,
    inverse_members,
    invert_cone,
    is_cover_pair,
    is_subsemigroup,
    normality_verdict,
    pullback,
    scan_domain,
    symmetric_part,
    union,
)
from .errors import ModelMismatch, NotACone, NotNormalized, TrivialQuotient
from .groups import (
    Domain,
    GroupModel,
    Homomorphism,
    image_ops,
    joint_image,
    zr_identity_hom,
)


# ---------------------------------------------------------------------------
# Pulling cones back through homomorphisms
# ---------------------------------------------------------------------------

def standard_lex_cone(rank: int) -> ConeSet:
    """The non-negative lex cone on Z^rank."""
    return pullback(zr_identity_hom(rank), "lex_nonneg")


# ---------------------------------------------------------------------------
# Comparators
# ---------------------------------------------------------------------------

class LeftOrderComparator:
    """Total left-invariant comparator induced by a positive cone."""

    def __init__(self, model: GroupModel, cone: ConeSet):
        check_model(model, cone)
        self.model, self.cone = model, cone
        form = compile_cone(cone)
        self._homs = form.homs
        self._pred = form.reader(form.homs) if form.pure else None
        self._sub = image_ops(form.homs).sub
        self._images: dict = {}  # validated element -> joint image

    def le(self, x, y) -> bool:
        if self._pred is not None and x != y:
            # a value-pure cone reads x^-1 y off image(y) - image(x)
            return self._pred(self._sub(self._image(y), self._image(x)))
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


def _totality(cone: ConeSet, domain: Domain, kernel: frozenset) -> tuple:
    """The first index of the domain in neither P nor P^-1, and the first
    in both outside `kernel`, an index set of the domain; None where there
    is none."""
    mem, mem_inv = ball_members(cone, domain), inverse_members(cone, domain)
    return (min(domain.indices - (mem | mem_inv), default=None),
            min((mem & mem_inv) - kernel, default=None))


def validate_cone_axioms(model: GroupModel, cone: ConeSet, radius: int) -> None:
    """Check P u P^-1 covers the ball and P n P^-1 is only the identity.
    Raises NotACone with the first failing element."""
    check_model(model, cone)
    domain = scan_domain(model, radius, cone)
    missing, bad = _totality(cone, domain, frozenset({0}))
    if missing is not None:
        raise NotACone("cone union its inverse misses an element",
                       witness=(domain.elements[missing],))
    if bad is not None:
        raise NotACone("cone meets its inverse off the identity",
                       witness=(domain.elements[bad],))


# ---------------------------------------------------------------------------
# Left-order witnesses
# ---------------------------------------------------------------------------

class LeftOrderWitness:
    """Kernel cone N plus a quotient cone V: xN <= yN iff x^-1 y in V."""

    def __init__(self, model: GroupModel, kernel: ConeSet, cone: ConeSet):
        self.model, self.kernel, self.cone = model, kernel, cone

    def comparator(self) -> LeftOrderComparator:
        return LeftOrderComparator(self.model, self.cone)

    def to_obj(self) -> dict:
        return {
            "model": self.model.selector(),
            "kernel": cone_to_obj(self.kernel),
            "cone": cone_to_obj(self.cone),
        }


def validate_witness(witness: LeftOrderWitness, radius: int) -> dict:
    """Verdicts for the witness invariants: kernel closure, inverse
    closure, conjugation stability; cone coverage and antisymmetry into
    the kernel."""
    model = witness.model
    check_model(model, witness.kernel)
    check_model(model, witness.cone)
    domain = scan_domain(model, radius, witness.kernel, witness.cone)
    kern, cone = witness.kernel, witness.cone
    out: dict = {}
    out["kernel_closed"] = is_subsemigroup(model, kern, radius)

    kset = ball_members(kern, domain)
    bad = min(kset - inverse_members(kern, domain), default=None)
    out["kernel_inverse_closed"] = Verdict.first_failure(domain, bad)

    out["kernel_conjugation_stable"] = normality_verdict(model, kern, radius)

    missing, stray = _totality(cone, domain, kset)
    out["cone_covers"] = Verdict.first_failure(domain, missing)
    out["cone_antisymmetric_mod_kernel"] = Verdict.first_failure(domain, stray)
    return out


def witness_ok(verdicts: dict) -> bool:
    return all(v.ok for v in verdicts.values())


def totality_mod_kernel(witness: LeftOrderWitness, radius: int) -> Optional[tuple]:
    """Exactly one of x < y, y < x, x^-1 y in kernel, for all pairs in the
    radius ball.  The condition depends only on v = x^-1 y, and the set of
    such products over ball(radius) pairs is exactly ball(2 * radius): any
    word of length <= 2r splits into two halves of length <= r.

    With P the cone, the three read v in P - P^-1, in P^-1 - P and in the
    kernel, so exactly one holds on P ^ P^-1 ^ kernel.  When both cones are
    value-pure, ball(2r) is cut down to its class domain (`scan_domain`).
    Returns None when verified, else the first failing product.
    """
    cone, kern = witness.cone, witness.kernel
    domain = scan_domain(witness.model, 2 * radius, cone, kern)
    exact = ball_members(cone, domain) ^ inverse_members(cone, domain) ^ ball_members(kern, domain)
    bad = min(domain.indices - exact, default=None)
    return None if bad is None else (domain.elements[bad],)


# ---------------------------------------------------------------------------
# Quotient orders and pullback covers
# ---------------------------------------------------------------------------

def pullback_cover(model: GroupModel, quotient_hom: Homomorphism,
                   quotient_cone: ConeSet | None = None, radius: int = 6) -> CoverPair:
    """The two-piece cover induced by a nontrivial quotient order:
    B = preimage of the non-negative region, A = preimage of the strictly
    negative region with the identity adjoined."""
    if quotient_hom.source != model:
        raise ModelMismatch("homomorphism source differs from the model")
    target = quotient_hom.target
    if quotient_cone is None:
        if not target.is_free_abelian:
            raise ModelMismatch("default cone requires a Z^r target")
        quotient_cone = standard_lex_cone(target.rank)
    validate_cone_axioms(target, quotient_cone, radius)

    # nontriviality: some ball element must map outside cone n cone^-1
    tkernel = intersection(quotient_cone, invert_cone(target, quotient_cone))
    if all(tkernel.member(quotient_hom.apply(x))
           for x in model.domain(radius, homs=[quotient_hom]).elements):
        raise TrivialQuotient("every ball element maps into the trivial part of the order")

    b = quotient_cone.pull_back(quotient_hom)
    a = union(complement(b), identity_cone(model))
    return is_cover_pair(model, a, b, radius, check_duality=True)


def cover_from_witness(witness: LeftOrderWitness, radius: int = 6) -> CoverPair:
    """The cover determined directly by a witness cone: B is the cone,
    A is its complement plus the identity."""
    model = witness.model
    b = witness.cone
    a = union(complement(b), identity_cone(model))
    return is_cover_pair(model, a, b, radius, check_duality=True)


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


def _require_normalized(cover: CoverPair, radius: int) -> ConeSet:
    """Checks a merge input is normalized and its maximal subgroup normal
    on the ball (`normality_verdict`); returns that subgroup."""
    model = cover.model
    flags = is_cover_pair(model, cover.a, cover.b, radius)
    if not flags.normalized_ok():
        bad = sorted(k for k, v in flags.flags.items() if not v.ok)
        raise NotNormalized(f"cover fails {', '.join(bad)}")
    n = symmetric_part(model, cover.b)
    verdict = normality_verdict(model, n, radius)
    if not verdict.ok:
        raise NotNormalized(f"maximal subgroup not normal at conjugator {verdict.witness[0]!r}")
    return n


def merge_covers(c1: CoverPair, c2: CoverPair, radius: int = 6) -> CoverPair:
    """Merge two normalized covers: the new B keeps the strictly positive
    part of the first cover and refines its kernel by the second cover."""
    if c1.model != c2.model:
        raise ModelMismatch("covers over different models")
    model = c1.model
    n1 = _require_normalized(c1, radius)
    n2 = _require_normalized(c2, radius)
    b_new = union(intersection(c1.b, complement(n1)), intersection(n1, c2.b))
    a_new = union(complement(b_new), identity_cone(model))
    merged = is_cover_pair(model, a_new, b_new, radius, check_duality=True)

    domain = scan_domain(model, radius, b_new, c1.b, c1.a, a_new)
    stray = min(ball_members(b_new, domain) - ball_members(c1.b, domain), default=None)
    merged.flags["b_shrinks"] = Verdict.first_failure(domain, stray)
    stray = min(ball_members(c1.a, domain) - ball_members(a_new, domain), default=None)
    merged.flags["a_grows"] = Verdict.first_failure(domain, stray)
    diff = ext_equal(model, symmetric_part(model, b_new), intersection(n1, n2), radius)
    merged.flags["merged_kernel"] = Verdict.of(diff, domain)
    return merged
