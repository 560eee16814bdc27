"""Cover engine tests: intersection classification, normalization, the
conjugate split/refine machinery, descent, witnesses, and the torsion
obstruction."""

import random

import pytest

from semicover import (
    GroupModel,
    Homomorphism,
    check_coset_saturation,
    check_inverse_duality,
    classify_intersection,
    conjugate_split,
    contains,
    cover_from_witness,
    explicit,
    ext_equal,
    identity_cone,
    is_cover_pair,
    is_subsemigroup,
    intersection,
    complement,
    minimal_pair_descent,
    order_witness_from_cover,
    pullback,
    pullback_cover,
    reduce_cover,
    refine_pair,
    symmetric_part,
    union,
)
from semicover.cones import CoverPair, ball_members, value_profile
from semicover.covers import DescentState
from semicover.errors import (
    ClosureViolation,
    DepthExceeded,
    IdentityOnlyH,
    LemmaViolation,
    NotACover,
    NothingToRefine,
)
from semicover.fixtures import fixture, z_cross_c2_halves
from semicover.groups import DEFAULT_BALL_CAP, parse_model
from semicover.orders import LeftOrderWitness, validate_witness, witness_ok
from semicover.suites import random_pullback_cover
from test_cones import inverse_oracle


def z_model():
    return GroupModel.zr(1)


def z_nonneg(m):
    return pullback(Homomorphism(m, GroupModel.zr(1), images=[(1,)]), "lex_nonneg")


def z_nonpos(m):
    return complement(pullback(Homomorphism(m, GroupModel.zr(1), images=[(1,)]), "lex_pos"))


def overlap_model_and_cones():
    m = GroupModel.zr(1, (2,))
    a, b = z_cross_c2_halves(m)
    return m, a, b


# ---------------------------------------------------------------------------
# classify_intersection
# ---------------------------------------------------------------------------

def test_classify_z_split():
    m = z_model()
    split = classify_intersection(m, z_nonneg(m), z_nonpos(m), 6)
    assert split.side == "B_side"
    assert split.i_a == [] and split.i_b == []
    assert split.i_members == [(0,)]


def test_classify_overlap_cover():
    m, a, b = overlap_model_and_cones()
    split = classify_intersection(m, a, b, 6)
    assert split.side == "B_side"
    assert split.i_a == [] and split.i_b == []
    assert set(split.i_members) == {(0, 0), (0, 1)}


def test_classify_violation_reports_non_closure():
    # A = {n >= 0} u {-3}, B = {n <= 0} u {5}: the split has members on
    # both sides, which no genuine pair of closed sets allows
    m = z_model()
    a = union(z_nonneg(m), explicit(m, [(-3,)]))
    b = union(z_nonpos(m), explicit(m, [(5,)]))
    with pytest.raises(LemmaViolation) as exc:
        classify_intersection(m, a, b, 6)
    assert exc.value.witness == ((-3,), (5,))
    side, pair, product = exc.value.non_closure
    assert side == "B"
    # the evidence pair really multiplies outside its claimed side
    for e in pair:
        assert contains(m, b, e)
    assert not contains(m, b, product)


# ---------------------------------------------------------------------------
# reduce_cover
# ---------------------------------------------------------------------------

def test_reduce_overlap_cover_swap_branch():
    m, a, b = overlap_model_and_cones()
    red = reduce_cover(m, a, b, 8)
    assert all(v.ok for v in red.flags.values())
    # B keeps the non-negative side after the swap; its symmetric part is
    # the two-element torsion subgroup
    assert contains(m, red.b, (3, 0)) and not contains(m, red.b, (-3, 0))
    domain = m.domain(8)
    ball = domain.elements
    sym = symmetric_part(m, red.b)
    assert {ball[i] for i in ball_members(sym, domain)} == {(0, 0), (0, 1)}
    inter = intersection(red.a, red.b)
    assert {ball[i] for i in ball_members(inter, domain)} == {(0, 0)}


@pytest.mark.parametrize("radius", [3, 5])
def test_reduce_a_side_split_swaps_the_sides(radius):
    # A = {x <= 0} and B = {(x, y) >= 0 lex} on Z^2: the inverses of the
    # shared part {x = 0, y > 0} lie in A only, so the split lands on the
    # A side and the sides trade names first
    m = GroupModel.zr(2)
    first = Homomorphism(m, GroupModel.zr(1), images=[(1,), (0,)])
    a = complement(pullback(first, "lex_pos"))
    b = pullback(Homomorphism(m, GroupModel.zr(2), images=[(1, 0), (0, 1)]), "lex_nonneg")
    split = classify_intersection(m, a, b, radius)
    assert split.side == "A_side" and split.i_b == []
    assert split.i_a[:3] == [(0, 1), (0, 2), (0, 3)]
    red = reduce_cover(m, a, b, radius)
    assert len(red.flags) == 7 and all(v.ok for v in red.flags.values())
    mirrored = reduce_cover(m, b, a, radius)
    assert ext_equal(m, red.a, mirrored.a, radius) is None
    assert ext_equal(m, red.b, mirrored.b, radius) is None


def test_reduce_z_split_no_swap():
    m = z_model()
    red = reduce_cover(m, z_nonneg(m), z_nonpos(m), 6)
    assert all(v.ok for v in red.flags.values())
    domain = m.domain(6)
    ball = domain.elements
    a_set = {ball[i] for i in ball_members(red.a, domain)}
    b_set = {ball[i] for i in ball_members(red.b, domain)}
    assert a_set == {(n,) for n in range(0, 7)}      # strict positives plus identity
    assert b_set == {(n,) for n in range(-6, 1)}     # unchanged non-positives


def test_reduce_rejects_non_cover():
    m = z_model()
    with pytest.raises(NotACover):
        reduce_cover(m, identity_cone(m), z_nonneg(m), 5)


def test_reduce_idempotent_on_random_pullback_covers():
    rng = random.Random(5)
    models = [GroupModel.zr(2), GroupModel.heisenberg(), GroupModel.klein_bottle()]
    for i in range(12):
        model = models[i % len(models)]
        cover = random_pullback_cover(model, rng, 4)
        red = reduce_cover(model, cover.a, cover.b, 4)
        assert ext_equal(model, red.a, cover.a, 4) is None
        assert ext_equal(model, red.b, cover.b, 4) is None
        again = reduce_cover(model, red.a, red.b, 4)
        assert ext_equal(model, again.a, red.a, 4) is None
        assert ext_equal(model, again.b, red.b, 4) is None


# ---------------------------------------------------------------------------
# maximal subgroup, saturation, duality
# ---------------------------------------------------------------------------

def test_symmetric_part_is_the_maximal_subgroup():
    # H = symmetric_part(B) holds exactly the elements of B whose inverse
    # is in B, and on a closed B it is a subgroup
    m, _, b = overlap_model_and_cones()
    h = symmetric_part(m, b)
    ball = m.ball(6)
    assert [x for x in ball if h.member(x)] == \
        [x for x in ball if b.member(x) and b.member(m.inv(x))]
    assert is_subsemigroup(m, b, 6).ok and is_subsemigroup(m, h, 6).ok
    assert all(h.member(m.inv(x)) for x in ball if h.member(x))


def _normalized_overlap_cover():
    m, a, b = overlap_model_and_cones()
    return m, reduce_cover(m, a, b, 8)


def test_saturation_on_normalized_overlap_cover():
    m, red = _normalized_overlap_cover()
    assert check_coset_saturation(m, red, 8).ok


def test_saturation_vacuous_when_h_trivial():
    fr = GroupModel.free(2)
    phi = Homomorphism(fr, GroupModel.zr(2), images=[(1, 0), (0, 1)])
    pair = pullback_cover(fr, phi, radius=3)
    # the kernel is the commutator subgroup, whose shortest nontrivial
    # element has length four: radius 3 sees only the identity
    sym = symmetric_part(fr, pair.b)
    domain = fr.domain(3)
    ball = domain.elements
    assert {ball[i] for i in ball_members(sym, domain)} == {()}
    assert check_coset_saturation(fr, pair, 3).ok


def _z2_pullback_cover():
    m = GroupModel.zr(2)
    return m, pullback_cover(m, Homomorphism(m, GroupModel.zr(1), images=[(1,), (0,)]), radius=3)


@pytest.mark.parametrize("check", ["duality", "saturation", "ext_equal"])
def test_ball_local_checks_refuse_radius_zero(check):
    # ball(0) is the identity alone, and radius_checked 0 marks an exact
    # verdict: on an infinite model a ball-local check at radius 0 must not
    # return one.  (B, B) fails duality and A, B differ at radius 3.
    m, pair = _z2_pullback_cover()
    b_b = CoverPair(m, pair.b, pair.b, 3)
    run = {"duality": lambda r: check_inverse_duality(m, b_b, r),
           "saturation": lambda r: check_coset_saturation(m, pair, r),
           "ext_equal": lambda r: ext_equal(m, pair.a, pair.b, r)}[check]
    at_three = run(3)
    if check == "duality":
        assert at_three.status == "counterexample" and at_three.witness == ((1, 0),)
    elif check == "saturation":
        assert at_three.ok and at_three.radius_checked == 3
    else:
        assert at_three is not None
    with pytest.raises(ValueError, match="radius must be >= 1 for infinite models"):
        run(0)


def _fault_injected(model, red, radius):
    """Move the first B - H - {1} element into A."""
    domain = model.domain(radius)
    ball = domain.elements
    h = symmetric_part(model, red.b)
    moved = next(ball[i] for i in sorted(ball_members(red.b, domain))
                 if ball[i] != model.identity() and not h.member(ball[i]))
    bump = explicit(model, [moved])
    bad = CoverPair(model, union(red.a, bump),
                    intersection(red.b, complement(bump)), radius, {})
    return moved, bad


def _duality_by_members(model, cover, radius):
    """check_inverse_duality's (status, witness, note) from member() on
    each element and its inverse, in BFS order."""
    ball = model.domain(radius).elements
    one = model.identity()
    a, b, h = cover.a, cover.b, symmetric_part(model, cover.b)

    def in_b_minus_h(x):
        return b.member(x) and not h.member(x)

    for x in ball:
        if x != one and a.member(x) and not in_b_minus_h(model.inv(x)):
            return "counterexample", (x,), "inverse of an A element is not in B - H"
    for x in ball:
        xi = model.inv(x)
        if in_b_minus_h(x) and not (a.member(xi) and xi != one):
            return "counterexample", (x,), "inverse of a B - H element is not in A - {1}"
    return "verified", None, ""


def _check_inverse_reads(model, a, b, radius):
    # duality and the intersection split against member() on each inverse
    pair = CoverPair(model, a, b, radius)
    v = check_inverse_duality(model, pair, radius)
    assert (v.status, v.witness, v.note) == _duality_by_members(model, pair, radius)
    domain = model.domain(radius)
    inv_a, inv_b = inverse_oracle(a, domain), inverse_oracle(b, domain)
    ball = domain.elements
    shared = [i for i, x in enumerate(ball) if a.member(x) and b.member(x)]
    i_a = [ball[i] for i in shared if i in inv_a and i not in inv_b]
    i_b = [ball[i] for i in shared if i in inv_b and i not in inv_a]
    shared = [ball[i] for i in shared]
    if i_a and i_b:
        with pytest.raises(LemmaViolation) as exc:
            classify_intersection(model, a, b, radius)
        assert exc.value.witness == (i_a[0], i_b[0])
        return
    split = classify_intersection(model, a, b, radius)
    assert (split.side, split.i_a, split.i_b, split.i_members) == \
        ("A_side" if i_a else "B_side", i_a, i_b, shared)


def _cover_verdicts(model, cover, radius):
    """The reports of the value-pure verdicts on a cover and its reduction,
    on a fresh model of the cover's kind."""
    red = reduce_cover(model, cover.a, cover.b, radius)
    witness = LeftOrderWitness(model, symmetric_part(model, red.b), red.b)
    return [is_cover_pair(model, cover.a, cover.b, radius, check_duality=True).to_obj(),
            red.to_obj(),
            check_coset_saturation(model, red, radius).to_obj(model),
            check_inverse_duality(model, red, radius).to_obj(model),
            check_inverse_duality(model, CoverPair(model, red.b, red.a, radius), radius).to_obj(model),
            {k: v.to_obj(model) for k, v in validate_witness(witness, radius).items()}]


def test_class_domain_verdicts_match_the_ball(monkeypatch):
    # on random pullback covers every verdict that reads value-pure cones
    # reports the same on the class domain as on the whole ball
    rng = random.Random("class-domain")
    cases = []
    for selector in ("z^2", "z^1xC2", "heisenberg", "klein_bottle", "free:2") * 3:
        radius = rng.randint(2, 4)
        cases.append((selector, random_pullback_cover(parse_model(selector), rng, radius), radius))
    by_class = [_cover_verdicts(parse_model(sel), cover, r) for sel, cover, r in cases]
    # most of them run on a class domain, and the rest on a ball
    used = [parse_model(sel).domain(r, homs=value_profile(cover.a, cover.b)).hom_keys is not None
            for sel, cover, r in cases]
    ball_domain = GroupModel.domain
    monkeypatch.setattr(GroupModel, "domain", lambda self, radius, cap=DEFAULT_BALL_CAP, homs=None:
                        ball_domain(self, radius, cap))
    assert [_cover_verdicts(parse_model(sel), cover, r) for sel, cover, r in cases] == by_class
    assert 5 <= sum(used) < len(used)


@pytest.mark.parametrize("model, radius", [
    (GroupModel.zr(2), 3), (GroupModel.heisenberg(), 3),
    (GroupModel.klein_bottle(), 4), (GroupModel.free(2), 3),
])
def test_inverse_reads_match_member_on_covers(model, radius):
    # pullback covers, their reductions (and the swapped reduction), and
    # faulty copies with one element moved or copied across by an explicit
    # list, which also puts it in the intersection
    rng = random.Random(f"inverse-{model.selector()}")
    for _ in range(4):
        cover = random_pullback_cover(model, rng, radius)
        red = reduce_cover(model, cover.a, cover.b, radius)
        moved, bad = _fault_injected(model, red, radius)
        domain = model.domain(radius)
        ball = domain.elements
        bump = explicit(model, [moved])
        back = explicit(model, [ball[max(ball_members(red.a, domain))]])
        for a, b in ((cover.a, cover.b), (red.a, red.b), (red.b, red.a), (bad.a, bad.b),
                     (intersection(red.a, complement(back)), union(red.b, back)),
                     (union(red.a, bump), red.b), (red.a, union(red.b, back)),
                     (union(red.a, bump), union(red.b, back)),
                     (identity_cone(model), red.b), (explicit(model, [ball[0]]), red.b),
                     (red.a, union(bad.b, bump))):
            _check_inverse_reads(model, a, b, radius)


@pytest.mark.parametrize("name", ["S3", "D4"])
def test_inverse_reads_match_member_on_finite_pairs(name):
    # arbitrary pairs on finite groups: explicit include and exclude
    # lists, bitsets, and the value-pure identity shapes
    model = fixture(name)
    one = identity_cone(model)
    rng = random.Random(f"inverse-{name}")
    elements = list(range(model.order))
    shapes = [one, complement(one), union(complement(one), one)]
    for _ in range(12):
        shapes.append(explicit(model, rng.sample(elements, rng.randint(0, len(elements))),
                               rng.choice(("include", "exclude"))))
        shapes.append(union(explicit(model, rng.sample(elements, 3)), one))
    for _ in range(40):
        _check_inverse_reads(model, rng.choice(shapes), rng.choice(shapes), 1)


def test_split_lists_every_element_of_a_walked_ball():
    # on free:2 at radius 3 no element but 1 maps to 0 under the
    # abelianization, so the value-pure pair's domain is the whole ball,
    # where ab and ba share an image class: with G and P = {x >= 0 lex}
    # as the sides, i_a (or i_b, swapped) is all of P - P^-1, every member
    # of each class
    model = GroupModel.free(2)
    hom = Homomorphism(model, GroupModel.zr(2), images=[(1, 0), (0, 1)])
    whole = union(complement(identity_cone(model)), identity_cone(model))
    p = pullback(hom, "lex_nonneg")
    assert model.domain(3, homs=value_profile(whole, p)) is model.domain(3)
    for a, b in ((whole, p), (p, whole)):
        _check_inverse_reads(model, a, b, 3)
    split = classify_intersection(model, whole, p, 3)
    assert split.side == "A_side" and len(split.i_a) > len({hom.apply(x) for x in split.i_a})


def test_saturation_catches_moved_element():
    m, red = _normalized_overlap_cover()
    moved, bad = _fault_injected(m, red, 8)
    v = check_coset_saturation(m, bad, 8)
    assert v.status == "counterexample"
    h, x = v.witness
    assert contains(m, symmetric_part(m, bad.b), h)


def test_duality_on_overlap_cover_and_z():
    m, red = _normalized_overlap_cover()
    assert check_inverse_duality(m, red, 8).ok
    z = z_model()
    redz = reduce_cover(z, z_nonneg(z), z_nonpos(z), 6)
    assert check_inverse_duality(z, redz, 6).ok


def test_duality_catches_moved_element():
    m, red = _normalized_overlap_cover()
    moved, bad = _fault_injected(m, red, 8)
    v = check_inverse_duality(m, bad, 8)
    assert v.status == "counterexample"
    assert v.witness == (moved,)


# ---------------------------------------------------------------------------
# conjugate_split / refine_pair (ball-local synthetic instance)
# ---------------------------------------------------------------------------

def klein_synthetic_cover(radius=4, window=12):
    """Klein-bottle pair whose B side has the b-powers as symmetric part.
    Only ball-locally cover-like: no genuine cover has this shape, which is
    exactly what makes it exercise the split/refine mechanics."""
    kb = GroupModel.klein_bottle()
    phi = Homomorphism(kb, GroupModel.zr(1), images=[(0,), (1,)])
    b_powers = explicit(kb, [(k, 0) for k in range(-window, window + 1)])
    b_cone = union(pullback(phi, "lex_pos"), b_powers)
    a_cone = union(complement(b_cone), identity_cone(kb))
    return kb, CoverPair(kb, a_cone, b_cone, radius, {})


def test_conjugate_split_identity_only_h():
    m = z_model()
    phi = Homomorphism(m, GroupModel.zr(1), images=[(1,)])
    pair = pullback_cover(m, phi, radius=6)
    with pytest.raises(IdentityOnlyH):
        conjugate_split(m, pair, (1,))


def test_conjugate_split_abelian_already_normal():
    m, red = _normalized_overlap_cover()
    for g in m.ball(3):
        if g == m.identity():
            continue
        assert conjugate_split(m, red, g) == []


def test_conjugate_split_klein_finds_moved_part():
    kb, cover = klein_synthetic_cover()
    h_a = conjugate_split(kb, cover, (0, 1))  # conjugate by a
    # odd negative b-powers conjugate into the A side
    assert (-1, 0) in h_a
    assert all(k % 2 == 1 and k < 0 for k, n in h_a)
    # H_A is a part of H without the identity, listed in BFS order
    domain = kb.domain(4)
    hmem = ball_members(symmetric_part(kb, cover.b), domain)
    a_part = [domain.index[h] for h in h_a]
    assert a_part == sorted(a_part) and set(a_part) < hmem - {0}


def test_refine_nothing_to_move():
    m, red = _normalized_overlap_cover()
    with pytest.raises(NothingToRefine):
        refine_pair(m, red, (1, 0))


def test_refine_mechanics_on_synthetic_instance():
    kb, cover = klein_synthetic_cover()
    refined = refine_pair(kb, cover, (0, 1), verify=False)
    domain = kb.domain(4)
    a_old = ball_members(cover.a, domain)
    b_old = ball_members(cover.b, domain)
    a_new = ball_members(refined.a, domain)
    b_new = ball_members(refined.b, domain)
    assert a_old < a_new          # A grows strictly
    assert b_new < b_old          # B shrinks strictly
    assert a_new - a_old == b_old - b_new  # exactly the moved piece changes sides


def _refine_inverse_failure(model, cover, g):
    """refine_pair's inverse checks by member() on each element of A' -
    {1} in BFS order and its inverse: (check, witness) or None."""
    refined = refine_pair(model, cover, g, verify=False)
    domain = model.domain(cover.radius)
    inv_a, inv_b = inverse_oracle(refined.a, domain), inverse_oracle(refined.b, domain)
    for i, x in enumerate(domain.elements[1:], 1):
        if refined.a.member(x):
            if i not in inv_b:
                return "inverse_property", (x,)
            if i in inv_a:
                return "no_subgroup", (x,)
    return None


@pytest.mark.parametrize("name", ["S3", "D4", "D5", "A4"])
def test_refine_inverse_checks_match_member(name):
    # seeded pairs on finite groups whose refinement passes the closure and
    # strictness checks: its inverse checks report the first failing
    # element that member() on inverses finds, or pass where it finds none
    model = fixture(name)
    rng = random.Random(f"refine-{name}")
    reached = []
    for _ in range(60):
        b = explicit(model, [0] + rng.sample(range(1, model.order), rng.randint(1, model.order - 1)))
        cover = CoverPair(model, union(complement(b), identity_cone(model)), b, 1, {})
        for g in range(1, model.order):
            try:
                refine_pair(model, cover, g)
                got = None
            except ClosureViolation as exc:
                if exc.check not in ("inverse_property", "no_subgroup"):
                    continue
                got = exc.check, exc.witness
            except (IdentityOnlyH, NothingToRefine):
                continue
            assert got == _refine_inverse_failure(model, cover, g), (b, g)
            reached.append(got)
    assert any(reached)


def test_cover_flags_are_keyword_only():
    # a fifth positional argument, such as a ball cap, is refused rather
    # than read as a flag
    kb, cover = klein_synthetic_cover()
    with pytest.raises(TypeError):
        is_cover_pair(kb, cover.a, cover.b, 4, DEFAULT_BALL_CAP)
    with pytest.raises(TypeError):
        refine_pair(kb, cover, (0, 1), DEFAULT_BALL_CAP)


def test_refine_rejects_non_genuine_cover_with_ha_witness():
    # the synthetic pair cannot be a genuine cover; the closure argument's
    # excluded case (a B' pair multiplying into the moved piece) is reported
    kb, cover = klein_synthetic_cover()
    with pytest.raises(ClosureViolation) as exc:
        refine_pair(kb, cover, (0, 1))
    b1, b2 = exc.value.witness
    product = kb.mul(b1, b2)
    assert product in conjugate_split(kb, cover, (0, 1))


def test_conjugate_split_finite_non_normal_subgroup():
    # D4 with B = a non-normal reflection subgroup: conjugation by the
    # rotation moves the reflection out of H, into the A side
    d4 = fixture("D4")
    refl = next(i for i in range(1, 8)
                if d4.mul(i, i) == 0 and not _is_central(d4, i))
    b = explicit(d4, [0, refl])
    a = union(complement(b), identity_cone(d4))
    cover = CoverPair(d4, a, b, 1, {})
    rot = next(i for i in range(1, 8) if d4.mul(
        d4.mul(d4.inv(i), refl), i) not in (0, refl))
    assert conjugate_split(d4, cover, rot) == [refl]


def _is_central(group, x):
    return all(group.mul(x, g) == group.mul(g, x) for g in range(group.order))


def test_no_finite_cover_pair_exists_for_s3():
    # cross-check at the cone level: every pair of proper closed subsets of
    # S3 fails covering (or properness)
    from semicover.covering import _mask_members, subsemigroup_census

    model = fixture("S3")
    census = subsemigroup_census(model)
    full = (1 << 6) - 1
    proper = [m for m in census.closed_subsets if m != full]
    for m1 in proper:
        for m2 in proper:
            pair = is_cover_pair(model, explicit(model, _mask_members(m1)),
                                 explicit(model, _mask_members(m2)), 1)
            assert not (pair.flags["covers"].ok and pair.flags["proper_A"].ok
                        and pair.flags["proper_B"].ok), (m1, m2)


def test_reduce_retries_orientation_when_duality_fails():
    # a genuine cover with trivial shared part whose first orientation has
    # the symmetric pairs on the A side: the mirrored extraction is the one
    # whose duality verdict holds
    m = GroupModel.zr(1, (2,))
    phi = Homomorphism(m, GroupModel.zr(1), images=[(1,), (0,)])
    a = complement(pullback(phi, "lex_pos"))                   # nonpos x C2
    b = union(pullback(phi, "lex_pos"), identity_cone(m))      # strict pos + 1
    pair = is_cover_pair(m, a, b, 6)
    assert pair.normalized_ok()          # already trivially intersecting
    red = reduce_cover(m, a, b, 6)
    assert all(v.ok for v in red.flags.values())
    # the B side ends up carrying the nontrivial symmetric part
    domain = m.domain(6)
    ball = domain.elements
    sym = symmetric_part(m, red.b)
    assert {ball[i] for i in ball_members(sym, domain)} == {(0, 0), (0, 1)}


# ---------------------------------------------------------------------------
# minimal_pair_descent
# ---------------------------------------------------------------------------

def test_descent_abelian_step_zero():
    m, red = _normalized_overlap_cover()
    state = minimal_pair_descent(m, red, max_depth=8)
    assert state.succeeded and state.outcome == "already_normal"
    assert state.step == 0 and state.history == []
    domain = m.domain(8)
    ball = domain.elements
    assert {ball[i] for i in ball_members(state.normal, domain)} == {(0, 0), (0, 1)}


def test_descent_klein_pullback_step_zero():
    kb = GroupModel.klein_bottle()
    phi = Homomorphism(kb, GroupModel.zr(1), images=[(0,), (1,)])
    pair = pullback_cover(kb, phi, radius=6)
    state = minimal_pair_descent(kb, pair, max_depth=8)
    assert state.succeeded and state.step == 0
    # conjugation stability holds exactly here: b a b^-1 = a^-1 stays in <a>
    for x in kb.ball(6):
        assert contains(kb, state.normal, x) == (x[0] == 0)


def test_descent_depth_exceeded_on_synthetic():
    kb, cover = klein_synthetic_cover()
    state = minimal_pair_descent(kb, cover, max_depth=0)
    assert state.outcome == "depth_exceeded"
    assert not state.succeeded


# ---------------------------------------------------------------------------
# order_witness_from_cover
# ---------------------------------------------------------------------------

def test_witness_z_cross_c2_cover():
    m, a, b = overlap_model_and_cones()
    w, verdicts = order_witness_from_cover(m, a, b, 8)
    assert verdicts == validate_witness(w, 8) and witness_ok(verdicts)
    domain = m.domain(8)
    ball = domain.elements
    assert {ball[i] for i in ball_members(w.kernel, domain)} == {(0, 0), (0, 1)}
    cmp_ = w.comparator()
    assert cmp_.le((0, 0), (1, 0)) and not cmp_.le((1, 0), (0, 0))
    assert cmp_.le((0, 1), (0, 0)) and cmp_.le((0, 0), (0, 1))  # kernel ties


def test_witness_z_split():
    m = z_model()
    w, _ = order_witness_from_cover(m, z_nonneg(m), z_nonpos(m), 6)
    for x in m.ball(6):
        assert contains(m, w.kernel, x) == (x == (0,))
    # V is the B side kept by normalization (the non-positives here), so
    # the induced total order runs opposite to the integer order
    cmp_ = w.comparator()
    assert cmp_.le((2,), (-3,)) and not cmp_.le((-3,), (2,))
    for x in m.ball(5):
        for y in m.ball(5):
            assert cmp_.le(x, y) or cmp_.le(y, x)


def test_witness_heisenberg_kernel_is_center():
    hs = GroupModel.heisenberg()
    phi = Homomorphism(hs, GroupModel.zr(2), images=[(1, 0), (0, 1)])
    pair = pullback_cover(hs, phi, radius=5)
    w, _ = order_witness_from_cover(hs, pair.a, pair.b, 5)
    for x in hs.ball(5):
        assert contains(hs, w.kernel, x) == (x[0] == 0 and x[1] == 0)
    back = cover_from_witness(w, 5)
    assert ext_equal(hs, back.a, pair.a, 5) is None
    assert ext_equal(hs, back.b, pair.b, 5) is None
    again, _ = order_witness_from_cover(hs, back.a, back.b, 5)
    assert ext_equal(hs, again.cone, w.cone, 5) is None
    assert ext_equal(hs, again.kernel, w.kernel, 5) is None


def test_witness_depth_exceeded_carries_state(monkeypatch):
    import semicover.covers as covers_mod

    m, a, b = overlap_model_and_cones()
    stalled = DescentState(None, 3, [], "depth_exceeded")

    def fake_descent(model, cover, max_depth):
        return stalled

    monkeypatch.setattr(covers_mod, "minimal_pair_descent", fake_descent)
    with pytest.raises(DepthExceeded) as exc:
        covers_mod.order_witness_from_cover(m, a, b, 6)
    assert exc.value.state is stalled


def test_witness_a_side_has_no_nontrivial_subgroup():
    # condition on the U side: never an element together with its inverse
    cases = [
        overlap_model_and_cones(),
        (z_model(), z_nonneg(z_model()), z_nonpos(z_model())),
    ]
    for m, a, b in cases:
        w, _ = order_witness_from_cover(m, a, b, 6)
        u = union(complement(w.cone), identity_cone(m))
        for x in m.ball(6):
            if x != m.identity() and contains(m, u, x):
                assert not contains(m, u, m.inv(x))


def test_refine_strictly_moves_ball_counts():
    kb, cover = klein_synthetic_cover()
    refined = refine_pair(kb, cover, (0, 1), verify=False)
    domain = kb.domain(4)
    assert len(ball_members(refined.b, domain)) < len(ball_members(cover.b, domain))
    assert len(ball_members(refined.a, domain)) > len(ball_members(cover.a, domain))
