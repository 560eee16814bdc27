"""Order engine tests: comparators, quotient pullbacks, lex combination,
cover merging, and witness validation."""

import pytest

from semicover import (
    GroupModel,
    Homomorphism,
    LeftOrderWitness,
    complement,
    contains,
    explicit,
    ext_equal,
    identity_cone,
    intersection,
    lex_combine,
    merge_covers,
    pullback,
    pullback_cover,
    standard_lex_cone,
    symmetric_part,
    union,
    validate_witness,
    witness_ok,
)
from semicover.cones import ball_members
from semicover.errors import InvalidElement, NotACone, NotNormalized, TrivialQuotient
from semicover.fixtures import z_cross_c2_halves, witness_hom_fixtures
from semicover.orders import LeftOrderComparator, validate_cone_axioms


def z_model():
    return GroupModel.zr(1)


def z_nonneg(m):
    return pullback(Homomorphism(m, GroupModel.zr(1), images=[(1,)]), "lex_nonneg")


def quotient_witness(model, hom):
    """The lex order of hom's target pulled back: the kernel is the preimage
    of the identity, the cone the preimage of the lex cone."""
    return LeftOrderWitness(model, identity_cone(hom.target).pull_back(hom),
                            standard_lex_cone(hom.rank()).pull_back(hom))


# ---------------------------------------------------------------------------
# comparators from cones
# ---------------------------------------------------------------------------

def test_order_from_cone_z():
    m = z_model()
    cone = z_nonneg(m)
    validate_cone_axioms(m, cone, 6)
    cmp_ = LeftOrderComparator(m, cone)
    assert cmp_.le((3,), (5,))
    assert not cmp_.le((5,), (3,))


def test_order_reflexive_on_ball():
    m = z_model()
    cone = z_nonneg(m)
    validate_cone_axioms(m, cone, 6)
    cmp_ = LeftOrderComparator(m, cone)
    for x in m.ball(6):
        assert cmp_.le(x, x)


def test_order_z2_lex():
    m = GroupModel.zr(2)
    cone = pullback(Homomorphism(m, GroupModel.zr(2), images=[(1, 0), (0, 1)]),
                    "lex_nonneg")
    validate_cone_axioms(m, cone, 5)
    cmp_ = LeftOrderComparator(m, cone)
    assert cmp_.le((0, 5), (1, -100))


def test_order_from_bad_cone_raises_with_witness():
    m = z_model()
    strict = pullback(Homomorphism(m, GroupModel.zr(1), images=[(1,)]), "lex_pos")
    with pytest.raises(NotACone) as exc:
        validate_cone_axioms(m, strict, 4)
    assert exc.value.witness == ((0,),)  # identity escapes P u P^-1


# ---------------------------------------------------------------------------
# witnesses pulled back from quotient orders
# ---------------------------------------------------------------------------

def test_quotient_order_z_cross_c2():
    m = GroupModel.zr(1, (2,))
    phi = Homomorphism(m, GroupModel.zr(1), images=[(1,), (0,)])
    w = quotient_witness(m, phi)
    domain = m.domain(6)
    ball = domain.elements
    kernel = {ball[i] for i in ball_members(w.kernel, domain)}
    assert kernel == {(0, 0), (0, 1)}
    assert witness_ok(validate_witness(w, 6))


def test_quotient_order_identity_hom():
    m = z_model()
    phi = Homomorphism(m, GroupModel.zr(1), images=[(1,)])
    w = quotient_witness(m, phi)
    domain = m.domain(6)
    ball = domain.elements
    assert {ball[i] for i in ball_members(w.kernel, domain)} == {(0,)}


def test_quotient_order_klein_bottle_b_exponent():
    kb = GroupModel.klein_bottle()
    phi = Homomorphism(kb, GroupModel.zr(1), images=[(0,), (1,)])
    w = quotient_witness(kb, phi)
    # kernel is the subgroup generated by a: normal forms with zero b part
    for x in kb.ball(6):
        assert contains(kb, w.kernel, x) == (x[0] == 0)
    assert witness_ok(validate_witness(w, 6))


# ---------------------------------------------------------------------------
# pullback_cover
# ---------------------------------------------------------------------------

def test_pullback_cover_z_cross_c2_normalized():
    m = GroupModel.zr(1, (2,))
    phi = Homomorphism(m, GroupModel.zr(1), images=[(1,), (0,)])
    pair = pullback_cover(m, phi, radius=8)
    assert all(v.ok for v in pair.flags.values())
    # identity sits on the B side, strictly negative region in A
    assert contains(m, pair.b, (0, 0)) and contains(m, pair.b, (4, 1))
    assert contains(m, pair.a, (-4, 1)) and contains(m, pair.a, (0, 0))
    assert not contains(m, pair.a, (1, 0))


def test_pullback_cover_z_identity():
    m = z_model()
    phi = Homomorphism(m, GroupModel.zr(1), images=[(1,)])
    pair = pullback_cover(m, phi, radius=6)
    domain = m.domain(6)
    ball = domain.elements
    a = {ball[i] for i in ball_members(pair.a, domain)}
    b = {ball[i] for i in ball_members(pair.b, domain)}
    assert a == {(n,) for n in range(-6, 1)}
    assert b == {(n,) for n in range(0, 7)}
    assert a & b == {(0,)}


def test_pullback_cover_trivial_quotient():
    m = GroupModel.zr(1, (2,))
    zero = Homomorphism(m, GroupModel.zr(1), images=[(0,), (0,)])
    with pytest.raises(TrivialQuotient):
        pullback_cover(m, zero, radius=4)


def test_pullback_cover_heisenberg_center_in_b():
    hs = GroupModel.heisenberg()
    phi = Homomorphism(hs, GroupModel.zr(2), images=[(1, 0), (0, 1)])
    pair = pullback_cover(hs, phi, radius=5)
    assert all(v.ok for v in pair.flags.values())
    assert contains(hs, pair.b, (0, 0, 7))
    assert contains(hs, pair.b, (0, 0, -7))


# ---------------------------------------------------------------------------
# lex_combine
# ---------------------------------------------------------------------------

def _coordinate_witnesses():
    m = GroupModel.zr(2)
    h1 = Homomorphism(m, GroupModel.zr(1), images=[(1,), (0,)])
    h2 = Homomorphism(m, GroupModel.zr(1), images=[(0,), (1,)])
    w1 = quotient_witness(m, h1)
    w2 = quotient_witness(m, h2)
    return m, w1, w2


def test_lex_combine_gives_lex_order():
    m, w1, w2 = _coordinate_witnesses()
    w = lex_combine(w1, w2)
    cmp_ = w.comparator()
    ball = m.ball(10)
    for x in ball:
        for y in ball:
            d = (y[0] - x[0], y[1] - x[1])
            expected = d[0] > 0 or (d[0] == 0 and d[1] >= 0)
            assert cmp_.le(x, y) == expected
    # kernel collapses to the identity
    for x in m.ball(6):
        assert contains(m, w.kernel, x) == (x == (0, 0))


def test_comparator_agrees_with_cone_membership_of_quotient():
    # value-pure cones are compared on images, without forming x^-1 y
    for name, model, hom in witness_hom_fixtures():
        w = quotient_witness(model, hom)
        cmp_ = w.comparator()
        ball = model.ball(2)
        for x in ball:
            for y in ball:
                v = model.mul(model.inv(x), y)
                assert cmp_.le(x, y) == contains(model, w.cone, v), (name, x, y)


def test_comparator_rejects_invalid_elements():
    m = GroupModel.zr(1, (2,))
    h = Homomorphism(m, GroupModel.zr(1), images=[(1,), (0,)])
    cmp_ = quotient_witness(m, h).comparator()
    assert cmp_.le((0, 1), (1, 0))
    for bad in [(0, 2), [0, 1], (0, [1])]:
        with pytest.raises(InvalidElement):
            cmp_.le(bad, (1, 0))
        with pytest.raises(InvalidElement):
            cmp_.le((1, 0), bad)


def test_lex_combine_idempotent_on_ball():
    m, w1, _ = _coordinate_witnesses()
    w = lex_combine(w1, w1)
    assert ext_equal(m, w.cone, w1.cone, 6) is None
    assert ext_equal(m, w.kernel, w1.kernel, 6) is None


def test_lex_combine_klein_self():
    kb = GroupModel.klein_bottle()
    phi = Homomorphism(kb, GroupModel.zr(1), images=[(0,), (1,)])
    w = quotient_witness(kb, phi)
    combined = lex_combine(w, w)
    assert ext_equal(kb, combined.kernel, w.kernel, 5) is None
    assert ext_equal(kb, combined.cone, w.cone, 5) is None


def test_lex_combine_restricts_to_second_order_on_first_kernel():
    m, w1, w2 = _coordinate_witnesses()
    w = lex_combine(w1, w2)
    cmp_w = w.comparator()
    cmp_2 = w2.comparator()
    domain = m.domain(5)
    ball = domain.elements
    kernel1 = [ball[i] for i in ball_members(w1.kernel, domain)]
    for x in kernel1:
        for y in kernel1:
            assert cmp_w.le(x, y) == cmp_2.le(x, y)


# ---------------------------------------------------------------------------
# merge_covers
# ---------------------------------------------------------------------------

def test_merge_self_is_identity_on_z():
    m = z_model()
    phi = Homomorphism(m, GroupModel.zr(1), images=[(1,)])
    c = pullback_cover(m, phi, radius=6)
    merged = merge_covers(c, c, radius=6)
    assert ext_equal(m, merged.b, c.b, 6) is None
    assert ext_equal(m, merged.a, c.a, 6) is None


def test_merge_coordinate_covers_gives_lex():
    m = GroupModel.zr(2)
    h1 = Homomorphism(m, GroupModel.zr(1), images=[(1,), (0,)])
    h2 = Homomorphism(m, GroupModel.zr(1), images=[(0,), (1,)])
    c1 = pullback_cover(m, h1, radius=6)
    c2 = pullback_cover(m, h2, radius=6)
    merged = merge_covers(c1, c2, radius=6)
    assert all(v.ok for v in merged.flags.values())
    lex = pullback_cover(m, Homomorphism(m, GroupModel.zr(2), images=[(1, 0), (0, 1)]),
                         radius=6)
    assert ext_equal(m, merged.b, lex.b, 6) is None
    # symmetric part of the merged B side collapses to the identity
    sym = symmetric_part(m, merged.b)
    for x in m.ball(6):
        assert contains(m, sym, x) == (x == (0, 0))


def test_merge_z_cross_c2_self_consistent_with_lex():
    m = GroupModel.zr(1, (2,))
    phi = Homomorphism(m, GroupModel.zr(1), images=[(1,), (0,)])
    c = pullback_cover(m, phi, radius=6)
    merged = merge_covers(c, c, radius=6)
    assert ext_equal(m, merged.b, c.b, 6) is None
    w = quotient_witness(m, phi)
    combined = lex_combine(w, w)
    assert ext_equal(m, merged.b, combined.cone, 6) is None


def test_merge_rejects_unnormalized_input():
    m = GroupModel.zr(1, (2,))
    a, b = z_cross_c2_halves(m)  # intersection is {0} x C2, not trivial
    from semicover.cones import is_cover_pair

    pair = is_cover_pair(m, a, b, 6)
    with pytest.raises(NotNormalized):
        merge_covers(pair, pair, radius=6)


# ---------------------------------------------------------------------------
# witness invariants (totality, antisymmetry mod kernel, left invariance)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,model,hom", witness_hom_fixtures())
def test_witness_totality_mod_kernel(name, model, hom):
    w = quotient_witness(model, hom)
    cmp_ = w.comparator()
    ball = model.ball(4)
    for x in ball:
        for y in ball:
            v = model.mul(model.inv(x), y)
            in_kernel = contains(model, w.kernel, v)
            lt_xy = cmp_.le(x, y) and not cmp_.le(y, x)
            lt_yx = cmp_.le(y, x) and not cmp_.le(x, y)
            assert sum((lt_xy, lt_yx, in_kernel)) == 1


@pytest.mark.parametrize("name,model,hom", witness_hom_fixtures())
def test_witness_left_invariance(name, model, hom):
    w = quotient_witness(model, hom)
    cmp_ = w.comparator()
    small = model.ball(2)
    ball = model.ball(3)
    for h in small:
        for x in ball:
            hx = model.mul(h, x)
            for y in ball:
                assert cmp_.le(x, y) == cmp_.le(hx, model.mul(h, y))


# ---------------------------------------------------------------------------
# validate_witness against an element scan
# ---------------------------------------------------------------------------

def _scan_verdicts(w, radius):
    """(status, witness) of kernel_inverse_closed and cone_covers from
    `member` on each ball element and its inverse, in BFS order."""
    model, kern, cone = w.model, w.kernel, w.cone
    ball = model.ball(radius)
    bad = next((x for x in ball if kern.member(x) and not kern.member(model.inv(x))), None)
    missing = next((x for x in ball
                    if not cone.member(x) and not cone.member(model.inv(x))), None)
    return {name: ("verified", None) if x is None else ("counterexample", (x,))
            for name, x in (("kernel_inverse_closed", bad), ("cone_covers", missing))}


def _scanned_witnesses():
    """Bundled quotient witnesses, then kernels and cones that are explicit
    lists or fail, on Z^2 and on the Heisenberg group."""
    out = [(name, quotient_witness(model, hom))
           for name, model, hom in witness_hom_fixtures()]
    z2 = GroupModel.zr(2)
    first = Homomorphism(z2, GroupModel.zr(1), images=[(1,), (0,)])
    nonneg = pullback(first, "lex_nonneg")
    axis = [x for x in z2.ball(4) if x[0] == 0]
    out.append(("explicit_axis_kernel", LeftOrderWitness(z2, explicit(z2, axis), nonneg)))
    # a half-plane is no subgroup: every x with first coordinate > 0 fails,
    # by image class (pullback) and by element (the same set listed)
    half = [x for x in z2.ball(4) if x[0] > 0 or x == (0, 0)]
    out.append(("pullback_half_kernel", LeftOrderWitness(z2, union(
        pullback(first, "lex_pos"), identity_cone(z2)), nonneg)))
    out.append(("explicit_half_kernel", LeftOrderWitness(z2, explicit(z2, half), nonneg)))
    # ball indices 6 and 17, which a CPython set lists as 17, 6: the
    # witness must still be the first in BFS order
    pair = [(1, 1), (1, -2)]
    out.append(("explicit_pair_kernel", LeftOrderWitness(z2, explicit(z2, pair), nonneg)))
    hs = GroupModel.heisenberg()
    y = Homomorphism(hs, GroupModel.zr(1), images=[(0,), (1,)])
    scattered = [x for x in hs.ball(3) if (x[0] + 2 * x[2]) % 3 == 1]
    out.append(("explicit_scattered_kernel", LeftOrderWitness(
        hs, union(explicit(hs, scattered), identity_cone(hs)), pullback(y, "lex_pos"))))
    out.append(("exclude_kernel", LeftOrderWitness(
        hs, explicit(hs, [(1, 0, 0)], mode="exclude"), complement(pullback(y, "lex_zero")))))
    return out


SCANNED = _scanned_witnesses()


@pytest.mark.parametrize("name,witness", SCANNED, ids=[name for name, _ in SCANNED])
def test_validate_witness_matches_element_scan(name, witness):
    radius = 3 if witness.model.kind in ("heisenberg", "free") else 4
    verdicts = validate_witness(witness, radius)
    for check, expected in _scan_verdicts(witness, radius).items():
        assert (verdicts[check].status, verdicts[check].witness) == expected, check


def test_scanned_witnesses_include_failures():
    statuses = {(name, check): status
                for name, w in SCANNED
                for check, (status, _) in _scan_verdicts(w, 3).items()}
    assert statuses[("pullback_half_kernel", "kernel_inverse_closed")] == "counterexample"
    assert statuses[("explicit_half_kernel", "kernel_inverse_closed")] == "counterexample"
    assert statuses[("explicit_pair_kernel", "kernel_inverse_closed")] == "counterexample"
    assert statuses[("explicit_scattered_kernel", "kernel_inverse_closed")] == "counterexample"
    assert statuses[("explicit_scattered_kernel", "cone_covers")] == "counterexample"
    assert statuses[("exclude_kernel", "kernel_inverse_closed")] == "counterexample"
    assert statuses[("explicit_axis_kernel", "kernel_inverse_closed")] == "verified"
