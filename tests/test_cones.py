"""Cone set tests: membership, inversion, closure checks, cover bundles."""

import gc
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semicover import (
    GroupModel,
    Homomorphism,
    cone_from_obj,
    cone_to_obj,
    complement,
    contains,
    explicit,
    ext_equal,
    identity_cone,
    intersection,
    invert_cone,
    is_cover_pair,
    is_subsemigroup,
    load_finite_group,
    pullback,
    symmetric_part,
    union,
)
from semicover.cones import (
    LEX_REGIONS,
    CoverPair,
    ProductScan,
    ball_members,
    compile_cone,
    finite_bits,
    joint_homs,
)
from semicover.covers import (
    check_coset_saturation,
    check_inverse_duality,
    order_witness_from_cover,
    reduce_cover,
)
from semicover.errors import ModelMismatch, TrivialQuotient
from semicover.fixtures import dihedral, z_cross_c2_halves
from semicover.groups import joint_image, parse_model, zr_identity_hom
from semicover.orders import (
    LeftOrderWitness,
    cone_from_quotient_order,
    pullback_cover,
    standard_lex_cone,
    totality_mod_kernel,
)


def z_model():
    return GroupModel.zr(1)


def nonneg(model):
    hom = Homomorphism(model, GroupModel.zr(1), images=[(1,)])
    return pullback(hom, "lex_nonneg")


# ---------------------------------------------------------------------------
# contains
# ---------------------------------------------------------------------------

def test_contains_z_nonneg():
    m = z_model()
    cone = nonneg(m)
    assert contains(m, cone, (5,))
    assert not contains(m, cone, (-1,))


def test_contains_identity_cone():
    m = z_model()
    assert contains(m, identity_cone(m), (0,))
    assert not contains(m, identity_cone(m), (1,))


def test_contains_z2_lex():
    m = GroupModel.zr(2)
    cone = pullback(Homomorphism(m, GroupModel.zr(2), images=[(1, 0), (0, 1)]), "lex_pos")
    assert contains(m, cone, (0, 3))
    assert not contains(m, cone, (0, -3))


def test_contains_model_mismatch():
    m = z_model()
    other = GroupModel.zr(2)
    with pytest.raises(ModelMismatch):
        contains(other, nonneg(m), (0, 0))


# ---------------------------------------------------------------------------
# invert_cone
# ---------------------------------------------------------------------------

def test_invert_nonneg_is_nonpos():
    m = z_model()
    inv = invert_cone(m, nonneg(m))
    for n in range(-6, 7):
        assert contains(m, inv, (n,)) == (n <= 0)


def test_invert_identity():
    m = z_model()
    assert invert_cone(m, identity_cone(m)) == identity_cone(m)


def _cone_zoo(model):
    """A spread of cone shapes over any infinite model."""
    gens = model.generators()
    rank = len(gens)
    images = []
    for i in range(rank):
        v = [0, 0]
        v[i % 2] = 1
        images.append(tuple(v))
    if model.kind == "klein_bottle":
        images[0] = (0, 0)
    if model.kind == "zr_cross_finite":
        images = [img if i < model.rank else (0, 0) for i, img in enumerate(images)]
    phi = Homomorphism(model, GroupModel.zr(2), images=images)
    base = pullback(phi, "lex_nonneg")
    ball2 = model.ball(2)
    zoo = [
        base,
        pullback(phi, "lex_pos"),
        pullback(phi, "lex_zero"),
        complement(base),
        union(base, identity_cone(model)),
        intersection(base, complement(identity_cone(model))),
        explicit(model, ball2[:3]),
        explicit(model, ball2[:3], mode="exclude"),
        union(complement(base), explicit(model, ball2[1:2])),
    ]
    return zoo


INFINITE_MODELS = [
    GroupModel.zr(1),
    GroupModel.zr(1, (2,)),
    GroupModel.zr(2),
    GroupModel.free(2),
    GroupModel.heisenberg(),
    GroupModel.klein_bottle(),
]


@pytest.mark.parametrize("model", INFINITE_MODELS)
def test_inversion_matches_pointwise_inverse(model):
    ball = model.ball(6)
    for cone in _cone_zoo(model):
        inv = invert_cone(model, cone)
        for x in ball:
            assert inv.member(x) == cone.member(model.inv(x))


@pytest.mark.parametrize("model", INFINITE_MODELS)
def test_double_inversion_extensional_identity(model):
    radius = 4 if model.kind in ("free", "heisenberg") else 6
    for cone in _cone_zoo(model):
        double = invert_cone(model, invert_cone(model, cone))
        assert ext_equal(model, double, cone, radius) is None


@pytest.mark.parametrize("model", INFINITE_MODELS)
def test_de_morgan_on_ball(model):
    zoo = _cone_zoo(model)
    for s, t in zip(zoo, zoo[1:]):
        lhs = complement(union(s, t))
        rhs = intersection(complement(s), complement(t))
        assert ext_equal(model, lhs, rhs, 5) is None


# ---------------------------------------------------------------------------
# is_subsemigroup
# ---------------------------------------------------------------------------

def test_z_nonneg_closed():
    m = z_model()
    for radius in (2, 5, 8):
        v = is_subsemigroup(m, nonneg(m), radius)
        assert v.ok and v.radius_checked == radius


def test_explicit_pair_counterexample():
    m = z_model()
    cone = union(explicit(m, [(1,), (-1,)]), identity_cone(m))
    v = is_subsemigroup(m, cone, 4)
    assert v.status == "counterexample"
    assert v.witness == ((1,), (1,))  # first BFS pair: 1 + 1 = 2 escapes


def test_free2_pullback_closed_radius5():
    fr = GroupModel.free(2)
    phi = Homomorphism(fr, GroupModel.zr(1), images=[(1,), (0,)])
    cone = union(pullback(phi, "lex_pos"), identity_cone(fr))
    assert is_subsemigroup(fr, cone, 5).ok


def _closure_oracle(model, cone, radius):
    """(status, witness) of closure by every pair: the first (x, y) in BFS
    order over the cone's domain members whose product fails node
    `member()`."""
    members = [x for x in model.domain(radius).elements if cone.member(x)]
    bad = next(((x, y) for x in members for y in members
                if not cone.member(model.mul(x, y))), None)
    return ("verified", None) if bad is None else ("counterexample", bad)


def test_fast_path_agrees_with_naive_scan():
    # the value-class shortcut and the scan must agree with every pair
    rng = random.Random(7)
    for model in INFINITE_MODELS:
        zoo = [c for c in _cone_zoo(model) if c is not None]
        for cone in rng.sample(zoo, k=min(5, len(zoo))):
            v = is_subsemigroup(model, cone, 3)
            assert (v.status, v.witness) == _closure_oracle(model, cone, 3), (model.kind, cone)


@st.composite
def _value_homs(draw, model):
    """A homomorphism into Z^1 or Z^2 with entries in [-2, 2]; images the
    relators force to 0 (torsion factors, klein_bottle's a) are 0, and
    zero and non-injective maps are drawn as well."""
    rank = draw(st.integers(1, 2))
    images = []
    for i in range(len(model.generators())):
        forced = (model.kind == "zr_cross_finite" and i >= model.rank) or \
            (model.kind == "klein_bottle" and i == 0)
        vec = draw(st.tuples(*[st.integers(-2, 2)] * rank))
        images.append((0,) * rank if forced else vec)
    return Homomorphism(model, GroupModel.zr(rank), images=images)


@st.composite
def _cone_trees(draw, model, explicit_leaves, homs=None):
    """Nested union/intersection/complement trees over pullbacks through
    one or two homomorphisms (drawn unless given; none on a finite model)
    and the identity; with `explicit_leaves`, also explicit include and
    exclude lists (and bitsets on a finite model), so value-pure subtrees
    sit inside mixed ones."""
    if homs is None and model.kind != "finite":
        homs = [draw(_value_homs(model)) for _ in range(draw(st.integers(1, 2)))]
    leaves = [st.just(identity_cone(model))]
    if homs:
        leaves.append(st.builds(pullback, st.sampled_from(homs), st.sampled_from(LEX_REGIONS)))
    if explicit_leaves:
        ball = model.ball(2)
        leaves.append(st.builds(lambda xs, mode: explicit(model, xs, mode),
                                st.lists(st.sampled_from(ball), max_size=4),
                                st.sampled_from(("include", "exclude"))))
        if model.kind == "finite":
            leaves.append(st.builds(lambda xs: finite_bits(model, xs),
                                    st.lists(st.sampled_from(ball), max_size=4)))
    return draw(st.recursive(st.one_of(*leaves), lambda k: st.one_of(
        st.builds(union, k, k), st.builds(intersection, k, k), st.builds(complement, k)),
        max_leaves=6))


PROPERTY_RADIUS = {"free": 2, "heisenberg": 2}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_value_classes_agree_with_element_scan(data):
    # ball_members, the class-level closure and the class-level totality
    # scan must agree with element-by-element membership
    model = data.draw(st.sampled_from(INFINITE_MODELS))
    radius = PROPERTY_RADIUS.get(model.kind, 3)
    domain = model.domain(radius)
    ball = domain.elements
    cone = data.draw(_cone_trees(model, explicit_leaves=data.draw(st.booleans())))
    assert ball_members(cone, domain) == {i for i, x in enumerate(ball) if cone.member(x)}

    v = is_subsemigroup(model, cone, radius)
    assert (v.status, v.witness) == _closure_oracle(model, cone, radius)

    kernel = data.draw(st.one_of(st.just(None), _cone_trees(model, explicit_leaves=False)))
    if kernel is None:
        # a lex witness: phi^-1(lex >= 0) over phi^-1(0)
        hom = data.draw(_value_homs(model))
        cone, kernel = pullback(hom, "lex_nonneg"), pullback(hom, "lex_zero")
    witness = LeftOrderWitness(model, kernel, cone)
    scan = next((v for v in model.ball(2 * radius)
                 if not _exactly_one(cone, kernel, v, model.inv(v))), None)
    assert (totality_mod_kernel(witness, radius) is None) == (scan is None)


# every model kind, torsion factors included, with the largest radius drawn
CLASS_DOMAIN_RADIUS = {"z^2": 6, "z^3": 6, "z^1xC2": 6, "z^2xC3": 6, "heisenberg": 6,
                       "klein_bottle": 6, "free:2": 6, "free:3": 4}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_class_domain_holds_the_first_element_of_each_class(data):
    # the class domain is the identity, the first ball element of every
    # other image class and the zero class's first element but the
    # identity, in ball order; when the walk for that element takes the
    # whole ball, the domain is the ball
    selector = data.draw(st.sampled_from(sorted(CLASS_DOMAIN_RADIUS)))
    model = parse_model(selector)
    hom = data.draw(_value_homs(model))
    radius = data.draw(st.integers(1, CLASS_DOMAIN_RADIUS[selector]))
    ball = parse_model(selector).ball(radius)
    images = [joint_image([hom], x) for x in ball]
    firsts = {}
    for i, w in enumerate(images):
        firsts.setdefault(w, i)
    zero = next((i for i, w in enumerate(images) if i and not any(w)), None)
    domain = model.domain(radius, homs=[hom])
    if domain.hom_keys is None:
        assert domain is model.domain(radius) and domain.elements == ball
        assert zero is None or zero >= len(parse_model(selector).ball(radius - 1))
        return
    assert zero is not None
    assert domain.elements == [ball[i] for i in sorted(set(firsts.values()) | {zero})]
    classes = domain.classes([hom])
    assert [classes.keys[c] for c in classes.cls] == [joint_image([hom], x)
                                                      for x in domain.elements]


def _heisenberg_class_domain():
    model = GroupModel.heisenberg()
    phi = Homomorphism(model, GroupModel.zr(1), images=[(1,), (0,)])
    domain = model.domain(4, homs=[phi])
    assert domain.hom_keys is not None and len(domain.elements) < len(model.ball(4))
    return model, phi, domain


def test_class_domain_refuses_a_cone_with_an_explicit_list():
    model, phi, domain = _heisenberg_class_domain()
    cone = union(pullback(phi, "lex_pos"), explicit(model, [(0, 1, 0)]))
    with pytest.raises(ModelMismatch):
        ball_members(cone, domain)


def test_class_domain_refuses_a_cone_over_another_map():
    model, _, domain = _heisenberg_class_domain()
    psi = Homomorphism(model, GroupModel.zr(1), images=[(0,), (1,)])
    with pytest.raises(ModelMismatch):
        ball_members(complement(pullback(psi, "lex_pos")), domain)


D4_TABLE = Path(__file__).resolve().parent.parent / "inputs" / "D4.tbl"


def _tree_nodes(cone):
    yield cone
    for child in cone.children():
        yield from _tree_nodes(child)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_ball_members_memo_follows_the_ball(data):
    # each node keeps its member set for the last domain asked for: asking
    # for the domains of radius r, r + 1 and r again must give each one's
    # own members, on the root and on every subtree.  A finite model's
    # scans all run on its whole group, so there the whole group alternates
    # with the domain `ball` keeps for ball(r), the same elements in
    # another order
    model = data.draw(st.sampled_from([
        GroupModel.zr(2), GroupModel.free(2), GroupModel.heisenberg(),
        GroupModel.finite(load_finite_group(D4_TABLE.read_text(), name="D4"))]))
    cone = data.draw(_cone_trees(model, explicit_leaves=True))
    r = data.draw(st.integers(1, 3))
    for radius in (r, r + 1, r):
        model.ball(radius)
        for domain in (model.domain(radius), model._balls[radius]):
            for node in _tree_nodes(cone):
                assert ball_members(node, domain) == \
                    {i for i, x in enumerate(domain.elements) if node.member(x)}, (radius, node)


def _element_path(model, pair):
    """The same pair with each side padded by an empty explicit list:
    membership is unchanged, but neither side is value-pure any more, so
    the duality check pairs every element with its inverse."""
    empty = explicit(model, [])
    return CoverPair(model, union(pair.a, empty), union(pair.b, empty), pair.radius)


def _lemma_checks_agree(model, pair):
    v = check_coset_saturation(model, pair, pair.radius)
    assert (v.status, v.witness, v.note) == _saturation_oracle(model, pair, pair.radius), \
        model.kind
    v = check_inverse_duality(model, pair, pair.radius)
    assert v == check_inverse_duality(model, _element_path(model, pair), pair.radius), model.kind


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lemma_checks_by_class_agree_with_element_scan(data):
    # saturation and duality decided per image class must give the status,
    # witness and note of a scan by element: on reduced pullback covers, on
    # their swap, on the unreduced pair whose shared kernel lies in both A
    # and H, and on arbitrary value-pure pairs over one or two maps
    model = data.draw(st.sampled_from(INFINITE_MODELS))
    radius = PROPERTY_RADIUS.get(model.kind, 3)
    homs = [data.draw(_value_homs(model)) for _ in range(data.draw(st.integers(1, 2)))]
    try:
        cover = pullback_cover(model, homs[0], radius=radius)
    except TrivialQuotient:
        cover = None
    if cover is not None:
        red = reduce_cover(model, cover.a, cover.b, radius)
        _lemma_checks_agree(model, red)
        _lemma_checks_agree(model, CoverPair(model, red.b, red.a, radius))
        nonpos = complement(pullback(homs[0], "lex_pos"))
        _lemma_checks_agree(model, CoverPair(model, nonpos, cover.b, radius))
    a = data.draw(_cone_trees(model, explicit_leaves=False, homs=homs))
    b = data.draw(_cone_trees(model, explicit_leaves=False, homs=homs))
    _lemma_checks_agree(model, CoverPair(model, a, b, radius))
    # with A = {1} the A - {1} half is vacuous and B - H alone decides
    _lemma_checks_agree(model, CoverPair(model, identity_cone(model), b, radius))


FORM_MODELS = INFINITE_MODELS + [
    GroupModel.finite(dihedral(3, name="S3")),
    GroupModel.finite(load_finite_group(D4_TABLE.read_text(), name="D4")),
]


def _saturation_oracle(model, cover, radius):
    """(status, witness, note) of coset saturation by node `member()`: for
    each h in H - {1} in BFS order, the A - {1} elements x and then the
    B - H ones, hx before xh."""
    one = model.identity()

    def in_h(x):
        return cover.b.member(x) and cover.b.member(model.inv(x))

    def in_a_star(x):
        return x != one and cover.a.member(x)

    def in_b_minus_h(x):
        return cover.b.member(x) and not in_h(x)

    ball = model.domain(radius).elements
    for h in (x for x in ball if x != one and in_h(x)):
        for inside, name in ((in_a_star, "A - {1}"), (in_b_minus_h, "B - H")):
            for x in filter(inside, ball):
                for side, p in (("left", model.mul(h, x)), ("right", model.mul(x, h))):
                    if not inside(p):
                        return "counterexample", (h, x), f"{side} product leaves {name}"
    return "verified", None, ""


def _form_member(form, x) -> bool:
    # membership by a compiled form: the sign predicate XOR the exceptions
    return form.value(form.signs(x)) != (x in form.exceptions)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_compiled_forms_agree_with_member(data):
    # a cone's compiled form (sign table plus exceptions) must give node
    # member() on ball(r + 2), which holds products that leave ball(r), the
    # listed elements and the identity; so must the form of its inverse.
    # The closure and saturation scans, which read the forms, must match
    # scans by member() on covers with an explicit bump moved across
    model = data.draw(st.sampled_from(FORM_MODELS))
    radius = PROPERTY_RADIUS.get(model.kind, 3)
    cone = data.draw(_cone_trees(model, explicit_leaves=True))
    form = compile_cone(cone)
    inverse = invert_cone(model, cone)  # its form is derived from the cone's
    for x in model.ball(radius + 2):
        assert _form_member(form, x) == cone.member(x), x
        assert _form_member(compile_cone(inverse), x) == cone.member(model.inv(x)), x

    v = is_subsemigroup(model, cone, radius)
    assert (v.status, v.witness) == _closure_oracle(model, cone, radius)

    # B is drawn symmetric half the time, so that H = B n B^-1 is large
    b = data.draw(_cone_trees(model, explicit_leaves=True))
    if data.draw(st.booleans()):
        b = union(b, invert_cone(model, b))
    bump = explicit(model, [data.draw(st.sampled_from(model.ball(radius)))])
    cover = CoverPair(model, union(cone, bump), intersection(b, complement(bump)), radius)
    v = check_coset_saturation(model, cover, radius)
    assert (v.status, v.witness, v.note) == _saturation_oracle(model, cover, radius)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_scans_of_explicit_lists_agree_with_member(data):
    # on explicit lists every verdict comes from the exceptions, and on a
    # non-abelian group hx and xh land on different ones
    model = data.draw(st.sampled_from(FORM_MODELS))
    ball = model.ball(2)
    masks = st.lists(st.booleans(), min_size=len(ball), max_size=len(ball))
    a = explicit(model, [x for x, keep in zip(ball, data.draw(masks)) if keep])
    b = explicit(model, [x for x, keep in zip(ball, data.draw(masks)) if keep])
    v = is_subsemigroup(model, a, 2)
    assert (v.status, v.witness) == _closure_oracle(model, a, 2)
    cover = CoverPair(model, a, union(b, invert_cone(model, b)), 2)
    v = check_coset_saturation(model, cover, 2)
    assert (v.status, v.witness, v.note) == _saturation_oracle(model, cover, 2)


def test_saturation_zero_sum_falls_back_to_the_scan():
    # on Z x C2 with A = phi^-1(<= 0) and B = phi^-1(>= 0), H = ker phi
    # = {1, c} lies in A, and c * c = 1 leaves A - {1}: the class sum is
    # zero, which the class certificate must not read as "in A"
    m = GroupModel.zr(1, (2,))
    phi = Homomorphism(m, GroupModel.zr(1), images=[(1,), (0,)])
    pair = CoverPair(m, complement(pullback(phi, "lex_pos")), pullback(phi, "lex_nonneg"), 4)
    v = check_coset_saturation(m, pair, 4)
    assert (v.status, v.witness, v.note) == \
        ("counterexample", ((0, 1), (0, 1)), "left product leaves A - {1}")
    assert v == check_coset_saturation(m, _element_path(m, pair), 4)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_clean_product_scan_has_no_failing_pair(data):
    # `clean` decides per class and per sign bucket; when it holds, no pair
    # of non-identity members of xs x ys may multiply out of the target on
    # either side, and on a target without exceptions it is exact
    model = data.draw(st.sampled_from(FORM_MODELS))
    radius = PROPERTY_RADIUS.get(model.kind, 3)
    domain = model.domain(radius)
    ball = domain.elements
    target, x_cone, y_cone = (data.draw(_cone_trees(model, explicit_leaves=True))
                              for _ in range(3))
    homs = joint_homs(x_cone, target, y_cone)
    scan = ProductScan(model, domain, homs, target, y_cone)
    clean = scan.clean(x_cone)
    xs, ys = (ball_members(c, domain) - {0} for c in (x_cone, y_cone))
    # the classes read off the forms are those of the member sets
    for cone, members in ((x_cone, xs), (y_cone, ys)):
        read = {c for cs in scan.buckets(cone).values() for c in cs}
        assert read == {scan.cls[i] for i in members}
    failing = any(not target.member(p) for a in xs for y in ys
                  for p in (model.mul(ball[a], ball[y]), model.mul(ball[y], ball[a])))
    if clean:
        assert not failing
    if not compile_cone(target).exceptions:
        assert clean == (not failing)


@pytest.mark.parametrize("model", [GroupModel.zr(2), GroupModel.heisenberg(),
                                   GroupModel.free(2)], ids=lambda m: m.selector())
@pytest.mark.parametrize("images", [[(0,), (-2,)], [(1, -1), (2, 1)]], ids=["axis", "plane"])
def test_pullback_verdicts_are_decided_per_class(monkeypatch, model, images):
    # on pullback covers every closure and saturation verdict holds, and
    # `clean` must decide each one without the scan by element
    def first(*args, **kwargs):
        raise AssertionError("the scan by element ran")

    monkeypatch.setattr(ProductScan, "first", first)
    hom = Homomorphism(model, GroupModel.zr(len(images[0])), images=images)
    cover = pullback_cover(model, hom, radius=3)
    reduced = reduce_cover(model, cover.a, cover.b, 3)
    for pair in (cover, reduced):
        assert pair.flags["closed_A"].ok and pair.flags["closed_B"].ok
        assert check_coset_saturation(model, pair, 3).ok
    _, verdicts = order_witness_from_cover(model, cover.a, cover.b, 3)
    assert verdicts["kernel_closed"].ok


@st.composite
def _layout_and_pred(draw):
    """One or two homomorphisms of rank 1 or 2, their slice bounds in the
    joint image, and a cone's predicate read on that layout."""
    model = GroupModel.zr(2)
    homs = [draw(_value_homs(model)) for _ in range(draw(st.integers(1, 2)))]
    cone = draw(_cone_trees(model, explicit_leaves=False, homs=homs))
    bounds = []
    for h in homs:
        lo = bounds[-1][1] if bounds else 0
        bounds.append((lo, lo + h.rank()))
    return homs, bounds, compile_cone(cone).reader(homs)


def _sign_pattern(w, bounds):
    signs = []
    for lo, hi in bounds:
        nonzero = [v for v in w[lo:hi] if v]
        signs.append((nonzero[0] > 0) - (nonzero[0] < 0) if nonzero else 0)
    return tuple(signs)


@st.composite
def _vector_with_signs(draw, signs, bounds):
    """A vector whose slice bounds[i] has lex sign signs[i]."""
    out = []
    for sign, (lo, hi) in zip(signs, bounds):
        if not sign:
            out += [0] * (hi - lo)
            continue
        lead = draw(st.integers(0, hi - lo - 1))
        rest = hi - lo - lead - 1
        out += [0] * lead + [sign * draw(st.integers(1, 3))]
        out += draw(st.lists(st.integers(-3, 3), min_size=rest, max_size=rest))
    return tuple(out)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_compiled_predicates_read_only_slice_signs(data):
    # two vectors with the same lex sign in every slice are indistinguishable
    homs, bounds, pred = data.draw(_layout_and_pred())
    w = data.draw(st.tuples(*[st.integers(-3, 3)] * bounds[-1][1]))
    other = data.draw(_vector_with_signs(_sign_pattern(w, bounds), bounds))
    assert _sign_pattern(other, bounds) == _sign_pattern(w, bounds)
    assert pred(other) == pred(w)


def _exactly_one(cone, kernel, v, v_inv) -> bool:
    """Exactly one of 1 < v, v < 1 and v in the kernel."""
    pos, neg = cone.member(v), cone.member(v_inv)
    return (pos and not neg) + (neg and not pos) + kernel.member(v) == 1


def _evaluate_pullback_cover():
    model = GroupModel.free(2)
    hom = Homomorphism(model, GroupModel.zr(2), images=[(1, 0), (0, 1)])
    pair = pullback_cover(model, hom, radius=3)
    domain = model.domain(3)
    ball = domain.elements
    assert is_subsemigroup(model, pair.a, 3).ok and is_subsemigroup(model, pair.b, 3).ok
    assert ball_members(pair.a, domain) | ball_members(pair.b, domain) == set(range(len(ball)))
    witness = cone_from_quotient_order(model, hom, standard_lex_cone(2), radius=3)
    assert totality_mod_kernel(witness, 3) is None


def test_evaluation_path_leaves_no_reference_cycles():
    # everything a pullback-cover check builds (balls, memos, compiled
    # predicates) must be freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        _evaluate_pullback_cover()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_finite_subsemigroup_exact():
    s3 = GroupModel.finite(dihedral(3, name="S3"))
    from semicover.cones import finite_bits

    rot = finite_bits(s3, [0, 1, 2])
    v = is_subsemigroup(s3, rot, 1)
    assert v.ok and v.radius_checked == 0
    bad = finite_bits(s3, [0, 1])
    assert is_subsemigroup(s3, bad, 1).status == "counterexample"


# ---------------------------------------------------------------------------
# is_cover_pair
# ---------------------------------------------------------------------------

def test_z_cross_c2_cover_bundle():
    m = GroupModel.zr(1, (2,))
    a, b = z_cross_c2_halves(m)
    pair = is_cover_pair(m, a, b, 6)
    for key in ("closed_A", "closed_B", "covers", "proper_A", "proper_B"):
        assert pair.flags[key].ok, key
    ti = pair.flags["trivial_intersection"]
    assert ti.status == "counterexample"
    assert ti.witness == ((0, 1),)


def test_z_split_with_identity_adjoined():
    m = z_model()
    pos = pullback(Homomorphism(m, GroupModel.zr(1), images=[(1,)]), "lex_pos")
    a = union(pos, identity_cone(m))
    b = complement(pos)
    pair = is_cover_pair(m, a, b, 6)
    assert all(v.ok for v in pair.flags.values())


def test_cover_pair_covers_counterexample():
    m = z_model()
    pos = pullback(Homomorphism(m, GroupModel.zr(1), images=[(1,)]), "lex_pos")
    pair = is_cover_pair(m, pos, identity_cone(m), 4)
    assert pair.flags["covers"].status == "counterexample"
    assert pair.flags["covers"].witness == ((-1,),)


# ---------------------------------------------------------------------------
# symmetric_part
# ---------------------------------------------------------------------------

def test_symmetric_part_z_nonneg():
    m = z_model()
    sym = symmetric_part(m, nonneg(m))
    for n in range(-5, 6):
        assert contains(m, sym, (n,)) == (n == 0)


def test_symmetric_part_overlap_cover_is_c2():
    m = GroupModel.zr(1, (2,))
    _, b = z_cross_c2_halves(m)
    sym = symmetric_part(m, b)
    domain = m.domain(6)
    ball = domain.elements
    members = {ball[i] for i in ball_members(sym, domain)}
    assert members == {(0, 0), (0, 1)}


def test_symmetric_part_free2_is_kernel():
    fr = GroupModel.free(2)
    phi = Homomorphism(fr, GroupModel.zr(1), images=[(1,), (0,)])
    sym = symmetric_part(fr, pullback(phi, "lex_nonneg"))
    kernel = pullback(phi, "lex_zero")
    assert ext_equal(fr, sym, kernel, 4) is None


@pytest.mark.parametrize("model", INFINITE_MODELS)
def test_symmetric_part_inverse_closed_and_closed(model):
    for cone in _cone_zoo(model)[:4]:
        if not is_subsemigroup(model, cone, 3).ok:
            continue
        sym = symmetric_part(model, cone)
        ball = model.ball(3)
        for x in ball:
            if sym.member(x):
                assert sym.member(model.inv(x))
        assert is_subsemigroup(model, sym, 3).ok


def test_symmetric_part_finite_matches_bitset():
    s3 = GroupModel.finite(dihedral(3, name="S3"))
    from semicover.cones import finite_bits

    cone = finite_bits(s3, [0, 1, 2, 3])
    sym = symmetric_part(s3, cone)
    table = s3.group
    direct = {i for i in [0, 1, 2, 3] if table.inverse_table[i] in {0, 1, 2, 3}}
    for i in range(6):
        assert sym.member(i) == (i in direct)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", INFINITE_MODELS)
def test_cone_json_roundtrip(model):
    for cone in _cone_zoo(model):
        back = cone_from_obj(model, cone_to_obj(cone))
        assert ext_equal(model, back, cone, 3) is None


def test_cone_json_example_from_interface():
    m = GroupModel.zr(1, (2,))
    spec = {"op": "pullback", "images": [[1], [0]], "region": "lex_nonneg"}
    cone = cone_from_obj(m, spec)
    assert contains(m, cone, (3, 1))
    assert not contains(m, cone, (-3, 0))
    assert cone_to_obj(cone) == spec
