"""Group model tests: table loading, arithmetic, balls, homomorphisms."""

import ast
import hashlib
import itertools
import tracemalloc
from operator import add, sub
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from semicover import (
    FiniteGroup,
    GroupModel,
    Homomorphism,
    contains,
    element_order,
    explicit,
    format_element,
    is_normal,
    load_finite_group,
    parse_element,
    parse_model,
)
from semicover.errors import (
    BallTooLarge,
    InvalidElement,
    MalformedTable,
    ModelMismatch,
    NotAGroup,
    ParseError,
)
from semicover.fixtures import (
    _BUILDERS, CORPUS, cyclic, dicyclic, dihedral, direct_product, fixture, table_text,
)
from semicover.groups import (
    MAX_GENERATORS,
    _free_product,
    _generators,
    joint_image,
    vector_ops,
)
from semicover import groups
from semicover.cones import inverse_members

ALL_MODELS = [
    GroupModel.zr(1),
    GroupModel.zr(1, (2,)),
    GroupModel.zr(2),
    GroupModel.free(2),
    GroupModel.heisenberg(),
    GroupModel.klein_bottle(),
    dihedral(3, name="S3"),
]


# ---------------------------------------------------------------------------
# load_finite_group
# ---------------------------------------------------------------------------

def test_load_trivial_group():
    g = load_finite_group("order: 1\n0\n")
    assert g.order == 1
    assert g.inverse_table == [0]


def test_load_c2():
    g = load_finite_group("order: 2\n0 1\n1 0\n")
    assert g.order == 2
    assert g.inverse_table == [0, 1]


@pytest.mark.parametrize("text", [
    "order: 2\r\n0 1\r\n1 0\r\n",        # carriage return before each line feed
    "order :\t2\n\t0\t1 \n\n  1  \t 0\n",  # tabs, runs of spaces, a blank row
])
def test_load_ascii_separators(text):
    assert load_finite_group(text).table == [[0, 1], [1, 0]]


@pytest.mark.parametrize("text", [
    "",
    "order: 2\n0 1\n",            # missing row
    "order: 2\n0 1\n1 0 0\n",     # ragged row
    "order: 2\n0 1\n1 2\n",       # out of range
    "2\n0 1\n1 0\n",              # missing header
])
def test_load_malformed(text):
    with pytest.raises(MalformedTable):
        load_finite_group(text)


def test_load_non_associative_reports_witness():
    # oracle: mutate one S3 entry, then locate every broken triple by brute
    # force over all 216 and check the reported one is among them
    s3 = dihedral(3, name="S3")
    table = [row[:] for row in s3.table]
    table[1][2] = 0 if table[1][2] != 0 else 1
    broken = set()
    for i, j, k in itertools.product(range(6), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            broken.add((i, j, k))
    assert broken
    with pytest.raises(NotAGroup) as exc:
        FiniteGroup(table)
    witness = exc.value.witness
    if len(witness) == 3:
        i, j, k = witness
        assert table[table[i][j]][k] != table[i][table[j][k]]
        assert witness in broken
    else:
        # mutation broke the identity convention before associativity ran
        assert witness is not None


def _table_verdict(table):
    """Oracle: the (error class, witness) `FiniteGroup(table)` must raise, or
    None for a group.  Every triple is tested, in lexicographic order."""
    n = len(table)
    if n < 1 or any(len(row) != n or any(not isinstance(v, int) or not 0 <= v < n for v in row)
                    for row in table):
        return MalformedTable, None
    for j in range(n):
        if table[0][j] != j:
            return NotAGroup, (0, j, table[0][j])
        if table[j][0] != j:
            return NotAGroup, (j, 0, table[j][0])
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return NotAGroup, (i, j, k)
    for i in range(n):
        if [v for v in table[i] if v == 0] != [0]:
            return NotAGroup, (i,)
    return None


@st.composite
def _broken_tables(draw):
    """A corpus table, or one of order 1 or 2, left intact or broken once:
    one entry changed, two rows swapped, an entry out of range or not an
    int, or a row dropped."""
    name = draw(st.one_of(st.sampled_from(["C1", "C2"]), st.sampled_from(CORPUS)))
    table = [row[:] for row in fixture(name).table]
    n = len(table)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    change = draw(st.sampled_from(["none", "entry", "swap", "bad_entry", "drop"]))
    if change == "entry":
        (i, j), table[i][j] = draw(cell), draw(st.integers(0, n - 1))
    elif change == "swap":
        i, j = draw(cell)
        table[i], table[j] = table[j], table[i]
    elif change == "bad_entry":
        (i, j), table[i][j] = draw(cell), draw(st.one_of(
            st.integers(-3, -1), st.integers(n, n + 3), st.floats(allow_nan=False),
            st.text(max_size=2), st.none()))
    elif change == "drop":
        del table[draw(st.integers(0, n - 1))]
    return table


def _assert_matches_the_oracle(table):
    expected = _table_verdict(table)
    if expected is None:
        g = FiniteGroup(table)
        assert [g.mul(a, g.inv(a)) for a in g.elements()] == [0] * g.order
        return
    with pytest.raises(expected[0]) as info:
        FiniteGroup(table)
    assert getattr(info.value, "witness", None) == expected[1]


@settings(max_examples=300, deadline=None)
@given(_broken_tables())
@example([[0, 1], [1, 1]])  # associative with identity, but 1 has no inverse
@example([[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # Latin on row 0 and column 0 only
def test_table_validation_matches_the_oracle(table):
    _assert_matches_the_oracle(table)


def _relabel(table, perm):
    """The table with element a renamed perm[a]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            out[perm[a]][perm[b]] = perm[v]
    return out


@st.composite
def _loops(draw):
    """A Latin square of order 1-8 with identity 0, filled cell by cell in
    random order with backtracking; most are not associative."""
    n = draw(st.integers(1, 8))
    rng = draw(st.randoms(use_true_random=False))
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            return True
        i, j = cells[c]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for table[i][j] in options:
            if fill(c + 1):
                return True
        return False

    assert fill(0)
    return table


@st.composite
def _monoids(draw):
    """An associative table of order 2-8 with an identity, relabelled 0, in
    which some element has no inverse; the other labels are shuffled."""
    n = draw(st.integers(2, 8))
    op, one = draw(st.sampled_from([
        (max, 0),
        (lambda a, b: min(a + b, n - 1), 0),
        (lambda a, b: a * b % n, 1),  # Z/n under multiplication
        (lambda a, b: n - 1 if n - 1 in (a, b) else (a + b) % (n - 1), 0),  # C_(n-1) and a zero
    ]))
    perm = [0] * n
    for label, a in enumerate(draw(st.permutations([a for a in range(n) if a != one])), 1):
        perm[a] = label
    return _relabel([[op(a, b) for b in range(n)] for a in range(n)], perm)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_loops(), _monoids()))
def test_loops_and_monoids_match_the_oracle(table):
    # the check reads associativity at a generating set only (Light's test);
    # a loop that fails it must still name the first failing triple
    _assert_matches_the_oracle(table)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_loops(), _monoids()))
def test_generators_are_picked_greedily(table):
    # oracle: the right-product closure of the identity and the picks before
    # each pick, by fixpoint; each pick is the least index outside it
    gens = _generators(table)
    for k in range(len(gens) + 1):
        closure = {0, *gens[:k]}
        while more := {table[x][g] for x in closure for g in gens[:k]} - closure:
            closure |= more
        assert gens[k:k + 1] == [x for x in range(len(table)) if x not in closure][:1]


def test_finite_models_compare_tables_not_hashes(monkeypatch):
    monkeypatch.setattr(FiniteGroup, "__hash__", lambda self: 0)
    c4, v4 = cyclic(4), fixture("V4")
    assert hash(c4) == hash(v4) and c4 != v4
    assert cyclic(4) == c4
    with pytest.raises(ModelMismatch):
        contains(v4, explicit(c4, [0, 2]), 2)


def test_table_text_roundtrip():
    g = fixture("Q8")
    assert load_finite_group(table_text(g)).table == g.table


# sha256 of `table_text` of every bundled table and of three tables built
# past the corpus (D7, Dic5, D3xC4), as the builders first wrote them
PINNED_TABLES = {
    "C1": "c5e44fbefac5b1fa8731837c0ff42de25a4a21fcd0df72ff10010483e6c31ef8",
    "C2": "c3e10bd82af83f75e358acbeb6cd02d22534edb061d7aefed0aea3652fa56883",
    "C3": "07a8b79a625cad2c3ca64fa83440f2c5f06fd9769d9585c517bbb1ece85b42da",
    "C4": "ebb51cc6e16b9d243cdafb926e1aae2ffa11f900a70a77c60e08a9d196651d41",
    "C5": "01c5b17685d8d6fc851babe9d829c2f77bc30ce9d1136a50b5022aca47db2f9c",
    "C6": "0f0045d0d736ddfbed269e4fb2fbbda2646444d102f5e06f9822a6392792ce6e",
    "C7": "3340fc21045fd113332a2e753d5dd48e7545a22bd5d36c056caab28e9de0588d",
    "C8": "8d43eb5e23128dd7f1251b6ebb41da88e9e41d5203e5b129c3bbb8923e6d259e",
    "C9": "cbd4d83a3bbe0af2d52cbb7a5e40fabd83fb4801509f6cd689f49bc0c6058cbd",
    "C10": "34129a72ed2f784cd505625fbac11bd1f6db055f987b54a5e218fb3724f65f26",
    "C11": "29674e735cdf0a935ee84f5903be7cd0072feaccd8e5e88642af3745b03cb50b",
    "C12": "1ef7682713807f935ad42b03242302e7e3b8ed06a054f3d72c1fc5617c76cdb4",
    "V4": "3cd7b70d6b4d2dd7d3375b76f8c616a649cbe6fd9fb8973a1751e9b8593a4985",
    "C2xC2": "3cd7b70d6b4d2dd7d3375b76f8c616a649cbe6fd9fb8973a1751e9b8593a4985",
    "C2xC2xC2": "b7edf8dfd97d407022229f0043be4ef3790687e344e17f2a501ef06f59ded01b",
    "C4xC2": "b59b330e308fbb010b4537df465b3e02eb912c98a50c1529c419afb50aca43e0",
    "C6xC2": "02b59cc863f8ac171ebb76b5a8cd8ae7e7715ed273656dd9d15bb18aab655c26",
    "C3xC3": "51ba572af14fef0c7b9c5ec44ca1fd8d05370fa108182043a958b26005e93a79",
    "S3": "3bc7fee618ce00fbf130dc92f2db5fc738b37d4676185de5484f68906d0bf1bf",
    "D4": "91d52f9e39367d51a1db81626a2834169bca9872d3c2aedbf61cee186cea327a",
    "D5": "e11512252fc92eae01d01bec617febc17c650db7590d5aa97250a838327c47a7",
    "D6": "d5e605824c054ff43cad0b787802cec8a89fe76ebcff82d6032f743f38448aee",
    "Q8": "e3969540bb5ad0c670deef6dc25460f770bc43c5486fbf65bf27a3abd9eaea96",
    "Dic3": "0ad1a35eaad44c761ec7fd2d4de15a9def013299e7fe4b7550036540cb6f6754",
    "A4": "9920574523208336b197749e0e2e1999a5d21f165bc6bae2c8a4b5a3170b5588",
    "D7": "4c66f39b1c798caecf3c74137fbac99d022d614ea4ede50ff82130fb0e730c6c",
    "Dic5": "3237c1ba250fac19cd8fedd21513eada64d400e600701ba3c49b5ab34b257f7d",
    "D3xC4": "35d4275edc9546d650bb4f199a1106b5135f20a67022a0ebb850bb1258c5085f",
}


def test_fixture_tables_are_pinned():
    built = {name: fixture(name) for name in _BUILDERS}
    built.update((g.name, g) for g in (dihedral(7), dicyclic(5),
                                       direct_product(dihedral(3), cyclic(4))))
    assert all(g.name == name for name, g in built.items())
    digests = {name: hashlib.sha256(table_text(g).encode()).hexdigest()
               for name, g in built.items()}
    assert digests == PINNED_TABLES


# ---------------------------------------------------------------------------
# mul / inv
# ---------------------------------------------------------------------------

def test_klein_bottle_mul_moves_a_past_b():
    # derived by hand from the rewrite a*b = b*a^-1
    kb = GroupModel.klein_bottle()
    assert kb.mul((1, 1), (1, 0)) == (2, -1)


def test_free_reduction():
    fr = GroupModel.free(2)
    a, b = (1,), (2,)
    aB = fr.mul(a, fr.inv(b))
    assert fr.mul(aB, b) == a


def test_zr_cross_finite_inverse():
    m = GroupModel.zr(1, (2,))
    assert m.inv((3, 1)) == (-3, 1)


def test_invalid_elements_rejected():
    with pytest.raises(InvalidElement):
        GroupModel.free(2).validate((1, -1))  # not reduced
    with pytest.raises(InvalidElement):
        GroupModel.zr(1, (2,)).validate((0, 2))  # torsion not reduced
    with pytest.raises(InvalidElement):
        cyclic(3).validate(5)


# ---------------------------------------------------------------------------
# ball enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS)
def test_ball_zero_is_identity(model):
    assert model.ball(0) == [model.identity()]


def test_free2_ball_one():
    ball = set(GroupModel.free(2).ball(1))
    assert ball == {(), (1,), (-1,), (2,), (-2,)}


def test_free2_ball_two_is_17():
    # oracle: enumerate all reduced words of length <= 2 over 4 letters
    letters = [1, -1, 2, -2]
    words = {()}
    for u in letters:
        words.add((u,))
        for v in letters:
            if u != -v:
                words.add((u, v))
    assert len(words) == 17
    assert set(GroupModel.free(2).ball(2)) == words


def test_free_ball_growth_formula():
    # |ball(r)| = 1 + 2k((2k-1)^r - 1)/(2k-2) for the free group on k letters
    k = 2
    fr = GroupModel.free(k)
    for r in range(6):
        expected = 1 + 2 * k * ((2 * k - 1) ** r - 1) // (2 * k - 2) if r else 1
        assert len(fr.ball(r)) == expected


@pytest.mark.parametrize("model", ALL_MODELS)
def test_ball_monotone_and_deduplicated(model):
    prev = None
    for r in range(4):
        ball = model.ball(r)
        assert len(ball) == len(set(ball))
        if prev is not None:
            assert set(prev) <= set(ball)
            assert ball[: len(prev)] == prev  # BFS prefix property
        prev = ball


INFINITE_MODELS = [
    GroupModel.zr(1),
    GroupModel.zr(1, (2,)),
    GroupModel.zr(2),
    GroupModel.free(2),
    GroupModel.heisenberg(),
    GroupModel.klein_bottle(),
]


def _plain_ball(model, radius):
    """BFS over `model.mul`, trying every step from every element: the
    elements, parents, steps taken and step list `ball` must reproduce."""
    steps = []
    for g in model.generators():
        steps += [g] if model.inv(g) == g else [g, model.inv(g)]
    out, parent, via = [model.identity()], [0], [0]
    seen, frontier = set(out), [0]
    for _ in range(radius):
        nxt = []
        for p in frontier:
            for k, s in enumerate(steps):
                y = model.mul(out[p], s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(len(out))
                    out.append(y)
                    parent.append(p)
                    via.append(k)
        frontier = nxt
    return out, parent, via, steps


@pytest.mark.parametrize("model", INFINITE_MODELS, ids=lambda m: m.selector())
@pytest.mark.parametrize("radius", range(6))
def test_ball_matches_plain_bfs(model, radius):
    out, parent, via, steps = _plain_ball(model, radius)
    fresh = parse_model(model.selector())
    ball = fresh.ball(radius)
    assert ball == out
    if radius:
        domain = fresh.domain(radius)
        assert domain.elements is ball and domain.radius == radius
        assert domain.index == {x: i for i, x in enumerate(out)}
        assert (domain.parent, domain.via, domain.steps) == (parent, via, steps)
    else:
        with pytest.raises(ValueError):
            fresh.domain(0)
    with pytest.raises(BallTooLarge):
        parse_model(model.selector()).ball(radius, cap=len(out) - 1)
    assert parse_model(model.selector()).ball(radius, cap=len(out)) == out


def test_ball_cap_enforced():
    with pytest.raises(BallTooLarge):
        GroupModel.free(2).ball(8, cap=100)


def test_ball_cap_enforced_on_cached_ball():
    model = GroupModel.free(2)
    assert len(model.ball(4)) == 161
    assert len(model.domain(4).index) == 161
    with pytest.raises(BallTooLarge):
        model.ball(4, cap=10)
    with pytest.raises(BallTooLarge):
        model.domain(4, cap=10)
    assert len(model.ball(4, cap=161)) == 161
    assert len(model.domain(4, cap=161).index) == 161


# ---------------------------------------------------------------------------
# element_order
# ---------------------------------------------------------------------------

def test_element_order_identity():
    assert element_order(cyclic(5), 0) == (1, 0)


def test_element_order_c2():
    assert element_order(cyclic(2), 1) == (2, 1)


def test_element_order_s3_three_cycle():
    # oracle: brute-force powers on the table
    s3 = dihedral(3, name="S3")
    for x in range(6):
        powers = [x]
        while powers[-1] != 0:
            powers.append(s3.mul(powers[-1], x))
        n, wit = element_order(s3, x)
        assert n == len(powers)
        assert wit == s3.inv(x)
    three_cycles = [x for x in range(6) if element_order(s3, x)[0] == 3]
    assert len(three_cycles) == 2
    for x in three_cycles:
        assert element_order(s3, x)[1] == s3.mul(x, x)


@pytest.mark.parametrize("x", [1.5, "1", None, -1, 6])
def test_element_order_rejects_a_non_index(x):
    with pytest.raises(InvalidElement):
        element_order(dihedral(3, name="S3"), x)


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

def test_hom_projection_z_cross_c2():
    m = GroupModel.zr(1, (2,))
    phi = Homomorphism(m, GroupModel.zr(1), images=[(1,), (0,)])
    assert phi.apply((5, 1)) == (5,)
    assert phi.apply(m.identity()) == (0,)


def test_hom_kills_commutator():
    fr = GroupModel.free(2)
    phi = Homomorphism(fr, GroupModel.zr(1), images=[(1,), (0,)])
    abAB = (1, 2, -1, -2)
    assert phi.apply(abAB) == (0,)


def test_hom_rejects_bad_torsion_image():
    m = GroupModel.zr(1, (2,))
    with pytest.raises(InvalidElement):
        Homomorphism(m, GroupModel.zr(1), images=[(1,), (1,)])


def test_hom_klein_bottle_requires_a_to_die():
    kb = GroupModel.klein_bottle()
    with pytest.raises(InvalidElement):
        Homomorphism(kb, GroupModel.zr(1), images=[(1,), (0,)])
    phi = Homomorphism(kb, GroupModel.zr(1), images=[(0,), (1,)])
    assert phi.apply((3, -7)) == (3,)


@pytest.mark.parametrize("model", [m for m in ALL_MODELS if m.kind != "finite"])
def test_hom_multiplicative_on_ball(model):
    rank = len(model.generators())
    images = []
    for i in range(rank):
        v = [0] * 2
        v[i % 2] = 1
        images.append(tuple(v))
    if model.kind == "klein_bottle":
        images[0] = (0, 0)
    if model.kind == "zr_cross_finite":
        images = [img if i < model.rank else (0, 0) for i, img in enumerate(images)]
    phi = Homomorphism(model, GroupModel.zr(2), images=images)
    ball = model.ball(3)
    for x in ball:
        for y in ball:
            fx, fy = phi.apply(x), phi.apply(y)
            assert phi.apply(model.mul(x, y)) == tuple(a + b for a, b in zip(fx, fy))


# Generator images into Z^1 and Z^2 per model: a non-injective map, the zero
# map and a second map; the image classes are checked on single maps and on
# joint layouts of two.
CLASS_MODELS = [
    (GroupModel.zr(2), [[(1,), (-1,)], [(0,), (0,)], [(2, 0), (1, 3)]]),
    (GroupModel.zr(1, (2,)), [[(3,), (0,)], [(0,), (0,)], [(1, -1), (0, 0)]]),
    (GroupModel.heisenberg(), [[(1,), (1,)], [(0,), (0,)], [(1, 0), (0, 1)]]),
    (GroupModel.klein_bottle(), [[(0,), (2,)], [(0,), (0,)], [(0, 0), (1, -1)]]),
    (GroupModel.free(2), [[(1,), (1,)], [(0,), (0,)], [(1, 0), (0, -1)]]),
    (GroupModel.free(3), [[(1,), (0,), (-1,)], [(0,), (0,), (0,)], [(1, 0), (1, 1), (0, 2)]]),
]


def _oracle_classes(homs, elements):
    """Indices 1.. grouped by joint image, one homomorphism evaluation per
    element."""
    out = {}
    for i in range(1, len(elements)):
        out.setdefault(joint_image(homs, elements[i]), []).append(i)
    return out


@pytest.mark.parametrize("model,image_lists", CLASS_MODELS,
                         ids=[m.selector() for m, _ in CLASS_MODELS])
def test_image_classes_match_per_element_images(model, image_lists):
    maps = [Homomorphism(model, GroupModel.zr(len(imgs[0])), images=imgs) for imgs in image_lists]
    hom_lists = [[h] for h in maps] + [[maps[0], maps[2]], [maps[1], maps[2]], [maps[2], maps[0]]]
    for radius in range(1, 5):
        domain = model.domain(radius)
        ball = domain.elements
        assert domain.index == {x: i for i, x in enumerate(ball)}
        for homs in hom_lists:
            got = domain.classes(homs).members
            assert list(got.items()) == list(_oracle_classes(homs, ball).items())


def test_image_classes_on_finite_elements_without_maps():
    model = dihedral(3, name="S3")
    assert model.domain(3).classes([]).members == {(): [1, 2, 3, 4, 5]}
    model.ball(2)
    assert model._balls[2].classes([]).members == {(): [1, 2, 3, 4, 5]}


def test_finite_scan_domain_is_built_once():
    # one domain per finite model, so the memos kept on it (image classes)
    # and on cones for it (member sets, inverse member sets) hit on every
    # call
    model = fixture("D4")
    first = model.domain(3)
    assert model.domain(1) is first and first.radius == 0
    assert first.elements == list(range(8)) and first.index == {x: x for x in range(8)}
    assert first.classes([]) is model.domain(3).classes([])
    cone = explicit(model, [1, 2, 5])
    assert inverse_members(cone, model.domain(3)) is inverse_members(cone, first)


def test_finite_whole_group_and_ball_keep_separate_memos():
    # a finite model's ball(1) holds every element in BFS order: as many as
    # its whole group, in another order, with image classes of its own, and
    # a cone's inverse member set on it indexes the ball; building one
    # domain's memos must not evict the other's, nor may a cone read the
    # other domain's set
    model = fixture("D4")
    whole = model.domain(1)
    cone = explicit(model, [1, 3, 4])
    classes, inverse = whole.classes([]), inverse_members(cone, whole)
    ball = model.ball(1)
    in_ball = model._balls[1]
    assert sorted(ball) == whole.elements and ball != whole.elements
    on_ball = inverse_members(cone, in_ball)
    assert on_ball != inverse
    assert {ball[i] for i in on_ball} == {whole.elements[i] for i in inverse}
    assert in_ball.classes([]).members == {(): list(range(1, 8))}
    assert in_ball.classes([]) is not classes
    assert whole.classes([]) is classes
    assert inverse_members(cone, whole) == inverse


@pytest.mark.parametrize("model", ALL_MODELS)
def test_inverse_index_on_ball(model):
    # a cone's inverse member set is kept on the cone for its domain and
    # computed afresh for another: ball(2) is the start of ball(3) in BFS
    # order, so there it is the part of the ball(3) set below its size
    domain, small = model.domain(3), model.domain(2)
    for mode in ("include", "exclude"):
        cone = explicit(model, domain.elements[1::3], mode)
        inverse = inverse_members(cone, domain)
        assert inverse_members(cone, model.domain(3)) is inverse
        assert inverse_members(cone, small) == {i for i in inverse if i < len(small.elements)}
        assert inverse_members(cone, domain) == inverse


# ---------------------------------------------------------------------------
# group-law invariants on balls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS)
def test_associativity_on_ball(model):
    ball = model.ball(2) if model.kind in ("free", "heisenberg") else model.ball(3)
    for x in ball:
        for y in ball:
            xy = model.mul(x, y)
            for z in ball:
                assert model.mul(xy, z) == model.mul(x, model.mul(y, z))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_inverses_on_ball(model):
    for x in model.ball(4):
        assert model.mul(x, model.inv(x)) == model.identity()
        assert model.inv(model.inv(x)) == x


# ---------------------------------------------------------------------------
# is_normal
# ---------------------------------------------------------------------------

def test_abelian_subgroups_all_normal():
    g = fixture("C4xC2")
    from semicover.covering import all_subgroups, _mask_members

    for sub in all_subgroups(g):
        assert is_normal(g, _mask_members(sub))


def test_s3_order_two_subgroup_not_normal():
    # oracle: conjugate by everything, brute force
    s3 = dihedral(3, name="S3")
    refl = next(x for x in range(1, 6) if element_order(s3, x)[0] == 2)
    sub = [0, refl]
    escapes = [
        (g, h) for g in range(6) for h in sub
        if s3.mul(s3.mul(g, h), s3.inv(g)) not in sub
    ]
    assert escapes
    assert not is_normal(s3, sub)


@pytest.mark.parametrize("subgroup", [[0, 9], [0, "a"], [0, -1], [0, 1.0], [0, [1]]])
def test_is_normal_refuses_entries_that_are_not_indices(subgroup):
    # S3 has indices 0-5: an index past them, a string, a negative index
    # (which a list would read from its end), a float and a list
    with pytest.raises(InvalidElement):
        is_normal(dihedral(3, name="S3"), subgroup)


# ---------------------------------------------------------------------------
# selectors and element syntax
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("selector,kind", [
    ("z^1xC2", "zr_cross_finite"),
    ("z^2", "zr_cross_finite"),
    ("z^0", "zr_cross_finite"),
    ("free:2", "free"),
    ("free:1", "free"),
    ("heisenberg", "heisenberg"),
    ("klein_bottle", "klein_bottle"),
])
def test_parse_model_selectors(selector, kind):
    m = parse_model(selector)
    assert m.kind == kind
    assert m.selector() == selector
    again = parse_model(m.selector())
    assert again == m and hash(again) == hash(m)
    # models of different kinds differ, even where their identities agree:
    # z^0 and free:1 both have identity ()
    others = [o for o in ALL_MODELS + [GroupModel.zr(0), GroupModel.free(1)] if o.kind != kind]
    assert all(m != o and o != m for o in others)


def test_parse_model_finite_is_the_group():
    text = (Path(__file__).resolve().parent.parent / "inputs" / "S3.tbl").read_text()
    model = parse_model("finite:S3.tbl", loader=lambda path: load_finite_group(text, name="S3"))
    assert type(model) is FiniteGroup and model == dihedral(3) and model.selector() == "finite:S3"
    assert model.domain(1).elements == list(range(6)) and model.mul(1, 1) == model.table[1][1]


def test_no_kind_comparisons_in_src():
    # each model class answers for itself: no code compares a model's kind,
    # read as an attribute or through a local named kind
    src = Path(__file__).resolve().parent.parent / "src" / "semicover"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                    getattr(operand, "attr", getattr(operand, "id", None)) == "kind"
                    for operand in [node.left, *node.comparators]):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _name(node):
    return getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))


def test_one_path_for_vector_sums_and_signs():
    # every Z^r vector sum, difference and lex sign pattern is formed by
    # `groups.vector_ops`: no map(add, ...) or map(sub, ...) outside it,
    # and no per-entry lex sign loop (lex_sign, sign_pattern) anywhere
    src = Path(__file__).resolve().parent.parent / "src" / "semicover"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        factory = [n for n in ast.walk(tree)
                   if isinstance(n, ast.FunctionDef) and n.name == "vector_ops"]
        inside = {id(n) for f in factory for n in ast.walk(f)}
        for node in ast.walk(tree):
            if _name(node) in ("lex_sign", "sign_pattern"):
                found.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Call) and _name(node.func) == "map" and node.args
                  and _name(node.args[0]) in ("add", "sub") and id(node) not in inside):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _callers(func: str) -> list:
    """The qualified names of the functions in src that call `func`."""
    src = Path(__file__).resolve().parent.parent / "src" / "semicover"
    found = set()

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            inner = f"{qual}.{child.name}" if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else qual
            if isinstance(child, ast.Call) and _name(child.func) == func:
                found.add(inner)
            visit(child, inner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return sorted(found)


def test_one_image_walk():
    # `Domain.images` is the one walk that sums joint images along a
    # spanning tree, and the only code in groups.py that maps steps with
    # `joint_image`; elsewhere it maps only elements off a domain: a form's
    # sign pattern of one element, a product scan's exceptions and a
    # comparator's arguments
    assert _callers("joint_image") == ["cones.Form.signs", "cones.ProductScan.clean",
                                       "groups.Domain.images", "orders.LeftOrderComparator._image"]


def test_conjugation_only_in_the_normality_verdict():
    # every conjugate in src is formed by `cones.normality_verdict`, the one
    # check of conjugation stability, or by `covers.conjugate_split`, which
    # splits H along the conjugator that check found: no second normality
    # scan
    assert _callers("conj") == ["cones.normality_verdict", "covers.conjugate_split"]


def test_inverse_conditions_read_inverse_members():
    # every x^-1 condition on a domain is read off `cones.inverse_members`:
    # src names no inverse pair list and no per-element inverse index, and
    # builds no inverse, symmetric-part or intersection node only to read
    # its member set
    src = Path(__file__).resolve().parent.parent / "src" / "semicover"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _name(node) in ("inverse_pairs", "inverses") or (
                    isinstance(node, ast.Call) and _name(node.func) == "ball_members"
                    and any(isinstance(arg, ast.Call) and _name(arg.func) in
                            ("invert_cone", "symmetric_part", "intersection")
                            for arg in node.args)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_verdict_memo_only_in_decide_once():
    # a domain's verdict memo is read and written by `cones.decide_once`
    # alone, so every verdict in it is keyed one way (`Form.key`);
    # `Domain.__init__` only creates it
    src = Path(__file__).resolve().parent.parent / "src" / "semicover"
    found = set()

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            inner = f"{qual}.{child.name}" if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else qual
            if isinstance(child, ast.Attribute) and child.attr == "verdicts":
                found.add(inner)
            visit(child, inner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert sorted(found) == ["cones.decide_once", "groups.Domain.__init__"]


# definitions in src that only tests reach, each with the reason it stays
TEST_ONLY = {
    "cones.contains": "one checked membership query, the tests' way to read a cone",
    "cones.ConeSet.children": "the cone tree's structure, walked by the tree tests",
    "cones._Combination.children": "the cone tree's structure, walked by the tree tests",
    "cones.Complement.children": "the cone tree's structure, walked by the tree tests",
    "orders.LeftOrderWitness.comparator": "a witness's order as a comparator, for tests",
    "orders.LeftOrderComparator.lt": "the strict order, which the order tests compare",
    "orders.lex_combine": "kernel intersection; ROADMAP item 3 is its caller",
    "orders.merge_covers": "kernel intersection; ROADMAP item 3 is its caller",
    "orders.totality_mod_kernel": "left for ROADMAP item 3's kernel bounds",
    "fixtures.table_text": "fixture: writes a table file for the CLI tests",
    "fixtures.z_cross_c2_halves": "fixture: the bundled Z x C2 cover",
}


def _scan(node, qual: str, owners: tuple, defined: dict, read: set) -> None:
    """Record, under node (qualified as `qual`), each top-level function
    and class and each of their methods but dunders in `defined` (bare
    name -> qualified names), and each name read in `read`, unless it is
    read inside a definition of that name (`owners`)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{qual}.{child.name}"
            top = not owners or (len(owners) == 1 and isinstance(node, ast.ClassDef))
            if top and not child.name.startswith("__"):
                defined.setdefault(child.name, []).append(inner)
            _scan(child, inner, owners + (child.name,), defined, read)
            continue
        if isinstance(child, (ast.Name, ast.Attribute)) and _name(child) not in owners:
            read.add(_name(child))
        _scan(child, qual, owners, defined, read)


def test_library_code_has_a_caller():
    # every function, class and method the package defines is referenced in
    # src outside its own definition and __init__.py, or is on TEST_ONLY
    src = Path(__file__).resolve().parent.parent / "src" / "semicover"
    defined, read = {}, set()
    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            _scan(ast.parse(path.read_text()), path.stem, (), defined, read)
    uncalled = sorted(q for name, quals in defined.items() if name not in read for q in quals)
    assert uncalled == sorted(TEST_ONLY)


# defaulted parameters that no call in src sets, each with the reason it stays
UNSET_DEFAULTS = {
    "cli.main(argv)": "the entry point: the console script passes no arguments",
    "covers.refine_pair(verify)": "the tests' one view of a refinement before its checks",
    "groups.GroupModel.ball(cap)": "the one ball bound; tests lower it to reach BallTooLarge",
    "groups.GroupModel.domain(cap)": "the one ball bound; tests lower it to reach BallTooLarge",
    "groups.FiniteGroup.domain(cap)": "the one ball bound, as on every model",
    "orders.merge_covers(radius)": "kernel intersection; ROADMAP item 3 is its caller",
    "suites.suite_lemmas(faults)": "keeps the suite tests short",
}


def _defaults(fn) -> dict:
    """The defaulted parameters of a def, each with its default's AST dump."""
    args = fn.args
    pos = args.posonlyargs + args.args
    pairs = list(zip(pos[len(pos) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return {a.arg: ast.dump(d) for a, d in pairs}


def test_every_default_is_set_by_a_caller():
    # every defaulted parameter of a function or method in src is set by
    # some call in src to another value than its default, or is on
    # UNSET_DEFAULTS.  Calls match definitions by bare name (a class name
    # calls its __init__).  An argument that is a bare parameter of the
    # calling definition passes on what that parameter is given, so it
    # sets the callee's parameter only once the caller's is set (a
    # fixpoint); any other argument sets it
    src = Path(__file__).resolve().parent.parent / "src" / "semicover"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defs = {}  # bare name -> [(qualified name, def)]
    for stem, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if isinstance(fn, ast.FunctionDef):
                    qual = f"{stem}.{node.name}.{fn.name}" if fn is not node \
                        else f"{stem}.{fn.name}"
                    defs.setdefault(fn.name, []).append((qual, fn))
                    if fn.name == "__init__":
                        defs.setdefault(node.name, []).append((qual, fn))
    tracked = {id(fn): qual for entries in defs.values() for qual, fn in entries}
    is_set, passes = set(), []

    def origin(value, scope):
        # (definition, parameter) whose values a bare name passes on
        for fn in reversed(scope):
            args = fn.args
            if value.id in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                return (tracked[id(fn)], value.id) if id(fn) in tracked else None
        return None

    def calls(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                bind(child, scope)
            calls(child, scope + [child] * isinstance(child, ast.FunctionDef))

    def bind(call, scope):
        for qual, fn in defs.get(_name(call.func), ()):
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            if params[:1] in (["self"], ["cls"]):
                params = params[1:]
            defaults, given = _defaults(fn), []
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    given += [(p, None) for p in params[i:]]
                    break
                given += [(p, arg) for p in params[i:i + 1]]
            for kw in call.keywords:
                given += [(kw.arg, kw.value)] if kw.arg else [(p, None) for p in defaults]
            for p, arg in given:
                if arg is not None and defaults.get(p) == ast.dump(arg):
                    continue
                source = origin(arg, scope) if isinstance(arg, ast.Name) else None
                if source is None:
                    is_set.add((qual, p))
                else:
                    passes.append((source, (qual, p)))

    for tree in trees.values():
        calls(tree, [])
    grown = True
    while grown:
        new = {dst for src_, dst in passes if src_ in is_set} - is_set
        is_set |= new
        grown = bool(new)
    unset = {f"{qual}({p})" for entries in defs.values() for qual, fn in entries
             for p in _defaults(fn) if (qual, p) not in is_set}
    assert sorted(unset) == sorted(UNSET_DEFAULTS)


def _lex_sign(vec) -> int:
    # the reference definitions the factory replaced, kept as the oracle
    for v in vec:
        if v > 0:
            return 1
        if v < 0:
            return -1
    return 0


def _sign_pattern(vec, layout) -> tuple:
    return tuple([_lex_sign(vec[lo:hi]) for lo, hi in layout])


_ENTRIES = st.integers(-2, 2) | st.integers(-2**70, 2**70)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_vector_ops_match_the_generic_arithmetic(data):
    # widths 0-6 cut into up to four slices, some of width 0, with entries
    # past 2^64 and runs of zeros that the lex sign must look through
    width = data.draw(st.integers(0, 6))
    cuts = sorted(data.draw(st.lists(st.integers(0, width), max_size=3)))
    # a width-0 vector may also have no slice at all
    bounds = [0, *cuts, width] if data.draw(st.booleans()) or width else []
    layout = list(zip(bounds, bounds[1:]))
    ranks = tuple([hi - lo for lo, hi in layout])
    vectors = st.tuples(*[_ENTRIES] * width)
    x, y = data.draw(vectors), data.draw(vectors)
    lead = data.draw(st.integers(0, width))
    x = (0,) * lead + x[lead:]
    ops = vector_ops(ranks)
    assert ops is vector_ops(ranks) and ops.zero == (0,) * width
    assert ops.add(x, y) == tuple(map(add, x, y))
    assert ops.sub(x, y) == tuple(map(sub, x, y))
    assert ops.signs(x) == _sign_pattern(x, layout)
    assert ops.signs(ops.zero) == (0,) * len(layout)
    if len(layout) == 1:
        assert ops.signs(x) == (_lex_sign(x),)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_free_ball_by_concatenation_matches_the_reduced_product(rank):
    # a ball step never undoes a word's last letter, so the ball grown by
    # concatenating tuples is the one grown by the reducing product
    for radius in range(1, 6):
        model, ref = GroupModel.free(rank), GroupModel.free(rank)
        ref._extend = _free_product
        got, want = model.domain(radius), ref.domain(radius)
        assert (got.elements, got.parent, got.via) == (want.elements, want.parent, want.via)
    assert GroupModel.free(1).mul((1,), (-1,)) == ()
    assert GroupModel.free(2).mul((1, 2), (-2, -1, 2)) == (2,)


@pytest.mark.parametrize("images", [[(1,), (0,)], [(0,), (-1,)], [(1,), (2,)], [(-2,), (1,)],
                                    [(1, -1), (2, 1)], [(0, 1), (1, 0)]],
                         ids=["axis-a", "axis-b", "mixed", "mixed-neg", "plane", "plane-swap"])
def test_free_class_domain_by_concatenation_matches_the_reduced_product(images):
    # the class walk never follows a step by its inverse either, so its
    # representatives are concatenations too
    target = GroupModel.zr(len(images[0]))
    for radius in range(1, 9):
        model, ref = GroupModel.free(2), GroupModel.free(2)
        ref._extend = _free_product
        homs = [Homomorphism(model, target, images=images)]
        got, want = model.domain(radius, homs=homs), ref.domain(radius, homs=homs)
        assert (got.elements, got.parent, got.via) == (want.elements, want.parent, want.via)
        assert got.classes(homs) == want.classes(homs)
    assert got.hom_keys is not None  # a class domain, not the whole ball


# (selector, generator images, radius) whose class domain stops the ball
# walk short: the first zero-image element in layers 1, 1, 2 and 4
STOPPED_WALKS = [("z^2", [(1,), (0,)], 16), ("klein_bottle", [(0,), (2,)], 20),
                 ("heisenberg", [(1,), (-1,)], 7), ("free:2", [(1, -1), (2, 1)], 5)]


@pytest.mark.parametrize("selector,images,radius", STOPPED_WALKS,
                         ids=[s for s, _, _ in STOPPED_WALKS])
def test_class_domain_classifies_no_prefix(monkeypatch, selector, images, radius):
    # the zero class is found from the prefix's joint images: building a
    # class domain on a fresh model asks no domain for its image classes,
    # and the stopped prefix keeps none; the class domain's images are
    # seeded by the walk that built it, and grouped when first asked for
    calls = []
    classes = groups.Domain.classes
    monkeypatch.setattr(groups.Domain, "classes",
                        lambda self, homs: calls.append(self) or classes(self, homs))
    model = parse_model(selector)
    homs = [Homomorphism(model, GroupModel.zr(len(images[0])), images=images)]
    domain = model.domain(radius, homs=homs)
    prefix = model._walk[0]
    assert domain.hom_keys is not None and prefix.radius < radius
    assert not calls and not prefix._classes
    assert list(domain._images) == [domain.hom_keys] and not domain._classes


@pytest.mark.parametrize("selector,images,radius", STOPPED_WALKS,
                         ids=[s for s, _, _ in STOPPED_WALKS])
def test_continued_prefix_keeps_its_images(monkeypatch, selector, images, radius):
    # the ball that continues a stopped prefix extends the prefix's images:
    # its classes under the same maps map no element, and equal a fresh
    # model's
    model = parse_model(selector)
    target = GroupModel.zr(len(images[0]))
    homs = [Homomorphism(model, target, images=images)]
    model.domain(radius, homs=homs)
    prefix = model._walk[0]
    ball = model.domain(radius)
    assert ball is prefix and ball.radius == radius
    calls = []
    apply = Homomorphism.apply
    monkeypatch.setattr(Homomorphism, "apply", lambda self, x: calls.append(x) or apply(self, x))
    classes = ball.classes(homs)
    assert calls == []
    monkeypatch.undo()
    fresh = parse_model(selector)
    assert classes == fresh.domain(radius).classes([Homomorphism(fresh, target, images=images)])


def test_smaller_ball_keeps_the_stopped_prefix():
    # a ball below the stopped prefix's radius is walked afresh and leaves
    # the prefix on the model, so a later class domain continues it
    model = parse_model("free:2")
    homs = [Homomorphism(model, GroupModel.zr(2), images=[(1, -1), (2, 1)])]
    model.domain(5, homs=homs)
    prefix = model._walk[0]
    assert len(prefix.elements) == 161 and prefix.radius == 4
    assert len(model.ball(3)) == 53 and model._walk[0] is prefix
    domain = model.domain(6, homs=homs)
    assert model._walk[0] is prefix
    fresh = parse_model("free:2")
    want = fresh.domain(6, homs=[Homomorphism(fresh, GroupModel.zr(2), images=[(1, -1), (2, 1)])])
    assert (domain.elements, domain.parent, domain.via) == (want.elements, want.parent, want.via)


@pytest.mark.parametrize("selector,images,radius", STOPPED_WALKS,
                         ids=[s for s, _, _ in STOPPED_WALKS])
def test_model_keeps_one_domain_per_radius_and_maps(selector, images, radius):
    # a model keeps one ball per radius asked, one domain per (radius, hom
    # keys) and one stopped prefix: asking again, with equal maps, adds none
    model = parse_model(selector)
    target = GroupModel.zr(len(images[0]))
    homs = [Homomorphism(model, target, images=images)]
    domain, prefix = model.domain(radius, homs=homs), model._walk
    kept = dict(model._balls)
    again = model.domain(radius, homs=[Homomorphism(model, target, images=images)])
    assert again is domain and model._walk is prefix and model._balls == kept
    assert list(kept) == [(radius, tuple([h.key for h in homs]))]
    ball = model.domain(radius)
    assert model.domain(radius) is ball and model._walk is None
    assert list(model._balls) == [*kept, radius]


def test_parse_model_rejects_unknown():
    with pytest.raises(ParseError):
        parse_model("so8")


@pytest.mark.parametrize("selector", ["z^99999999999999999999999", "free:1000000000000",
                                      f"z^{MAX_GENERATORS + 1}", f"free:{MAX_GENERATORS + 1}",
                                      f"z^{MAX_GENERATORS - 1}xC2xC3", "free:27"])
def test_parse_model_bounds_the_generators(selector):
    # the count is checked before any generator or step table is built
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            parse_model(selector)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000 and repr(selector) in str(info.value)
    assert len(parse_model(f"z^{MAX_GENERATORS}").generators()) == MAX_GENERATORS


def test_free_generators_round_trip_up_to_the_last_letter():
    model = parse_model("free:26")
    for g in model.generators():
        for x in (g, model.inv(g)):
            assert parse_element(model, format_element(model, x)) == x
    for x in [(26, -1, 13), (-26, -26, 2), (1, 1, 1, -25)]:
        assert parse_element(model, format_element(model, x)) == x
    assert format_element(model, (26, -1)) == "za^-1"
    with pytest.raises(ParseError, match="a-z"):
        parse_model("free:27")


@pytest.mark.parametrize("rank", [0, 27])
def test_free_rank_is_checked_by_the_model(rank):
    # past z a generator has no letter, so its words could not be read back
    with pytest.raises(ParseError, match="a-z") as built:
        GroupModel.free(rank)
    with pytest.raises(ParseError) as parsed:
        parse_model(f"free:{rank}")
    assert str(built.value) == str(parsed.value)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_element_format_parse_roundtrip(model):
    for x in model.ball(3):
        assert parse_element(model, format_element(model, x)) == x


def test_word_syntax_variants():
    kb = GroupModel.klein_bottle()
    assert parse_element(kb, "b^2a^-1") == (2, -1)
    assert parse_element(kb, "bbA") == (2, -1)
    assert parse_element(kb, "1") == (0, 0)
    fr = GroupModel.free(2)
    assert parse_element(fr, "abAB") == (1, 2, -1, -2)
    assert parse_element(fr, "a^3") == (1, 1, 1)
    # words are freely reduced as written, and Klein bottle powers are closed forms
    assert parse_element(fr, "a^5A^2b^-1B") == (1, 1, 1, -2, -2)
    assert parse_element(kb, "a^3b^-2") == (-2, 3)
    with pytest.raises(ParseError):
        parse_element(fr, "xyz!")
    for model in (fr, kb):  # more letters than the ball cap
        with pytest.raises(ParseError):
            parse_element(model, "a^99999999999999999999999")
