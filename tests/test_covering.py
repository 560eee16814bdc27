"""Covering number tests with brute-force oracles computed in place."""

import random
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semicover import cli, covering
from semicover.covering import (
    DEFAULT_SUBGROUP_CAP,
    CensusResult,
    _mask_members,
    _maximal,
    all_subgroups,
    maximal_subgroups,
    scorza_check,
    sigma_g,
    sigma_s_finite,
    subsemigroup_census,
    two_cover_search,
)
from semicover.errors import CoveringMismatch, GroupTooLarge
from semicover.fixtures import CORPUS, cyclic, fixture
from semicover.groups import FiniteGroup


def brute_subgroups(group):
    """Oracle: filter all subsets for subgroup axioms directly."""
    n = group.order
    out = []
    for mask in range(1, 1 << n):
        members = _mask_members(mask)
        if 0 not in members:
            continue
        if any(group.inv(a) not in members for a in members):
            continue
        if any(group.mul(a, b) not in members for a in members for b in members):
            continue
        out.append(mask)
    return sorted(out)


def brute_census(group):
    """Oracle: the power-set scan, every nonempty subset tested for closure
    directly, with the first closed subset that is not a subgroup."""
    n = group.order
    closed = []
    exception = None
    for mask in range(1, 1 << n):
        members = _mask_members(mask)
        if any(not mask & (1 << group.mul(a, b)) for a in members for b in members):
            continue
        closed.append(mask)
        if exception is None and (0 not in members
                                  or any(group.inv(a) not in members for a in members)):
            exception = mask
    return closed, exception


def brute_min_cover(group, candidates):
    """Oracle: smallest covering family over arbitrary candidate subsets."""
    full = (1 << group.order) - 1
    for k in range(1, len(candidates) + 1):
        for combo in combinations(candidates, k):
            u = 0
            for m in combo:
                u |= m
            if u == full:
                return k
    return None


# ---------------------------------------------------------------------------
# subgroup enumeration
# ---------------------------------------------------------------------------

def test_subgroups_c2():
    g = cyclic(2)
    assert all_subgroups(g) == [0b01, 0b11]
    assert maximal_subgroups(g) == [0b01]


def test_subgroups_v4_against_oracle():
    g = fixture("V4")
    assert all_subgroups(g) == brute_subgroups(g)
    assert len(all_subgroups(g)) == 5
    maxes = maximal_subgroups(g)
    assert len(maxes) == 3
    assert all(len(_mask_members(m)) == 2 for m in maxes)


def test_subgroups_s3_against_oracle():
    g = fixture("S3")
    subs = all_subgroups(g)
    assert subs == brute_subgroups(g)
    proper_nontrivial = [s for s in subs if s not in (1, (1 << 6) - 1)]
    assert len(proper_nontrivial) == 4
    orders = sorted(len(_mask_members(s)) for s in proper_nontrivial)
    assert orders == [2, 2, 2, 3]
    assert sorted(maximal_subgroups(g)) == sorted(proper_nontrivial)


@pytest.mark.parametrize("name", CORPUS)
def test_subgroups_match_oracle_small(name):
    g = fixture(name)
    subgroups = all_subgroups(g)
    assert subgroups == brute_subgroups(g)
    # every nonempty closed subset of a finite group is a subgroup
    assert subgroups == subsemigroup_census(g, DEFAULT_SUBGROUP_CAP).closed_subsets
    subgroups.clear()  # each call returns a new list; the group's memo is untouched
    assert all_subgroups(g) == brute_subgroups(g)


def test_one_closed_subset_enumeration_per_sigma_request(monkeypatch, capsys):
    # sigma_g, the census and the Scorza check all read one enumeration
    calls = []
    enumerate_closed = covering._closed_supersets
    monkeypatch.setattr(covering, "_closed_supersets",
                        lambda group: calls.append(group.name) or enumerate_closed(group))
    table = Path(__file__).resolve().parent.parent / "inputs" / "D4.tbl"
    assert cli.main(["sigma", "--exhaustive", "--table", str(table)]) == 0
    assert '"closed_subsets": 10' in capsys.readouterr().out
    assert calls == ["D4"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**10 - 1), unique=True, max_size=40))
def test_maximal_keeps_the_uncontained_masks_in_order(masks):
    # oracle: the pairwise containment test, quadratic in the masks
    assert _maximal(masks) == [m for m in masks
                               if not any(m != t and m & t == m for t in masks)]


def test_subgroup_cap():
    with pytest.raises(GroupTooLarge):
        all_subgroups(cyclic(25))


# ---------------------------------------------------------------------------
# sigma_g
# ---------------------------------------------------------------------------

def test_sigma_v4_is_three():
    res = sigma_g(fixture("V4"))
    assert res.sigma_g == 3
    union = set()
    for cover in res.witness_cover:
        union |= set(cover)
    assert union == set(range(4))
    assert len(res.witness_cover) == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12])
def test_sigma_cyclic_undefined(n):
    res = sigma_g(cyclic(n))
    assert res.sigma_g is None
    assert res.witness_cover == []


def test_sigma_s3_is_four_by_oracle():
    g = fixture("S3")
    res = sigma_g(g)
    oracle = brute_min_cover(g, [s for s in brute_subgroups(g) if s != (1 << 6) - 1])
    assert res.sigma_g == oracle == 4


@pytest.mark.parametrize("name", [n for n in CORPUS])
def test_sigma_matches_brute_oracle(name):
    g = fixture(name)
    res = sigma_g(g)
    proper = [s for s in brute_subgroups(g) if s != (1 << g.order) - 1]
    assert res.sigma_g == brute_min_cover(g, proper)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def test_census_c3():
    res = subsemigroup_census(cyclic(3))
    # closed nonempty subsets: {1} and the whole group (g^2 = g^-1)
    assert res.closed_subsets == [0b001, 0b111]
    assert res.all_are_subgroups


def test_census_v4_closed_sets_are_the_subgroups():
    g = fixture("V4")
    res = subsemigroup_census(g)
    assert res.closed_subsets == brute_subgroups(g)
    assert len(res.closed_subsets) == 5
    assert res.all_are_subgroups


def test_census_s3_closed_sets_are_the_subgroups():
    g = fixture("S3")
    res = subsemigroup_census(g)
    assert res.closed_subsets == brute_subgroups(g)
    assert len(res.closed_subsets) == 6
    assert res.all_are_subgroups


def test_census_identity_on_corpus_order_8():
    for name in CORPUS:
        g = fixture(name)
        if g.order <= 8:
            assert subsemigroup_census(g).all_are_subgroups, name


@pytest.mark.parametrize("name", CORPUS)
def test_census_matches_power_set_scan(name):
    g = fixture(name)
    res = subsemigroup_census(g, DEFAULT_SUBGROUP_CAP)
    closed, exception = brute_census(g)
    assert res.closed_subsets == closed
    assert res.first_exception == exception
    assert res.all_are_subgroups and exception is None


def closure_enumeration(group):
    """Oracle: every closed subset, the empty one included, sorted.  Each
    closed set found gets one more element and is closed under all
    products until nothing new appears; a closed set T is reached from the
    empty set one element of T at a time."""
    table = group.table
    found = {frozenset()}
    todo = [frozenset()]
    while todo:
        s = todo.pop()
        for x in group.elements():
            if x in s:
                continue
            t = s | {x}
            while True:
                more = {table[a][b] for a in t for b in t} - t
                if not more:
                    break
                t |= more
            if t not in found:
                found.add(t)
                todo.append(t)
    return sorted(sum(1 << x for x in t) for t in found)


def _shuffled(group, seed):
    """The group with its non-identity elements renamed at random, named
    after the seed."""
    perm = [0] + random.Random(seed).sample(range(1, group.order), group.order - 1)
    table = [[0] * group.order for _ in range(group.order)]
    for a, row in enumerate(group.table):
        for b, v in enumerate(row):
            table[perm[a]][perm[b]] = perm[v]
    return FiniteGroup(table, name=f"{group.name}-{seed}")


def _s4():
    elements = list(permutations(range(4)))  # the identity first
    index = {p: i for i, p in enumerate(elements)}
    return FiniteGroup([[index[tuple(p[q[i]] for i in range(4))] for q in elements]
                        for p in elements], name="S4")


@pytest.mark.parametrize("group", [
    *(_shuffled(fixture(name), seed) for name in CORPUS for seed in range(3)),
    FiniteGroup([[a ^ b for b in range(32)] for a in range(32)], name="C2^5"),
    _s4(),
], ids=lambda g: g.name)
def test_closed_subsets_match_the_closure_enumeration(group):
    # the census grows each closed set by right products with generators
    assert covering._closed_supersets(group) == closure_enumeration(group)


def test_census_cap():
    with pytest.raises(GroupTooLarge):
        subsemigroup_census(fixture("A4"))


# ---------------------------------------------------------------------------
# sigma_s
# ---------------------------------------------------------------------------

def exhaustive_sigma_s(g):
    return sigma_s_finite(g, sigma_g(g), subsemigroup_census(g))


def test_sigma_s_v4_exhaustive_agreement():
    res = exhaustive_sigma_s(fixture("V4"))
    assert res.sigma_s == res.sigma_g == 3
    assert res.method == "exhaustive_semigroup"


def test_sigma_s_s3_exhaustive_agreement():
    res = exhaustive_sigma_s(fixture("S3"))
    assert res.sigma_s == res.sigma_g == 4


def test_sigma_s_cyclic_undefined_both_ways():
    res = exhaustive_sigma_s(cyclic(6))
    assert res.sigma_g is None and res.sigma_s is None


def test_sigma_s_rejects_an_inconsistent_census():
    # a census that lists only {1} and V4 itself has no proper cover at all
    g = fixture("V4")
    census = CensusResult([0b0001, 0b1111], True, None)
    with pytest.raises(CoveringMismatch):
        sigma_s_finite(g, sigma_g(g), census)
    # without one of its order-2 subgroups, V4 has no proper cover either
    census = subsemigroup_census(g)
    census.closed_subsets = [m for m in census.closed_subsets if m != brute_subgroups(g)[1]]
    with pytest.raises(CoveringMismatch):
        sigma_s_finite(g, sigma_g(g), census)


# ---------------------------------------------------------------------------
# scorza / two covers / corpus-wide invariants
# ---------------------------------------------------------------------------

def test_scorza_v4():
    g = fixture("V4")
    assert scorza_check(g, sigma_g(g)) == (True, True)


def test_scorza_s3():
    g = fixture("S3")
    assert scorza_check(g, sigma_g(g)) == (False, False)


def test_scorza_d4():
    # D4 modulo its center is the Klein four group
    g = fixture("D4")
    assert scorza_check(g, sigma_g(g)) == (True, True)


def test_scorza_agreement_on_corpus():
    for name in CORPUS:
        g = fixture(name)
        left, right = scorza_check(g, sigma_g(g))
        assert left == right, name


def test_two_cover_search_empty_on_small_corpus():
    for name in CORPUS:
        g = fixture(name)
        rep = two_cover_search(g, subsemigroup_census(g, DEFAULT_SUBGROUP_CAP))
        assert rep["covers_found"] == [], name


def test_two_cover_c6_both_negatives_coexist():
    g = cyclic(6)
    rep = two_cover_search(g, subsemigroup_census(g))
    assert rep["covers_found"] == []
    assert sigma_g(g).sigma_g is None


def test_sigma_never_2_nor_7_on_corpus():
    for name in CORPUS:
        res = sigma_g(fixture(name))
        assert res.sigma_g not in (2, 7), name
        if res.sigma_g is not None:
            assert res.sigma_g >= 3


def test_corpus_has_every_group_up_to_order_12():
    # counts per order for groups of order <= 12: a fixed classification
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1, 12: 5}
    counts = {}
    for name in CORPUS:
        g = fixture(name)
        counts[g.order] = counts.get(g.order, 0) + 1
    assert counts == expected
