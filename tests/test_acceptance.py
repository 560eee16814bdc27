"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is exact (set equality or verdict equality on the stated
ball); runtime budgets are asserted against wall-clock time.
"""

import json
import random
import time
from itertools import combinations

import pytest

from semicover import (
    GroupModel,
    Homomorphism,
    cone_from_quotient_order,
    contains,
    cover_from_witness,
    ext_equal,
    intersection,
    is_cover_pair,
    lex_combine,
    merge_covers,
    order_witness_from_cover,
    pullback_cover,
    reduce_cover,
    standard_lex_cone,
    symmetric_part,
    totality_mod_kernel,
)
from semicover.cli import main as cli_main
from semicover.cones import ball_members
from semicover.covering import (
    DEFAULT_SUBGROUP_CAP,
    _mask_members,
    scorza_check,
    sigma_g,
    sigma_s_finite,
    subsemigroup_census,
    two_cover_search,
)
from semicover.fixtures import CORPUS, fixture, z_cross_c2_halves, witness_hom_fixtures
from semicover.presentations import analyze_presentation
from semicover.snf import smith_normal_form
from semicover.suites import suite_lemmas
from test_snf import det, mat_mul


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def check(self):
        assert self.elapsed < self.seconds, \
            f"runtime {self.elapsed:.2f}s exceeds budget {self.seconds}s"


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_acceptance_1_z_cross_c2_round_trip():
    budget = Budget(1.0)
    m = GroupModel.zr(1, (2,))
    a, b = z_cross_c2_halves(m)
    domain = m.domain(8)
    ball = domain.elements

    pair = is_cover_pair(m, a, b, 8)
    ti = pair.flags["trivial_intersection"]
    assert ti.status == "counterexample"
    inter = {ball[i] for i in ball_members(intersection(a, b), domain)}
    assert inter == {(0, 0), (0, 1)}  # the full {0} x C2 overlap

    red = reduce_cover(m, a, b, 8)
    assert all(v.ok for v in red.flags.values())
    # the degenerate branch fired: the non-negative side is now B
    assert contains(m, red.b, (1, 0)) and not contains(m, red.b, (-1, 0))
    sym = {ball[i] for i in ball_members(symmetric_part(m, red.b), domain)}
    assert sym == {(0, 0), (0, 1)}

    w, _ = order_witness_from_cover(m, a, b, 8)
    kernel = {ball[i] for i in ball_members(w.kernel, domain)}
    assert kernel == {(0, 0), (0, 1)}
    cmp_ = w.comparator()
    for x in ball:
        for y in ball:
            assert cmp_.le(x, y) == (x[0] <= y[0])  # the standard integer order

    back = cover_from_witness(w, 8)
    assert ext_equal(m, back.a, red.a, 8) is None
    assert ext_equal(m, back.b, red.b, 8) is None
    budget.check()
    report(1, f"motivating cover round trip exact on ball(8) in {budget.elapsed:.2f}s")


def test_acceptance_2_klein_bottle_presentation():
    budget = Budget(1.0)
    data = analyze_presentation("gens: a b\nrel: baBa\n", radius=8)
    assert data.exponent_matrix == [[2, 0]]
    # independent oracle for the diagonalization of [[2, 0]]: the row space
    # is 2Z x 0, so the quotient is Z/2 (+) Z by direct reasoning
    assert data.snf_diagonal == [2]
    assert (data.free_rank, data.torsion) == (1, [2])
    assert data.abelianization() == "Z + Z/2"
    cover = data.witness_cover
    assert cover.radius == 8
    assert all(v.ok for v in cover.flags.values())
    budget.check()
    report(2, f"abelianization Z + Z/2 with a radius-8 cover certificate "
              f"in {budget.elapsed:.2f}s")


def test_acceptance_3_reduction_lemma_suite():
    budget = Budget(30.0)
    rep = suite_lemmas(seed=20240817, radius=5, count=100, faults=20)
    assert rep["passed"] == 100 and rep["failed"] == 0
    assert rep["failures"] == []
    assert rep["faults_injected"] == 20
    assert rep["faults_caught"] == 20
    for fr in rep["fault_results"]:
        assert fr.get("caught_by"), fr
    budget.check()
    report(3, f"100 seeded covers reduced with zero counterexamples, "
              f"20/20 faults caught in {budget.elapsed:.1f}s")


def test_acceptance_4_torsion_exhaustive():
    budget = Budget(10.0)
    checked = 0
    for name in CORPUS:
        group = fixture(name)
        census = subsemigroup_census(group, DEFAULT_SUBGROUP_CAP)
        assert census.all_are_subgroups, name
        search = two_cover_search(group, census)
        assert search["covers_found"] == [], name
        checked += 1
    assert checked == 24  # all bundled groups, every one of order <= 12
    budget.check()
    report(4, f"census identity and zero two-piece covers on {checked} groups "
              f"in {budget.elapsed:.1f}s")


def test_acceptance_5_covering_numbers_on_corpus():
    budget = Budget(30.0)

    def brute_sigma(group):
        # oracle: minimum cover over every proper subgroup, subsets filtered
        # directly from the power set
        n = group.order
        subs = []
        for mask in range(1, 1 << n):
            members = _mask_members(mask)
            if 0 not in members:
                continue
            if any(group.inv(x) not in members for x in members):
                continue
            if any(group.mul(x, y) not in members for x in members for y in members):
                continue
            if mask != (1 << n) - 1:
                subs.append(mask)
        full = (1 << n) - 1
        for k in range(1, len(subs) + 1):
            for combo in combinations(subs, k):
                u = 0
                for s in combo:
                    u |= s
                if u == full:
                    return k
        return None

    assert sigma_g(fixture("V4")).sigma_g == 3 == brute_sigma(fixture("V4"))
    assert sigma_g(fixture("S3")).sigma_g == 4 == brute_sigma(fixture("S3"))
    for name in CORPUS:
        group = fixture(name)
        res_g = sigma_g(group)
        res_s = sigma_s_finite(group, res_g, subsemigroup_census(group, DEFAULT_SUBGROUP_CAP))
        assert res_g.sigma_g == res_s.sigma_s, name
        assert res_g.sigma_g not in (2, 7), name
        left, right = scorza_check(group, res_g)
        assert left == right, name
    budget.check()
    report(5, f"sigma identities, exclusions, and the Klein-four criterion "
              f"on {len(CORPUS)} fixtures in {budget.elapsed:.1f}s")


def test_acceptance_6_lex_combination():
    budget = Budget(5.0)
    m = GroupModel.zr(2)
    h1 = Homomorphism(m, GroupModel.zr(1), images=[(1,), (0,)])
    h2 = Homomorphism(m, GroupModel.zr(1), images=[(0,), (1,)])
    w1 = cone_from_quotient_order(m, h1, standard_lex_cone(1), radius=6)
    w2 = cone_from_quotient_order(m, h2, standard_lex_cone(1), radius=6)
    w = lex_combine(w1, w2)
    cmp_ = w.comparator()
    ball10 = m.ball(10)
    for x in ball10:
        for y in ball10:
            d0, d1 = y[0] - x[0], y[1] - x[1]
            assert cmp_.le(x, y) == (d0 > 0 or (d0 == 0 and d1 >= 0))

    for name, model, hom in witness_hom_fixtures():
        wit = cone_from_quotient_order(model, hom, standard_lex_cone(hom.rank()),
                                       radius=6)
        # totality-mod-kernel over all ball(6) pairs, exactly (the products
        # x^-1 y of ball(6) pairs are precisely ball(12))
        assert totality_mod_kernel(wit, 6) is None, name
        # left invariance: translates drive products into ball(6); the full
        # cubic loop runs where the ball is small, shifted windows elsewhere
        cmp_w = wit.comparator()
        size6 = len(model.ball(6))
        if size6 <= 30:
            hs, xs = model.ball(6), model.ball(6)
        elif size6 <= 100:
            hs, xs = model.ball(2), model.ball(4)
        else:
            hs, xs = model.ball(2), model.ball(3)
        for h in hs:
            for x in xs:
                hx = model.mul(h, x)
                for y in xs:
                    assert cmp_w.le(x, y) == cmp_w.le(hx, model.mul(h, y))
    budget.check()
    report(6, f"lex order agreement on ball(10)^2 plus totality and left "
              f"invariance for all bundled witnesses in {budget.elapsed:.1f}s")


def test_acceptance_7_cover_merging():
    budget = Budget(5.0)
    by_model = {}
    for name, model, hom in witness_hom_fixtures():
        cover = pullback_cover(model, hom, standard_lex_cone(hom.rank()), radius=6)
        by_model.setdefault(model.selector(), (model, []))[1].append((name, cover))
    merged_count = 0
    for selector, (model, covers) in sorted(by_model.items()):
        domain = model.domain(6)
        ball = domain.elements
        for n1, c1 in covers:
            for n2, c2 in covers:
                merged = merge_covers(c1, c2, radius=6)
                a1 = ball_members(c1.a, domain)
                b1 = ball_members(c1.b, domain)
                a_new = ball_members(merged.a, domain)
                b_new = ball_members(merged.b, domain)
                assert a1 <= a_new, (n1, n2)
                assert b_new <= b1, (n1, n2)
                kern = intersection(symmetric_part(model, c1.b),
                                    symmetric_part(model, c2.b))
                assert ext_equal(model, symmetric_part(model, merged.b),
                                 kern, 6) is None, (n1, n2)
                merged_count += 1
    budget.check()
    report(7, f"{merged_count} merges satisfy the inclusion and kernel laws "
              f"on ball(6) in {budget.elapsed:.1f}s")


def test_acceptance_8_snf_battery():
    budget = Budget(10.0)
    rng = random.Random(8)
    for _ in range(200):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        m = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        d, left, right = smith_normal_form(m)
        assert mat_mul(mat_mul(left, m), right) == d
        assert det(left) in (1, -1) and det(right) in (1, -1)
        diag = [d[i][i] for i in range(min(rows, cols))]
        for u, v in zip(diag, diag[1:]):
            assert u >= 0 and (v % u == 0 if u else v == 0)
    data = analyze_presentation("gens: a b\nrel: a^4\nrel: a^2B^2\nrel: Baba\n")
    assert data.torsion == [2, 2] and data.free_rank == 0
    assert data.verdict.status == "inconclusive"
    budget.check()
    report(8, f"200 exact decompositions with unimodular transforms plus the "
              f"torsion fixture in {budget.elapsed:.1f}s")


@pytest.mark.parametrize("selector", ["free:2", "heisenberg"])
def test_acceptance_9_radius_ladder(selector, tmp_path, capsys):
    # `witness` on the halves phi >= 0 and phi <= 0 of the axis map onto Z
    # at radius 50: ball(50) has 3^50 elements on free:2, but every verdict
    # reads value-pure cones and runs on the ball's image classes
    budget = Budget(2.0)
    half = {"op": "pullback", "images": [[1], [0]], "region": "lex_nonneg"}
    below = {"op": "complement", "arg": dict(half, region="lex_pos")}
    paths = []
    for name, cone in (("A", half), ("B", below)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(cone))
    code = cli_main(["witness", "--model", selector, "--A", str(paths[0]), "--B", str(paths[1]),
                     "--radius", "50"])
    report_obj = json.loads(capsys.readouterr().out)
    assert code == 0 and report_obj["radius"] == 50
    # the kernel's conjugation stability is exact: its cone reads images only
    radii = {k: v["radius_checked"] for k, v in report_obj["verdicts"].items()}
    assert radii.pop("kernel_conjugation_stable") == 0
    assert set(radii.values()) == {50} and len(radii) == 4
    budget.check()
    report(9, f"{selector} witness verified at radius 50 in {budget.elapsed:.3f}s")
