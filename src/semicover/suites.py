"""Bundled verification suites: the randomized reduction-lemma battery,
order/cover round trips, and the finite-corpus checks.

Reports are plain dicts (JSON-ready) and deterministic given (seed,
radius): randomness comes only from a seeded Random instance, aggregation
order is fixed.
"""

from __future__ import annotations

import random
from typing import Optional

from .cones import (ball_members, complement, explicit, ext_equal, intersection, inverse_members,
                    is_cover_pair, symmetric_part, union)
from .covers import (
    check_coset_saturation,
    check_inverse_duality,
    order_witness_from_cover,
    reduce_cover,
)
from .covering import (DEFAULT_SUBGROUP_CAP, CensusResult, scorza_check, sigma_g,
                       sigma_s_finite, subsemigroup_census, two_cover_search)
from .errors import ParseError, TrivialQuotient, UnknownSuite
from .fixtures import CORPUS, fixture, witness_hom_fixtures
from .groups import FiniteGroup, GroupModel, Homomorphism, format_element
from .orders import cover_from_witness, pullback_cover, standard_lex_cone

SUITE_NAMES = ("lemmas", "roundtrip", "finite")


def run_suite(name: str, seed: int = 0, radius: int = 5, count: int = 100) -> dict:
    if name == "lemmas":
        return suite_lemmas(seed=seed, radius=radius, count=count)
    if name == "roundtrip":
        return suite_roundtrip(radius=max(radius, 4))
    if name == "finite":
        return suite_finite()
    raise UnknownSuite(f"unknown suite {name!r}; known: {SUITE_NAMES}")


# ---------------------------------------------------------------------------
# Randomized pullback covers
# ---------------------------------------------------------------------------

def _random_hom(model: GroupModel, rng: random.Random) -> Homomorphism:
    """A random well-defined surjection candidate onto Z^1 or Z^2."""
    rank = rng.choice((1, 2))
    n = len(model.generators())
    # a relator maps to 0 once every generator its exponent row uses does
    forced = {i for row in model.relator_exponent_rows() for i, e in enumerate(row) if e}

    def vec() -> tuple:
        return tuple(rng.randint(-2, 2) for _ in range(rank))

    while True:
        images = [vec() for _ in range(n)]
        for i in forced:
            images[i] = (0,) * rank
        if any(any(v) for v in images):
            return Homomorphism(model, GroupModel.zr(rank), images=images)


def random_pullback_cover(model: GroupModel, rng: random.Random, radius: int):
    while True:
        hom = _random_hom(model, rng)
        try:
            return pullback_cover(model, hom, standard_lex_cone(hom.rank()), radius)
        except TrivialQuotient:
            continue


_LEMMA_MODELS = (
    ("z2", lambda: GroupModel.zr(2)),
    ("heisenberg", GroupModel.heisenberg),
    ("klein_bottle", GroupModel.klein_bottle),
    ("free2", lambda: GroupModel.free(2)),
)


def suite_lemmas(seed: int = 0, radius: int = 5, count: int = 100,
                 faults: int = 20) -> dict:
    """Randomized pullback covers, reduced, with the normalization
    conclusions re-verified on the ball; plus fault-injected variants that
    each verifier must catch."""
    if count < 0:
        raise ParseError(f"cover count must be >= 0, got {count}")
    if radius < 1:
        # ball(0) is the identity alone, so every random cover is trivial
        raise ParseError(f"lemma suite radius must be >= 1, got {radius}")
    rng = random.Random(seed)
    results = []
    failures = []
    models = [(name, mk()) for name, mk in _LEMMA_MODELS]
    for i in range(count):
        name, model = models[i % len(models)]
        cover = random_pullback_cover(model, rng, radius)
        red = reduce_cover(model, cover.a, cover.b, radius)
        checks = {
            "normalized_flags": all(v.ok for v in red.flags.values()),
            "coset_saturation": check_coset_saturation(model, red, radius).ok,
            "inverse_duality": red.flags["inverse_duality"].ok,
            "idempotent": _reduce_fixed_point(model, red, radius),
        }
        ok = all(checks.values())
        results.append(ok)
        if not ok:
            failures.append({"case": i, "model": name,
                             "failed": sorted(k for k, v in checks.items() if not v)})
    fault_caught = 0
    fault_results = []
    rng2 = random.Random(seed + 1)
    for i in range(faults):
        name, model = models[i % len(models)]
        cover = random_pullback_cover(model, rng2, radius)
        red = reduce_cover(model, cover.a, cover.b, radius)
        moved = _fault_inject(model, red, radius)
        if moved is None:
            fault_results.append({"case": i, "model": name, "skipped": "no movable element"})
            continue
        bad_pair, witnesses = moved
        caught = bool(witnesses)
        fault_caught += caught
        fault_results.append({
            "case": i, "model": name,
            "moved": format_element(model, bad_pair),
            "caught_by": sorted(witnesses),
        })
        if not caught:
            failures.append({"case": f"fault-{i}", "model": name,
                             "failed": ["fault_not_caught"]})
    return {
        "suite": "lemmas",
        "seed": seed,
        "radius": radius,
        "count": count,
        "passed": sum(results),
        "failed": len(results) - sum(results),
        "faults_injected": len([f for f in fault_results if "skipped" not in f]),
        "faults_caught": fault_caught,
        "failures": failures,
        "fault_results": fault_results,
        "ok": not failures,
    }


def _reduce_fixed_point(model, red, radius) -> bool:
    again = reduce_cover(model, red.a, red.b, radius)
    return ext_equal(model, again.a, red.a, radius) is None and \
        ext_equal(model, again.b, red.b, radius) is None


def _fault_inject(model, red, radius):
    """Move the first B - H ball element into A; at least one lemma
    verifier must report a counterexample.  B - H = B - B^-1, which holds
    no identity."""
    domain = model.domain(radius)
    b_minus_h = ball_members(red.b, domain) - inverse_members(red.b, domain)
    if not b_minus_h:
        return None
    moved = domain.elements[min(b_minus_h)]
    bump = explicit(model, [moved])
    a_bad = union(red.a, bump)
    b_bad = intersection(red.b, complement(bump))
    bad = is_cover_pair(model, a_bad, b_bad, radius)
    caught = {}
    dual = check_inverse_duality(model, bad, radius)
    if not dual.ok:
        caught["inverse_duality"] = dual.witness
    sat = check_coset_saturation(model, bad, radius)
    if not sat.ok:
        caught["coset_saturation"] = sat.witness
    for key in ("closed_A", "closed_B"):
        if not bad.flags[key].ok:
            caught[key] = bad.flags[key].witness
    return moved, caught


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

def suite_roundtrip(radius: int = 5) -> dict:
    """pullback_cover -> witness -> cover and witness -> cover -> witness
    must be extensional identities on the ball for every bundled fixture."""
    rows = []
    failures = []
    for name, model, hom in witness_hom_fixtures():
        cover = pullback_cover(model, hom, standard_lex_cone(hom.rank()), radius)
        witness, _ = order_witness_from_cover(model, cover.a, cover.b, radius)
        back = cover_from_witness(witness, radius)
        checks = {
            "cover_A": ext_equal(model, back.a, cover.a, radius) is None,
            "cover_B": ext_equal(model, back.b, cover.b, radius) is None,
            "kernel": ext_equal(model, witness.kernel,
                                symmetric_part(model, cover.b), radius) is None,
        }
        witness2, _ = order_witness_from_cover(model, back.a, back.b, radius)
        checks["witness_cone"] = ext_equal(model, witness2.cone, witness.cone, radius) is None
        checks["witness_kernel"] = ext_equal(model, witness2.kernel, witness.kernel,
                                             radius) is None
        ok = all(checks.values())
        rows.append({"fixture": name, "ok": ok})
        if not ok:
            failures.append({"fixture": name,
                             "failed": sorted(k for k, v in checks.items() if not v)})
    return {
        "suite": "roundtrip",
        "radius": radius,
        "fixtures": rows,
        "failures": failures,
        "ok": not failures,
    }


# ---------------------------------------------------------------------------
# Finite corpus
# ---------------------------------------------------------------------------

def sigma_report(group: FiniteGroup, census: Optional[CensusResult]) -> dict:
    """The covering numbers of a finite group with the checks on them: the
    sigma identity, sigma not 2 or 7 and the Klein-four-quotient criterion,
    and, given the group's census, the census identity and no two-piece
    cover."""
    res_g = sigma_g(group)
    res_s = sigma_s_finite(group, res_g, census)
    left, right = scorza_check(group, res_g)
    checks = {
        "sigma_identity": res_g.sigma_g == res_s.sigma_s,
        "sigma_not_2_or_7": res_g.sigma_g not in (2, 7),
        "klein_quotient_criterion_agreement": left == right,
    }
    report = {
        "group": group.name,
        "order": group.order,
        "sigma_g": res_g.sigma_g if res_g.sigma_g is not None else "undefined",
        "sigma_s": res_s.sigma_s if res_s.sigma_s is not None else "undefined",
        "witness_cover": res_g.witness_cover,
        "method": res_s.method,
        "checks": checks,
        "covering_number_three": left,
        "has_klein_four_quotient": right,
    }
    if census is not None:
        report["census"] = {"closed_subsets": len(census.closed_subsets),
                            "all_are_subgroups": census.all_are_subgroups}
        report["two_cover_search"] = search = two_cover_search(group, census)
        checks["census_subgroups"] = census.all_are_subgroups
        checks["no_two_cover"] = not search["covers_found"]
    return report


def suite_finite() -> dict:
    """`sigma_report` with the census on every group of the corpus."""
    rows = []
    failures = []
    for name in CORPUS:
        group = fixture(name)
        report = sigma_report(group, subsemigroup_census(group, DEFAULT_SUBGROUP_CAP))
        checks = report["checks"]
        ok = all(checks.values())
        rows.append({"fixture": name, "order": group.order, "sigma_g": report["sigma_g"],
                     "ok": ok})
        if not ok:
            failures.append({"fixture": name,
                             "failed": sorted(k for k, v in checks.items() if not v)})
    return {
        "suite": "finite",
        "corpus_size": len(CORPUS),
        "fixtures": rows,
        "failures": failures,
        "ok": not failures,
    }
