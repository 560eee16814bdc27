"""Output checks computed apart from the program.

Each check takes what the benchmark knows about a request (its inputs and
the map phi it was generated from) and the program's output, and returns
a list of problems; an empty list means the output is correct.  None of
them compares against a stored copy of the program's output: they use this
package's own group arithmetic, the theorem's consequences, a table of
facts from the literature, or an independent Smith normal form (sympy).
"""

from __future__ import annotations

import json
import math
from itertools import combinations

from groupmath import MODELS, SpecEvaluator, evaluate_word, lex_sign, phi


# -- words the checks evaluate specs on -----------------------------------------

def _random_word(rng, length):
    return [(rng.randrange(2), rng.choice((1, -1))) for _ in range(length)]


def _inverse_word(word):
    return [(g, -e) for g, e in reversed(word)]


def sample_words(rng, images, radius: int, count: int = 24) -> list:
    """Seeded words inside the ball (length <= radius), beyond it (up to
    three times the radius), and words phi sends to 0: commutators and, for
    maps onto Z^1, powers along the kernel direction of the abelianization."""
    words = [_random_word(rng, rng.randint(0, radius)) for _ in range(count)]
    words += [_random_word(rng, rng.randint(radius + 1, 3 * radius)) for _ in range(count)]
    for _ in range(count // 2):
        u = _random_word(rng, rng.randint(1, radius))
        v = _random_word(rng, rng.randint(1, radius))
        words.append(u + v + _inverse_word(u) + _inverse_word(v))
    if len(images[0]) == 1 and images[0][0] is not None:
        p, q = images[0][0], images[1][0]
        g = math.gcd(p, q)
        if g:
            along = [(0, 1 if q > 0 else -1)] * (abs(q) // g) + \
                    [(1, -1 if p > 0 else 1)] * (abs(p) // g)
            for k in range(1, 4):
                tail = _random_word(rng, rng.randint(0, radius))
                words.append(along * k)
                words.append(along * k + tail)
    return words


# -- forward -------------------------------------------------------------------

def check_forward(meta: dict, code: int, text: str, rng) -> list[str]:
    """`witness` report: exit 0, every verdict verified at the radius (or
    exact), and the kernel and cone specs equal ker phi and the lex order of
    phi or its reverse on seeded words inside and beyond the ball."""
    problems = []
    if code != 0:
        return [f"exit code {code}"]
    report = json.loads(text)
    radius = meta["radius"]
    if report.get("radius") != radius:
        problems.append(f"report radius {report.get('radius')} != {radius}")
    verdicts = report.get("verdicts") or {}
    if not verdicts:
        problems.append("no verdicts")
    for name, v in verdicts.items():
        if v.get("status") != "verified" or v.get("radius_checked") not in (radius, 0):
            problems.append(f"verdict {name} is {v}")
    model = MODELS[meta["model"]]
    images = meta["images"]
    try:
        kernel = SpecEvaluator(model, report["witness"]["kernel"])
        cone = SpecEvaluator(model, report["witness"]["cone"])
        orientations = {1, -1}
        for word in sample_words(rng, _exponent_images(meta), radius):
            x = evaluate_word(model, word)
            value = phi(images, model.exponents(x))
            if kernel.member(x) != (lex_sign(value) == 0):
                problems.append(f"kernel spec wrong on word {word}")
                break
            in_cone = cone.member(x)
            orientations = {o for o in orientations
                            if in_cone == (lex_sign(value) * o >= 0)}
            if not orientations:
                problems.append(f"cone spec is no lex order of phi at word {word}")
                break
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"cannot evaluate witness specs: {exc!r}")
    return problems


def _exponent_images(meta):
    images = [list(v) for v in meta["images"]]
    if meta["model"] == "klein_bottle":
        images[0] = [None] * len(images[0])   # a's exponent sum is not defined
    return images


# -- lemmas --------------------------------------------------------------------

class PhiSides:
    """The sides the benchmark predicts for the reduced pullback cover of
    phi: B = {phi >= 0}, A = {phi < 0} u {1}, H = ker phi; and the faulty
    copy with one element `moved` taken from B - H into A."""

    def __init__(self, model, images, moved=None):
        self.model = model
        self.images = images
        self.moved = moved

    def sign(self, x) -> int:
        return lex_sign(phi(self.images, self.model.exponents(x)))

    def in_a(self, x) -> bool:
        return x == self.moved or x == self.model.identity or self.sign(x) < 0

    def in_b(self, x) -> bool:
        return x != self.moved and self.sign(x) >= 0

    def in_h(self, x) -> bool:
        return self.in_b(x) and self.in_b(self.model.inv(x))


def _replay(sides: PhiSides, name: str, verdict: dict):
    """None when the counterexample really breaks the condition it names,
    else a reason."""
    m = sides.model
    one = m.identity
    try:
        wit = [m.parse(w) for w in verdict.get("witness") or []]
    except ValueError as exc:
        return f"unparsable witness: {exc}"
    a_star = lambda x: x != one and sides.in_a(x)       # noqa: E731
    b_star = lambda x: sides.in_b(x) and not sides.in_h(x)  # noqa: E731
    note = verdict.get("note", "")
    if name in ("closed_A", "closed_B") and len(wit) == 2:
        side = sides.in_a if name == "closed_A" else sides.in_b
        x, y = wit
        return None if side(x) and side(y) and not side(m.mul(x, y)) else "not a closure failure"
    if name == "covers" and len(wit) == 1:
        x = wit[0]
        return None if not sides.in_a(x) and not sides.in_b(x) else "element is covered"
    if name == "trivial_intersection" and len(wit) == 1:
        x = wit[0]
        return None if x != one and sides.in_a(x) and sides.in_b(x) else "not a shared element"
    if name == "inverse_duality" and len(wit) == 1:
        x = wit[0]
        xi = m.inv(x)
        if note.startswith("inverse of an A element"):
            return None if a_star(x) and not b_star(xi) else "duality holds at witness"
        if note.startswith("inverse of a B - H element"):
            return None if b_star(x) and not a_star(xi) else "duality holds at witness"
    if name == "coset_saturation" and len(wit) == 2:
        h, x = wit
        if not sides.in_h(h):
            return "first witness element is not in H"
        prod = m.mul(h, x) if note.startswith("left") else m.mul(x, h)
        if note.endswith("A - {1}"):
            return None if a_star(x) and not a_star(prod) else "product stays in A - {1}"
        if note.endswith("B - H"):
            return None if b_star(x) and not b_star(prod) else "product stays in B - H"
    return f"unrecognised counterexample {verdict}"


def check_lemmas(meta: dict, code: int, text: str, rng) -> list[str]:
    """Lemma battery on one pullback cover: everything verified on the
    genuine cover, reduced sides equal to the sides predicted from phi and
    meeting only in 1; the faulty copy reported, and each counterexample
    replayed against phi-based membership."""
    if code != 0:
        return [f"exit code {code}"]
    out = json.loads(text)
    problems = []
    radius = meta["radius"]
    for part in ("pullback", "reduced_verdicts"):
        for name, v in out[part].items():
            if v["status"] != "verified" or v["radius_checked"] not in (radius, 0):
                problems.append(f"{part} verdict {name} is {v}")
    for name in ("coset_saturation", "inverse_duality"):
        if out[name]["status"] != "verified":
            problems.append(f"{name} is {out[name]}")
    if out["idempotent"] != [None, None]:
        problems.append(f"second reduction differs at {out['idempotent']}")
    model = MODELS[meta["model"]]
    sides = PhiSides(model, meta["images"])
    a = SpecEvaluator(model, out["reduced"]["A"])
    b = SpecEvaluator(model, out["reduced"]["B"])
    try:
        for word in sample_words(rng, _exponent_images(meta), radius):
            x = evaluate_word(model, word)
            in_a, in_b = a.member(x), b.member(x)
            if (in_a, in_b) != (sides.in_a(x), sides.in_b(x)):
                problems.append(f"reduced sides differ from phi's at word {word}")
                break
            if in_a and in_b and x != model.identity:
                problems.append(f"reduced sides share {word}")
                break
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"cannot evaluate reduced specs: {exc!r}")

    fault = out["fault"]
    bad = PhiSides(model, meta["images"], moved=model.parse(fault["moved"]))
    found = {**fault["verdicts"], "coset_saturation": fault["coset_saturation"]}
    caught = {k: v for k, v in found.items() if v["status"] == "counterexample"}
    if not caught:
        problems.append("faulty copy not reported")
    for name, verdict in sorted(caught.items()):
        reason = _replay(bad, name, verdict)
        if reason is not None:
            problems.append(f"fault verdict {name}: {reason}")
    return problems


# -- finite --------------------------------------------------------------------

def check_finite(meta: dict, code: int, text: str, rng, facts: dict) -> list[str]:
    """`sigma --exhaustive` report: exit 0, no two-piece cover and every
    closed subset a subgroup (the finite case of the theorem), and sigma and
    the closed-subset count equal to the literature's values."""
    if code != 0:
        return [f"exit code {code}"]
    report = json.loads(text)
    order, n_subgroups, sigma = facts[meta["group"]]
    expect_sigma = "undefined" if sigma is None else sigma
    problems = []
    if report.get("order") != order:
        problems.append(f"order {report.get('order')} != {order}")
    for key in ("sigma_g", "sigma_s"):
        if report.get(key) != expect_sigma:
            problems.append(f"{key} {report.get(key)} != {expect_sigma}")
    census = report.get("census") or {}
    if census.get("closed_subsets") != n_subgroups:
        problems.append(f"closed subsets {census.get('closed_subsets')} != {n_subgroups}")
    if census.get("all_are_subgroups") is not True:
        problems.append("a closed subset is not a subgroup")
    search = report.get("two_cover_search") or {}
    if search.get("covers_found") != []:
        problems.append(f"two-piece covers reported: {search.get('covers_found')}")
    # at most every unordered pair of proper closed subsets: a search may
    # prune pairs, but cannot check more pairs than there are
    proper = n_subgroups - 1
    pairs = search.get("pairs_checked")
    if not isinstance(pairs, int) or not 0 <= pairs <= proper * (proper + 1) // 2:
        problems.append(f"pairs checked {pairs} for {proper} proper subsets")
    return problems


# -- backward ------------------------------------------------------------------

def invariant_factors(rows: list[list[int]], n: int) -> list[int]:
    """Diagonal of the Smith normal form, by sympy, zeros last."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    if not rows:
        return []
    d = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(int(d[i, i])) for i in range(min(len(rows), n))]
    return sorted(v for v in diag if v) + [0] * diag.count(0)


def check_backward(meta: dict, code: int, text: str, rng) -> list[str]:
    """`analyze` report: the SNF diagonal equals sympy's invariant factors
    and the free rank is n - rank.  With positive free rank the surjection
    kills every relator, its maximal minors have gcd 1, and every cover
    verdict is verified at the radius; otherwise the verdict is
    inconclusive."""
    if code != 0:
        return [f"exit code {code}"]
    report = json.loads(text)
    rows, n, radius = meta["rows"], meta["n"], meta["radius"]
    problems = []
    if report.get("exponent_matrix") != rows:
        problems.append("exponent matrix differs from the generated relators")
    expect = invariant_factors(rows, n)
    if report.get("snf_diagonal") != expect:
        problems.append(f"snf diagonal {report.get('snf_diagonal')} != {expect}")
    rank = sum(1 for v in expect if v)
    free_rank = n - rank
    if report.get("free_rank") != free_rank:
        problems.append(f"free rank {report.get('free_rank')} != {free_rank}")
    if report.get("torsion") != [v for v in expect if v > 1]:
        problems.append(f"torsion {report.get('torsion')} != {[v for v in expect if v > 1]}")
    verdict = report.get("verdict") or {}
    if free_rank == 0:
        if verdict.get("status") != "inconclusive" or "z_surjection" in report:
            problems.append(f"free rank 0 but verdict {verdict}")
        return problems
    images = report.get("z_surjection")
    if not images or len(images) != n or any(len(img) != free_rank for img in images):
        return problems + [f"surjection images {images} are not {n} vectors in Z^{free_rank}"]
    for row in rows:
        if any(sum(e * img[j] for e, img in zip(row, images)) for j in range(free_rank)):
            problems.append(f"relator {row} does not map to 0")
    from sympy import Matrix

    g = 0
    for pick in combinations(range(n), free_rank):
        g = math.gcd(g, int(Matrix([images[i] for i in pick]).det()))
        if g == 1:
            break
    if g != 1:
        problems.append(f"maximal minors of the surjection have gcd {g}")
    if verdict.get("status") != "verified" or verdict.get("radius_checked") not in (radius, 0):
        problems.append(f"verdict {verdict}")
    cert = (report.get("cover_certificate") or {}).get("verdicts") or {}
    if not cert:
        problems.append("no cover certificate")
    for name, v in cert.items():
        if v.get("status") != "verified" or v.get("radius_checked") not in (radius, 0):
            problems.append(f"certificate verdict {name} is {v}")
    return problems
