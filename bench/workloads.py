"""The four workloads: inputs generated from the seed, one request each.

A request is what one CLI call does: it starts from its own input files
(or, for `lemmas`, its own generator images), builds every model, ball and
memo afresh, and returns an exit code and the report text.  The program
never sees the seed.

Sizes were chosen from repeated runs on a 2-core machine so that most
requests take tens to hundreds of milliseconds; see README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import checks
import finite
from groupmath import MODELS, evaluate_word, lex_sign, phi

# Maps onto Z^r come in three kinds whose cost hardly depends on the seed,
# so that runs with different seeds measure the same work:
#   axis   onto Z^1, one generator to +-1 or +-2 and the other to 0
#          (kernels that fill a coordinate line or more)
#   mixed  onto Z^1, the generators to +-1 and +-2 in either order
#   plane  onto Z^2, injective on the abelianization (entries in [-2, 2])
# klein_bottle must send a to 0; there only b's image varies.

# forward: witness radius per (model, kind)
FORWARD_RADIUS = {
    ("z^2", "axis"): 16, ("z^2", "mixed"): 14, ("z^2", "plane"): 6,
    ("heisenberg", "axis"): 7, ("heisenberg", "mixed"): 7, ("heisenberg", "plane"): 5,
    ("klein_bottle", "axis"): 20, ("klein_bottle", "mixed"): 20, ("klein_bottle", "plane"): 20,
    ("free:2", "axis"): 5, ("free:2", "mixed"): 5, ("free:2", "plane"): 5,
}
FORWARD_PER_STRATUM = 5   # per (model, kind, shape)

# lemmas: radius per (model, kind)
LEMMA_RADIUS = {
    ("z^2", "axis"): 7, ("z^2", "mixed"): 7, ("z^2", "plane"): 4,
    ("heisenberg", "axis"): 4, ("heisenberg", "mixed"): 5, ("heisenberg", "plane"): 4,
    ("klein_bottle", "axis"): 8, ("klein_bottle", "mixed"): 8, ("klein_bottle", "plane"): 8,
    ("free:2", "axis"): 3, ("free:2", "mixed"): 4, ("free:2", "plane"): 4,
}
LEMMA_PER_STRATUM = 9
# free:2 plane covers are the costliest stratum.  With 9 of them the 90th
# percentile fell at the edge between it and the next costliest, and its
# spread over ten seeds was 10.5 to 12.8 %; with 22 it falls inside it.
LEMMA_COUNT = {("free:2", "plane"): 22}

# finite: (groups, labellings of each).  Costs per request on a 2-core
# machine: 2-8 ms up to order 11, about 20 ms at order 12, 30-130 ms at
# orders 13 to 15 and about 300 ms at order 16, where the 2^16-subset census
# runs three times.  With 100 requests per round the median falls among the
# order-12 groups and the 90th percentile among the fourteen of order 16,
# with ten requests beyond it.
FINITE_MIX = (
    (("C1", "C2", "C3", "C4", "V4", "C5", "C6", "S3", "C7", "C8", "C4xC2",
      "C2xC2xC2", "D4", "Q8", "C9", "C3xC3", "C10", "D5", "C11"), 2),
    (("C12", "C6xC2", "D6", "A4", "Dic3"), 4),
    (("C13", "C14", "D7", "C15"), 7),
    (("C16", "C8xC2", "C4xC4", "C4xC2xC2", "C2^4", "D8", "SD16", "M16", "Q16",
      "D4xC2", "Q8xC2", "C4:C4", "C2^2:C4", "C4oD4"), 1),
)

# backward: generator counts and the free-group ball budget that fixes the
# radius.  Per generator count: presentations with n - 1 relators (positive
# free rank) and entries large enough that the surjection's images separate
# most ball elements, so a cover's cost hardly depends on the seed; and
# presentations with n + 1 relators (free rank 0 as a rule) and entries
# small enough that the SNF stays clear of its coefficient blow-up.  The
# second kind is SNF only and takes a few milliseconds, so it is the smaller
# share, which keeps the median inside the first kind instead of between them.
BACKWARD_GENS = range(2, 11)
BACKWARD_BALL = 1000
BACKWARD_MIX = (   # (relators - generators, presentations, entry bound by n)
    (-1, 9, {n: {2: 99, 3: 30, 4: 30}.get(n, 9) for n in BACKWARD_GENS}),
    (1, 7, {2: 9, 3: 7, 4: 5, 5: 4, 6: 3, 7: 3, 8: 2, 9: 2, 10: 2}),
)


@dataclass
class Request:
    label: str
    run: object                       # () -> (exit code, report text)
    meta: dict = field(default_factory=dict)


def run_cli(sc, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sc.cli.main(argv)
    return code, buf.getvalue()


# -- maps onto Z^r ---------------------------------------------------------------

def kind_images(rng, selector: str, kind: str) -> list[list[int]]:
    """Seeded generator images of one of the kinds described above."""
    def sign():
        return rng.choice((1, -1))

    if selector == "klein_bottle":
        if kind == "plane":
            return [[0, 0], [sign() * rng.randint(1, 2), sign() * rng.randint(1, 2)]]
        return [[0], [sign() * rng.randint(1, 2)]]
    if kind == "axis":
        images = [[sign() * rng.randint(1, 2)], [0]]
        rng.shuffle(images)
        return images
    if kind == "mixed":
        images = [[sign()], [2 * sign()]]
        rng.shuffle(images)
        return images
    while True:
        images = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        if images[0][0] * images[1][1] - images[0][1] * images[1][0]:
            return images


def _pullback(images, region):
    return {"op": "pullback", "images": images, "region": region}


# -- forward ---------------------------------------------------------------------

def forward(sc, rng, workdir: Path) -> list[Request]:
    """`witness` on pullback covers: disjoint halves (B = phi >= 0, A = the
    rest plus 1) and overlapping halves (A = phi >= 0, B = phi <= 0)."""
    out = []
    for (selector, kind), radius in FORWARD_RADIUS.items():
        for shape in ("disjoint", "overlap"):
            for k in range(FORWARD_PER_STRATUM):
                images = kind_images(rng, selector, kind)
                if shape == "disjoint":
                    b = _pullback(images, "lex_nonneg")
                    a = {"op": "union", "args": [{"op": "complement", "arg": b},
                                                 {"op": "identity"}]}
                else:
                    a = _pullback(images, "lex_nonneg")
                    b = {"op": "complement", "arg": _pullback(images, "lex_pos")}
                label = f"fwd-{len(out):03d}"
                pa, pb = workdir / f"{label}-A.json", workdir / f"{label}-B.json"
                pa.write_text(json.dumps(a))
                pb.write_text(json.dumps(b))
                argv = ["witness", "--model", selector, "--A", str(pa), "--B", str(pb),
                        "--radius", str(radius)]
                meta = {"model": selector, "images": images, "radius": radius,
                        "kind": kind, "shape": shape}
                out.append(Request(label, partial(run_cli, sc, argv), meta))
    return out


# -- lemmas ----------------------------------------------------------------------

def lemma_request(sc, selector, images, radius, moved_text) -> tuple[int, str]:
    """The public functions behind `verify --suite lemmas`, on one cover."""
    groups, cones, covers, orders = sc.groups, sc.cones, sc.covers, sc.orders
    model = groups.parse_model(selector)
    rank = len(images[0])
    hom = groups.Homomorphism(model, groups.GroupModel.zr(rank),
                              images=[tuple(v) for v in images])
    cover = orders.pullback_cover(model, hom, orders.standard_lex_cone(rank), radius)
    red = covers.reduce_cover(model, cover.a, cover.b, radius)
    sat = covers.check_coset_saturation(model, red, radius)
    dual = covers.check_inverse_duality(model, red, radius)
    again = covers.reduce_cover(model, red.a, red.b, radius)
    diffs = [cones.ext_equal(model, again.a, red.a, radius),
             cones.ext_equal(model, again.b, red.b, radius)]

    bump = cones.explicit(model, [groups.parse_element(model, moved_text)])
    bad = cones.is_cover_pair(model, cones.union(red.a, bump),
                              cones.intersection(red.b, cones.complement(bump)),
                              radius, check_duality=True)
    bad_sat = covers.check_coset_saturation(model, bad, radius)

    def verdicts(pair):
        return {k: v.to_obj(model) for k, v in sorted(pair.flags.items())}

    report = {
        "pullback": verdicts(cover),
        "reduced": {"A": cones.cone_to_obj(red.a), "B": cones.cone_to_obj(red.b)},
        "reduced_verdicts": verdicts(red),
        "coset_saturation": sat.to_obj(model),
        "inverse_duality": dual.to_obj(model),
        "idempotent": [None if d is None else [groups.format_element(model, x) for x in d]
                       for d in diffs],
        "fault": {"moved": moved_text, "verdicts": verdicts(bad),
                  "coset_saturation": bad_sat.to_obj(model)},
    }
    return 0, json.dumps(report, sort_keys=True)


def _positive_word_element(rng, selector, images, radius):
    """An element of B - H on the ball: a seeded word of length <= radius
    with phi > 0, in the program's element syntax."""
    model = MODELS[selector]
    while True:
        word = [(rng.randrange(2), rng.choice((1, -1)))
                for _ in range(rng.randint(1, radius))]
        x = evaluate_word(model, word)
        if lex_sign(phi(images, model.exponents(x))) > 0:
            return model.to_program(x)


def lemmas(sc, rng, workdir: Path) -> list[Request]:
    out = []
    for (selector, kind), radius in LEMMA_RADIUS.items():
        for k in range(LEMMA_COUNT.get((selector, kind), LEMMA_PER_STRATUM)):
            images = kind_images(rng, selector, kind)
            moved = _positive_word_element(rng, selector, images, radius)
            meta = {"model": selector, "images": images, "radius": radius, "kind": kind}
            out.append(Request(f"lem-{len(out):03d}",
                               partial(lemma_request, sc, selector, images, radius, moved),
                               meta))
    return out


# -- finite ----------------------------------------------------------------------

def finite_groups(sc, rng, workdir: Path) -> list[Request]:
    """`sigma --exhaustive --cap 16` on Cayley tables with shuffled labels."""
    out = []
    for name in (g for groups, labellings in FINITE_MIX for g in groups * labellings):
        label = f"fin-{len(out):02d}-{name}"
        path = workdir / f"{label}.tbl"
        path.write_text(finite.table_text(finite.cayley_table(name, rng)))
        argv = ["sigma", "--table", str(path), "--exhaustive", "--cap", "16"]
        out.append(Request(label, partial(run_cli, sc, argv), {"group": name}))
    return out


# -- backward --------------------------------------------------------------------

def free_ball_size(n: int, radius: int) -> int:
    return 1 + sum(2 * n * (2 * n - 1) ** (k - 1) for k in range(1, radius + 1))


def _coprime_row(rng, bound: int) -> list[int]:
    """One relator [p, q] with p, q coprime and 11 <= |p|, |q| <= bound.
    The surjection onto Z then sends the exponent sums of the radius-5 ball
    to distinct integers (p x = q y needs |x| >= 11), so the cover's cost
    does not depend on the seed; small or shared factors merge classes and
    made these requests take 2 to 11 ms, across the workload's median."""
    while True:
        row = [rng.choice((1, -1)) * rng.randint(11, bound) for _ in range(2)]
        if math.gcd(*row) == 1:
            return row


def backward(sc, rng, workdir: Path) -> list[Request]:
    """`analyze` on presentations with seeded relator exponent rows: n - 1
    relators (positive free rank) or n + 1 relators (free rank 0 as a rule)."""
    out = []
    for n in BACKWARD_GENS:
        radius = max(r for r in range(1, 12) if free_ball_size(n, r) <= BACKWARD_BALL)
        gens = [chr(ord("a") + i) for i in range(n)]
        for extra, count, entry in BACKWARD_MIX:
            for k in range(count):
                if n == 2 and extra == -1:
                    rows = [_coprime_row(rng, entry[n])]
                else:
                    rows = [[rng.randint(-entry[n], entry[n]) for _ in range(n)]
                            for _ in range(n + extra)]
                lines = ["gens: " + " ".join(gens)]
                for row in rows:
                    order = list(range(n))
                    rng.shuffle(order)
                    word = "".join(f"{gens[i]}^{row[i]}" for i in order if row[i])
                    lines.append("rel: " + (word or "1"))
                label = f"bwd-{len(out):03d}"
                path = workdir / f"{label}.fp"
                path.write_text("\n".join(lines) + "\n")
                argv = ["analyze", "--presentation", str(path), "--radius", str(radius)]
                meta = {"rows": rows, "n": n, "radius": radius}
                out.append(Request(label, partial(run_cli, sc, argv), meta))
    return out


WORKLOADS = {
    "forward": (forward, checks.check_forward),
    "lemmas": (lemmas, checks.check_lemmas),
    "finite": (finite_groups, partial(checks.check_finite, facts=finite.FACTS)),
    "backward": (backward, checks.check_backward),
}
