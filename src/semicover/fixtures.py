"""Bundled Cayley-table corpus (every group of order <= 12) and the
infinite-model cover fixtures used by the verification suites.

Every table is built by `_group` from a list of elements, the identity
first, and their product, and passes the full load-time validation;
`fixture(name)` is the canonical entry point.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Sequence

from .cones import ConeSet, complement, pullback
from .errors import ParseError
from .groups import FiniteGroup, GroupModel, Homomorphism


def _group(name: str, elements: Sequence, product: Callable) -> FiniteGroup:
    """The group of `elements` under `product`, element k at index k."""
    index = {x: k for k, x in enumerate(elements)}
    return FiniteGroup([[index[product(x, y)] for y in elements] for x in elements], name=name)


def cyclic(n: int) -> FiniteGroup:
    return _group(f"C{n}", range(n), lambda a, b: (a + b) % n)


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Pairs (a, b) at index a * |g2| + b."""
    pairs = [(a, b) for a in range(g1.order) for b in range(g2.order)]
    return _group(name or f"{g1.name}x{g2.name}", pairs,
                  lambda x, y: (g1.mul(x[0], y[0]), g2.mul(x[1], y[1])))


def _inverting(m: int, twist: int, name: str) -> FiniteGroup:
    """<a, b | a^m = 1, b^2 = a^twist, b a b^-1 = a^-1>: elements a^i b^j
    as (i, j) at index j*m + i."""
    def product(x, y):
        (i1, j1), (i2, j2) = x, y
        return ((i1 + (-i2 if j1 else i2) + twist * (j1 & j2)) % m, j1 ^ j2)

    return _group(name, [(i, j) for j in range(2) for i in range(m)], product)


def dihedral(n: int, name: str | None = None) -> FiniteGroup:
    """Order 2n: elements r^i s^j at index j*n + i."""
    return _inverting(n, 0, name or f"D{n}")


def dicyclic(n: int, name: str | None = None) -> FiniteGroup:
    """Order 4n: <a, b | a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1>,
    elements a^i b^j at index j*2n + i.  dicyclic(2) is Q8."""
    return _inverting(2 * n, n, name or f"Dic{n}")


def alternating4() -> FiniteGroup:
    """The even permutations of 0..3 in sorted order; p q is p after q."""
    perms = sorted(p for p in permutations(range(4)) if _parity(p) == 0)
    return _group("A4", perms, lambda p, q: tuple(p[k] for k in q))


def _parity(p) -> int:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


_BUILDERS = {
    **{f"C{n}": (lambda n=n: cyclic(n)) for n in range(1, 13)},
    "V4": lambda: direct_product(cyclic(2), cyclic(2), name="V4"),
    "C2xC2": lambda: direct_product(cyclic(2), cyclic(2), name="C2xC2"),
    "C2xC2xC2": lambda: direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2),
                                       name="C2xC2xC2"),
    "C4xC2": lambda: direct_product(cyclic(4), cyclic(2), name="C4xC2"),
    "C6xC2": lambda: direct_product(cyclic(6), cyclic(2), name="C6xC2"),
    "C3xC3": lambda: direct_product(cyclic(3), cyclic(3), name="C3xC3"),
    "S3": lambda: dihedral(3, name="S3"),
    "D4": lambda: dihedral(4),
    "D5": lambda: dihedral(5),
    "D6": lambda: dihedral(6),
    "Q8": lambda: dicyclic(2, name="Q8"),
    "Dic3": lambda: dicyclic(3),
    "A4": alternating4,
}

# every isomorphism class of order <= 12, one table each
CORPUS = [
    "C1", "C2", "C3", "C4", "V4", "C5", "C6", "S3", "C7",
    "C8", "C4xC2", "C2xC2xC2", "D4", "Q8",
    "C9", "C3xC3", "C10", "D5", "C11",
    "C12", "C6xC2", "D6", "A4", "Dic3",
]


def fixture(name: str) -> FiniteGroup:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ParseError(f"unknown fixture {name!r}; known: {sorted(_BUILDERS)}") from None


def table_text(group: FiniteGroup) -> str:
    lines = [f"order: {group.order}"]
    lines += [" ".join(str(v) for v in row) for row in group.table]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Infinite-model cover fixtures (for round trips, merges, and suites)
# ---------------------------------------------------------------------------

def witness_hom_fixtures() -> list[tuple[str, GroupModel, Homomorphism]]:
    """Named quotient maps onto Z^r, one bundle per infinite model family."""
    z1, z1c2, z2 = GroupModel.zr(1), GroupModel.zr(1, (2,)), GroupModel.zr(2)
    kb, hs, fr = GroupModel.klein_bottle(), GroupModel.heisenberg(), GroupModel.free(2)
    first, second, lex = [(1,), (0,)], [(0,), (1,)], [(1, 0), (0, 1)]
    maps = [("z_identity", z1, [(1,)]), ("z_cross_c2_projection", z1c2, first),
            ("z2_first_coordinate", z2, first), ("z2_second_coordinate", z2, second),
            ("z2_lex", z2, lex), ("klein_bottle_b_exponent", kb, second),
            ("heisenberg_x", hs, first), ("heisenberg_y", hs, second),
            ("heisenberg_xy_lex", hs, lex), ("free2_a_exponent", fr, first),
            ("free2_b_exponent", fr, second), ("free2_ab_lex", fr, lex)]
    return [(name, model, Homomorphism(model, GroupModel.zr(len(images[0])), images=images))
            for name, model, images in maps]


def z_cross_c2_halves(model: GroupModel) -> tuple[ConeSet, ConeSet]:
    """The overlapping halves of Z x C2: non-negatives cross C2 and
    non-positives cross C2 (overlapping on {0} x C2)."""
    hom = Homomorphism(model, GroupModel.zr(1), images=[(1,), (0,)])
    a = pullback(hom, "lex_nonneg")
    b = complement(pullback(hom, "lex_pos"))
    return a, b
