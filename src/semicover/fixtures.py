"""Bundled Cayley-table corpus (every group of order <= 12) and the
infinite-model cover fixtures used by the verification suites.

Tables are built programmatically with the identity at index 0 and pass
the full load-time validation; `fixture(name)` is the canonical entry
point.
"""

from __future__ import annotations

from itertools import permutations

from .cones import ConeSet, complement, pullback
from .errors import ParseError
from .groups import FiniteGroup, GroupModel, Homomorphism


def cyclic(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"C{n}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str | None = None) -> FiniteGroup:
    n2 = g2.order
    order = g1.order * n2

    def enc(a, b):
        return a * n2 + b

    table = [[0] * order for _ in range(order)]
    for a1 in range(g1.order):
        for b1 in range(n2):
            for a2 in range(g1.order):
                for b2 in range(n2):
                    table[enc(a1, b1)][enc(a2, b2)] = enc(g1.mul(a1, a2), g2.mul(b1, b2))
    return FiniteGroup(table, name=name or f"{g1.name}x{g2.name}")


def dihedral(n: int, name: str | None = None) -> FiniteGroup:
    """Order 2n: elements r^i s^j encoded as j*n + i."""
    order = 2 * n

    def enc(i, j):
        return j * n + i

    table = [[0] * order for _ in range(order)]
    for i1 in range(n):
        for j1 in range(2):
            for i2 in range(n):
                for j2 in range(2):
                    i = (i1 + (i2 if j1 == 0 else -i2)) % n
                    table[enc(i1, j1)][enc(i2, j2)] = enc(i, j1 ^ j2)
    return FiniteGroup(table, name=name or f"D{n}")


def dicyclic(n: int, name: str | None = None) -> FiniteGroup:
    """Order 4n: <a, b | a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1>,
    elements a^i b^j encoded as j*2n + i.  dicyclic(2) is Q8."""
    m = 2 * n
    order = 4 * n

    def enc(i, j):
        return j * m + i

    table = [[0] * order for _ in range(order)]
    for i1 in range(m):
        for j1 in range(2):
            for i2 in range(m):
                for j2 in range(2):
                    if j1 == 0:
                        i, j = (i1 + i2) % m, j2
                    elif j2 == 0:
                        i, j = (i1 - i2) % m, 1
                    else:
                        i, j = (i1 - i2 + n) % m, 0
                    table[enc(i1, j1)][enc(i2, j2)] = enc(i, j)
    return FiniteGroup(table, name=name or f"Dic{n}")


def alternating4() -> FiniteGroup:
    perms = sorted(p for p in permutations(range(4)) if _parity(p) == 0)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(4))] for q in perms] for p in perms]
    return FiniteGroup(table, name="A4")


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


def fixture_names() -> list[str]:
    return list(CORPUS)


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
