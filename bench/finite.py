"""Finite groups for the `finite` workload, built here from their
definitions rather than taken from the program's corpus, and the table of
facts the theorem and the literature fix for them.

Every group is generated by closure from a few generators under a
multiplication written for it, then given a Cayley table whose non-identity
elements are shuffled by the workload seed: the group and every fact below
stay the same while the input bytes change.
"""

from __future__ import annotations

from itertools import combinations

# name -> (order, number of subgroups, subgroup covering number or None
# for cyclic groups).
#
# Subgroup counts: Tim Dokchitser's GroupNames tables and OEIS A061034
# (number of subgroups by small group); every closed nonempty subset of a
# finite group is a subgroup, so they are also the closed-subset counts.
# Covering numbers: Cohn, "On n-sum groups", Math. Scand. 75 (1994)
# (sigma(S3) = 4, sigma(A4) = 5, sigma(D_2p) = p + 1 for odd primes p);
# Scorza (1926): sigma = 3 exactly when a Klein-four quotient exists; a
# noncyclic p-group has sigma = p + 1 (Tomkinson, Math. Scand. 81 (1997)).
FACTS = {
    "C1": (1, 1, None), "C2": (2, 2, None), "C3": (3, 2, None),
    "C4": (4, 3, None), "V4": (4, 5, 3), "C5": (5, 2, None),
    "C6": (6, 4, None), "S3": (6, 6, 4), "C7": (7, 2, None),
    "C8": (8, 4, None), "C4xC2": (8, 8, 3), "C2xC2xC2": (8, 16, 3),
    "D4": (8, 10, 3), "Q8": (8, 6, 3), "C9": (9, 3, None),
    "C3xC3": (9, 6, 4), "C10": (10, 4, None), "D5": (10, 8, 6),
    "C11": (11, 2, None), "C12": (12, 6, None), "C6xC2": (12, 10, 3),
    "D6": (12, 16, 3), "A4": (12, 10, 5), "Dic3": (12, 8, 4),
    "C13": (13, 2, None), "C14": (14, 4, None), "D7": (14, 10, 8),
    "C15": (15, 4, None),
    "C16": (16, 5, None), "C8xC2": (16, 11, 3), "C4xC4": (16, 15, 3),
    "C4xC2xC2": (16, 27, 3), "C2^4": (16, 67, 3), "D8": (16, 19, 3),
    "SD16": (16, 15, 3), "M16": (16, 11, 3), "Q16": (16, 11, 3),
    "D4xC2": (16, 35, 3), "Q8xC2": (16, 19, 3), "C4:C4": (16, 15, 3),
    "C2^2:C4": (16, 23, 3), "C4oD4": (16, 23, 3),
}


# -- element arithmetic -----------------------------------------------------

def _cyclic(n):
    return [1 % n], lambda x, y: (x + y) % n, 0


def _product(*parts):
    gens = []
    idents = tuple(p[2] for p in parts)
    for k, (pg, _, _) in enumerate(parts):
        for g in pg:
            gens.append(idents[:k] + (g,) + idents[k + 1:])

    def mul(x, y):
        return tuple(p[1](a, b) for p, a, b in zip(parts, x, y))

    return gens, mul, idents


def _metacyclic(m, k, n):
    """C_m x| C_n with b a b^-1 = a^k: elements a^i b^j as (i, j)."""
    if pow(k, n, m) != 1 % m:
        raise ValueError("k^n must be 1 mod m")

    def mul(x, y):
        return ((x[0] + pow(k, x[1], m) * y[0]) % m, (x[1] + y[1]) % n)

    return [(1, 0), (0, 1)], mul, (0, 0)


def _dicyclic(n):
    """<a, b | a^2n = 1, b^2 = a^n, b a b^-1 = a^-1>: a^i b^j as (i, j)."""
    m = 2 * n

    def mul(x, y):
        i, j = x
        i2, j2 = y
        i = (i + (i2 if j == 0 else -i2)) % m
        if j and j2:
            return ((i + n) % m, 0)
        return (i, j ^ j2)

    return [(1, 0), (0, 1)], mul, (0, 0)


def _klein_by_c4():
    """(C2 x C2) x| C4, the generator of C4 swapping the two C2 factors."""
    def mul(x, y):
        (u1, u2), j = x
        (w1, w2), j2 = y
        if j % 2:
            w1, w2 = w2, w1
        return (((u1 + w1) % 2, (u2 + w2) % 2), (j + j2) % 4)

    return [((1, 0), 0), ((0, 0), 1)], mul, ((0, 0), 0)


def _pauli():
    """The group generated by the Pauli matrices X, Z and iI (C4 o D4):
    2x2 matrices over the Gaussian integers, entries as (re, im)."""
    def cmul(p, q):
        return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def cadd(p, q):
        return (p[0] + q[0], p[1] + q[1])

    def mul(x, y):
        return tuple(tuple(cadd(cmul(x[i][0], y[0][j]), cmul(x[i][1], y[1][j]))
                           for j in range(2)) for i in range(2))

    o, one, neg, im = (0, 0), (1, 0), (-1, 0), (0, 1)
    gens = [((o, one), (one, o)), ((one, o), (o, neg)), ((im, o), (o, im))]
    return gens, mul, ((one, o), (o, one))


def _alternating4():
    def mul(p, q):  # p after q
        return tuple(p[q[i]] for i in range(4))

    return [(1, 2, 0, 3), (1, 0, 3, 2)], mul, (0, 1, 2, 3)


def _dihedral(n):
    return _metacyclic(n, n - 1, 2)


BUILDERS = {
    **{f"C{n}": (lambda n=n: _cyclic(n)) for n in range(1, 17)},
    "V4": lambda: _product(_cyclic(2), _cyclic(2)),
    "S3": lambda: _dihedral(3),
    "C4xC2": lambda: _product(_cyclic(4), _cyclic(2)),
    "C2xC2xC2": lambda: _product(_cyclic(2), _cyclic(2), _cyclic(2)),
    "D4": lambda: _dihedral(4),
    "Q8": lambda: _dicyclic(2),
    "C3xC3": lambda: _product(_cyclic(3), _cyclic(3)),
    "D5": lambda: _dihedral(5),
    "C6xC2": lambda: _product(_cyclic(6), _cyclic(2)),
    "D6": lambda: _dihedral(6),
    "A4": _alternating4,
    "Dic3": lambda: _dicyclic(3),
    "D7": lambda: _dihedral(7),
    "C8xC2": lambda: _product(_cyclic(8), _cyclic(2)),
    "C4xC4": lambda: _product(_cyclic(4), _cyclic(4)),
    "C4xC2xC2": lambda: _product(_cyclic(4), _cyclic(2), _cyclic(2)),
    "C2^4": lambda: _product(*[_cyclic(2)] * 4),
    "D8": lambda: _dihedral(8),
    "SD16": lambda: _metacyclic(8, 3, 2),
    "M16": lambda: _metacyclic(8, 5, 2),
    "Q16": lambda: _dicyclic(4),
    "D4xC2": lambda: _product(_dihedral(4), _cyclic(2)),
    "Q8xC2": lambda: _product(_dicyclic(2), _cyclic(2)),
    "C4:C4": lambda: _metacyclic(4, 3, 4),
    "C2^2:C4": _klein_by_c4,
    "C4oD4": _pauli,
}


# -- Cayley tables ------------------------------------------------------------

def cayley_table(name: str, rng=None) -> list[list[int]]:
    """Cayley table of a named group, identity at index 0; the other
    elements are shuffled by `rng` when given."""
    gens, mul, identity = BUILDERS[name]()
    elems = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    rest = elems[1:]
    if rng is not None:
        rng.shuffle(rest)
    elems = [identity] + rest
    index = {x: i for i, x in enumerate(elems)}
    return [[index[mul(x, y)] for y in elems] for x in elems]


def table_text(table) -> str:
    rows = [" ".join(str(v) for v in row) for row in table]
    return f"order: {len(table)}\n" + "\n".join(rows) + "\n"


# -- brute force, used by the tests to confirm FACTS ---------------------------

def _closure(table, seed: frozenset) -> frozenset:
    members = set(seed) | {0}
    frontier = list(members)
    while frontier:
        new = []
        for x in frontier:
            for y in list(members):
                for z in (table[x][y], table[y][x]):
                    if z not in members:
                        members.add(z)
                        new.append(z)
        frontier = new
    return frozenset(members)


def subgroups(table) -> set[frozenset]:
    """Every subgroup, as the joins of cyclic subgroups."""
    cyclic = {_closure(table, frozenset({g})) for g in range(len(table))}
    found = set(cyclic)
    frontier = set(cyclic)
    while frontier:
        nxt = set()
        for h in frontier:
            for c in cyclic:
                if not c <= h:
                    j = _closure(table, h | c)
                    if j not in found:
                        found.add(j)
                        nxt.add(j)
        frontier = nxt
    return found


def covering_number(table):
    """Fewest proper subgroups whose union is the group; None if cyclic."""
    n = len(table)
    whole = frozenset(range(n))
    proper = [h for h in subgroups(table) if h != whole]
    maximal = [h for h in proper if not any(h < k for k in proper)]
    if len(maximal) == 1 or not maximal:
        return None
    for k in range(2, len(maximal) + 1):
        for combo in combinations(maximal, k):
            if frozenset().union(*combo) == whole:
                return k
    return None
