"""Finite-group covering numbers.

sigma_g is computed by exact minimum set cover over the maximal proper
subgroups (any minimal cover refines to maximal ones).  In a finite group
every nonempty closed subset is a subgroup, so sigma_s = sigma_g; the
exhaustive subsemigroup census checks that on the group, from the closed
subsets sigma_g's subgroup lattice reads, found once per group by a pruned
enumeration whose cost follows their number, not 2^n.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .errors import CoveringMismatch, GroupTooLarge
from .groups import FiniteGroup, element_order, is_normal, right_closure

DEFAULT_SUBGROUP_CAP = 24
DEFAULT_EXHAUSTIVE_CAP = 8


def _mask_members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _closed_supersets(group: FiniteGroup) -> list[int]:
    """Every closed subset, the empty one included, sorted.  Elements join
    in index order: a child is its parent's closure with one more
    generator j (`right_closure`), cut when that adds an index below j, so
    each closed set comes out exactly once.  In a finite group a closed
    nonempty subset is a subgroup."""
    table = group.table
    found = [0]
    stack = [(0, [], [], 0)]
    while stack:
        mask, members, gens, start = stack.pop()
        for j in range(start, group.order):
            if not mask >> j & 1:
                child_gens = gens + [j]
                child = right_closure(table, mask, members, child_gens, j)
                if child is not None:
                    found.append(child[0])
                    stack.append((*child, child_gens, j + 1))
    return sorted(found)


def _closed_subsets(group: FiniteGroup) -> tuple[int, ...]:
    """The group's closed subsets, enumerated on first use and kept on it."""
    if group.closed_subsets is None:
        group.closed_subsets = tuple(_closed_supersets(group))
    return group.closed_subsets


def _maximal(masks: list[int]) -> list[int]:
    """The masks that no other mask contains, in input order."""
    kept: set[int] = set()
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if not any(m & k == m for k in kept):
            kept.add(m)
    return [m for m in masks if m in kept]


def _is_subgroup(group: FiniteGroup, mask: int) -> bool:
    return bool(mask & 1) and all(mask >> group.inv(a) & 1 for a in _mask_members(mask))


# ---------------------------------------------------------------------------
# Subgroup enumeration
# ---------------------------------------------------------------------------

def all_subgroups(group: FiniteGroup) -> list[int]:
    """Every subgroup as a bitmask, sorted: the closed subsets containing
    the identity."""
    if group.order > DEFAULT_SUBGROUP_CAP:
        raise GroupTooLarge(f"order {group.order} exceeds subgroup cap {DEFAULT_SUBGROUP_CAP}")
    return [m for m in _closed_subsets(group) if m & 1]


def maximal_subgroups(group: FiniteGroup) -> list[int]:
    """Proper subgroups maximal under inclusion."""
    full = (1 << group.order) - 1
    return _maximal([s for s in all_subgroups(group) if s != full])


# ---------------------------------------------------------------------------
# Covering numbers
# ---------------------------------------------------------------------------

class CoveringNumberResult:
    def __init__(self, sigma_g: Optional[int], witness_cover: list[list[int]]):
        self.sigma_g, self.witness_cover = sigma_g, witness_cover  # None = undefined (cyclic)


def _is_cyclic(group: FiniteGroup) -> bool:
    return any(element_order(group, g)[0] == group.order for g in range(group.order))


def _min_cover(full: int, candidates: list[int]) -> Optional[list[int]]:
    """Smallest family of candidate masks whose union is `full`; the
    lexicographically first witness (in candidate order) at the optimal
    size.  None when even the whole family does not cover."""
    acc = 0
    for c in candidates:
        acc |= c
    if acc != full:
        return None
    for k in range(2, len(candidates) + 1):
        for combo in combinations(range(len(candidates)), k):
            u = 0
            for i in combo:
                u |= candidates[i]
            if u == full:
                return [candidates[i] for i in combo]
    return None


def sigma_g(group: FiniteGroup) -> CoveringNumberResult:
    """Exact subgroup covering number, undefined for cyclic groups."""
    if group.order > DEFAULT_SUBGROUP_CAP:
        raise GroupTooLarge(f"order {group.order} exceeds cap {DEFAULT_SUBGROUP_CAP}")
    if _is_cyclic(group):
        return CoveringNumberResult(None, [])
    full = (1 << group.order) - 1
    cover = _min_cover(full, maximal_subgroups(group))
    if cover is None:
        raise CoveringMismatch(f"non-cyclic {group.name} is not covered by its maximal subgroups")
    witness = [sorted(_mask_members(m)) for m in cover]
    return CoveringNumberResult(len(cover), witness)


# ---------------------------------------------------------------------------
# Subsemigroup census
# ---------------------------------------------------------------------------

class CensusResult:
    def __init__(self, closed_subsets: list[int], all_are_subgroups: bool):
        self.closed_subsets, self.all_are_subgroups = closed_subsets, all_are_subgroups


def subsemigroup_census(group: FiniteGroup,
                        cap: int = DEFAULT_EXHAUSTIVE_CAP) -> CensusResult:
    """All nonempty multiplicatively closed subsets, sorted, checking each
    contains the inverses and identities of its elements (true in torsion
    groups)."""
    n = group.order
    if n > cap:
        raise GroupTooLarge(f"order {n} exceeds exhaustive cap {cap}")
    closed = list(_closed_subsets(group)[1:])  # the empty set sorts first
    return CensusResult(closed, all(_is_subgroup(group, m) for m in closed))


# ---------------------------------------------------------------------------
# Cross-checks
# ---------------------------------------------------------------------------

def scorza_check(group: FiniteGroup, sigma: CoveringNumberResult) -> tuple[bool, bool]:
    """Both sides of: covering number is three iff the group has a
    Klein-four quotient.  The right side is computed independently of the
    group's sigma_g result `sigma`."""
    left = sigma.sigma_g == 3
    right = False
    for sub in all_subgroups(group):
        members = _mask_members(sub)
        if group.order != 4 * len(members):
            continue
        if not is_normal(group, members):
            continue
        # index-4 quotient has exponent 2 iff every square lands in the subgroup
        if all(sub & (1 << group.mul(g, g)) for g in range(group.order)):
            right = True
            break
    return left, right


def two_cover_search(group: FiniteGroup, census: CensusResult) -> dict:
    """Exhaustive search, over the group's census, for two proper closed
    subsets covering the group; must come back empty."""
    full = (1 << group.order) - 1
    proper = [m for m in census.closed_subsets if m != full]
    found = []
    pairs = 0
    for i, s in enumerate(proper):
        for t in proper[i:]:
            pairs += 1
            if (s | t) == full:
                found.append((sorted(_mask_members(s)), sorted(_mask_members(t))))
    return {"pairs_checked": pairs, "covers_found": found}
