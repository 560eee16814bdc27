"""Group models: finite Cayley tables and built-in infinite families.

Each family is one subclass of `GroupModel`, and the rest of the package
asks a model (`is_finite`, `is_free_abelian`) instead of testing its
family.  A subclass hands `GroupModel.__init__` its equality key, which
starts with its `kind`, its product, inverse and identity, its generators
and the exponent-sum rows of its relators.  It defines `validate`, `parse`
and `format`, `abelian_exponents` if it has maps into Z^r, and `selector`
where that is not its `kind`.  `FiniteGroup` also defines `domain`, a
one-lookup `mul` and an equality that compares tables.  `ball` is shared.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property, lru_cache
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import (
    BallTooLarge,
    InvalidElement,
    MalformedTable,
    ModelMismatch,
    NotAGroup,
    NotASubgroup,
    ParseError,
)

DEFAULT_BALL_CAP = 10**6
# generators a model selector may ask for: the generator list and the BFS
# step table (`GroupModel._steps`) grow with the square of their number
MAX_GENERATORS = 256


# ---------------------------------------------------------------------------
# Finite groups
# ---------------------------------------------------------------------------

def right_closure(table, mask: int, members: list[int], gens: list[int],
                  floor: int = 0) -> Optional[tuple[int, list[int]]]:
    """The least set holding `members` (bitmask `mask`, closed under right
    products by gens[:-1]) and j = gens[-1] that is closed under right
    products by `gens`, as its mask and elements; in a finite group, the
    closed set `gens` generate.  It costs |members| products h j, then
    len(gens) per new element.  None once it reaches an index below
    `floor` outside `mask`."""
    j = gens[-1]
    mask |= 1 << j
    new = [j]
    for h in members:
        p = table[h][j]
        bit = 1 << p
        if not mask & bit:
            if p < floor:
                return None
            mask |= bit
            new.append(p)
    for x in new:  # reads the elements appended while it runs
        row = table[x]
        for g in gens:
            p = row[g]
            bit = 1 << p
            if not mask & bit:
                if p < floor:
                    return None
                mask |= bit
                new.append(p)
    return mask, members + new


def _generators(table) -> list[int]:
    """Generators picked greedily in index order, each the first element
    outside the right-product closure of 0 and those before it."""
    mask, members, gens = 1, [0], []
    for j in range(1, len(table)):
        if not mask >> j & 1:
            gens.append(j)
            mask, members = right_closure(table, mask, members, gens)
    return gens


def load_finite_group(text: str, name: str = "finite") -> FiniteGroup:
    """Parse a Cayley table file: `order: n` then n rows of n indices, each
    an ASCII decimal numeral.  A row ends at a line feed, a carriage return
    before it dropped; entries are separated by spaces and tabs, and blank
    rows are skipped."""
    rows = [ln.removesuffix("\r").strip(" \t") for ln in text.split("\n")]
    lines = [ln for ln in rows if ln]
    if not lines:
        raise MalformedTable("empty table file")
    m = re.fullmatch(r"order[ \t]*:[ \t]*([0-9]+)", lines[0])
    if not m:
        raise MalformedTable(f"first line must be 'order: n', got {lines[0]!r}")
    n = int(m.group(1))
    if n < 1:
        raise MalformedTable("order must be >= 1")
    table = []
    for ln in lines[1:]:
        numerals = ln.replace(" ", "").replace("\t", "")
        if not (numerals.isascii() and numerals.isdigit()):
            raise MalformedTable(f"entry in row {ln!r} is not an ASCII decimal numeral")
        table.append(list(map(int, ln.split())))  # only spaces and tabs split it
    if len(table) != n:
        raise MalformedTable(f"expected {n} table rows, found {len(table)}")
    return FiniteGroup(table, name=name)


def element_order(group: FiniteGroup, x: int) -> tuple[int, int]:
    """Least n >= 1 with x^n = 1, plus x^(n-1) as the inverse witness."""
    group.validate(x)
    n = 1
    power = x
    prev = 0
    while power != 0:
        prev = power
        power = group.mul(power, x)
        n += 1
    return n, prev


def is_normal(group: FiniteGroup, subgroup: Sequence[int]) -> bool:
    """Whether gHg^-1 = H for all g.  Raises InvalidElement on an entry
    that is no index of the group and NotASubgroup on a subset that is no
    subgroup."""
    for h in subgroup:
        group.validate(h)
    sub = frozenset(subgroup)
    table, inverse = group.table, group.inverse_table
    if 0 not in sub:
        raise NotASubgroup("subset does not contain the identity")
    for a in sub:
        if inverse[a] not in sub:
            raise NotASubgroup(f"subset not inverse-closed at {a}")
        for b in sub:
            if table[a][b] not in sub:
                raise NotASubgroup(f"subset not closed at ({a},{b})")
    return all(table[table[g][h]][inverse[g]] in sub for g in group.elements() for h in sub)


# ---------------------------------------------------------------------------
# Z^r vectors
# ---------------------------------------------------------------------------

class VectorOps(NamedTuple):
    """Arithmetic on Z^r vectors laid out as slices, one per homomorphism
    of a joint image (see `joint_image`), from `vector_ops`: the zero
    vector, the sum and the difference of two vectors, and `signs`, the
    lex sign of each slice as a tuple."""

    zero: tuple
    add: Callable
    sub: Callable
    signs: Callable


@lru_cache(maxsize=None)
def vector_ops(ranks: tuple) -> VectorOps:
    """The arithmetic of vectors made of slices of widths `ranks`, built on
    first use per layout; every vector sum and sign pattern in the package
    is formed here.  Sums of width 1 and 2 are written out.  A slice s has
    lex sign (s > 0) - (s < 0), 0 being the zero slice: tuples of equal
    length compare by their first differing entry."""
    width = sum(ranks)
    if width == 1:
        def add(x, y):
            return (x[0] + y[0],)

        def sub(x, y):
            return (x[0] - y[0],)
    elif width == 2:
        def add(x, y):
            return (x[0] + y[0], x[1] + y[1])

        def sub(x, y):
            return (x[0] - y[0], x[1] - y[1])
    else:
        def add(x, y):
            return tuple(map(operator.add, x, y))

        def sub(x, y):
            return tuple(map(operator.sub, x, y))
    zero = (0,) * width
    if len(ranks) == 1:  # one slice: the whole vector
        def signs(w):
            return ((w > zero) - (w < zero),)
    else:
        ends = list(accumulate(ranks, initial=0))
        cuts = [(slice(lo, hi), (0,) * (hi - lo)) for lo, hi in zip(ends, ends[1:])]

        def signs(w):
            return tuple([(w[c] > z) - (w[c] < z) for c, z in cuts])
    return VectorOps(zero, add, sub, signs)


def image_ops(homs) -> VectorOps:
    """`vector_ops` for the joint images of `homs`."""
    return vector_ops(tuple([h.rank() for h in homs]))


# ---------------------------------------------------------------------------
# Group models
# ---------------------------------------------------------------------------

def _format_int_tuple(x) -> str:
    return "(" + ",".join(str(v) for v in x) + ")"


def _grow(walk: "Domain", lo: int, cap: int, product, onward, radius: int) -> int:
    """Append BFS layers to `walk`, whose outer layer starts at index lo,
    up to `radius`; return where the outer one starts.  Step k is followed
    by the steps onward[k] only: its inverse leads back to the parent."""
    out, index, parent, via, steps = walk.elements, walk.index, walk.parent, walk.via, walk.steps
    every = range(len(steps))
    n = len(out)
    while walk.radius < radius:
        hi = n
        for p in range(lo, hi):
            x = out[p]
            for k in onward[via[p]] if p else every:
                y = product(x, steps[k])
                if index.setdefault(y, n) == n:
                    n += 1
                    out.append(y)
                    parent.append(p)
                    via.append(k)
                    if n > cap:
                        raise BallTooLarge(f"ball exceeds cap {cap}")
        walk.radius += 1
        lo = hi
    return lo


def _free_product(x, y):
    xs = list(x)
    for v in y:
        if xs and xs[-1] == -v:
            xs.pop()
        else:
            xs.append(v)
    return tuple(xs)


def _heisenberg_product(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])


def _klein_product(x, y):
    # (b^m1 a^n1)(b^m2 a^n2) = b^(m1+m2) a^(n1*(-1)^m2 + n2)
    m1, n1 = x
    m2, n2 = y
    return (m1 + m2, (n1 if m2 % 2 == 0 else -n1) + n2)


class GroupModel:
    """A group with exact arithmetic on canonical normal forms, a finite
    generating set and deterministic BFS balls: one subclass per family.
    `__init__` takes the product, inverse and identity, resolved once: `mul`,
    `inv` and `ball` call them directly.  `_extend`, the product of a BFS
    word with a step that does not undo its last step, is the product
    unless a family has a cheaper one."""

    kind = ""  # the family's label, as in its selector
    is_finite = False  # an exact finite group: scans decide on the whole group
    is_free_abelian = False  # a torsion-free Z^r, the target of generator-image maps

    def __init__(self, key: tuple, product, inv, one, gens: Sequence,
                 relator_rows: Sequence[tuple[int, ...]] = ()):
        self.key = key  # equality and hashing read this
        self._product, self.inv, self._one = product, inv, one
        self._extend = product
        self._gens, self._relator_rows = gens, relator_rows
        # radius -> the ball's Domain; None -> a finite model's whole group;
        # (radius, hom keys) -> the domain `domain` gave for those homs
        self._balls: dict = {}
        self._walk: Optional[tuple] = None  # a ball stopped short, and its outer layer's start

    # -- constructors

    @staticmethod
    def zr(rank: int, orders: Sequence[int] = ()) -> "GroupModel":
        return ZrModel(rank, tuple(orders))

    @staticmethod
    def free(rank: int) -> "GroupModel":
        return FreeModel(rank)

    @staticmethod
    def heisenberg() -> "GroupModel":
        return HeisenbergModel()

    @staticmethod
    def klein_bottle() -> "GroupModel":
        return KleinBottleModel()

    # -- identity / arithmetic

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupModel) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"GroupModel({self.selector()})"

    def identity(self):
        return self._one

    def mul(self, x, y):
        return self._product(x, y)

    def conj(self, g, x):
        """g^-1 * x * g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def generators(self) -> list:
        return list(self._gens)

    def relator_exponent_rows(self) -> list[tuple[int, ...]]:
        """Exponent sums of the built-in relators, one row per relator with
        a nonzero sum, in generator order: maps into Z^r must kill them."""
        return list(self._relator_rows)

    def abelian_exponents(self, x) -> tuple[int, ...]:
        """Exponent sums of x with respect to the generator list; any word
        representing x gives the same answer modulo the relator rows."""
        raise InvalidElement(f"{self.kind} models have no canonical exponent map")

    def selector(self) -> str:
        return self.kind

    # -- ball enumeration

    @cached_property
    def _steps(self) -> tuple:
        """The BFS steps, each generator and then its inverse when that
        differs, and per step k the indices of the steps tried after
        arriving by k: all but k's inverse, which leads back."""
        steps = []
        for g in self.generators():
            steps += [g] if self.inv(g) == g else [g, self.inv(g)]
        return steps, [[j for j, s in enumerate(steps) if s != ti] for ti in map(self.inv, steps)]

    def ball(self, radius: int, cap: int = DEFAULT_BALL_CAP, homs=None) -> list:
        """All products of at most `radius` generators/inverses, BFS order
        with generator-index tiebreak.  Element 0 is the identity.

        The enumeration is kept as a `Domain` (see `domain`) with its index
        map and spanning tree: element i > 0 is ball[parent[i]] *
        steps[via[i]], with parent[i] < i.  Given `homs`, the walk reads its
        elements' joint images (`Domain.images`) after each layer and stops
        after the first layer with an element but the identity of image
        zero; it is kept, and the next call that reaches its radius
        continues it.  The last layer needs no images: a zero there leaves
        the ball the domain."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        walk = self._balls.get(radius)
        if walk is None:
            walk, lo = None, 0
            if self._walk and self._walk[0].radius <= radius:
                (walk, lo), self._walk = self._walk, None  # a walk cut by BallTooLarge is dropped
            steps, onward = self._steps
            walk = walk or Domain([self.identity()], {self.identity(): 0}, 0, [0], [0], steps)
            if homs is None:
                lo = _grow(walk, lo, cap, self._extend, onward, radius)
            else:
                zero, start = image_ops(homs).zero, 1
                while walk.radius < radius:
                    images = walk.images(homs)
                    if zero in images[start:]:
                        break
                    start = len(images)
                    lo = _grow(walk, lo, cap, self._extend, onward, walk.radius + 1)
            if walk.radius < radius:
                self._walk = walk, lo
            else:
                self._balls[radius] = walk
        if len(walk.elements) > cap:  # every ball holds 1
            raise BallTooLarge(f"ball exceeds cap {cap}")
        return walk.elements

    def domain(self, radius: int, cap: int = DEFAULT_BALL_CAP, homs=None) -> "Domain":
        """The elements a scan at `radius` decides a verdict on: the Cayley
        ball of that radius; ball(0) is the identity alone, on which no
        ball-local verdict means anything, so it is refused.  Given `homs`,
        which every cone of the scan factors through, it is the ball's
        class domain (`_class_domain`), built once per hom keys, unless the
        ball is walked already or its zero class holds no element but the
        identity before the last layer.  `cap` bounds the elements held, on
        a class domain its representatives plus the prefix's."""
        if radius < 1:
            raise ValueError("radius must be >= 1 for infinite models")
        key = radius if homs is None else (radius, tuple([h.key for h in homs]))
        done = self._balls.get(key)
        if done is None:
            self.ball(radius, cap, homs)
            done = self._balls.get(radius) or self._class_domain(radius, homs, cap)
            self._balls[key] = done
        if len(done.elements) > cap:
            raise BallTooLarge(f"ball exceeds cap {cap}")
        return done

    def _class_domain(self, radius: int, homs, cap: int) -> "Domain":
        """The identity, the first element of every other joint image class
        of ball(radius) under `homs`, and z, the first element of image zero
        but the identity, in ball order.  z, its parent's image and its
        place are read off the images of the stopped prefix (`ball`), which
        holds z.  The classes are walked as a ball with the steps' images
        for steps, and a class first reached from class c by step s has
        rep(c) * s for first element: the ball numbers an element by its
        (parent, step), and rep(c) precedes every other element of c and
        reaches the class by the same step.  The domain's images are the
        walk's, with zero at z's place; its classes group them."""
        hom_keys, ops = tuple([h.key for h in homs]), image_ops(homs)
        prefix = self._walk[0]
        images, step_images = prefix._images[hom_keys]  # all of them: `ball` read them
        steps, onward = self._steps
        walk = Domain([ops.zero], {ops.zero: 0}, 0, [0], [0], step_images)
        _grow(walk, 0, cap - len(prefix.elements), ops.add, onward, radius)
        # rep(c) is reached by the class walk's step via[c], and the walk
        # never follows a step by its inverse
        elements, parent, via, extend = [prefix.elements[0]], walk.parent, walk.via, self._extend
        for c in range(1, len(parent)):
            elements.append(extend(elements[parent[c]], steps[via[c]]))
        z = images.index(ops.zero, 1)
        q = len(set(images[1:z])) + 1  # z's place: after the classes met before it
        parent = [p + (p >= q) for p in parent]
        elements.insert(q, prefix.elements[z])
        parent.insert(q, walk.index[images[prefix.parent[z]]])
        via.insert(q, prefix.via[z])
        walk.elements.insert(q, ops.zero)
        out = Domain(elements, {x: i for i, x in enumerate(elements)}, radius, parent, via,
                     steps, hom_keys)
        out._images[hom_keys] = walk.elements, step_images
        return out


class FiniteGroup(GroupModel):
    """A finite group by its full Cayley table: elements are indices, 0 the
    identity, and every element but 0 a generator.  Scans on it decide
    exactly, on the whole group (`domain`)."""

    kind = "finite"
    is_finite = True

    def __init__(self, table: Sequence[Sequence[int]], name: str = "finite"):
        self.table = rows = [list(row) for row in table]
        self.order = len(rows)
        self.name = name
        self._validate()
        self.inverse_table = self._build_inverses()
        # every closed subset as a bitmask, sorted; `covering` fills it once
        self.closed_subsets: Optional[tuple[int, ...]] = None
        # `__eq__` compares the tables, and equal tables have equal orders
        super().__init__(("finite", self.order), lambda x, y: rows[x][y],
                         self.inverse_table.__getitem__, 0, range(1, self.order))

    def _validate(self) -> None:
        n = self.order
        if n < 1:
            raise MalformedTable("table must have at least one row")
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise MalformedTable(f"row {i} has {len(row)} entries, expected {n}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or not (0 <= v < n):
                    raise MalformedTable(f"entry ({i},{j}) = {v!r} out of range [0,{n})")
        for j in range(n):
            if self.table[0][j] != j:
                raise NotAGroup(
                    f"index 0 is not a left identity at column {j}", witness=(0, j, self.table[0][j])
                )
            if self.table[j][0] != j:
                raise NotAGroup(
                    f"index 0 is not a right identity at row {j}", witness=(j, 0, self.table[j][0])
                )
        # Light's test: the j with (ij)k = i(jk) for all i, k are closed, so generators suffice
        rows = [tuple(row) for row in self.table]
        picks = {j: itemgetter(*rows[j]) for j in _generators(rows)}
        if all(rows[row[j]] == pick(row) for j, pick in picks.items() for row in rows[1:]):
            return
        # the first failing triple; i = 0 and j = 0 hold
        picks = [itemgetter(*row) for row in rows]
        for i, row in enumerate(rows[1:], 1):
            for j in range(1, n):
                if rows[row[j]] != picks[j](row):
                    k = next(k for k in range(n) if rows[row[j]][k] != row[rows[j][k]])
                    raise NotAGroup(
                        f"associativity fails at triple ({i},{j},{k})", witness=(i, j, k)
                    )

    def _build_inverses(self) -> list[int]:
        for i, row in enumerate(self.table):
            if row.count(0) != 1:
                raise NotAGroup(f"element {i} has {row.count(0)} inverses", witness=(i,))
        return [row.index(0) for row in self.table]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.order)

    def validate(self, x) -> None:
        if not isinstance(x, int) or not (0 <= x < self.order):
            raise InvalidElement(f"{x!r} is not a valid index")

    def parse(self, text: str) -> int:
        try:
            x = int(text.strip())
        except ValueError as exc:
            raise ParseError(f"expected an element index, got {text!r}") from exc
        self.validate(x)
        return x

    format = staticmethod(str)

    def selector(self) -> str:
        return f"finite:{self.name}"

    def domain(self, radius: int, cap: int = DEFAULT_BALL_CAP, homs=None) -> "Domain":
        """The whole group, built once and checked exactly (radius 0)."""
        whole = self._balls.get(None)
        if whole is None:
            elements = list(self.elements())
            n = len(elements)
            # the star tree: element i is 1 * elements[i]
            whole = self._balls[None] = Domain(elements, {x: x for x in elements}, 0,
                                               [0] * n, range(n), elements)
        return whole


class ZrModel(GroupModel):
    """Z^rank x C_o1 x ... x C_ok: tuples of rank + k ints, the torsion
    coordinates reduced mod their orders; the unit vectors generate."""

    kind = "zr_cross_finite"

    def __init__(self, rank: int, orders: tuple[int, ...] = ()):
        self.rank, self.orders = rank, orders
        self.is_free_abelian = not orders
        moduli = (None,) * rank + orders  # None: a free coordinate
        if not orders:
            product, inv = vector_ops((rank,)).add, lambda x: tuple([-a for a in x])
        else:
            def product(x, y):
                return tuple([a + b if o is None else (a + b) % o for a, b, o in zip(x, y, moduli)])

            def inv(x):
                return tuple([-a if o is None else -a % o for a, o in zip(x, moduli)])
        n = len(moduli)
        gens = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
        # g^o for each torsion generator g of order o
        rows = [tuple(o * v for v in g) for g, o in zip(gens[rank:], orders)]
        super().__init__(("zr_cross_finite", rank, orders), product, inv, (0,) * n, gens, rows)

    def abelian_exponents(self, x) -> tuple[int, ...]:
        return tuple(x)

    def validate(self, x) -> None:
        _check_int_tuple(x, len(self._one))
        for v, o in zip(x[self.rank:], self.orders):
            if not (0 <= v < o):
                raise InvalidElement(f"torsion coordinate {v} not reduced mod {o}")

    def parse(self, text: str) -> tuple:
        vals = _parse_int_tuple(text)
        if len(vals) != len(self._one):
            raise ParseError(f"expected {len(self._one)} coordinates, got {len(vals)}")
        vals = vals[:self.rank] + tuple(v % o for v, o in zip(vals[self.rank:], self.orders))
        self.validate(vals)
        return vals

    format = staticmethod(_format_int_tuple)

    def selector(self) -> str:
        return f"z^{self.rank}" + "".join(f"xC{o}" for o in self.orders)


class FreeModel(GroupModel):
    """The free group of a rank: freely reduced tuples of nonzero signed
    ints, +i for generator i-1 and -i for its inverse."""

    kind = "free"

    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise ParseError(f"free rank must be from 1 to 26 in 'free:{rank}': its elements "
                             "are words over one letter a-z per generator")
        self.rank = rank
        super().__init__(("free", rank), _free_product, lambda x: tuple([-v for v in reversed(x)]),
                         (), [(i,) for i in range(1, rank + 1)])
        # a BFS word ends in its last step and the next step is no inverse
        # of it, so the word and the step concatenate to a reduced word
        self._extend = operator.add

    def abelian_exponents(self, x) -> tuple[int, ...]:
        counts = [0] * self.rank
        for v in x:
            counts[abs(v) - 1] += 1 if v > 0 else -1
        return tuple(counts)

    def validate(self, x) -> None:
        if not isinstance(x, tuple) or any(not isinstance(v, int) or v == 0 or abs(v) > self.rank for v in x):
            raise InvalidElement(f"{x!r} is not a word over {self.rank} letters")
        for u, v in zip(x, x[1:]):
            if u == -v:
                raise InvalidElement(f"word {x!r} is not freely reduced")

    def parse(self, text: str) -> tuple:
        word: list = []  # freely reduced as it is built
        for g, exp in _element_word(self, text):
            v = g + 1 if exp > 0 else -(g + 1)
            count = abs(exp)
            while count and word and word[-1] == -v:
                word.pop()
                count -= 1
            word.extend([v] * count)
        return tuple(word)

    def format(self, x) -> str:
        return _format_word([(chr(ord("a") + abs(v) - 1), len(list(run)) * (1 if v > 0 else -1))
                             for v, run in groupby(x)])

    def selector(self) -> str:
        return f"free:{self.rank}"


class HeisenbergModel(GroupModel):
    """The integer Heisenberg group: (x, y, z) under the upper-unitriangular
    product, generated by (1, 0, 0) and (0, 1, 0)."""

    kind = "heisenberg"

    def __init__(self):
        super().__init__(("heisenberg",), _heisenberg_product,
                         lambda x: (-x[0], -x[1], -x[2] + x[0] * x[1]), (0, 0, 0),
                         [(1, 0, 0), (0, 1, 0)])

    def abelian_exponents(self, x) -> tuple[int, ...]:
        return (x[0], x[1])

    def validate(self, x) -> None:
        _check_int_tuple(x, 3)

    def parse(self, text: str) -> tuple:
        vals = _parse_int_tuple(text)
        self.validate(vals)
        return vals

    format = staticmethod(_format_int_tuple)


class KleinBottleModel(GroupModel):
    """The Klein bottle group <a, b | b a b^-1 a>: (m, n) is b^m a^n, with
    the rewrite a b = b a^-1."""

    kind = "klein_bottle"

    def __init__(self):
        super().__init__(("klein_bottle",), _klein_product,
                         lambda x: (-x[0], -x[1] if x[0] % 2 == 0 else x[1]), (0, 0),
                         [(0, 1), (1, 0)],  # a, b
                         [(2, 0)])  # relator b a b^-1 a: a-sum 2, b-sum 0

    def abelian_exponents(self, x) -> tuple[int, ...]:
        return x[::-1]  # (m, n) = b^m a^n, generator order (a, b)

    def validate(self, x) -> None:
        _check_int_tuple(x, 2)

    def parse(self, text: str) -> tuple:
        # a^e = (0, e) and b^e = (e, 0) in the normal form b^m a^n
        result = self._one
        for g, exp in _element_word(self, text):
            result = self.mul(result, (0, exp) if g == 0 else (exp, 0))
        return result

    def format(self, x) -> str:
        return _format_word([("b", x[0]), ("a", x[1])])


def _check_int_tuple(x, n: int) -> None:
    if not (isinstance(x, tuple) and len(x) == n and all(isinstance(v, int) for v in x)):
        raise InvalidElement(f"{x!r} is not a {n}-tuple of ints")


def _parse_int_tuple(text: str) -> tuple:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    try:
        return tuple(int(tok) for tok in body.replace(",", " ").split())
    except ValueError as exc:
        raise ParseError(f"expected an integer tuple, got {text!r}") from exc


_WORD_TOKEN = re.compile(r"([a-zA-Z])(?:\^(-?\d+))?")


def word_tokens(word: str, letters: Sequence[str], unexpected: str, unknown: str):
    """(generator index, exponent) per token of `word`, a letter of `letters`
    (uppercase: its inverse) with an optional ^k; the word 1 is empty.  On a
    stray character or letter, raises ParseError with the template
    `unexpected` or `unknown`, formatted with `word` and `rest` or `letter`."""
    if word == "1":
        return
    pos = 0
    for m in _WORD_TOKEN.finditer(word):
        if m.start() != pos:
            break
        pos = m.end()
        ch = m.group(1)
        if ch.lower() not in letters:
            raise ParseError(unknown.format(word=word, letter=ch))
        exp = int(m.group(2)) if m.group(2) is not None else 1
        yield letters.index(ch.lower()), -exp if ch.isupper() else exp
    if pos != len(word):
        raise ParseError(unexpected.format(word=word, rest=word[pos:]))


def _element_word(model: GroupModel, text: str):
    """`word_tokens` of an element word over the model's letters, refused
    past DEFAULT_BALL_CAP letters in all."""
    total = 0
    letters = [chr(ord("a") + i) for i in range(len(model.generators()))]
    for g, exp in word_tokens(text.strip(), letters,
                              "unexpected character at {rest!r}",
                              "unknown generator letter {letter!r}"):
        total += abs(exp)
        if total > DEFAULT_BALL_CAP:
            raise ParseError(f"word {text!r} has more than {DEFAULT_BALL_CAP} letters")
        yield g, exp


def _format_word(powers) -> str:
    """Letter powers as a word, such as b^2a^-1; 1 when all are zero."""
    return "".join(ch if e == 1 else f"{ch}^{e}" for ch, e in powers if e) or "1"


_ZR_SELECTOR = re.compile(r"z\^(\d+)((?:xC\d+)*)")


def parse_model(selector: str, loader=None) -> GroupModel:
    """Build a model from a CLI selector string.

    `finite:<path>` needs `loader` (path -> FiniteGroup); the built-in
    selectors are `z^r[xC n...]` with at most MAX_GENERATORS generators,
    `free:k` with k <= 26 (one letter per generator), `heisenberg` and
    `klein_bottle`.
    """
    sel = selector.strip()
    fixed = {"heisenberg": HeisenbergModel, "klein_bottle": KleinBottleModel}
    if sel in fixed:
        return fixed[sel]()
    if sel.startswith("free:"):
        try:
            k = int(sel.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad free rank in {selector!r}") from exc
        return GroupModel.free(k)
    if sel.startswith("finite:"):
        if loader is None:
            raise ParseError("finite:<path> selector requires a table loader")
        return loader(sel.split(":", 1)[1])
    m = _ZR_SELECTOR.fullmatch(sel)
    if m:
        rank = int(m.group(1))
        orders = tuple(int(t) for t in re.findall(r"xC(\d+)", m.group(2)))
        if 0 in orders:
            raise ParseError(f"cyclic factor orders must be >= 1 in {selector!r}")
        _check_generators(rank + len(orders), selector)
        return GroupModel.zr(rank, orders)
    raise ParseError(f"unknown model selector {selector!r}")


def _check_generators(count: int, selector: str) -> None:
    if count > MAX_GENERATORS:
        raise ParseError(f"model {selector!r} has more than {MAX_GENERATORS} generators")


# ---------------------------------------------------------------------------
# Scan domains
# ---------------------------------------------------------------------------

class ImageClasses(NamedTuple):
    """Indices 1.. of a domain grouped by their joint image under a hom
    list (see `joint_image`).  `members` maps each image to its ascending
    index list, keys in order of first index; cls[i] is the class number of
    element i, keys[c] the joint image of class c and signs[c] the lex
    sign of each of its slices (`VectorOps.signs`); `buckets` maps each
    sign pattern to the classes that hold an element other than the
    identity.  Class 0 is the zero vector's, which holds the identity."""

    members: dict
    cls: list
    keys: list
    signs: list
    buckets: dict


class Domain:
    """The elements one scan decides its verdicts on, from
    `GroupModel.domain`: a Cayley ball (`radius` >= 1, ball-local verdicts),
    the whole of a finite group (`radius` 0, exact verdicts) or a ball's
    class domain under the maps with keys `hom_keys` (else None).  `index`
    maps each element to its position, and the spanning tree has element
    i > 0 equal to elements[parent[i]] * steps[via[i]]; on a class domain
    its zero-class element only has that product's image.

    What derives from the elements alone is built once, on first use, and
    kept here: the full index set, and per hom list the elements' joint
    images (`images`, seeded on a class domain by the walk that built it,
    extended as a ball prefix grows) and their classes (`classes`), none
    on a prefix still being walked (`GroupModel.ball`), which is never
    handed out as a domain.  x^-1 conditions read cones' inverse member sets
    (`cones.inverse_members`).  `verdicts` is the memo of the verdicts
    decided on the domain (`cones.decide_once`), keyed by plain tuples.  A
    domain refers to neither its model nor any homomorphism, so it makes no
    reference cycle with them or with the cone nodes that keep their member
    sets on it.  Callers must not mutate a domain or anything it hands out."""

    __slots__ = ("elements", "index", "radius", "parent", "via", "steps", "hom_keys",
                 "_indices", "_images", "_classes", "verdicts")

    def __init__(self, elements: list, index: dict, radius: int, parent, via, steps,
                 hom_keys: Optional[tuple] = None):
        self.elements, self.index, self.radius = elements, index, radius
        self.parent, self.via, self.steps, self.hom_keys = parent, via, steps, hom_keys
        self._indices: Optional[frozenset] = None
        self._images: dict = {}  # the hom list's keys -> (its images, the steps')
        self._classes: dict = {}  # the hom list's keys -> its ImageClasses
        self.verdicts: dict = {}

    @property
    def indices(self) -> frozenset:
        """frozenset(range(len(elements))), the index set that complements
        are taken in."""
        if self._indices is None:
            self._indices = frozenset(range(len(self.elements)))
        return self._indices

    def images(self, homs) -> list:
        """Each element's joint image under `homs` (see `joint_image`), in
        domain order: a homomorphism into Z^r has phi(x * s) = phi(x) +
        phi(s), so element i's image is its parent's plus its step's.  Only
        the steps are mapped.  Kept per hom list with the step images, and
        extended, not rebuilt, once the domain has grown (a ball prefix
        continued); a class domain's are set by the walk that built it."""
        key = tuple([h.key for h in homs])
        kept = self._images.get(key)
        if kept is None:
            kept = self._images[key] = ([image_ops(homs).zero],
                                        [joint_image(homs, s) for s in self.steps])
        images, step_images = kept
        n = len(images)
        if n < len(self.elements):
            add = image_ops(homs).add
            for p, k in zip(self.parent[n:], self.via[n:]):
                images.append(add(images[p], step_images[k]))
        return images

    def classes(self, homs) -> ImageClasses:
        """The elements' classes under the joint image of `homs`: their
        images (`images`) grouped, each class's sign pattern formed once."""
        key = tuple([h.key for h in homs])
        hit = self._classes.get(key)
        if hit is not None:
            return hit
        images = self.images(homs)
        class_of = {images[0]: 0}
        cls = [class_of.setdefault(w, len(class_of)) for w in images]
        members: dict = {}
        for i in range(1, len(images)):
            members.setdefault(images[i], []).append(i)
        keys = list(class_of)
        signs = list(map(image_ops(homs).signs, keys))
        buckets: dict = {}
        for c in map(class_of.__getitem__, members):
            buckets.setdefault(signs[c], []).append(c)
        hit = self._classes[key] = ImageClasses(members, cls, keys, signs, buckets)
        return hit


# ---------------------------------------------------------------------------
# Element parsing / formatting
# ---------------------------------------------------------------------------

def parse_element(model: GroupModel, text: str):
    """The element a string names, in the model's syntax (`model.parse`)."""
    return model.parse(text)


def format_element(model: GroupModel, x) -> str:
    return model.format(x)


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

class Homomorphism:
    """A homomorphism of an infinite model into Z^r, given by the images
    of the source's generators."""

    def __init__(self, source: GroupModel, target: GroupModel, images: Sequence):
        self.source = source
        self.target = target
        self.images = tuple(tuple(img) if isinstance(img, (list, tuple)) else img
                            for img in images)
        self.key = (source.key, target.key, self.images)  # equality and hashing read this
        self._validate_images()
        self.ops = vector_ops((self.rank(),))  # the arithmetic of its images

    def _validate_images(self) -> None:
        if not self.target.is_free_abelian:
            raise ModelMismatch("generator-image form targets Z^r only")
        if self.source.is_finite:
            raise ModelMismatch("finite groups have no nontrivial map into Z^r: "
                                "pullback cones need an infinite model")
        n = len(self.source.generators())
        if len(self.images) != n:
            raise InvalidElement(f"need {n} generator images, got {len(self.images)}")
        r = self.target.rank
        for img in self.images:
            if len(img) != r:
                raise InvalidElement(f"image {img!r} is not a Z^{r} vector")
        # every built-in relator must map to the target identity
        for row in self.source.relator_exponent_rows():
            vec = self._combine(row)
            if any(vec):
                raise InvalidElement(f"relator with exponents {row} maps to {vec}, not 0")

    def rank(self) -> int:
        return self.target.rank

    def apply(self, x):
        """Image of x: the generator images summed with x's exponents."""
        return self._combine(self.source.abelian_exponents(x))

    def _combine(self, exps) -> tuple:
        """The sum of the generator images with the exponents `exps`."""
        r = self.target.rank
        vec = [0] * r
        for e, img in zip(exps, self.images):
            if e:
                for i in range(r):
                    vec[i] += e * img[i]
        return tuple(vec)

    def compose_into(self, outer: "Homomorphism") -> "Homomorphism":
        """outer o self, for outer a map of Z^r."""
        new_images = [outer.apply(img) for img in self.images]
        return Homomorphism(self.source, outer.target, images=new_images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Homomorphism) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


def joint_image(homs, x) -> tuple:
    """The images of x under `homs`, concatenated into one flat vector."""
    out = ()
    for h in homs:
        out += h.apply(x)
    return out


def zr_identity_hom(rank: int) -> Homomorphism:
    """The identity map on Z^rank in generator-image form."""
    model = GroupModel.zr(rank)
    return Homomorphism(model, GroupModel.zr(rank), images=model.generators())
