"""Group models: finite Cayley tables and built-in infinite families.

All models share one interface: exact multiplication and inversion on
canonical normal forms, a finite generating set, and deterministic BFS ball
enumeration.  Element representations:

  finite          int index into the Cayley table (identity is always 0)
  zr_cross_finite tuple of rank + len(orders) ints, torsion coords reduced
  free            tuple of nonzero signed ints (+i = generator i-1,
                  -i = its inverse), freely reduced
  heisenberg      (x, y, z) under the upper-unitriangular product
  klein_bottle    (m, n) meaning b^m a^n, with rewrite a*b = b*a^-1
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import add
from typing import NamedTuple, Optional, Sequence

from .errors import (
    BallTooLarge,
    InvalidElement,
    MalformedTable,
    ModelMismatch,
    NotAGroup,
    NotASubgroup,
    NotNormal,
    ParseError,
)

DEFAULT_BALL_CAP = 10**6


# ---------------------------------------------------------------------------
# Finite groups
# ---------------------------------------------------------------------------

class FiniteGroup:
    """A finite group given by a full Cayley table with identity index 0."""

    def __init__(self, table: Sequence[Sequence[int]], name: str = "finite"):
        self.table = [list(row) for row in table]
        self.order = len(self.table)
        self.name = name
        self.identity_index = 0
        self._validate()
        self.inverse_table = self._build_inverses()

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
        t = self.table
        for i in range(n):
            for j in range(n):
                tij = t[i][j]
                for k in range(n):
                    if t[tij][k] != t[i][t[j][k]]:
                        raise NotAGroup(
                            f"associativity fails at triple ({i},{j},{k})", witness=(i, j, k)
                        )

    def _build_inverses(self) -> list[int]:
        inv = [-1] * self.order
        for i in range(self.order):
            hits = [j for j in range(self.order) if self.table[i][j] == 0]
            if len(hits) != 1:
                raise NotAGroup(f"element {i} has {len(hits)} inverses", witness=(i,))
            inv[i] = hits[0]
        return inv

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse_table[a]

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(tuple(tuple(r) for r in self.table))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def load_finite_group(text: str, name: str = "finite") -> FiniteGroup:
    """Parse a Cayley table file: `order: n` then n rows of n indices."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedTable("empty table file")
    m = re.fullmatch(r"order\s*:\s*(\d+)", lines[0])
    if not m:
        raise MalformedTable(f"first line must be 'order: n', got {lines[0]!r}")
    n = int(m.group(1))
    if n < 1:
        raise MalformedTable("order must be >= 1")
    if len(lines) - 1 != n:
        raise MalformedTable(f"expected {n} table rows, found {len(lines) - 1}")
    table = []
    for ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise MalformedTable(f"non-integer entry in row {ln!r}") from exc
        table.append(row)
    return FiniteGroup(table, name=name)


def element_order(group: FiniteGroup, x: int) -> tuple[int, int]:
    """Least n >= 1 with x^n = 1, plus x^(n-1) as the inverse witness."""
    if not (0 <= x < group.order):
        raise InvalidElement(f"index {x} out of range")
    n = 1
    power = x
    prev = 0
    while power != 0:
        prev = power
        power = group.mul(power, x)
        n += 1
    return n, prev


def _check_subgroup(group: FiniteGroup, subset: frozenset[int]) -> None:
    if 0 not in subset:
        raise NotASubgroup("subset does not contain the identity")
    for a in subset:
        if group.inv(a) not in subset:
            raise NotASubgroup(f"subset not inverse-closed at {a}")
        for b in subset:
            if group.mul(a, b) not in subset:
                raise NotASubgroup(f"subset not closed at ({a},{b})")


def is_normal(group: FiniteGroup, subgroup: Sequence[int]) -> bool:
    """Whether gHg^-1 = H for all g.  Raises NotASubgroup on bad input."""
    sub = frozenset(subgroup)
    _check_subgroup(group, sub)
    for g in group.elements():
        gi = group.inv(g)
        for h in sub:
            if group.mul(group.mul(g, h), gi) not in sub:
                return False
    return True


def quotient(group: FiniteGroup, normal: Sequence[int]) -> tuple[FiniteGroup, "Homomorphism"]:
    """Coset group of a normal subgroup plus the projection map."""
    sub = frozenset(normal)
    _check_subgroup(group, sub)
    for g in group.elements():
        gi = group.inv(g)
        for h in sub:
            if group.mul(group.mul(g, h), gi) not in sub:
                raise NotNormal(f"subgroup not normal: conjugate of {h} by {g} escapes", witness=(g, h))
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for g in group.elements():
        if g in coset_of:
            continue
        members = sorted(group.mul(g, h) for h in sub)
        rep = members[0]
        idx = len(reps)
        reps.append(rep)
        for m in members:
            coset_of[m] = idx
    # reorder so the identity coset (rep 0) is index 0 and reps ascend
    order_map = {old: new for new, old in enumerate(sorted(range(len(reps)), key=lambda i: reps[i]))}
    coset_of = {g: order_map[c] for g, c in coset_of.items()}
    reps = sorted(reps)
    k = len(reps)
    table = [[coset_of[group.mul(reps[i], reps[j])] for j in range(k)] for i in range(k)]
    quot = FiniteGroup(table, name=f"{group.name}/N")
    src_model = GroupModel.finite(group)
    dst_model = GroupModel.finite(quot)
    hom = Homomorphism(src_model, dst_model, table_map=tuple(coset_of[g] for g in group.elements()))
    return quot, hom


# ---------------------------------------------------------------------------
# Group models
# ---------------------------------------------------------------------------

def _arithmetic_for(model: "GroupModel"):
    """The product, the inverse and the identity of the model's kind,
    resolved once per model: `mul`, `inv` and `ball` call them directly."""
    kind = model.kind
    if kind == "finite":
        table = model.group.table
        return (lambda x, y: table[x][y]), model.group.inverse_table.__getitem__, 0
    if kind == "zr_cross_finite":
        r, orders = model.rank, model.orders
        if not orders:
            return _add, lambda x: tuple([-a for a in x]), (0,) * r
        moduli = (None,) * r + orders  # None: a free coordinate
        return (lambda x, y: tuple([a + b if o is None else (a + b) % o
                                    for a, b, o in zip(x, y, moduli)]),
                lambda x: tuple([-a if o is None else -a % o for a, o in zip(x, moduli)]),
                (0,) * len(moduli))
    if kind == "free":
        return _free_product, lambda x: tuple([-v for v in reversed(x)]), ()
    if kind == "heisenberg":
        return _heisenberg_product, lambda x: (-x[0], -x[1], -x[2] + x[0] * x[1]), (0, 0, 0)
    return _klein_product, lambda x: (-x[0], -x[1] if x[0] % 2 == 0 else x[1]), (0, 0)


def _add(x, y):
    return tuple(map(add, x, y))


def _grow(walk: "Domain", lo: int, cap: int, product, onward) -> int:
    """Append the next BFS layer to `walk`, whose outer layer starts at
    index lo; return where the new one starts.  Step k is followed by the
    steps onward[k] only: its inverse leads back to the parent."""
    out, index, parent, via, steps = walk.elements, walk.index, walk.parent, walk.via, walk.steps
    every = range(len(steps))
    hi = len(out)
    for p in range(lo, hi):
        x = out[p]
        for k in onward[via[p]] if p else every:
            y = product(x, steps[k])
            if y not in index:
                index[y] = len(out)
                out.append(y)
                parent.append(p)
                via.append(k)
                if len(out) > cap:
                    raise BallTooLarge(f"ball exceeds cap {cap}")
    walk.radius += 1
    return hi


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
    """Uniform arithmetic over one of five concrete model kinds."""

    def __init__(self, kind: str, *, group: Optional[FiniteGroup] = None,
                 rank: int = 0, orders: tuple[int, ...] = (), free_rank: int = 0):
        self.kind = kind
        self.group = group
        self.rank = rank
        self.orders = tuple(orders)
        self.free_rank = free_rank
        # radius -> the ball's Domain; None -> a finite model's whole group;
        # (radius, hom keys) -> the domain `domain` gave for those homs
        self._balls: dict = {}
        self._walk: Optional[tuple] = None  # a ball stopped short, its outer layer's start
        if kind == "finite" and group is None:
            raise ValueError("finite model requires a FiniteGroup")
        if kind == "free" and free_rank < 1:
            raise ValueError("free model requires rank >= 1")
        self._product, self.inv, self._one = _arithmetic_for(self)
        # equality and hashing read this; a finite model's hashes its table
        self.key = ("finite", hash(group)) if kind == "finite" else \
            (kind, rank, self.orders, free_rank)

    # -- constructors

    @staticmethod
    def finite(group: FiniteGroup) -> "GroupModel":
        return GroupModel("finite", group=group)

    @staticmethod
    def zr(rank: int, orders: Sequence[int] = ()) -> "GroupModel":
        return GroupModel("zr_cross_finite", rank=rank, orders=tuple(orders))

    @staticmethod
    def free(rank: int) -> "GroupModel":
        return GroupModel("free", free_rank=rank)

    @staticmethod
    def heisenberg() -> "GroupModel":
        return GroupModel("heisenberg")

    @staticmethod
    def klein_bottle() -> "GroupModel":
        return GroupModel("klein_bottle")

    # -- identity / arithmetic

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupModel) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"GroupModel({self.selector()})"

    def identity(self):
        return self._one

    def validate(self, x) -> None:
        kind = self.kind
        if kind == "finite":
            if not isinstance(x, int) or not (0 <= x < self.group.order):
                raise InvalidElement(f"{x!r} is not a valid index")
            return
        if kind == "zr_cross_finite":
            n = self.rank + len(self.orders)
            if not (isinstance(x, tuple) and len(x) == n and all(isinstance(v, int) for v in x)):
                raise InvalidElement(f"{x!r} is not a {n}-tuple of ints")
            for v, o in zip(x[self.rank:], self.orders):
                if not (0 <= v < o):
                    raise InvalidElement(f"torsion coordinate {v} not reduced mod {o}")
            return
        if kind == "free":
            if not isinstance(x, tuple) or any(not isinstance(v, int) or v == 0 or abs(v) > self.free_rank for v in x):
                raise InvalidElement(f"{x!r} is not a word over {self.free_rank} letters")
            for u, v in zip(x, x[1:]):
                if u == -v:
                    raise InvalidElement(f"word {x!r} is not freely reduced")
            return
        if kind in ("heisenberg", "klein_bottle"):
            n = 3 if kind == "heisenberg" else 2
            if not (isinstance(x, tuple) and len(x) == n and all(isinstance(v, int) for v in x)):
                raise InvalidElement(f"{x!r} is not a {n}-tuple of ints")
            return
        raise InvalidElement(f"unknown model kind {kind}")

    def mul(self, x, y):
        return self._product(x, y)

    def conj(self, g, x):
        """g^-1 * x * g."""
        return self.mul(self.mul(self.inv(g), x), g)

    # -- generators

    def generators(self) -> list:
        kind = self.kind
        if kind == "finite":
            return list(range(1, self.group.order))
        if kind == "zr_cross_finite":
            n = self.rank + len(self.orders)
            gens = []
            for i in range(n):
                e = [0] * n
                e[i] = 1
                gens.append(tuple(e))
            return gens
        if kind == "free":
            return [(i,) for i in range(1, self.free_rank + 1)]
        if kind == "heisenberg":
            return [(1, 0, 0), (0, 1, 0)]
        return [(0, 1), (1, 0)]  # a, b

    def generator_letters(self) -> list[str]:
        return [chr(ord("a") + i) for i in range(len(self.generators()))]

    def relator_exponent_rows(self) -> list[tuple[int, ...]]:
        """Exponent-sum rows of the built-in relators, one per relator,
        in generator order.  Used to validate homomorphisms into Z^r."""
        kind = self.kind
        if kind == "zr_cross_finite":
            n = self.rank + len(self.orders)
            rows = []
            for j, o in enumerate(self.orders):
                row = [0] * n
                row[self.rank + j] = o
                rows.append(tuple(row))
            return rows
        if kind == "klein_bottle":
            return [(2, 0)]  # relator b a b^-1 a: a-sum 2, b-sum 0
        # free and heisenberg impose no exponent constraints
        return []

    def abelian_exponents(self, x) -> tuple[int, ...]:
        """Exponent sums of x with respect to the generator list; any word
        representing x gives the same answer modulo the relator rows."""
        kind = self.kind
        if kind == "zr_cross_finite":
            return tuple(x)
        if kind == "free":
            counts = [0] * self.free_rank
            for v in x:
                counts[abs(v) - 1] += 1 if v > 0 else -1
            return tuple(counts)
        if kind == "heisenberg":
            return (x[0], x[1])
        if kind == "klein_bottle":
            m, n = x
            return (n, m)  # generator order is (a, b)
        raise InvalidElement("finite models have no canonical exponent map")

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
        steps[via[i]], with parent[i] < i.  Given `homs`, the walk stops
        after the first layer with an element but the identity of image
        zero under them; it is kept, and the next call continues it."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        walk = self._balls.get(radius)
        if walk is None:
            walk, lo = self._walk if self._walk and self._walk[0].radius <= radius else (None, 0)
            self._walk = None  # a walk cut by BallTooLarge is dropped
            steps, onward = self._steps
            walk = walk or Domain([self.identity()], {self.identity(): 0}, 0, [0], [0], steps)
            while walk.radius < radius and (homs is None or walk.kernel_index(homs) is None):
                lo = _grow(walk, lo, cap, self._product, onward)
            if walk.radius < radius:
                self._walk = walk, lo
            else:
                self._balls[radius] = walk
        if len(walk.elements) > cap:  # every ball holds 1
            raise BallTooLarge(f"ball exceeds cap {cap}")
        return walk.elements

    def domain(self, radius: int, cap: int = DEFAULT_BALL_CAP, homs=None) -> "Domain":
        """The elements a scan at `radius` decides a verdict on: the whole
        of a finite group, built once and checked exactly (radius 0), or
        the Cayley ball of that radius; ball(0) is the identity alone, on
        which no ball-local verdict means anything, so it is refused.
        Given `homs`, which every cone of the scan factors through, it is
        the ball's class domain (`_class_domain`), unless the whole ball is
        walked, already or to find the zero class.  `cap` bounds the
        elements held, on a class domain its representatives plus that
        walk's."""
        if self.kind == "finite":
            whole = self._balls.get(None)
            if whole is None:
                elements = list(self.group.elements())
                n = len(elements)
                # the star tree: element i is 1 * elements[i]
                whole = self._balls[None] = Domain(elements, {x: x for x in elements}, 0,
                                                   [0] * n, range(n), elements)
            return whole
        if radius < 1:
            raise ValueError("radius must be >= 1 for infinite models")
        key = radius if homs is None else (radius, tuple([h.key for h in homs]))
        done = self._balls.get(key)
        if done is None:
            self.ball(radius, cap, homs)
            done = self._balls[key] = self._balls.get(radius) or \
                self._class_domain(self._walk[0], homs, key, cap)
        if len(done.elements) > cap:
            raise BallTooLarge(f"ball exceeds cap {cap}")
        return done

    def _class_domain(self, prefix: "Domain", homs, key: tuple, cap: int) -> "Domain":
        """For key (radius, hom keys), the identity, the first element of
        every other joint image class of ball(radius) under homs, and z,
        the first element of image zero but the identity, which `prefix`
        holds, in ball order.  The classes are walked as a ball with the
        steps' images for steps, and a class first reached from class c by
        step s has rep(c) * s for first element: the ball numbers an
        element by its (parent, step), and rep(c) precedes every other
        element of c and reaches the class by the same step."""
        radius, hom_keys = key
        steps, onward = self._steps
        pc, z = prefix.classes(homs), prefix.kernel_index(homs)
        walk = Domain([pc.keys[0]], {pc.keys[0]: 0}, 0, [0], [0],
                      [joint_image(homs, s) for s in steps])
        lo = 0
        while walk.radius < radius:
            lo = _grow(walk, lo, cap - len(prefix.elements), _add, onward)
        elements, parent, via = [prefix.elements[0]], walk.parent, walk.via
        for c in range(1, len(parent)):
            elements.append(self._product(elements[parent[c]], steps[via[c]]))
        q = len(set(pc.cls[1:z])) + 1  # z's place: after the classes met before it
        parent = [p + (p >= q) for p in parent]
        elements.insert(q, prefix.elements[z])
        parent.insert(q, walk.index[pc.keys[pc.cls[prefix.parent[z]]]])
        via.insert(q, prefix.via[z])
        out = Domain(elements, {x: i for i, x in enumerate(elements)}, radius, parent, via,
                     steps, hom_keys)
        # its classes under homs: the BFS's, with z in the zero class
        keys, buckets = walk.elements, {}
        cls = list(range(len(keys)))
        cls.insert(q, 0)
        layout = slice_layout(homs)
        signs = [sign_pattern(w, layout) for w in keys]
        for c in cls[1:]:
            buckets.setdefault(signs[c], []).append(c)
        members = {keys[c]: [i] for i, c in enumerate(cls) if i}
        out._classes[hom_keys] = ImageClasses(members, cls, keys, signs, buckets), None
        return out

    # -- selector strings

    def selector(self) -> str:
        kind = self.kind
        if kind == "finite":
            return f"finite:{self.group.name}"
        if kind == "zr_cross_finite":
            s = f"z^{self.rank}"
            for o in self.orders:
                s += f"xC{o}"
            return s
        if kind == "free":
            return f"free:{self.free_rank}"
        return kind


_ZR_SELECTOR = re.compile(r"z\^(\d+)((?:xC\d+)*)")


def parse_model(selector: str, loader=None) -> GroupModel:
    """Build a model from a CLI selector string.

    `finite:<path>` needs `loader` (path -> FiniteGroup); the built-in
    selectors are `z^r[xC n...]`, `free:k`, `heisenberg`, `klein_bottle`.
    """
    sel = selector.strip()
    if sel == "heisenberg":
        return GroupModel.heisenberg()
    if sel == "klein_bottle":
        return GroupModel.klein_bottle()
    if sel.startswith("free:"):
        try:
            k = int(sel.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad free rank in {selector!r}") from exc
        if k < 1:
            raise ParseError(f"free rank must be >= 1 in {selector!r}")
        return GroupModel.free(k)
    if sel.startswith("finite:"):
        if loader is None:
            raise ParseError("finite:<path> selector requires a table loader")
        return GroupModel.finite(loader(sel.split(":", 1)[1]))
    m = _ZR_SELECTOR.fullmatch(sel)
    if m:
        rank = int(m.group(1))
        orders = tuple(int(t) for t in re.findall(r"xC(\d+)", m.group(2)))
        if 0 in orders:
            raise ParseError(f"cyclic factor orders must be >= 1 in {selector!r}")
        return GroupModel.zr(rank, orders)
    raise ParseError(f"unknown model selector {selector!r}")


# ---------------------------------------------------------------------------
# Scan domains
# ---------------------------------------------------------------------------

class ImageClasses(NamedTuple):
    """Indices 1.. of a domain grouped by their joint image under a hom
    list (see `joint_image`).  `members` maps each image to its ascending
    index list, keys in order of first index; cls[i] is the class number of
    element i, keys[c] the joint image of class c and signs[c] its
    `sign_pattern`; `buckets` maps each sign pattern to the classes that
    hold an element other than the identity.  Class 0 is the zero
    vector's, which holds the identity."""

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

    What derives from the elements alone is built on first use and kept
    here: the full index set, the inverse index and the image classes of
    each hom list.  A domain refers to neither its model nor any
    homomorphism, so it makes no reference cycle with them or with the
    cone nodes that keep their member sets on it.  Callers must not mutate
    a domain or anything it hands out."""

    __slots__ = ("elements", "index", "radius", "parent", "via", "steps", "hom_keys",
                 "_indices", "_inverses", "_classes")

    def __init__(self, elements: list, index: dict, radius: int, parent, via, steps,
                 hom_keys: Optional[tuple] = None):
        self.elements, self.index, self.radius = elements, index, radius
        self.parent, self.via, self.steps, self.hom_keys = parent, via, steps, hom_keys
        self._indices: Optional[frozenset] = None
        self._inverses: Optional[list] = None
        self._classes: dict = {}  # the hom list's keys -> (ImageClasses, the walk extending it)

    @property
    def indices(self) -> frozenset:
        """frozenset(range(len(elements))), the index set that complements
        are taken in."""
        if self._indices is None:
            self._indices = frozenset(range(len(self.elements)))
        return self._indices

    def inverses(self, inv) -> list:
        """The index of each element's inverse, for `inv` the model's
        inversion; balls and finite groups are inverse-closed."""
        if self._inverses is None:
            index = self.index
            self._inverses = [index[inv(x)] for x in self.elements]
        return self._inverses

    def classes(self, homs) -> ImageClasses:
        """The elements' classes under the joint image of `homs`.

        Walks the spanning tree: a homomorphism into Z^r has
        phi(x * s) = phi(x) + phi(s), so each element's image is its
        parent's plus its step's.  Only the steps are mapped, and each
        distinct (parent class, step) pair costs one vector addition.  On
        a ball still being walked (`GroupModel.domain`) each call extends
        the classes over the elements added since the last one."""
        key = tuple([h.key for h in homs])
        hit = self._classes.get(key)
        if hit is None:
            walk = _class_walk(self.elements, self.parent, self.via,
                               [joint_image(homs, s) for s in self.steps],
                               slice_layout(homs), sum(h.rank() for h in homs))
            hit = self._classes[key] = (next(walk), walk)
        elif len(hit[0].cls) < len(self.elements):
            next(hit[1])
        return hit[0]

    def kernel_index(self, homs) -> Optional[int]:
        """The first index but 0 with joint image zero under `homs`, or None."""
        classes = self.classes(homs)
        return (classes.members.get(classes.keys[0]) or [None])[0]


def _class_walk(elements, parent, via, step_images, layout, width):
    """`Domain.classes`, resumed to classify the elements appended since."""
    n_steps = len(step_images)
    zero = (0,) * width
    keys, signs, members, class_of = [zero], [(0,) * len(layout)], [[]], {zero: 0}
    cls, moves, classes, buckets = [0], {}, {}, {}
    hit = ImageClasses(classes, cls, keys, signs, buckets)
    while True:
        start = len(cls)
        cls.extend([0] * (len(elements) - start))
        for i in range(start, len(cls)):
            p, k = parent[i], via[i]
            move = cls[p] * n_steps + k
            c = moves.get(move)
            if c is None:
                w = tuple(map(add, keys[cls[p]], step_images[k]))
                c = class_of.get(w)
                if c is None:
                    c = class_of[w] = len(keys)
                    keys.append(w)
                    signs.append(sign_pattern(w, layout))
                    members.append([])
                if not members[c]:  # the identity's class may fill late
                    classes[w] = members[c]
                    buckets.setdefault(signs[c], []).append(c)
                moves[move] = c
            cls[i] = c
            members[c].append(i)
        yield hit


# ---------------------------------------------------------------------------
# Element parsing / formatting
# ---------------------------------------------------------------------------

_WORD_TOKEN = re.compile(r"([a-zA-Z])(?:\^(-?\d+))?")


def parse_element(model: GroupModel, text: str):
    """Parse an element string: words for free/klein_bottle, integer tuples
    for the abelian and heisenberg models, a decimal index for finite."""
    s = text.strip()
    kind = model.kind
    if kind == "finite":
        try:
            x = int(s)
        except ValueError as exc:
            raise ParseError(f"expected an element index, got {text!r}") from exc
        model.validate(x)
        return x
    if kind in ("zr_cross_finite", "heisenberg"):
        body = s
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        try:
            vals = tuple(int(tok) for tok in body.replace(",", " ").split())
        except ValueError as exc:
            raise ParseError(f"expected an integer tuple, got {text!r}") from exc
        if kind == "zr_cross_finite":
            r = model.rank
            need = r + len(model.orders)
            if len(vals) != need:
                raise ParseError(f"expected {need} coordinates, got {len(vals)}")
            vals = vals[:r] + tuple(v % o for v, o in zip(vals[r:], model.orders))
        model.validate(vals)
        return vals
    if kind in ("free", "klein_bottle"):
        if s in ("1", ""):
            return model.identity()
        letters = model.generator_letters()
        tokens, pos, total = [], 0, 0
        for m in _WORD_TOKEN.finditer(s):
            if m.start() != pos:
                raise ParseError(f"unexpected character at {s[pos:]!r}")
            pos = m.end()
            ch = m.group(1)
            if ch.lower() not in letters:
                raise ParseError(f"unknown generator letter {ch!r}")
            exp = int(m.group(2)) if m.group(2) is not None else 1
            total += abs(exp)
            if total > DEFAULT_BALL_CAP:
                raise ParseError(f"word {text!r} has more than {DEFAULT_BALL_CAP} letters")
            tokens.append((letters.index(ch.lower()), -exp if ch.isupper() else exp))
        if pos != len(s):
            raise ParseError(f"unexpected character at {s[pos:]!r}")
        if kind == "klein_bottle":
            # a^e = (0, e) and b^e = (e, 0) in the normal form b^m a^n
            result = model.identity()
            for g, exp in tokens:
                result = model.mul(result, (0, exp) if g == 0 else (exp, 0))
            return result
        word: list = []  # freely reduced as it is built
        for g, exp in tokens:
            v = g + 1 if exp > 0 else -(g + 1)
            count = abs(exp)
            while count and word and word[-1] == -v:
                word.pop()
                count -= 1
            word.extend([v] * count)
        return tuple(word)
    raise ParseError(f"cannot parse elements for model {kind}")


def format_element(model: GroupModel, x) -> str:
    kind = model.kind
    if kind == "finite":
        return str(x)
    if kind in ("zr_cross_finite", "heisenberg"):
        return "(" + ",".join(str(v) for v in x) + ")"
    if kind == "free":
        if not x:
            return "1"
        parts = []
        i = 0
        while i < len(x):
            j = i
            while j < len(x) and x[j] == x[i]:
                j += 1
            letter = chr(ord("a") + abs(x[i]) - 1)
            exp = (j - i) * (1 if x[i] > 0 else -1)
            parts.append(letter if exp == 1 else f"{letter}^{exp}")
            i = j
        return "".join(parts)
    if kind == "klein_bottle":
        m, n = x
        if m == 0 and n == 0:
            return "1"
        parts = []
        if m != 0:
            parts.append("b" if m == 1 else f"b^{m}")
        if n != 0:
            parts.append("a" if n == 1 else f"a^{n}")
        return "".join(parts)
    raise ParseError(f"cannot format elements for model {kind}")


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

class Homomorphism:
    """A homomorphism given either by generator images (infinite sources,
    abelian Z^r targets) or by a full element map (finite sources)."""

    def __init__(self, source: GroupModel, target: GroupModel,
                 images: Optional[Sequence] = None,
                 table_map: Optional[tuple[int, ...]] = None):
        self.source = source
        self.target = target
        self.images = tuple(tuple(img) if isinstance(img, (list, tuple)) else img
                            for img in images) if images is not None else None
        self.table_map = table_map
        self._cache: dict = {}  # element -> image; pure-function memo
        # equality and hashing read this
        self.key = (source.key, target.key, self.images, table_map)
        if (images is None) == (table_map is None):
            raise ValueError("exactly one of images/table_map is required")
        if images is not None:
            self._validate_images()
        else:
            if source.kind != "finite":
                raise ModelMismatch("table_map form requires a finite source")

    def _validate_images(self) -> None:
        if self.target.kind != "zr_cross_finite" or self.target.orders:
            raise ModelMismatch("generator-image form targets Z^r only")
        gens = self.source.generators()
        if self.source.kind == "finite":
            raise ModelMismatch("finite sources use the table_map form")
        if len(self.images) != len(gens):
            raise InvalidElement(
                f"need {len(gens)} generator images, got {len(self.images)}"
            )
        r = self.target.rank
        for img in self.images:
            if len(img) != r:
                raise InvalidElement(f"image {img!r} is not a Z^{r} vector")
        # every built-in relator must map to the target identity
        for row in self.source.relator_exponent_rows():
            vec = [0] * r
            for e, img in zip(row, self.images):
                for i in range(r):
                    vec[i] += e * img[i]
            if any(vec):
                raise InvalidElement(
                    f"relator with exponents {row} maps to {tuple(vec)}, not 0"
                )

    def rank(self) -> int:
        return self.target.rank

    def apply(self, x):
        """Image of x: exponent-vector evaluation for Z^r targets, table
        lookup for finite sources."""
        if self.table_map is not None:
            self.source.validate(x)
            return self.table_map[x]
        out = self._cache.get(x)
        if out is not None:
            return out
        exps = self.source.abelian_exponents(x)
        r = self.target.rank
        vec = [0] * r
        for e, img in zip(exps, self.images):
            if e:
                for i in range(r):
                    vec[i] += e * img[i]
        out = tuple(vec)
        self._cache[x] = out
        return out

    def compose_into(self, outer: "Homomorphism") -> "Homomorphism":
        """outer o self, for generator-image maps through Z^r."""
        if self.images is None or outer.images is None:
            raise ModelMismatch("composition supported for image-form maps only")
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


def slice_layout(homs) -> list[tuple[int, int]]:
    """The (lo, hi) bounds of each homomorphism's slice of the joint image."""
    out, pos = [], 0
    for h in homs:
        out.append((pos, pos + h.rank()))
        pos += h.rank()
    return out


def lex_sign(vec) -> int:
    """The sign of a Z^r vector under the lexicographic order."""
    for v in vec:
        if v > 0:
            return 1
        if v < 0:
            return -1
    return 0


def sign_pattern(vec, layout) -> tuple:
    """The lex sign of each slice of a joint image vector, for slices
    given by `slice_layout`."""
    return tuple([lex_sign(vec[lo:hi]) for lo, hi in layout])


def zr_identity_hom(rank: int) -> Homomorphism:
    """The identity map on Z^rank in generator-image form."""
    model = GroupModel.zr(rank)
    images = []
    for i in range(rank):
        v = [0] * rank
        v[i] = 1
        images.append(tuple(v))
    return Homomorphism(model, GroupModel.zr(rank), images=images)
