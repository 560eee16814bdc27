"""Decidable subset descriptions over group models.

A ConeSet is an immutable expression tree.  Membership is evaluated
structurally and is decidable for every element of the owning model.
Verification is exact on finite groups and ball-local on infinite models;
ball-local verdicts always carry the radius they were checked at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import add, sub
from typing import Iterable, Optional

from .errors import ModelMismatch, ParseError
from .groups import (
    DEFAULT_BALL_CAP,
    Domain,
    GroupModel,
    Homomorphism,
    format_element,
    joint_image,
    lex_sign,
    parse_element,
    sign_pattern,
    slice_layout,
)

LEX_REGIONS = ("lex_pos", "lex_nonneg", "lex_zero")


def region_test(region: str, vec) -> bool:
    s = lex_sign(vec)
    if region == "lex_pos":
        return s > 0
    if region == "lex_nonneg":
        return s >= 0
    if region == "lex_zero":
        return s == 0
    raise ParseError(f"unknown lex region {region!r}")


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

class ConeSet:
    """Base class; concrete nodes below.  All nodes carry their model.

    Besides its fields a node keeps two memos, outside the dataclass fields
    so that equality, hashing and repr ignore them: its compiled form
    (`compile_cone`: the sign-pattern table and the exceptions) and its
    member set on the last domain asked for (`ball_members`)."""

    model: GroupModel

    def member(self, x) -> bool:
        raise NotImplementedError

    def children(self) -> tuple["ConeSet", ...]:
        return ()


@dataclass(frozen=True)
class FiniteBits(ConeSet):
    model: GroupModel
    indices: frozenset

    def member(self, x) -> bool:
        return x in self.indices


@dataclass(frozen=True)
class Pullback(ConeSet):
    model: GroupModel
    hom: Homomorphism
    region: str

    def member(self, x) -> bool:
        return region_test(self.region, self.hom.apply(x))


@dataclass(frozen=True)
class Union(ConeSet):
    model: GroupModel
    parts: tuple

    def member(self, x) -> bool:
        return any(c.member(x) for c in self.parts)

    def children(self):
        return self.parts


@dataclass(frozen=True)
class Intersection(ConeSet):
    model: GroupModel
    parts: tuple

    def member(self, x) -> bool:
        return all(c.member(x) for c in self.parts)

    def children(self):
        return self.parts


@dataclass(frozen=True)
class Complement(ConeSet):
    model: GroupModel
    part: ConeSet

    def member(self, x) -> bool:
        return not self.part.member(x)

    def children(self):
        return (self.part,)


@dataclass(frozen=True)
class ExplicitSet(ConeSet):
    model: GroupModel
    elements: frozenset
    mode: str = "include"  # include -> the listed set; exclude -> its complement

    def member(self, x) -> bool:
        inside = x in self.elements
        return inside if self.mode == "include" else not inside


@dataclass(frozen=True)
class Identity(ConeSet):
    model: GroupModel

    def member(self, x) -> bool:
        return x == self.model.identity()


# -- factories ---------------------------------------------------------------

def finite_bits(model: GroupModel, indices: Iterable[int]) -> FiniteBits:
    if model.kind != "finite":
        raise ModelMismatch("FiniteBits requires a finite model")
    return FiniteBits(model, frozenset(indices))


def pullback(hom: Homomorphism, region: str) -> Pullback:
    if region not in LEX_REGIONS:
        raise ParseError(f"region must be one of {LEX_REGIONS}, got {region!r}")
    if hom.images is None:
        raise ModelMismatch("pullback cones require a Z^r-valued homomorphism")
    return Pullback(hom.source, hom, region)


def union(*cones: ConeSet) -> ConeSet:
    _same_model(cones)
    if len(cones) == 1:
        return cones[0]
    return Union(cones[0].model, tuple(cones))


def intersection(*cones: ConeSet) -> ConeSet:
    _same_model(cones)
    if len(cones) == 1:
        return cones[0]
    return Intersection(cones[0].model, tuple(cones))


def complement(cone: ConeSet) -> ConeSet:
    return Complement(cone.model, cone)


def explicit(model: GroupModel, elements: Iterable, mode: str = "include") -> ExplicitSet:
    if mode not in ("include", "exclude"):
        raise ParseError(f"mode must be include or exclude, got {mode!r}")
    elems = []
    for e in elements:
        model.validate(e)
        elems.append(e)
    return ExplicitSet(model, frozenset(elems), mode)


def identity_cone(model: GroupModel) -> Identity:
    return Identity(model)


def _same_model(cones) -> None:
    if not cones:
        raise ModelMismatch("need at least one cone")
    m = cones[0].model
    for c in cones[1:]:
        if c.model != m:
            raise ModelMismatch("cones built over different models")


def check_model(model: GroupModel, cone: ConeSet) -> None:
    if cone.model != model:
        raise ModelMismatch("cone built over a different model")


# ---------------------------------------------------------------------------
# Membership, inversion, symmetric part
# ---------------------------------------------------------------------------

def contains(model: GroupModel, cone: ConeSet, x) -> bool:
    """Structural membership test; exact for every element of the model."""
    check_model(model, cone)
    model.validate(x)
    return cone.member(x)


def invert_cone(model: GroupModel, cone: ConeSet) -> ConeSet:
    """A cone S' with S'(x) = S(x^-1) for every x, by AST transformation.

    For pullbacks into Z^r this uses phi(x^-1) = -phi(x): the inverse of a
    lex region is expressed with a complement so the region enum stays
    closed ({v : -v > 0} = complement of lex_nonneg, etc.).
    """
    check_model(model, cone)
    out = _invert(cone)
    if out is not cone:
        object.__setattr__(out, "_compiled", _inverse_form(compile_cone(cone), model))
    return out


def _invert(cone: ConeSet) -> ConeSet:
    if isinstance(cone, Pullback):
        if cone.region == "lex_zero":
            return cone
        flipped = "lex_nonneg" if cone.region == "lex_pos" else "lex_pos"
        return Complement(cone.model, Pullback(cone.model, cone.hom, flipped))
    if isinstance(cone, Union):
        return Union(cone.model, tuple(_invert(c) for c in cone.parts))
    if isinstance(cone, Intersection):
        return Intersection(cone.model, tuple(_invert(c) for c in cone.parts))
    if isinstance(cone, Complement):
        return Complement(cone.model, _invert(cone.part))
    if isinstance(cone, ExplicitSet):
        m = cone.model
        return ExplicitSet(m, frozenset(m.inv(e) for e in cone.elements), cone.mode)
    if isinstance(cone, FiniteBits):
        g = cone.model.group
        return FiniteBits(cone.model, frozenset(g.inverse_table[i] for i in cone.indices))
    if isinstance(cone, Identity):
        return cone
    raise ModelMismatch(f"unknown cone node {type(cone).__name__}")


def symmetric_part(model: GroupModel, cone: ConeSet) -> ConeSet:
    """Intersection of the cone with its inverse: the elements whose inverse
    also lies in the cone.  When the cone is semigroup-closed this is its
    maximal subgroup."""
    check_model(model, cone)
    return intersection(cone, invert_cone(model, cone))


# ---------------------------------------------------------------------------
# Domain membership (set algebra over a ball or a finite group)
# ---------------------------------------------------------------------------

def ball_members(cone: ConeSet, domain: Domain) -> frozenset:
    """Indices of the domain's elements belonging to the cone (index 0 is
    the identity).  A pullback leaf is evaluated once per sign bucket of
    the domain's image classes under its homomorphism; every other node
    combines its children's sets.  The result is kept on the node with the
    domain it was computed for, and replaced when another domain is asked
    for, so each node, shared or not, is evaluated once per domain.  On a
    class domain (`scan_domain`) a cone that is not value-pure over its
    maps raises ModelMismatch: its members need not be whole classes."""
    stored = vars(cone).get("_members")
    if stored is not None and stored[0] is domain:
        return stored[1]
    out = _evaluate(cone, domain)
    object.__setattr__(cone, "_members", (domain, out))
    return out


def _evaluate(cone: ConeSet, domain: Domain) -> frozenset:
    over = domain.hom_keys  # a class domain's maps; None on a ball or finite group
    if isinstance(cone, Pullback) and (over is None or cone.hom.key in over):
        members, _, keys, _, buckets = domain.classes([cone.hom])
        table = _REGION_TABLES[cone.region]  # by the sign of the image
        out = [0] if table[(0,)] else []
        for signs, cs in buckets.items():
            if table[signs]:
                for c in cs:
                    out.extend(members[keys[c]])
        return frozenset(out)
    if isinstance(cone, Identity):
        return frozenset((0,))
    if isinstance(cone, Union):
        return frozenset().union(*(ball_members(c, domain) for c in cone.parts))
    if isinstance(cone, Intersection):
        sets = [ball_members(c, domain) for c in cone.parts]
        return sets[0].intersection(*sets[1:])
    if isinstance(cone, Complement):
        return domain.indices - ball_members(cone.part, domain)
    if over is not None:
        raise ModelMismatch("a class domain decides only value-pure cones over its maps")
    if isinstance(cone, ExplicitSet):
        index = domain.index
        inside = frozenset(index[e] for e in cone.elements if e in index)
        return inside if cone.mode == "include" else domain.indices - inside
    if isinstance(cone, FiniteBits):
        return frozenset(i for i, x in enumerate(domain.elements) if x in cone.indices)
    raise ModelMismatch(f"unknown cone node {type(cone).__name__}")


def inverse_pairs(model: GroupModel, domain: Domain, *cones: ConeSet,
                  among: Optional[frozenset] = None) -> list:
    """(i, j) pairs, ascending in i, with element j of the domain standing
    for the inverse of element i, for deciding inverse conditions on the
    cones' member sets; with `among`, an index set of the domain, only the
    pairs whose i is in it.

    When the cones are value-pure, each element other than the identity
    has the membership of its joint image class, and x^-1 for x in class w
    lies in class -w: i runs over the identity and the first index of each
    class, and the first failing i is the first failing element in BFS
    order.  Otherwise i runs over the whole domain (`Domain.inverses`)."""
    homs = value_profile(*cones)
    if homs is None:
        inverse = domain.inverses(model.inv)
        return list(enumerate(inverse)) if among is None else [(i, inverse[i]) for i in sorted(among)]
    members, cls, keys, _, _ = domain.classes(homs)
    if among is None:
        firsts = [0] + [idxs[0] for idxs in members.values()]
    else:
        firsts = [i for i in sorted(among) if not i or members[keys[cls[i]]][0] == i]
    return [(i, i and members[tuple([-c for c in keys[cls[i]]])][0]) for i in firsts]


# ---------------------------------------------------------------------------
# Compiled cones: a sign-pattern predicate plus a finite exception set
# ---------------------------------------------------------------------------

class Form:
    """A cone compiled for membership of any element of its model.

    `homs` are the cone's Z^r homomorphisms in order of first appearance.
    `value(signs)` is a predicate on the lex signs of an element's images
    under them, memoized per sign pattern (at most 3^k entries for k maps),
    so the tree below is evaluated once per pattern.  x is a member exactly
    when value(signs(x)) differs from (x in exceptions): explicit include
    lists read False, exclude lists True and the identity leaf False, and
    `exceptions` holds the listed elements and the identity wherever their
    membership differs from the predicate.  They are found on first use,
    from `one`, the identity's membership, and the listed elements below.
    `pure` marks a cone without explicit lists (value-pure): the predicate
    decides every element but the identity.  `reader` reads the predicate
    off joint image vectors; `ProductScan` reads it off the sign patterns
    of image classes.

    A parent's form is built from its children's stored forms, so a fresh
    wrapper node costs O(children).  A form never refers to a cone node,
    so forms kept on nodes make no reference cycles."""

    __slots__ = ("homs", "pure", "one", "table", "compute", "find", "_exceptions")

    def __init__(self, homs: tuple, pure: bool, one: bool, table: dict,
                 exceptions: frozenset = frozenset(), compute=None, find=None):
        self.homs, self.pure, self.one, self.table = homs, pure, one, table
        self.compute, self.find = compute, find
        self._exceptions = None if find else exceptions

    @property
    def exceptions(self) -> frozenset:
        if self._exceptions is None:
            self._exceptions, self.find = self.find(self), None
        return self._exceptions

    def value(self, signs: tuple) -> bool:
        v = self.table.get(signs)
        if v is None:
            v = self.table[signs] = self.compute(signs)
        return v

    def signs(self, x) -> tuple:
        return tuple([lex_sign(h.apply(x)) for h in self.homs])

    def reader(self, homs):
        """The predicate on joint image vectors laid out by `homs`, which
        must include the form's homomorphisms: the value at the lex signs
        of their slices, read off a list indexed by the signs as a
        balanced ternary number."""
        layout = slice_layout(homs)
        slices = [layout[homs.index(h)] for h in self.homs]
        values = [None] * 3 ** len(slices)
        for signs in product((-1, 0, 1), repeat=len(slices)):
            i = 0
            for v in signs:
                i = 3 * i + v
            values[i] = self.value(signs)

        def pred(w) -> bool:
            i = 0
            for lo, hi in slices:
                i = 3 * i + lex_sign(w[lo:hi])
            return values[i]
        return pred


# a pullback leaf's table, complete and so never written to
_REGION_TABLES = {region: {(s,): region_test(region, (s,)) for s in (-1, 0, 1)}
                  for region in LEX_REGIONS}


def compile_cone(cone: ConeSet) -> Form:
    """The cone's form, built on first use and kept on the node."""
    form = vars(cone).get("_compiled")
    if form is None:
        form = _build_form(cone)
        object.__setattr__(cone, "_compiled", form)
    return form


def _build_form(cone: ConeSet) -> Form:
    one = cone.model.identity()
    if isinstance(cone, Pullback):
        table = _REGION_TABLES[cone.region]
        return Form((cone.hom,), True, table[(0,)], table)
    if isinstance(cone, Identity):
        return Form((), True, True, {(): False}, frozenset((one,)))
    if isinstance(cone, ExplicitSet):
        exclude = cone.mode == "exclude"
        return Form((), False, (one in cone.elements) != exclude, {(): exclude}, cone.elements)
    if isinstance(cone, FiniteBits):
        return Form((), False, one in cone.indices, {(): False}, cone.indices)
    if isinstance(cone, Complement):
        inner = compile_cone(cone.part)
        return Form(inner.homs, inner.pure, not inner.one, {},
                    compute=lambda s: not inner.value(s), find=lambda _: inner.exceptions)
    if isinstance(cone, (Union, Intersection)):
        return _combined(cone.parts, any if isinstance(cone, Union) else all, one)
    raise ModelMismatch(f"unknown cone node {type(cone).__name__}")


def _combined(cones: tuple, how, one) -> Form:
    parts = [compile_cone(c) for c in cones]
    homs = joint_homs(*cones)
    picks = [(f, [homs.index(h) for h in f.homs]) for f in parts]

    def find(form: Form) -> frozenset:
        # the identity has the zero sign pattern; any other exception is
        # listed in an impure part, and off the parts' exceptions every
        # part is its predicate, and so is the whole
        out = [one] if form.one != form.value((0,) * len(homs)) else []
        for e in frozenset().union(*[f.exceptions for f in parts if not f.pure]) - {one}:
            s = form.signs(e)
            values = [f.value(tuple([s[i] for i in pos])) for f, pos in picks]
            inside = [v != (not f.pure and e in f.exceptions) for v, f in zip(values, parts)]
            if how(values) != how(inside):
                out.append(e)
        return frozenset(out)
    return Form(tuple(homs), all(f.pure for f in parts), how(f.one for f in parts), {},
                find=find,
                compute=lambda s: how(f.value(tuple([s[i] for i in pos])) for f, pos in picks))


def _inverse_form(base: Form, model: GroupModel) -> Form:
    """The form of x -> x^-1 in the cone: phi(x^-1) = -phi(x) negates
    every sign, and the exceptions are inverted."""
    return Form(base.homs, base.pure, base.one, {},
                compute=lambda s: base.value(tuple([-v for v in s])),
                find=lambda _: frozenset(model.inv(e) for e in base.exceptions))


def joint_homs(*cones: ConeSet) -> tuple:
    """The distinct homomorphisms of the cones' forms, in order of first
    appearance: a layout for a `ProductScan` reading all of them."""
    homs = ()
    for cone in cones:
        more = compile_cone(cone).homs
        if not homs:
            homs = more
        elif more != homs:
            homs += tuple([h for h in more if h not in homs])
    return homs


def value_profile(*cones: ConeSet) -> Optional[tuple]:
    """The distinct Z^r homomorphisms membership in the cones factors
    through, in order of first appearance (`joint_homs`), or None if
    membership in some cone is not value-determined (explicit element
    lists)."""
    for cone in cones:
        if not compile_cone(cone).pure:
            return None
    return joint_homs(*cones)


def scan_domain(model: GroupModel, radius: int, cap: int, *cones: ConeSet) -> Domain:
    """The domain of a verdict that reads only `cones`: the class domain
    of their homomorphisms when all are value-pure, else the ball.  Their
    member sets are then unions of image classes, up to the identity, so
    the first failing element is the same on both."""
    return model.domain(radius, cap, value_profile(*cones))


class ProductScan:
    """Products of domain elements a with the members y of the cone `ys`,
    a*y on the left and y*a on the right, read against the form of the
    cone `target`.  Both have the image w_a + w_y, so the target's
    predicate is decided once per pair of image classes of the domain under
    `homs` (which must include the homomorphisms of the target and of
    every cone whose classes are read), from the classes' sign patterns:
    Z^r under lex is a totally ordered group, so a slice of w_a + w_y has
    the sign of a nonzero summand unless the two have opposite signs there,
    and only such pairs are summed.  The verdict differs from the predicate
    exactly for the products among the target's exceptions.

    `clean` decides the members of a whole cone at once, on a class domain
    as well; `first` finds the first failing y of one a, forming only the
    products that can be exceptions, on the ball (`by_element`)."""

    def __init__(self, model: GroupModel, domain: Domain, homs, target: ConeSet, ys: ConeSet):
        self.model, self.domain = model, domain
        self.homs, self.layout = homs, slice_layout(homs)
        _, self.cls, self.keys, self.signs, self.all_buckets = domain.classes(homs)
        self.target_cone, self.target = target, compile_cone(target)
        self.picks = [homs.index(h) for h in self.target.homs]
        self.y_cone = ys
        self.yset = self.ys = None  # its members, and in ascending order, once scanned
        self.values: dict = {}     # sign pattern under homs -> the target's value
        self.rows: dict = {}       # class of a -> {class of y: verdict}
        self.row_first: dict = {}  # class of a -> position in ys of its first failure by class

    def value(self, signs: tuple) -> bool:
        """The target's value at a sign pattern under homs."""
        v = self.values.get(signs)
        if v is None:
            v = self.values[signs] = self.target.value(tuple([signs[i] for i in self.picks]))
        return v

    def holds(self, ca: int, cy: int) -> bool:
        row = self.rows.setdefault(ca, {})
        v = row.get(cy)
        if v is None:
            s = _merged(self.signs[ca], self.signs[cy])
            if s is None:
                s = sign_pattern(tuple(map(add, self.keys[ca], self.keys[cy])), self.layout)
            v = row[cy] = self.value(s)
        return v

    def buckets(self, cone: ConeSet) -> dict:
        """The image classes holding a member of the cone other than
        the identity, by sign pattern.  A value-pure cone's are read off its
        form, one value per pattern; any other's off its member set, which
        the scan by element reads as well."""
        form = compile_cone(cone)
        if form.pure:
            picks = [self.homs.index(h) for h in form.homs]
            return {s: cs for s, cs in self.all_buckets.items()
                    if form.value(tuple([s[i] for i in picks]))}
        out: dict = {}
        members = ball_members(cone, self.domain) - {0}
        for c in set(map(self.cls.__getitem__, members)):
            out.setdefault(self.signs[c], []).append(c)
        return out

    def clean(self, xs: ConeSet) -> bool:
        """Whether a*y and y*a lie in the target for all members a of
        the cone `xs` and y of `ys` other than the identity, decided per
        pair of sign buckets of image classes.  A pair with no opposite
        slice is decided by one lookup of the merged pattern, so those go
        first; any other pair class by class.  No product is an exception
        unless a pair of classes sums to an exception's image, which only
        pairs with the exception's pattern can.  False means only that the
        scan by element (`first`) must decide."""
        y_buckets = self.buckets(self.y_cone)
        x_buckets = y_buckets if xs is self.y_cone else self.buckets(xs)
        pairs = [(_merged(sx, sy), cxs, cys) for sx, cxs in x_buckets.items()
                 for sy, cys in y_buckets.items()]
        if not all(self.value(s) for s, _, _ in pairs if s is not None):
            return False
        keys, hits = self.keys, {}
        for e in self.target.exceptions:
            w = joint_image(self.homs, e)
            hits.setdefault(sign_pattern(w, self.layout), set()).add(w)
        every = set().union(*hits.values())
        for s, cxs, cys in pairs:
            if s is None and not all(self.holds(ca, cy) for ca in cxs for cy in cys):
                return False
            images = every if s is None else hits.get(s)
            if images:
                y_keys = {keys[c] for c in cys}
                if any(tuple(map(sub, w, keys[c])) in y_keys for w in images for c in cxs):
                    return False
        return True

    def by_element(self, cap: int) -> "ProductScan":
        """This scan on the ball, for the scan by element."""
        if self.domain.hom_keys is None:
            return self
        return ProductScan(self.model, self.model.domain(self.domain.radius, cap), self.homs,
                           self.target_cone, self.y_cone)

    def _members(self) -> list:
        """The members of ys in ascending order, read when a scan by
        element starts."""
        if self.ys is None:
            self.yset = ball_members(self.y_cone, self.domain)
            self.ys = sorted(self.yset)
        return self.ys

    def _failure(self, ca: int, start: int, flips) -> Optional[int]:
        """The first position from `start` whose y fails by class with
        class ca and is not in `flips`."""
        ys, cls = self.ys, self.cls
        return next((k for k in range(start, len(ys))
                     if not self.holds(ca, cls[ys[k]]) and ys[k] not in flips), None)

    def first(self, a: int, left: bool = True) -> Optional[int]:
        """The first y in ys with x_a * x_y (left) or x_y * x_a outside
        the target, x_i being element i of the domain, or None."""
        self._members()
        ca = self.cls[a]
        if ca not in self.row_first:
            self.row_first[ca] = self._failure(ca, 0, ())
        found = self.row_first[ca]
        flips = set()
        if self.target.exceptions:
            mul, ai = self.model.mul, self.model.inv(self.domain.elements[a])
            index = self.domain.index
            for e in self.target.exceptions:
                i = index.get(mul(ai, e) if left else mul(e, ai))
                if i in self.yset:
                    flips.add(i)
        if found is not None and self.ys[found] in flips:
            found = self._failure(ca, found + 1, flips)
        # a flipped y fails exactly when its class passes
        failing = [y for y in flips if self.holds(ca, self.cls[y])]
        if found is not None:
            failing.append(self.ys[found])
        return min(failing, default=None)

    def first_pair(self) -> Optional[tuple]:
        """The first elements (x, y) in ys x ys, in BFS order, with xy
        outside the target, for ys inside the target, or None.  1y = y and
        x1 = x stay in the target, so the identity (index 0) is left out of
        the x's."""
        elements = self.domain.elements
        for x in self._members():
            if x == 0:
                continue
            y = self.first(x)
            if y is not None:
                return elements[x], elements[y]
        return None


def _merged(su: tuple, sv: tuple) -> Optional[tuple]:
    """The sign pattern of u + v read off those of u and v, or None when
    some slice of the two has opposite signs and only the sum can tell."""
    out = []
    for a, b in zip(su, sv):
        if a * b < 0:
            return None
        out.append(a or b)
    return tuple(out)


def conjugate_escapes(model: GroupModel, cone: ConeSet, g, domain: Domain) -> list[int]:
    """Ascending indices of the domain's members h of the cone whose conjugate
    g^-1 h g is not a member.  The conjugate has the image of h, so it
    leaves the cone exactly when one of the two is among the compiled
    form's exceptions and the other is not: only the conjugates of the
    exceptions are formed."""
    exceptions = compile_cone(cone).exceptions
    members, index = ball_members(cone, domain), domain.index
    out = []
    for e in exceptions:
        if model.conj(g, e) not in exceptions:  # h = e
            out.append(index.get(e))
        c = model.conj(model.inv(g), e)         # h = g e g^-1, whose conjugate is e
        if c not in exceptions:
            out.append(index.get(c))
    return sorted(i for i in out if i in members)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    """Outcome of one check.  radius_checked = 0 marks an exact verdict
    (finite group or AST-decidable); ball-local verdicts carry the radius."""

    status: str  # verified | counterexample | inconclusive
    witness: Optional[tuple] = None
    radius_checked: int = 0
    note: str = ""

    @classmethod
    def of(cls, witness: Optional[tuple], domain: Domain, note: str = "") -> "Verdict":
        """Verified on the domain without a witness, else a counterexample
        with the note; either carries the domain's radius."""
        if witness is None:
            return cls("verified", radius_checked=domain.radius)
        return cls("counterexample", witness=witness, radius_checked=domain.radius, note=note)

    @classmethod
    def first_failure(cls, domain: Domain, i: Optional[int], note: str = "") -> "Verdict":
        """`of` the domain's element of index i, or of no witness when i is
        None."""
        return cls.of(None if i is None else (domain.elements[i],), domain, note)

    @property
    def ok(self) -> bool:
        return self.status == "verified"

    def to_obj(self, model: Optional[GroupModel] = None) -> dict:
        obj = {"status": self.status, "radius_checked": self.radius_checked}
        if self.witness is not None:
            if model is not None:
                obj["witness"] = [format_element(model, w) for w in self.witness]
            else:
                obj["witness"] = [repr(w) for w in self.witness]
        if self.note:
            obj["note"] = self.note
        return obj


# ---------------------------------------------------------------------------
# Subsemigroup and cover verification
# ---------------------------------------------------------------------------

def is_subsemigroup(model: GroupModel, cone: ConeSet, radius: int,
                    cap: int = DEFAULT_BALL_CAP) -> Verdict:
    """Check x, y in cone => xy in cone.

    Finite models are checked exactly over all pairs.  Infinite models are
    checked over the radius ball; products are decided globally by the
    cone's compiled form, per pair of image classes (`ProductScan.clean`)
    and element by element only where that does not settle it
    (`ProductScan.first_pair`).  The first counterexample in BFS pair order
    wins.
    """
    check_model(model, cone)
    scan = ProductScan(model, scan_domain(model, radius, cap, cone), compile_cone(cone).homs,
                       cone, cone)
    witness = None if scan.clean(cone) else (scan := scan.by_element(cap)).first_pair()
    return Verdict.of(witness, scan.domain)


@dataclass
class CoverPair:
    """An ordered pair of cones with verification flags."""

    model: GroupModel
    a: ConeSet
    b: ConeSet
    radius: int
    flags: dict = field(default_factory=dict)

    def core_ok(self) -> bool:
        keys = ("closed_A", "closed_B", "covers", "proper_A", "proper_B")
        return all(k in self.flags and self.flags[k].ok for k in keys)

    def normalized_ok(self) -> bool:
        return self.core_ok() and "trivial_intersection" in self.flags and \
            self.flags["trivial_intersection"].ok

    def to_obj(self, cone_serializer) -> dict:
        return {
            "model": self.model.selector(),
            "radius": self.radius,
            "A": cone_serializer(self.a),
            "B": cone_serializer(self.b),
            "verdicts": {k: v.to_obj(self.model) for k, v in sorted(self.flags.items())},
        }


def is_cover_pair(model: GroupModel, a: ConeSet, b: ConeSet, radius: int,
                  cap: int = DEFAULT_BALL_CAP, check_intersection: bool = True,
                  check_duality: bool = False) -> CoverPair:
    """Verdict bundle: closure of both sides, covering, properness, and
    (optionally) trivial intersection and inverse duality."""
    check_model(model, a)
    check_model(model, b)
    domain = scan_domain(model, radius, cap, a, b)
    elements, rad = domain.elements, domain.radius

    flags = {
        "closed_A": is_subsemigroup(model, a, radius, cap),
        "closed_B": is_subsemigroup(model, b, radius, cap),
    }
    mem_a = ball_members(a, domain)
    mem_b = ball_members(b, domain)

    missing = min(domain.indices - (mem_a | mem_b), default=None)
    flags["covers"] = Verdict.first_failure(domain, missing)
    for side, mem in (("A", mem_a), ("B", mem_b)):
        out = next((i for i in range(len(elements)) if i not in mem), None)
        flags[f"proper_{side}"] = (
            Verdict("verified", witness=(elements[out],), radius_checked=rad) if out is not None
            else Verdict("counterexample", radius_checked=rad,
                         note=f"side {side} contains the whole ball"))
    if check_intersection:
        bad = min((mem_a & mem_b) - {0}, default=None)
        flags["trivial_intersection"] = Verdict.first_failure(domain, bad)
    pair = CoverPair(model, a, b, radius, flags)
    if check_duality:
        from .covers import check_inverse_duality  # local: avoids an import cycle
        flags["inverse_duality"] = check_inverse_duality(model, pair, radius, cap)
    return pair


def ext_equal(model: GroupModel, c1: ConeSet, c2: ConeSet, radius: int,
              cap: int = DEFAULT_BALL_CAP) -> Optional[tuple]:
    """None when the cones agree on the domain, else the first differing
    element in BFS order."""
    check_model(model, c1)
    check_model(model, c2)
    domain = scan_domain(model, radius, cap, c1, c2)
    diff = ball_members(c1, domain) ^ ball_members(c2, domain)
    return (domain.elements[min(diff)],) if diff else None


# ---------------------------------------------------------------------------
# JSON (de)serialization of cone specs
# ---------------------------------------------------------------------------

def cone_to_obj(cone: ConeSet) -> dict:
    model = cone.model
    if isinstance(cone, Pullback):
        return {
            "op": "pullback",
            "images": [list(img) for img in cone.hom.images],
            "region": cone.region,
        }
    if isinstance(cone, Union):
        return {"op": "union", "args": [cone_to_obj(c) for c in cone.parts]}
    if isinstance(cone, Intersection):
        return {"op": "intersection", "args": [cone_to_obj(c) for c in cone.parts]}
    if isinstance(cone, Complement):
        return {"op": "complement", "arg": cone_to_obj(cone.part)}
    if isinstance(cone, ExplicitSet):
        elems = sorted(format_element(model, e) for e in cone.elements)
        return {"op": "explicit", "mode": cone.mode, "elements": elems}
    if isinstance(cone, Identity):
        return {"op": "identity"}
    if isinstance(cone, FiniteBits):
        return {"op": "explicit", "mode": "include",
                "elements": [str(i) for i in sorted(cone.indices)]}
    raise ModelMismatch(f"unknown cone node {type(cone).__name__}")


MAX_SPEC_DEPTH = 100  # cone nodes nested in one spec; evaluation recurses per level


def cone_from_obj(model: GroupModel, obj: dict, depth: int = 1) -> ConeSet:
    """The cone a JSON spec describes; `depth` is the spec's nesting level."""
    if depth > MAX_SPEC_DEPTH:
        raise ParseError(f"cone spec nests deeper than {MAX_SPEC_DEPTH} levels")
    if not isinstance(obj, dict) or "op" not in obj:
        raise ParseError("cone spec must be an object with an 'op' field")
    op = obj["op"]
    if op == "pullback":
        images = obj.get("images")
        region = obj.get("region")
        if not isinstance(images, list):
            raise ParseError("pullback needs an 'images' list")
        rank = len(images[0]) if images and isinstance(images[0], list) else 0
        if rank < 1 or not all(isinstance(img, list) and all(type(v) is int for v in img)
                               for img in images):
            raise ParseError("pullback images must be nonempty integer vectors")
        hom = Homomorphism(model, GroupModel.zr(rank), images=[tuple(v) for v in images])
        return pullback(hom, region)
    if op in ("union", "intersection"):
        args = obj.get("args")
        if not isinstance(args, list) or not args:
            raise ParseError(f"{op} needs a nonempty 'args' list")
        parts = [cone_from_obj(model, a, depth + 1) for a in args]
        return union(*parts) if op == "union" else intersection(*parts)
    if op == "complement":
        if "arg" not in obj:
            raise ParseError("complement needs an 'arg'")
        return complement(cone_from_obj(model, obj["arg"], depth + 1))
    if op == "explicit":
        elems = obj.get("elements")
        if not isinstance(elems, list):
            raise ParseError("explicit needs an 'elements' list")
        if not all(isinstance(e, str) for e in elems):
            raise ParseError("explicit elements must be strings")
        parsed = [parse_element(model, e) for e in elems]
        if model.kind == "finite" and obj.get("mode", "include") == "include":
            return finite_bits(model, parsed)
        return explicit(model, parsed, obj.get("mode", "include"))
    if op == "identity":
        return identity_cone(model)
    raise ParseError(f"unknown cone op {op!r}")
