"""Decidable subset descriptions over group models.

A ConeSet is an immutable expression tree.  `member` decides any element
of the owning model structurally; member sets on a domain are read off
the tree's compiled form (`compile_cone`, `ball_members`), and inverse
member sets off its inverse form (`inverse_members`).
Verification is exact on finite groups and ball-local on infinite models;
ball-local verdicts always carry the radius they were checked at.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Iterable, Optional

from .errors import ModelMismatch, ParseError
from .groups import (
    MAX_GENERATORS,
    Domain,
    GroupModel,
    Homomorphism,
    format_element,
    image_ops,
    joint_image,
    parse_element,
)

LEX_REGIONS = ("lex_pos", "lex_nonneg", "lex_zero")
# whether each lex sign lies in each region: a pullback leaf's sign table,
# complete and so never written to
_REGION_TABLES = {region: {(s,): s in signs for s in (-1, 0, 1)}
                  for region, signs in zip(LEX_REGIONS, ((1,), (0, 1), (0,)))}


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

class _Fields:
    """Equality and repr over the fields a class names in `_fields`: equal
    when the classes are the same and the fields compare equal.  Instances
    are immutable: `__init__` writes the fields straight into the instance
    dict, and assigning or deleting an attribute raises."""

    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({args})"


class ConeSet(_Fields):
    """Base class; concrete nodes below.  All nodes carry their model.

    Each node class defines its kind once: `member` decides one element,
    `build_form` compiles the node to a `Form` from its children's stored
    forms, `inverse` gives the node of x -> x^-1, `to_obj` its JSON spec
    and `pull_back` its preimage under a homomorphism into the model.
    Every member set on a domain is read off the compiled form
    (`ball_members`).

    A node is immutable (`_Fields`) and hashes its fields.  Besides its
    fields it keeps memos, set with `object.__setattr__` and left out of
    `_fields` so that equality, hashing and repr ignore them: its compiled
    form (`compile_cone`: the sign-pattern table and the exceptions) and
    its inverse form (`_inverse_form`), and its member set and inverse
    member set on the last domain asked for (`ball_members`,
    `inverse_members`)."""

    model: GroupModel

    def __hash__(self):
        return hash(self._values())

    def member(self, x) -> bool:
        raise NotImplementedError

    def children(self) -> tuple["ConeSet", ...]:
        return ()

    def pull_back(self, hom: Homomorphism) -> "ConeSet":
        raise ModelMismatch(
            f"cannot pull back a {type(self).__name__} node through a homomorphism"
        )


class FiniteBits(ConeSet):
    _fields = ("model", "indices")

    def __init__(self, model: GroupModel, indices: frozenset):
        d = self.__dict__
        d["model"], d["indices"] = model, indices

    def member(self, x) -> bool:
        return x in self.indices

    def build_form(self) -> "Form":
        return Form((), False, self.model.identity() in self.indices, {(): False}, self.indices)

    def inverse(self) -> ConeSet:
        table = self.model.inverse_table
        return FiniteBits(self.model, frozenset(table[i] for i in self.indices))

    def to_obj(self) -> dict:
        return {"op": "explicit", "mode": "include",
                "elements": [str(i) for i in sorted(self.indices)]}


class Pullback(ConeSet):
    _fields = ("model", "hom", "region")

    def __init__(self, model: GroupModel, hom: Homomorphism, region: str):
        d = self.__dict__
        d["model"], d["hom"], d["region"] = model, hom, region

    def member(self, x) -> bool:
        return _REGION_TABLES[self.region][self.hom.ops.signs(self.hom.apply(x))]

    def build_form(self) -> "Form":
        table = _REGION_TABLES[self.region]
        return Form((self.hom,), True, table[(0,)], table)

    def inverse(self) -> ConeSet:
        # phi(x^-1) = -phi(x), and {v : -v > 0} is the complement of lex_nonneg
        if self.region == "lex_zero":
            return self
        flipped = "lex_nonneg" if self.region == "lex_pos" else "lex_pos"
        return Complement(self.model, Pullback(self.model, self.hom, flipped))

    def to_obj(self) -> dict:
        return {"op": "pullback", "images": [list(img) for img in self.hom.images],
                "region": self.region}

    def pull_back(self, hom: Homomorphism) -> ConeSet:
        return pullback(hom.compose_into(self.hom), self.region)


class _Combination(ConeSet):
    """A union or an intersection: `how` (any or all) combines the parts'
    memberships, and `op` names it in JSON."""

    _fields = ("model", "parts")

    def __init__(self, model: GroupModel, parts: tuple):
        d = self.__dict__
        d["model"], d["parts"] = model, parts

    def member(self, x) -> bool:
        return self.how(c.member(x) for c in self.parts)

    def children(self):
        return self.parts

    def build_form(self) -> "Form":
        return _combined(self.parts, self.how, self.model.identity())

    def inverse(self) -> ConeSet:
        return type(self)(self.model, tuple(c.inverse() for c in self.parts))

    def to_obj(self) -> dict:
        return {"op": self.op, "args": [c.to_obj() for c in self.parts]}

    def pull_back(self, hom: Homomorphism) -> ConeSet:
        return type(self)(hom.source, tuple(c.pull_back(hom) for c in self.parts))


class Union(_Combination):
    how, op = any, "union"
    member = _Combination.member  # an entry of its own, which call counters wrap


class Intersection(_Combination):
    how, op = all, "intersection"
    member = _Combination.member


class Complement(ConeSet):
    _fields = ("model", "part")

    def __init__(self, model: GroupModel, part: ConeSet):
        d = self.__dict__
        d["model"], d["part"] = model, part

    def member(self, x) -> bool:
        return not self.part.member(x)

    def children(self):
        return (self.part,)

    def build_form(self) -> "Form":
        inner = compile_cone(self.part)
        return Form(inner.homs, inner.pure, not inner.one, {},
                    compute=lambda s: not inner.value(s), find=lambda _: inner.exceptions)

    def inverse(self) -> ConeSet:
        return Complement(self.model, self.part.inverse())

    def to_obj(self) -> dict:
        return {"op": "complement", "arg": self.part.to_obj()}

    def pull_back(self, hom: Homomorphism) -> ConeSet:
        return Complement(hom.source, self.part.pull_back(hom))


class ExplicitSet(ConeSet):
    _fields = ("model", "elements", "mode")

    def __init__(self, model: GroupModel, elements: frozenset, mode: str = "include"):
        # include -> the listed set; exclude -> its complement
        d = self.__dict__
        d["model"], d["elements"], d["mode"] = model, elements, mode

    def member(self, x) -> bool:
        inside = x in self.elements
        return inside if self.mode == "include" else not inside

    def build_form(self) -> "Form":
        exclude = self.mode == "exclude"
        one = self.model.identity() in self.elements
        return Form((), False, one != exclude, {(): exclude}, self.elements)

    def inverse(self) -> ConeSet:
        inv = self.model.inv
        return ExplicitSet(self.model, frozenset(inv(e) for e in self.elements), self.mode)

    def to_obj(self) -> dict:
        elems = sorted(format_element(self.model, e) for e in self.elements)
        return {"op": "explicit", "mode": self.mode, "elements": elems}


class Identity(ConeSet):
    _fields = ("model",)

    def __init__(self, model: GroupModel):
        self.__dict__["model"] = model

    def member(self, x) -> bool:
        return x == self.model.identity()

    def build_form(self) -> "Form":
        return Form((), True, True, {(): False}, frozenset((self.model.identity(),)))

    def inverse(self) -> ConeSet:
        return self

    def to_obj(self) -> dict:
        return {"op": "identity"}

    def pull_back(self, hom: Homomorphism) -> ConeSet:
        return pullback(hom, "lex_zero")


# -- factories ---------------------------------------------------------------

def pullback(hom: Homomorphism, region: str) -> Pullback:
    if region not in LEX_REGIONS:
        raise ParseError(f"region must be one of {LEX_REGIONS}, got {region!r}")
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


def explicit(model: GroupModel, elements: Iterable, mode: str = "include") -> ConeSet:
    """The listed elements, or with mode exclude all others; an include
    list on a finite model is its bitset."""
    if mode not in ("include", "exclude"):
        raise ParseError(f"mode must be include or exclude, got {mode!r}")
    elems = []
    for e in elements:
        model.validate(e)
        elems.append(e)
    if model.is_finite and mode == "include":
        return FiniteBits(model, frozenset(elems))
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
    """A cone S' with S'(x) = S(x^-1) for every x, each node inverting
    itself (`ConeSet.inverse`).  Its form is the cone's inverse form
    (`_inverse_form`, kept on the cone), which reads the cone's sign table
    at negated signs; `inverse_members` reads the same form on a domain
    without building a node."""
    check_model(model, cone)
    out = cone.inverse()
    if out is not cone:
        object.__setattr__(out, "_compiled", _inverse_form(cone))
    return out


def symmetric_part(model: GroupModel, cone: ConeSet) -> ConeSet:
    """Intersection of the cone with its inverse: the elements whose inverse
    also lies in the cone.  When the cone is semigroup-closed this is its
    maximal subgroup."""
    check_model(model, cone)
    return intersection(cone, invert_cone(model, cone))


# ---------------------------------------------------------------------------
# Domain membership (read off the compiled form)
# ---------------------------------------------------------------------------

def ball_members(cone: ConeSet, domain: Domain) -> frozenset:
    """Indices of the domain's elements belonging to the cone (index 0 is
    the identity), read off its compiled form (`_read_members`)."""
    return _read_members(cone, domain, "_members", compile_cone)


def inverse_members(cone: ConeSet, domain: Domain) -> frozenset:
    """Indices of the domain's elements whose inverse belongs to the cone,
    read off its inverse form (`_read_members`).  On a class domain x^-1
    for x in class w lies in class -w, which need not be on the domain:
    the inverse form reads it at x's own sign pattern."""
    return _read_members(cone, domain, "_inverse_members", _inverse_form)


def _read_members(cone: ConeSet, domain: Domain, slot: str, form_of) -> frozenset:
    """The member set of the form `form_of(cone)` on the domain: the
    identity by `one`, any other element by the form's value at its image
    class's sign pattern, flipped for the form's exceptions.  It is kept
    in the node's `slot` with the domain, and replaced when another domain
    is asked for.  A class domain (`scan_domain`) holds one element per
    image class under its maps, so a cone that is not value-pure over
    those maps raises ModelMismatch there: its members need not be whole
    classes."""
    stored = vars(cone).get(slot)
    if stored is not None and stored[0] is domain:
        return stored[1]
    form = form_of(cone)
    over = domain.hom_keys  # a class domain's maps; None on a ball or finite group
    if over is not None and not (form.pure and all(h.key in over for h in form.homs)):
        raise ModelMismatch("a class domain decides only value-pure cones over its maps")
    members, _, keys, _, buckets = domain.classes(form.homs)
    out = set(chain.from_iterable([members[keys[c]] for signs, cs in buckets.items()
                                   if form.value(signs) for c in cs]))
    if form.one:
        out.add(0)
    index = domain.index
    out.symmetric_difference_update([i for i in map(index.get, form.exceptions) if i])
    out = frozenset(out)
    object.__setattr__(cone, slot, (domain, out))
    return out


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
    off joint image vectors; `ball_members` and `ProductScan` read it off
    the sign patterns of image classes.

    A parent's form is built from its children's stored forms, so a fresh
    wrapper node costs O(children).  A form never refers to a cone node,
    so forms kept on nodes make no reference cycles."""

    __slots__ = ("homs", "pure", "one", "table", "compute", "find", "_exceptions", "_key")

    def __init__(self, homs: tuple, pure: bool, one: bool, table: dict,
                 exceptions: frozenset = frozenset(), compute=None, find=None):
        self.homs, self.pure, self.one, self.table = homs, pure, one, table
        self.compute, self.find = compute, find
        self._exceptions = None if find else exceptions
        self._key = None

    @property
    def exceptions(self) -> frozenset:
        if self._exceptions is None:
            self._exceptions, self.find = self.find(self), None
        return self._exceptions

    @property
    def key(self) -> tuple:
        """The form's extension, built on first use: its maps' keys, its
        value at each of their 3^k sign patterns and its exceptions.  Equal
        keys mean equal member sets; the key holds no map and no node."""
        if self._key is None:
            values = tuple(map(self.value, product((-1, 0, 1), repeat=len(self.homs))))
            self._key = tuple([h.key for h in self.homs]), values, self.exceptions
        return self._key

    def value(self, signs: tuple) -> bool:
        v = self.table.get(signs)
        if v is None:
            v = self.table[signs] = self.compute(signs)
        return v

    def signs(self, x) -> tuple:
        return image_ops(self.homs).signs(joint_image(self.homs, x))

    def reader(self, homs):
        """The predicate on joint image vectors laid out by `homs`, which
        must include the form's homomorphisms: the value at the lex signs
        of their slices, read off a table of every sign pattern under
        `homs`."""
        picks = [homs.index(h) for h in self.homs]
        values = {s: self.value(tuple([s[i] for i in picks]))
                  for s in product((-1, 0, 1), repeat=len(homs))}
        signs = image_ops(homs).signs
        return lambda w: values[signs(w)]


def compile_cone(cone: ConeSet) -> Form:
    """The cone's form, built on first use and kept on the node."""
    form = vars(cone).get("_compiled")
    if form is None:
        form = cone.build_form()
        object.__setattr__(cone, "_compiled", form)
    return form


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


def _inverse_form(cone: ConeSet) -> Form:
    """The form of x -> x^-1 in the cone, built on first use and kept on
    the node: phi(x^-1) = -phi(x) negates every sign, and the exceptions
    are inverted."""
    form = vars(cone).get("_inverse")
    if form is None:
        base, inv = compile_cone(cone), cone.model.inv
        form = Form(base.homs, base.pure, base.one, {},
                    compute=lambda s: base.value(tuple([-v for v in s])),
                    find=lambda _: frozenset(map(inv, base.exceptions)))
        object.__setattr__(cone, "_inverse", form)
    return form


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


def scan_domain(model: GroupModel, radius: int, *cones: ConeSet) -> Domain:
    """The domain of a verdict that reads only `cones`: the class domain
    of their homomorphisms when all are value-pure, else the ball.  Their
    member sets are then unions of image classes, up to the identity, so
    the first failing element is the same on both."""
    return model.domain(radius, homs=value_profile(*cones))


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
        self.homs, self.ops = homs, image_ops(homs)
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
                s = self.ops.signs(self.ops.add(self.keys[ca], self.keys[cy]))
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
        keys, hits, (_, _, sub, signs) = self.keys, {}, self.ops
        for e in self.target.exceptions:
            w = joint_image(self.homs, e)
            hits.setdefault(signs(w), set()).add(w)
        every = set().union(*hits.values())
        for s, cxs, cys in pairs:
            if s is None and not all(self.holds(ca, cy) for ca in cxs for cy in cys):
                return False
            images = every if s is None else hits.get(s)
            if images:
                y_keys = {keys[c] for c in cys}
                if any(sub(w, keys[c]) in y_keys for w in images for c in cxs):
                    return False
        return True

    def by_element(self) -> "ProductScan":
        """This scan on the ball, for the scan by element."""
        if self.domain.hom_keys is None:
            return self
        return ProductScan(self.model, self.model.domain(self.domain.radius), self.homs,
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


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

class Verdict(_Fields):
    """Outcome of one check.  radius_checked = 0 marks an exact verdict
    (finite group or AST-decidable); ball-local verdicts carry the radius.
    Verdicts compare by value and are immutable, so a memo may share them
    (`decide_once`); they define no hash."""

    _fields = ("status", "witness", "radius_checked", "note")

    def __init__(self, status: str, witness: Optional[tuple] = None,
                 radius_checked: int = 0, note: str = ""):
        d = self.__dict__
        d["status"] = status  # verified | counterexample | inconclusive
        d["witness"], d["radius_checked"], d["note"] = witness, radius_checked, note

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


def decide_once(domain: Domain, question: tuple, cones: tuple, decide):
    """`decide()`, the verdict on `question` about the cones, kept in the
    domain's memo under the question and each cone's extension
    (`Form.key`): every verdict kept is the domain's first failure in BFS
    order, which the cones' member sets fix.  The memo is skipped when a
    cone's 3^k sign patterns outnumber the domain's elements, so a key
    costs at most one pass over the domain."""
    key = [question]
    for cone in cones:
        form = compile_cone(cone)
        if 3 ** len(form.homs) > len(domain.elements):
            return decide()
        key.append(form.key)
    key, memo = tuple(key), domain.verdicts
    out = memo.get(key)
    if out is None:
        out = memo[key] = decide()
    return out


# ---------------------------------------------------------------------------
# Subsemigroup and cover verification
# ---------------------------------------------------------------------------

def is_subsemigroup(model: GroupModel, cone: ConeSet, radius: int) -> Verdict:
    """Check x, y in cone => xy in cone.

    Finite models are checked exactly over all pairs.  Infinite models are
    checked over the radius ball; products are decided globally by the
    cone's compiled form, per pair of image classes (`ProductScan.clean`)
    and element by element only where that does not settle it
    (`ProductScan.first_pair`).  The first counterexample in BFS pair order
    wins.
    """
    check_model(model, cone)
    domain = scan_domain(model, radius, cone)

    def decide() -> Verdict:
        scan = ProductScan(model, domain, compile_cone(cone).homs, cone, cone)
        witness = None if scan.clean(cone) else (scan := scan.by_element()).first_pair()
        return Verdict.of(witness, scan.domain)
    return decide_once(domain, ("closed",), (cone,), decide)


def normality_verdict(model: GroupModel, cone: ConeSet, radius: int) -> Verdict:
    """Check g^-1 h g in cone for every member h of the cone and every g in
    the ball of the radius; the witness is the first g in BFS order with
    its first member h whose conjugate leaves the cone.  Conjugating by g
    alone is enough: the ball is closed under inverses, so g^-1 is scanned
    too.

    A conjugate has the image of h under every map into Z^r, so a
    value-pure cone is exact at radius 0, and on any other cone g^-1 h g
    leaves it exactly when one of the two is among the compiled form's
    exceptions and the other is not: only the conjugates of the
    exceptions are formed."""
    form = compile_cone(cone)
    if form.pure:
        return Verdict("verified")
    domain = model.domain(radius)
    exceptions, members, index = form.exceptions, ball_members(cone, domain), domain.index
    for g in domain.elements:
        escapes = []
        for e in exceptions:
            if model.conj(g, e) not in exceptions:  # h = e
                escapes.append(index.get(e))
            h = model.conj(model.inv(g), e)         # h = g e g^-1, whose conjugate is e
            if h not in exceptions:
                escapes.append(index.get(h))
        bad = min((i for i in escapes if i in members), default=None)
        if bad is not None:
            return Verdict.of((g, domain.elements[bad]), domain)
    return Verdict.of(None, domain)


class CoverPair:
    """An ordered pair of cones with verification flags."""

    def __init__(self, model: GroupModel, a: ConeSet, b: ConeSet, radius: int,
                 flags: Optional[dict] = None):
        self.model, self.a, self.b, self.radius = model, a, b, radius
        self.flags = {} if flags is None else flags

    def core_ok(self) -> bool:
        keys = ("closed_A", "closed_B", "covers", "proper_A", "proper_B")
        return all(k in self.flags and self.flags[k].ok for k in keys)

    def normalized_ok(self) -> bool:
        return self.core_ok() and "trivial_intersection" in self.flags and \
            self.flags["trivial_intersection"].ok

    def to_obj(self) -> dict:
        return {
            "model": self.model.selector(),
            "radius": self.radius,
            "A": self.a.to_obj(),
            "B": self.b.to_obj(),
            "verdicts": {k: v.to_obj(self.model) for k, v in sorted(self.flags.items())},
        }


def is_cover_pair(model: GroupModel, a: ConeSet, b: ConeSet, radius: int, *,
                  check_intersection: bool = True, check_duality: bool = False) -> CoverPair:
    """Verdict bundle: closure of both sides, covering, properness, and
    (optionally) trivial intersection and inverse duality, decided once per
    domain (`decide_once`); each pair gets its own copy of the flags."""
    check_model(model, a)
    check_model(model, b)
    domain = scan_domain(model, radius, a, b)
    elements, rad = domain.elements, domain.radius

    def decide() -> dict:
        flags = {"closed_A": is_subsemigroup(model, a, radius),
                 "closed_B": is_subsemigroup(model, b, radius)}
        mem_a, mem_b = ball_members(a, domain), ball_members(b, domain)
        missing = min(domain.indices - (mem_a | mem_b), default=None)
        flags["covers"] = Verdict.first_failure(domain, missing)
        for side, mem in (("A", mem_a), ("B", mem_b)):
            out = next((i for i in range(len(elements)) if i not in mem), None)
            flags[f"proper_{side}"] = (
                Verdict("verified", witness=(elements[out],), radius_checked=rad)
                if out is not None
                else Verdict("counterexample", radius_checked=rad,
                             note=f"side {side} contains the whole ball"))
        if check_intersection:
            bad = min((mem_a & mem_b) - {0}, default=None)
            flags["trivial_intersection"] = Verdict.first_failure(domain, bad)
        if check_duality:
            from .covers import check_inverse_duality  # local: avoids an import cycle
            flags["inverse_duality"] = check_inverse_duality(
                model, CoverPair(model, a, b, radius), radius)
        return flags
    flags = decide_once(domain, ("cover", check_intersection, check_duality), (a, b), decide)
    return CoverPair(model, a, b, radius, dict(flags))


def ext_equal(model: GroupModel, c1: ConeSet, c2: ConeSet, radius: int) -> Optional[tuple]:
    """None when the cones agree on the domain, else the first differing
    element in BFS order."""
    check_model(model, c1)
    check_model(model, c2)
    domain = scan_domain(model, radius, c1, c2)
    diff = ball_members(c1, domain) ^ ball_members(c2, domain)
    return (domain.elements[min(diff)],) if diff else None


# ---------------------------------------------------------------------------
# JSON (de)serialization of cone specs
# ---------------------------------------------------------------------------

def cone_to_obj(cone: ConeSet) -> dict:
    return cone.to_obj()


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
        if rank > MAX_GENERATORS:  # Z^rank's generators take rank^2 entries
            raise ParseError(f"pullback images have more than {MAX_GENERATORS} coordinates")
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
        return explicit(model, [parse_element(model, e) for e in elems],
                        obj.get("mode", "include"))
    if op == "identity":
        return identity_cone(model)
    raise ParseError(f"unknown cone op {op!r}")
