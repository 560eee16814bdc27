"""Decidable subset descriptions over group models.

A ConeSet is an immutable expression tree.  Membership is evaluated
structurally and is decidable for every element of the owning model.
Verification is exact on finite groups and ball-local on infinite models;
ball-local verdicts always carry the radius they were checked at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import add
from typing import Iterable, Optional

from .errors import ModelMismatch, ParseError
from .groups import (
    DEFAULT_BALL_CAP,
    GroupModel,
    Homomorphism,
    format_element,
    parse_element,
)

LEX_REGIONS = ("lex_pos", "lex_nonneg", "lex_zero")


def _lex_sign(vec) -> int:
    for v in vec:
        if v > 0:
            return 1
        if v < 0:
            return -1
    return 0


def region_test(region: str, vec) -> bool:
    s = _lex_sign(vec)
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
    member set on the last ball asked for (`ball_members`)."""

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
# Ball membership (set algebra over an enumerated ball)
# ---------------------------------------------------------------------------

def ball_members(cone: ConeSet, ball: list, index_of: dict) -> frozenset:
    """Indices of ball elements belonging to the cone (ball[0] is the
    identity).  A pullback leaf is evaluated once per image class of the
    ball under its homomorphism; every other node combines its children's
    sets.  The result is kept on the node with the very `ball` list it was
    computed for, and replaced when another ball is asked for, so each
    node, shared or not, is evaluated once per ball."""
    stored = vars(cone).get("_members")
    if stored is not None and stored[0] is ball:
        return stored[1]
    out = _evaluate(cone, ball, index_of)
    object.__setattr__(cone, "_members", (ball, out))
    return out


def _evaluate(cone: ConeSet, ball: list, index_of: dict) -> frozenset:
    if isinstance(cone, Pullback):
        out = [0] if cone.member(ball[0]) else []
        for w, idxs in cone.model.image_classes([cone.hom], ball).items():
            if region_test(cone.region, w):
                out.extend(idxs)
        return frozenset(out)
    if isinstance(cone, Identity):
        return frozenset((0,))
    if isinstance(cone, Union):
        return frozenset().union(*(ball_members(c, ball, index_of) for c in cone.parts))
    if isinstance(cone, Intersection):
        sets = [ball_members(c, ball, index_of) for c in cone.parts]
        return sets[0].intersection(*sets[1:])
    if isinstance(cone, Complement):
        return cone.model.full_index(ball) - ball_members(cone.part, ball, index_of)
    if isinstance(cone, ExplicitSet):
        inside = frozenset(index_of[e] for e in cone.elements if e in index_of)
        if cone.mode == "include":
            return inside
        return cone.model.full_index(ball) - inside
    if isinstance(cone, FiniteBits):
        return frozenset(i for i, x in enumerate(ball) if x in cone.indices)
    raise ModelMismatch(f"unknown cone node {type(cone).__name__}")


def inverse_pairs(model: GroupModel, ball: list, index_of: dict, *cones: ConeSet) -> list:
    """(i, j) pairs, ascending in i, with ball[j] standing for the inverse
    of ball[i], for deciding inverse conditions on the cones' member sets.
    `ball` must be inverse-closed, as balls and finite groups are.

    When the cones are value-pure, each element other than the identity
    has the membership of its joint image class, and x^-1 for x in class w
    lies in class -w: i runs over the identity and the first index of each
    class, and the first failing i is the first failing element in BFS
    order.  Otherwise i runs over the whole ball (`inverse_index`)."""
    homs = value_profile(*cones)
    if homs is None:
        return list(enumerate(model.inverse_index(ball, index_of)))
    classes = model.image_classes(homs, ball)
    return [(0, 0)] + [(idxs[0], classes[tuple(-c for c in w)][0])
                       for w, idxs in classes.items()]


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
    decides every element but the identity.

    A parent's form is built from its children's stored forms, so a fresh
    wrapper node costs O(children).  A form never refers to a cone node,
    so forms kept on nodes make no reference cycles."""

    __slots__ = ("homs", "pure", "one", "table", "compute", "find", "_exceptions", "readers")

    def __init__(self, homs: tuple, pure: bool, one: bool, table: dict,
                 exceptions: frozenset = frozenset(), compute=None, find=None):
        self.homs, self.pure, self.one, self.table = homs, pure, one, table
        self.compute, self.find = compute, find
        self._exceptions = None if find else exceptions
        self.readers: dict = {}  # slices -> predicate, see `_reader`

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
        return tuple([_lex_sign(h.apply(x)) for h in self.homs])


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
        return _combined([compile_cone(c) for c in cone.parts],
                         any if isinstance(cone, Union) else all, one)
    raise ModelMismatch(f"unknown cone node {type(cone).__name__}")


def _combined(parts: list, how, one) -> Form:
    homs: list = []
    for f in parts:
        homs.extend(h for h in f.homs if h not in homs)
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


def _reader(form: Form, homs):
    """The form's predicate on joint image vectors laid out by `homs`,
    which must include the form's homomorphisms.  Its values are read once
    per sign pattern of the form's own homomorphisms, indexed as a balanced
    ternary number, and the reader is kept on the form per layout."""
    layout = _slice_layout(homs)
    slices = tuple(layout[homs.index(h)] for h in form.homs)
    pred = form.readers.get(slices)
    if pred is None:
        values = [None] * 3 ** len(slices)
        for signs in product((-1, 0, 1), repeat=len(slices)):
            i = 0
            for v in signs:
                i = 3 * i + v
            values[i] = form.value(signs)

        def pred(w) -> bool:
            i = 0
            for lo, hi in slices:
                i = 3 * i + _lex_sign(w[lo:hi])
            return values[i]
        form.readers[slices] = pred
    return pred


def value_profile(*cones: ConeSet) -> Optional[list[Homomorphism]]:
    """The distinct Z^r homomorphisms membership in the cones factors
    through, in order of first appearance, or None if membership in some
    cone is not value-determined (explicit element lists).  A cone that
    has been compiled is read from its stored form; any other is walked,
    and not compiled."""
    homs: list[Homomorphism] = []
    for cone in cones:
        form = vars(cone).get("_compiled")
        if form is None:
            if not _collect_homs(cone, homs):
                return None
        elif not form.pure:
            return None
        else:
            homs.extend(h for h in form.homs if h not in homs)
    return homs


def _collect_homs(node: ConeSet, homs: list) -> bool:
    if isinstance(node, Pullback):
        if node.hom not in homs:
            homs.append(node.hom)
        return True
    if isinstance(node, Identity):
        return True
    if isinstance(node, (Union, Intersection)):
        return all(_collect_homs(c, homs) for c in node.parts)
    if isinstance(node, Complement):
        return _collect_homs(node.part, homs)
    return False


def compile_values(cone: ConeSet, homs: Optional[list] = None):
    """A value-pure cone compiled to a predicate on joint image vectors.

    Returns (homs, pred), or None when the cone is not value-pure.  `homs`
    defaults to the cone's own homomorphisms; a caller may pass a longer
    list to share one layout between cones.  pred(joint_image(homs, x)) is
    the membership of every x other than the identity, which `member`
    decides.  pred reads only the lex sign of each homomorphism's slice of
    the vector, which `sums_hold` relies on.  A node added to the compiler
    (a conjugate or orbit node, say) must keep this or stay uncompiled.
    """
    form = compile_cone(cone)
    if not form.pure:
        return None
    homs = list(form.homs) if homs is None else homs
    return homs, _reader(form, homs)


def _slice_layout(homs) -> list[tuple[int, int]]:
    """The (lo, hi) bounds of each homomorphism's slice of the joint image."""
    out, pos = [], 0
    for h in homs:
        out.append((pos, pos + h.rank()))
        pos += h.rank()
    return out


def compile_shared(*cones: ConeSet):
    """Value-pure cones compiled on one shared joint-image layout.

    Returns (homs, preds) with one predicate per cone (see
    `compile_values`); `homs` lists the cones' homomorphisms in order of
    first appearance.  None when any cone is not value-pure.
    """
    homs = value_profile(*cones)
    if homs is None:
        return None
    return homs, [compile_values(cone, homs)[1] for cone in cones]


def sums_hold(pred, homs, us, vs) -> bool:
    """Whether pred(u + v) holds for every u in us and v in vs.

    `pred` must read only the lex sign of each slice of the layout of
    `homs`, as every compiled predicate does.  Z^r under lex is a totally
    ordered group, so a slice of u + v has the sign of a nonzero summand
    unless u and v have opposite nonzero signs there.  Vectors are grouped
    by sign pattern: a bucket pair with no opposite slice is decided by one
    sum, and only the other bucket pairs are summed class by class.
    """
    layout = _slice_layout(homs)
    u_buckets = _sign_buckets(us, layout)
    v_buckets = u_buckets if vs is us else _sign_buckets(vs, layout)
    for i, (su, xs) in enumerate(u_buckets.items()):
        for j, (sv, ys) in enumerate(v_buckets.items()):
            if vs is us and j < i:
                continue  # u + v = v + u: the pair (j, i) was seen
            if any(a * b < 0 for a, b in zip(su, sv)):
                pairs = ((x, y) for x in xs for y in ys)
            else:
                pairs = ((xs[0], ys[0]),)
            if not all(pred(tuple(map(add, x, y))) for x, y in pairs):
                return False
    return True


def _sign_buckets(vecs, layout) -> dict:
    buckets: dict = {}
    for w in vecs:
        key = tuple(_lex_sign(w[lo:hi]) for lo, hi in layout)
        buckets.setdefault(key, []).append(w)
    return buckets


class ProductScan:
    """The first y, in ascending order over the ball indices `ys`, whose
    product with a ball element a (a*y on the left, y*a on the right)
    leaves a target form.  Both products have the image w_a + w_y, so the
    target's predicate is read once per pair of image classes of the ball
    under `homs` (which must include the target's), and the first failure
    by class is kept per class of a.  The verdict flips only for the y
    with a*y (or y*a) among the target's exceptions, one y per exception.
    No other product is formed."""

    def __init__(self, model: GroupModel, ball: list, index_of: dict, homs,
                 target: Form, ys: frozenset):
        self.model, self.ball, self.index_of = model, ball, index_of
        self.cls, self.keys = model.element_classes(homs, ball)
        self.pred = _reader(target, homs)
        self.exceptions = target.exceptions
        self.ys, self.yset = sorted(ys), ys
        self.rows: dict = {}       # class of a -> {class of y: verdict}
        self.row_first: dict = {}  # class of a -> position in ys of its first failure by class

    def holds(self, ca: int, cy: int) -> bool:
        row = self.rows.setdefault(ca, {})
        v = row.get(cy)
        if v is None:
            v = row[cy] = self.pred(tuple(map(add, self.keys[ca], self.keys[cy])))
        return v

    def _failure(self, ca: int, start: int, flips) -> Optional[int]:
        """The first position from `start` whose y fails by class with
        class ca and is not in `flips`."""
        ys, cls = self.ys, self.cls
        return next((k for k in range(start, len(ys))
                     if not self.holds(ca, cls[ys[k]]) and ys[k] not in flips), None)

    def first(self, a: int, left: bool = True) -> Optional[int]:
        """The first y in ys with ball[a] * ball[y] (left) or
        ball[y] * ball[a] outside the target, or None."""
        ca = self.cls[a]
        if ca not in self.row_first:
            self.row_first[ca] = self._failure(ca, 0, ())
        found = self.row_first[ca]
        flips = set()
        if self.exceptions:
            mul, ai = self.model.mul, self.model.inv(self.ball[a])
            for e in self.exceptions:
                i = self.index_of.get(mul(ai, e) if left else mul(e, ai))
                if i in self.yset:
                    flips.add(i)
        if found is not None and self.ys[found] in flips:
            found = self._failure(ca, found + 1, flips)
        # a flipped y fails exactly when its class passes
        failing = [y for y in flips if self.holds(ca, self.cls[y])]
        if found is not None:
            failing.append(self.ys[found])
        return min(failing, default=None)

    def first_pair(self) -> Optional[tuple[int, int]]:
        """The first (x, y) in ys x ys, in BFS order, with xy outside the
        target, for ys inside the target: 1y = y stays in it, so the row of
        the identity (ball index 0) is skipped."""
        for x in self.ys:
            if x == 0:
                continue
            y = self.first(x)
            if y is not None:
                return x, y
        return None


def conjugate_escapes(model: GroupModel, cone: ConeSet, g, ball: list,
                      index_of: dict) -> list[int]:
    """Ascending indices of the ball members h of the cone whose conjugate
    g^-1 h g is not a member.  The conjugate has the image of h, so it
    leaves the cone exactly when one of the two is among the compiled
    form's exceptions and the other is not: only the conjugates of the
    exceptions are formed."""
    exceptions = compile_cone(cone).exceptions
    members = ball_members(cone, ball, index_of)
    out = []
    for e in exceptions:
        if model.conj(g, e) not in exceptions:  # h = e
            out.append(index_of.get(e))
        c = model.conj(model.inv(g), e)         # h = g e g^-1, whose conjugate is e
        if c not in exceptions:
            out.append(index_of.get(c))
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
    cone's compiled form.  The first counterexample in BFS pair order wins.
    """
    check_model(model, cone)
    if radius < 1 and model.kind != "finite":
        raise ValueError("radius must be >= 1 for infinite models")
    ball, index_of, rad = model.scan_domain(radius, cap)
    memset = ball_members(cone, ball, index_of)

    compiled = compile_values(cone)
    if compiled is not None and _closure_clean_by_values(model, compiled, ball, index_of,
                                                         memset):
        return Verdict("verified", radius_checked=rad)
    form = compile_cone(cone)
    bad = ProductScan(model, ball, index_of, form.homs, form, memset).first_pair()
    if bad is None:
        return Verdict("verified", radius_checked=rad)
    return Verdict("counterexample", witness=(ball[bad[0]], ball[bad[1]]), radius_checked=rad)


def _closure_clean_by_values(model, compiled, ball, index_of, memset) -> bool:
    """Class-level closure certificate for value-pure cones: membership of a
    non-identity element depends only on its joint image, so `sums_hold`
    over the member image classes decides it.  True means definitely
    closed on the ball; False defers to the element-level scan."""
    homs, pred = compiled
    if 0 not in memset:
        # a member pair multiplying to 1 inside the ball would be a violation
        for i in memset:
            j = index_of.get(model.inv(ball[i]))
            if j is not None and j in memset:
                return False
    # a sum outside the cone is either a genuine violation or the
    # product-equals-identity corner; the scan decides and picks the
    # earliest witness
    classes = [w for w in model.image_classes(homs, ball) if pred(w)]
    return sums_hold(pred, homs, classes, classes)


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
    if radius < 1 and model.kind != "finite":
        raise ValueError("radius must be >= 1")
    ball, index_of, rad = model.scan_domain(radius, cap)

    flags = {
        "closed_A": is_subsemigroup(model, a, radius, cap),
        "closed_B": is_subsemigroup(model, b, radius, cap),
    }
    mem_a = ball_members(a, ball, index_of)
    mem_b = ball_members(b, ball, index_of)
    n = len(ball)

    missing = min(model.full_index(ball) - (mem_a | mem_b), default=None)
    flags["covers"] = (
        Verdict("verified", radius_checked=rad) if missing is None
        else Verdict("counterexample", witness=(ball[missing],), radius_checked=rad)
    )
    out_a = next((i for i in range(n) if i not in mem_a), None)
    flags["proper_A"] = (
        Verdict("verified", witness=(ball[out_a],), radius_checked=rad) if out_a is not None
        else Verdict("counterexample", radius_checked=rad, note="side A contains the whole ball")
    )
    out_b = next((i for i in range(n) if i not in mem_b), None)
    flags["proper_B"] = (
        Verdict("verified", witness=(ball[out_b],), radius_checked=rad) if out_b is not None
        else Verdict("counterexample", radius_checked=rad, note="side B contains the whole ball")
    )
    if check_intersection:
        bad = next((i for i in sorted(mem_a & mem_b) if i != 0), None)
        flags["trivial_intersection"] = (
            Verdict("verified", radius_checked=rad) if bad is None
            else Verdict("counterexample", witness=(ball[bad],), radius_checked=rad)
        )
    pair = CoverPair(model, a, b, radius, flags)
    if check_duality:
        from .covers import check_inverse_duality  # local: avoids an import cycle
        flags["inverse_duality"] = check_inverse_duality(model, pair, radius, cap)
    return pair


def ext_equal(model: GroupModel, c1: ConeSet, c2: ConeSet, radius: int,
              cap: int = DEFAULT_BALL_CAP) -> Optional[tuple]:
    """None when the cones agree on the ball, else the first differing
    element in BFS order."""
    check_model(model, c1)
    check_model(model, c2)
    ball, index_of, _ = model.scan_domain(radius, cap)
    m1 = ball_members(c1, ball, index_of)
    m2 = ball_members(c2, ball, index_of)
    diff = m1 ^ m2
    if not diff:
        return None
    return (ball[min(diff)],)


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


def cone_from_obj(model: GroupModel, obj: dict) -> ConeSet:
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
        parts = [cone_from_obj(model, a) for a in args]
        return union(*parts) if op == "union" else intersection(*parts)
    if op == "complement":
        if "arg" not in obj:
            raise ParseError("complement needs an 'arg'")
        return complement(cone_from_obj(model, obj["arg"]))
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
