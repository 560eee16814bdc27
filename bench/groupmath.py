"""Group arithmetic and cone-spec evaluation written apart from semicover.

The checks in this benchmark must not trust the program's own arithmetic,
so every infinite model is rebuilt here from a faithful representation:

  z^2           integer vectors under addition
  heisenberg    upper unitriangular 3x3 integer matrices, generators x, y
  klein_bottle  affine maps (u, v) -> (s*u + tu, v + tv) of Z^2 with
                a: (u, v) -> (u + 1, v) and b: (u, v) -> (-u, v + 1),
                so that b a b^-1 = a^-1; the product x*y is x after y
  free:2        freely reduced words over a, b

Each model also gives the exponent-sum vector that every homomorphism
into Z^r factors through, which is all a pullback cone looks at.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"([a-zA-Z])(?:\^(-?\d+))?")


def lex_sign(vec) -> int:
    for v in vec:
        if v:
            return 1 if v > 0 else -1
    return 0


def in_region(region: str, vec) -> bool:
    s = lex_sign(vec)
    if region == "lex_pos":
        return s > 0
    if region == "lex_nonneg":
        return s >= 0
    if region == "lex_zero":
        return s == 0
    raise ValueError(f"unknown region {region!r}")


def _matmul(p, q):
    return tuple(tuple(sum(p[i][k] * q[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


class Z2:
    selector = "z^2"
    letters = "ab"
    identity = (0, 0)
    gens = ((1, 0), (0, 1))

    def mul(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def inv(self, x):
        return (-x[0], -x[1])

    def exponents(self, x):
        return x

    def parse(self, text: str):
        vals = tuple(int(t) for t in text.strip("() ").split(","))
        if len(vals) != 2:
            raise ValueError(f"not a z^2 element: {text!r}")
        return vals

    def to_program(self, x) -> str:
        return f"({x[0]},{x[1]})"


class Heisenberg:
    selector = "heisenberg"
    letters = "xy"
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    gens = (((1, 1, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 1, 1), (0, 0, 1)))

    def mul(self, x, y):
        return _matmul(x, y)

    def inv(self, x):
        # inverse of [[1, p, r], [0, 1, q], [0, 0, 1]]
        p, r, q = x[0][1], x[0][2], x[1][2]
        return ((1, -p, p * q - r), (0, 1, -q), (0, 0, 1))

    def exponents(self, x):
        return (x[0][1], x[1][2])

    def parse(self, text: str):
        vals = tuple(int(t) for t in text.strip("() ").split(","))
        if len(vals) != 3:
            raise ValueError(f"not a heisenberg element: {text!r}")
        p, q, r = vals
        return ((1, p, r), (0, 1, q), (0, 0, 1))

    def to_program(self, x) -> str:
        return f"({x[0][1]},{x[1][2]},{x[0][2]})"


class KleinBottle:
    selector = "klein_bottle"
    letters = "ab"
    identity = (1, 0, 0)
    gens = ((1, 1, 0), (-1, 0, 1))

    def mul(self, x, y):
        return (x[0] * y[0], x[0] * y[1] + x[1], x[2] + y[2])

    def inv(self, x):
        return (x[0], -x[0] * x[1], -x[2])

    def exponents(self, x):
        # the exponent sum of a is only defined mod 2, and every valid map
        # into Z^r kills a; None makes a nonzero image of a an error
        return (None, x[2])

    def parse(self, text: str):
        return parse_word(self, text)

    def to_program(self, x) -> str:
        s, tu, tv = x
        # b^m a^n is (u, v) -> (s * (u + n), v + m) with s = (-1)^m
        n = tu * s
        out = ""
        if tv:
            out += "b" if tv == 1 else f"b^{tv}"
        if n:
            out += "a" if n == 1 else f"a^{n}"
        return out or "1"


class Free2:
    selector = "free:2"
    letters = "ab"
    identity = ()
    gens = ((1,), (2,))

    def mul(self, x, y):
        out = list(x)
        for v in y:
            if out and out[-1] == -v:
                out.pop()
            else:
                out.append(v)
        return tuple(out)

    def inv(self, x):
        return tuple(-v for v in reversed(x))

    def exponents(self, x):
        sums = [0, 0]
        for v in x:
            sums[abs(v) - 1] += 1 if v > 0 else -1
        return tuple(sums)

    def parse(self, text: str):
        return parse_word(self, text)

    def to_program(self, x) -> str:
        return "".join(self.letters[abs(v) - 1] if v > 0
                       else self.letters[abs(v) - 1] + "^-1" for v in x) or "1"


MODELS = {cls.selector: cls() for cls in (Z2, Heisenberg, KleinBottle, Free2)}


def parse_word(model, text: str):
    """A word in the model's letters; uppercase or a negative exponent
    inverts.  `1` is the identity."""
    s = text.strip()
    x = model.identity
    if s in ("", "1"):
        return x
    pos = 0
    for m in _TOKEN.finditer(s):
        if m.start() != pos:
            raise ValueError(f"bad word {text!r}")
        pos = m.end()
        letter = m.group(1)
        exp = int(m.group(2)) if m.group(2) is not None else 1
        if letter.isupper():
            exp = -exp
        g = model.gens[model.letters.index(letter.lower())]
        step = g if exp > 0 else model.inv(g)
        for _ in range(abs(exp)):
            x = model.mul(x, step)
    if pos != len(s):
        raise ValueError(f"bad word {text!r}")
    return x


def evaluate_word(model, word):
    """Element of a word given as (generator index, +1 or -1) letters."""
    x = model.identity
    for g, e in word:
        step = model.gens[g] if e > 0 else model.inv(model.gens[g])
        x = model.mul(x, step)
    return x


def phi(images, exponents):
    """Image in Z^r of an element with the given exponent sums."""
    r = len(images[0])
    out = [0] * r
    for e, img in zip(exponents, images):
        if any(img):
            if e is None:
                raise ValueError("image of a generator whose exponent is not defined")
            for i in range(r):
                out[i] += e * img[i]
    return tuple(out)


class SpecEvaluator:
    """Membership in a JSON cone spec, evaluated on this module's elements."""

    def __init__(self, model, spec):
        self.model = model
        self.spec = spec
        self._explicit = {}

    def member(self, x, node=None) -> bool:
        node = self.spec if node is None else node
        op = node["op"]
        if op == "pullback":
            return in_region(node["region"], phi(node["images"], self.model.exponents(x)))
        if op == "union":
            return any(self.member(x, a) for a in node["args"])
        if op == "intersection":
            return all(self.member(x, a) for a in node["args"])
        if op == "complement":
            return not self.member(x, node["arg"])
        if op == "identity":
            return x == self.model.identity
        if op == "explicit":
            key = id(node)
            elems = self._explicit.get(key)
            if elems is None:
                elems = frozenset(self.model.parse(e) for e in node["elements"])
                self._explicit[key] = elems
            inside = x in elems
            return inside if node.get("mode", "include") == "include" else not inside
        raise ValueError(f"unknown cone op {op!r}")
