"""Finitely presented group input: parsing, abelianization, and the
abelian sufficient test for a nontrivial left-orderable quotient.

A positive free rank of the abelianization certifies a surjection onto Z^r
and hence a two-piece cover; free rank zero is reported as inconclusive,
never as a negative answer.
"""

from __future__ import annotations

from typing import Optional

from .cones import CoverPair, Verdict
from .errors import ParseError
from .groups import GroupModel, Homomorphism, word_tokens
from .orders import pullback_cover, standard_lex_cone
from .snf import cokernel_from_snf, smith_normal_form


class PresentationData:
    def __init__(self, generators: list[str], relators: list[str],
                 exponent_matrix: list[list[int]], snf_diagonal: list[int], free_rank: int,
                 torsion: list[int], z_surjection: Optional[Homomorphism],
                 witness_cover: Optional[CoverPair], verdict: Verdict):
        self.generators, self.relators = generators, relators
        self.exponent_matrix, self.snf_diagonal = exponent_matrix, snf_diagonal
        self.free_rank, self.torsion = free_rank, torsion
        self.z_surjection, self.witness_cover, self.verdict = z_surjection, witness_cover, verdict

    def abelianization(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "trivial"

    def to_obj(self) -> dict:
        obj = {
            "generators": self.generators,
            "relators": self.relators,
            "exponent_matrix": self.exponent_matrix,
            "snf_diagonal": self.snf_diagonal,
            "free_rank": self.free_rank,
            "torsion": self.torsion,
            "abelianization": self.abelianization(),
            "verdict": self.verdict.to_obj(),
        }
        if self.z_surjection is not None:
            obj["z_surjection"] = [list(img) for img in self.z_surjection.images]
        return obj


def parse_presentation(text: str) -> tuple[list[str], list[str]]:
    """`gens: a b` then zero or more `rel: <word>` lines."""
    gens: list[str] = []
    relators: list[str] = []
    seen_gens = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if seen_gens:
                raise ParseError(f"line {lineno}: duplicate gens line")
            gens = line[len("gens:"):].split()
            seen_gens = True
            for g in gens:
                if not (len(g) == 1 and "a" <= g <= "z"):
                    raise ParseError(f"line {lineno}: generator {g!r} must be one letter a-z")
            if len(set(gens)) != len(gens):
                raise ParseError(f"line {lineno}: repeated generator")
            continue
        if line.startswith("rel:"):
            if not seen_gens:
                raise ParseError(f"line {lineno}: rel before gens")
            relators.append(line[len("rel:"):].strip())
            continue
        raise ParseError(f"line {lineno}: expected 'gens:' or 'rel:', got {line!r}")
    if not seen_gens:
        raise ParseError("missing 'gens:' line")
    return gens, relators


def word_exponents(word: str, gens: list[str]) -> list[int]:
    """Exponent sums of a word; uppercase letters and ^-k are inverses."""
    out = [0] * len(gens)
    for g, exp in word_tokens(word, gens, "unexpected character in word {word!r}",
                              "unknown generator {letter!r} in word {word!r}"):
        out[g] += exp
    return out


def analyze_presentation(text: str, radius: int = 6) -> PresentationData:
    """Abelianize a presentation and, when the free rank is positive, emit
    a ready-made cover certificate.

    The certificate lives on the free group over the presentation's
    generators: the cones factor through the induced map onto Z^r, and
    every relator maps to zero, so membership descends to the presented
    group itself.
    """
    gens, relators = parse_presentation(text)
    matrix = [word_exponents(w, gens) for w in relators]
    d, _, right = (smith_normal_form(matrix) if matrix else
                   ([], [], [[int(i == j) for j in range(len(gens))] for i in range(len(gens))]))
    diag = [d[i][i] for i in range(min(len(d), len(gens)))]
    free_rank, torsion, free_cols = cokernel_from_snf(d, len(gens))

    z_surjection = None
    cover = None
    if free_rank > 0:
        if radius < 1:
            # ball(0) is the identity alone, so no cover of it is nontrivial
            raise ParseError(f"radius must be >= 1 when the free rank is positive, "
                             f"got {radius}")
        model = GroupModel.free(len(gens))
        images = [tuple(right[i][j] for j in free_cols) for i in range(len(gens))]
        if free_rank == 1 and next(v for (v,) in images if v) < 0:
            # a map onto Z is unique up to sign: its first nonzero image is > 0
            images = [(-v,) for (v,) in images]
        z_surjection = Homomorphism(model, GroupModel.zr(free_rank), images=images)
        cover = pullback_cover(model, z_surjection, standard_lex_cone(free_rank), radius)
        verdict = Verdict("verified", radius_checked=radius,
                          note=f"surjection onto Z^{free_rank} found; cover emitted")
    else:
        verdict = Verdict("inconclusive",
                          note="no abelian witness - test inconclusive")
    return PresentationData(
        generators=gens,
        relators=relators,
        exponent_matrix=matrix,
        snf_diagonal=diag,
        free_rank=free_rank,
        torsion=torsion,
        z_surjection=z_surjection,
        witness_cover=cover,
        verdict=verdict,
    )
