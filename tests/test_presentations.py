"""Presentation parsing and the abelian witness test."""

import math
import random

import pytest

from semicover.errors import ParseError
from semicover.presentations import analyze_presentation, parse_presentation, word_exponents

KLEIN = "gens: a b\nrel: baBa\n"
QUATERNION = "gens: a b\nrel: a^4\nrel: a^2B^2\nrel: Baba\n"
FREE2 = "gens: a b\n"


def test_parse_basic():
    gens, rels = parse_presentation(KLEIN)
    assert gens == ["a", "b"]
    assert rels == ["baBa"]


def test_parse_comments_and_blanks():
    gens, rels = parse_presentation("# klein\n\ngens: a b\nrel: baBa  # relator\n")
    assert gens == ["a", "b"] and rels == ["baBa"]


@pytest.mark.parametrize("text", [
    "rel: ab\n",                 # relator before generators
    "gens: a b\ngens: c\n",      # duplicate gens line
    "gens: ab\n",                # multi-letter generator
    "gens: a a\n",               # repeated generator
    "gens: a b\nnope\n",         # unknown line
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_presentation(text)


def test_unknown_letter_in_relator():
    with pytest.raises(ParseError):
        analyze_presentation("gens: a\nrel: ab\n")


def test_word_exponents():
    assert word_exponents("baBa", ["a", "b"]) == [2, 0]
    assert word_exponents("a^4", ["a", "b"]) == [4, 0]
    assert word_exponents("a^2B^2", ["a", "b"]) == [2, -2]
    assert word_exponents("Baba", ["a", "b"]) == [2, 0]
    assert word_exponents("1", ["a", "b"]) == [0, 0]


def test_free_two_generators():
    data = analyze_presentation(FREE2, radius=5)
    assert data.free_rank == 2
    assert data.torsion == []
    assert data.abelianization() == "Z + Z"
    assert data.witness_cover is not None
    assert all(v.ok for v in data.witness_cover.flags.values())


def test_klein_bottle_presentation():
    data = analyze_presentation(KLEIN, radius=6)
    assert data.exponent_matrix == [[2, 0]]
    assert data.free_rank == 1
    assert data.torsion == [2]
    assert data.abelianization() == "Z + Z/2"
    assert data.z_surjection.images == ((0,), (1,))
    assert all(v.ok for v in data.witness_cover.flags.values())
    # relators die under the surjection
    for row in data.exponent_matrix:
        img = [sum(e * data.z_surjection.images[i][j] for i, e in enumerate(row))
               for j in range(data.free_rank)]
        assert all(v == 0 for v in img)


def test_quaternion_presentation_inconclusive():
    data = analyze_presentation(QUATERNION)
    assert data.free_rank == 0
    assert data.torsion == [2, 2]
    assert data.abelianization() == "Z/2 + Z/2"
    assert data.z_surjection is None
    assert data.witness_cover is None
    assert data.verdict.status == "inconclusive"
    assert "inconclusive" in data.verdict.note


def test_single_generator_free():
    data = analyze_presentation("gens: a\n", radius=6)
    assert data.free_rank == 1
    assert data.witness_cover is not None


def test_report_object_shape():
    obj = analyze_presentation(KLEIN).to_obj()
    assert obj["abelianization"] == "Z + Z/2"
    assert obj["snf_diagonal"] == [2]
    assert obj["z_surjection"] == [[0], [1]]


def exponent_text(gens, rows):
    lines = ["gens: " + " ".join(gens)]
    for row in rows:
        lines.append("rel: " + ("".join(f"{g}^{e}" for g, e in zip(gens, row) if e) or "1"))
    return "\n".join(lines) + "\n"


def test_rank_one_surjection_is_canonical():
    """A map onto Z is unique up to sign, and the reported one has a
    positive first nonzero image, so it does not depend on the order or
    signs of the relators, nor on trivial ones."""
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 6)
        gens = [chr(ord("a") + i) for i in range(n)]
        rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n - 1)]
        data = analyze_presentation(exponent_text(gens, rows), radius=1)
        if data.free_rank != 1:
            continue
        images = data.z_surjection.images
        values = [v for (v,) in images]
        assert next(v for v in values if v) > 0
        assert math.gcd(*values) == 1
        assert all(sum(e * v for e, v in zip(row, values)) == 0 for row in rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        for variant in (shuffled, [[-e for e in rows[0]]] + rows[1:], rows + [[0] * n]):
            again = analyze_presentation(exponent_text(gens, variant), radius=1)
            assert again.z_surjection.images == images, (rows, variant)
        checked += 1
