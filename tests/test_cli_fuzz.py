"""Malformed input through `cli.main`: cone specs, model selectors and
presentation files, each broken in exactly one place.  Every one must exit
2 with a one-line `error:` diagnostic on stderr, nothing on stdout and no
traceback.  Each test runs once per kind of defect, so that every kind is
drawn."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from semicover.cli import main
from semicover.cones import LEX_REGIONS
from semicover.groups import MAX_GENERATORS, parse_model

FUZZ = settings(max_examples=15, deadline=None, derandomize=True, database=None)
IDENTITY = {"op": "identity"}
OPS = ("pullback", "union", "intersection", "complement", "explicit", "identity")
# characters that no element, word or exponent syntax accepts; not '#', the
# comment mark of presentation files, nor the ( ) , + of integer tuples
STRAY = "!$%&*./:;<=>?@[]{}|~"
# one-line text: no control characters and no line or paragraph separators
LINE = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp", "Cs")), max_size=12)
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                         st.floats(allow_nan=False, allow_infinity=False), LINE)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(LINE, inner, max_size=3)), max_leaves=6)
V4_TABLE = "order: 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _assert_input_error(argv) -> str:
    """Runs argv, checks it failed as malformed input, returns stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue()) == (2, ""), err.getvalue()
    assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1
    return err.getvalue()


# ---------------------------------------------------------------------------
# Cone specs
# ---------------------------------------------------------------------------

SPEC_MODELS = ["z^2", "z^1xC2", "free:2", "heisenberg", "klein_bottle", "finite"]
CONE_DEFECTS = ["not_object", "no_op", "unknown_op", "images", "image_count", "wide_images",
                "region", "args", "no_arg", "elements", "element_type", "element_text",
                "mode", "too_deep", "truncated", "not_utf8"]


def _valid_leaves(n: int):
    """Cones on a model with n generators; pullbacks only on infinite models
    (n > 0)."""
    leaves = [st.just(IDENTITY),
              st.sampled_from(["include", "exclude"]).map(
                  lambda mode: {"op": "explicit", "elements": [], "mode": mode})]
    if n:
        images = st.integers(1, 3).flatmap(lambda r: st.lists(
            st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=n, max_size=n))
        leaves.append(st.builds(lambda region, imgs: {"op": "pullback", "region": region,
                                                      "images": imgs},
                                st.sampled_from(LEX_REGIONS), images))
    return st.one_of(leaves)


def _wrapped(draw, node, n: int):
    """The node inside up to three valid union, intersection or complement
    nodes."""
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["union", "intersection", "complement"]))
        if op == "complement":
            node = {"op": op, "arg": node}
        else:
            siblings = draw(st.lists(_valid_leaves(n), max_size=2))
            at = draw(st.integers(0, len(siblings)))
            node = {"op": op, "args": siblings[:at] + [node] + siblings[at:]}
    return node


@st.composite
def _malformed_spec(draw, kind: str, n: int) -> bytes:
    """A spec file on a model with n generators (0: finite), malformed in
    one way: a bad text, or one bad node inside valid ones."""
    valid = draw(_valid_leaves(n))
    if kind in ("truncated", "not_utf8"):
        text = json.dumps(_wrapped(draw, valid, n)).encode()
        # a proper prefix of an object is never JSON
        return text[:draw(st.integers(0, len(text) - 1))] if kind == "truncated" else b"\xff" + text
    pullback = {"op": "pullback", "images": [[1]] * max(n, 1), "region": "lex_pos"}
    if kind == "not_object":
        node = draw(st.one_of(JSON_SCALARS, st.lists(JSON_VALUES, max_size=3)))
    elif kind == "no_op":
        node = {k: v for k, v in draw(st.dictionaries(LINE, JSON_VALUES, max_size=3)).items()
                if k != "op"}
    elif kind == "unknown_op":
        node = {**valid, "op": draw(JSON_VALUES.filter(lambda v: v not in OPS))}
    elif kind == "images":  # not a list, no vectors, or a vector with a non-int
        node = {**pullback, "images": draw(st.one_of(
            JSON_SCALARS, st.just([]), st.just([[]] * max(n, 1)),
            st.lists(st.one_of(JSON_SCALARS, st.lists(st.one_of(
                st.none(), st.booleans(), st.floats(allow_nan=False), LINE), min_size=1)),
                min_size=1, max_size=3)))}
    elif kind == "image_count":
        count = draw(st.integers(0, 4).filter(lambda c: c != n))
        node = {**pullback, "images": [[1] * draw(st.integers(1, 3))] * count}
    elif kind == "wide_images":
        rank = draw(st.integers(MAX_GENERATORS + 1, 2 * MAX_GENERATORS))
        node = {**pullback, "images": [[0] * rank] * max(n, 1)}
    elif kind == "region":
        node = {**pullback, "region": draw(JSON_VALUES.filter(lambda v: v not in LEX_REGIONS))}
    elif kind == "args":
        op = draw(st.sampled_from(["union", "intersection"]))
        args = draw(st.one_of(JSON_SCALARS, st.just([]), st.dictionaries(LINE, JSON_VALUES)))
        node = {"op": op, "args": args} if draw(st.booleans()) else {"op": op}
    elif kind == "no_arg":
        node = {"op": "complement"}
    elif kind == "elements":
        node = {"op": "explicit", "elements": draw(st.one_of(
            JSON_SCALARS, st.dictionaries(LINE, JSON_VALUES, max_size=2)))}
    elif kind == "element_type":
        node = {"op": "explicit", "elements": draw(st.lists(
            JSON_VALUES.filter(lambda v: not isinstance(v, str)), min_size=1, max_size=3))}
    elif kind == "element_text":  # random strings, then one with a stray character
        text, at = draw(LINE), draw(st.integers(0, 12))
        bad = text[:at] + draw(st.sampled_from(STRAY)) + text[at:]
        node = {"op": "explicit", "elements": draw(st.lists(LINE, max_size=2)) + [bad]}
    elif kind == "mode":
        mode = draw(JSON_VALUES.filter(lambda v: v not in ("include", "exclude")))
        node = {"op": "explicit", "elements": [], "mode": mode}
    else:  # too_deep: past MAX_SPEC_DEPTH
        node = valid
        for _ in range(draw(st.integers(100, 110))):
            node = {"op": "complement", "arg": node}
    return json.dumps(_wrapped(draw, node, n)).encode()


@pytest.mark.parametrize("kind", CONE_DEFECTS)
@FUZZ
@given(data=st.data())
def test_malformed_cone_specs_exit_two(workdir, kind, data):
    selector = data.draw(st.sampled_from(SPEC_MODELS))
    if selector == "finite":
        (workdir / "V4.tbl").write_text(V4_TABLE)
        selector, n = f"finite:{workdir / 'V4.tbl'}", 0
    else:
        n = len(parse_model(selector).generators())
    bad, good = workdir / "bad.cone", workdir / "good.cone"
    bad.write_bytes(data.draw(_malformed_spec(kind, n)))
    good.write_text(json.dumps(IDENTITY))
    sides = [str(bad), str(good)]
    if data.draw(st.booleans()):
        sides.reverse()
    _assert_input_error(["check-cover", f"--model={selector}", "--A", sides[0],
                         "--B", sides[1], "--radius", "1"])


# ---------------------------------------------------------------------------
# Model selectors
# ---------------------------------------------------------------------------

SELECTOR_DEFECTS = ["zr", "free", "text", "missing", "directory", "long", "nul",
                    "one_line", "row_count", "entry"]
_ZR = re.compile(r"z\^(\d+)((?:xC\d+)*)")


def _valid_selector(text: str) -> bool:
    """The selector grammar: heisenberg, klein_bottle, finite:<path>, free:k
    with k from 1 to 26, and z^r[xCn...] with every n >= 1 and at most
    MAX_GENERATORS generators."""
    sel = text.strip()
    if sel in ("heisenberg", "klein_bottle") or sel.startswith("finite:"):
        return True
    if sel.startswith("free:"):
        try:
            return 1 <= int(sel[len("free:"):]) <= 26
        except ValueError:
            return False
    m = _ZR.fullmatch(sel)
    orders = [int(o) for o in re.findall(r"xC(\d+)", m.group(2))] if m else []
    return bool(m) and 0 not in orders and int(m.group(1)) + len(orders) <= MAX_GENERATORS


@st.composite
def _malformed_selector(draw, kind: str, workdir) -> str:
    """A selector off the grammar, or finite:<path> naming no file, a
    directory, a path too long or with a NUL byte, or a file that is no
    group table: one line of text, a row count other than the order, or
    one entry, or the order, out of range or not an ASCII decimal numeral."""
    if kind in ("zr", "free", "text"):
        drawn = {
            "zr": st.builds(lambda r, orders, tail: f"z^{r}" + "".join(f"xC{o}" for o in orders)
                            + tail, st.integers(0, 2 * MAX_GENERATORS),
                            st.lists(st.integers(0, 9), max_size=MAX_GENERATORS + 2),
                            st.one_of(st.just(""), LINE)),
            "free": st.one_of(st.integers(-30, 10**6).map(str), LINE).map(lambda t: "free:" + t),
            "text": LINE,
        }[kind]
        return draw(drawn.filter(lambda s: not _valid_selector(s)))
    if kind == "missing":
        return f"finite:{workdir / 'missing'}{draw(LINE).replace('/', '')}.tbl"
    if kind == "directory":
        return f"finite:{workdir}"
    if kind == "long":
        return f"finite:{workdir / ('t' * 300)}"
    if kind == "nul":
        return f"finite:{workdir}/\x00{draw(LINE)}"
    n = draw(st.integers(1, 4))
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]  # the cyclic group's table
    order = str(n)
    if kind == "row_count":
        rows = (rows * 2)[:draw(st.integers(0, n + 2).filter(lambda c: c != n))]
    elif kind == "entry":
        # int() reads 0_0, +1 and a fullwidth 0; only ASCII decimal numerals are entries
        bad = draw(st.sampled_from([-1, n, n + 7, "x", "1.5", "#", "0_0", "+1", "\uff10",
                                    "order"]))
        if bad == "order":
            order = chr(0x660 + n)  # the order in an Arabic-Indic digit
        else:
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = bad
    text = f"order: {order}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
    (workdir / "bad.tbl").write_text(draw(LINE) if kind == "one_line" else text)
    return f"finite:{workdir / 'bad.tbl'}"


@pytest.mark.parametrize("kind", SELECTOR_DEFECTS)
@FUZZ
@given(data=st.data())
def test_malformed_model_selectors_exit_two(workdir, kind, data):
    selector = data.draw(_malformed_selector(kind, workdir))
    cone = workdir / "id.cone"
    cone.write_text(json.dumps(IDENTITY))
    _assert_input_error(["check-cover", f"--model={selector}", "--A", str(cone),
                         "--B", str(cone), "--radius", "1"])


@pytest.mark.parametrize("text,row", [
    ("order: 1\n0_0\n", "'0_0'"),
    ("order: 2\n0 +1\n1 0\n", "'0 +1'"),
    ("order: 1\n\uff10\n", "'\uff10'"),
    ("order: \u0662\n0 1\n1 0\n", "'order: \u0662'"),
    # separators: only spaces and tabs part entries, only a line feed ends a row
    ("order: 2\n0\u30001\u20281 0\n", r"'0\u30001\u20281 0'"),
    ("order: 2\n0 1\u20281 0\n", r"'0 1\u20281 0'"),
    ("order: 2\n0 1\x851 0\n", r"'0 1\x851 0'"),
    ("order:\u00a02\n0 1\n1 0\n", r"'order:\xa02'"),
], ids=["underscore", "plus", "fullwidth", "arabic_indic_order", "ideographic_space",
        "line_separator", "next_line", "no_break_space_order"])
def test_table_entries_are_ascii_decimal_numerals(workdir, text, row):
    # int() reads each of these spellings; the table format does not
    path = workdir / "numerals.tbl"
    path.write_text(text, encoding="utf-8")
    assert row in _assert_input_error(["sigma", "--table", str(path)])


# ---------------------------------------------------------------------------
# Presentation files
# ---------------------------------------------------------------------------

PRESENTATION_DEFECTS = ["stray_line", "no_gens", "rel_first", "bad_generator",
                        "non_ascii_generator", "repeated_generator", "second_gens",
                        "unknown_letter", "stray_character"]
LETTERS = "abcdefgh"


@st.composite
def _words(draw, gens):
    tokens = draw(st.lists(st.tuples(st.sampled_from(gens), st.booleans(),
                                     st.sampled_from(["", "^2", "^-1", "^12"])), max_size=4))
    return "".join((g.upper() if up else g) + exp for g, up, exp in tokens) or "1"


def _skipped_lines():
    """Lines the parser skips: blank ones and comments."""
    return st.lists(st.sampled_from(["", "   ", "# a comment", "  # gens: x"]), max_size=2)


@st.composite
def _malformed_presentation(draw, kind: str) -> str:
    gens = draw(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=4, unique=True))
    lines = ["gens: " + " ".join(gens)] + [f"rel: {w}" for w in draw(st.lists(_words(gens),
                                                                            max_size=3))]
    if kind == "stray_line":
        def stray(t):
            body = t.split("#", 1)[0].strip()
            return body and not body.startswith(("gens:", "rel:"))
        lines.insert(draw(st.integers(0, len(lines))), draw(LINE.filter(stray)))
    elif kind == "no_gens":
        lines = []
    elif kind == "rel_first":
        lines.insert(0, f"rel: {draw(_words(gens))}")
    elif kind == "bad_generator":
        token = draw(st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp", "Zs", "Cs"),
                                           blacklist_characters="#"), min_size=1, max_size=3)
                     .filter(lambda t: not (len(t) == 1 and t.isalpha() and t.islower())))
        gens.insert(draw(st.integers(0, len(gens))), token)
        lines[0] = "gens: " + " ".join(gens)
    elif kind == "non_ascii_generator":
        # a lowercase letter outside a-z, which no relator word can spell
        letter = draw(st.characters(whitelist_categories=("Ll",))
                      .filter(lambda c: not "a" <= c <= "z"))
        gens.insert(draw(st.integers(0, len(gens))), letter)
        lines[0] = "gens: " + " ".join(gens)
    elif kind == "repeated_generator":
        lines[0] += " " + draw(st.sampled_from(gens))
    elif kind == "second_gens":
        lines.insert(draw(st.integers(1, len(lines))), lines[0])
    else:
        if kind == "unknown_letter":
            letter = draw(st.sampled_from([c for c in LETTERS + "xyz" if c not in gens]))
            insert = letter.upper() if draw(st.booleans()) else letter
        else:
            insert = draw(st.sampled_from(STRAY))
        word = draw(_words(gens))
        at = draw(st.integers(0, len(word)))
        lines.append(f"rel: {word[:at]}{insert}{word[at:]}")
    padded = []
    for line in lines:
        padded += draw(_skipped_lines()) + [line]
    return "\n".join(padded + draw(_skipped_lines())) + "\n"


@pytest.mark.parametrize("kind", PRESENTATION_DEFECTS)
@FUZZ
@given(data=st.data())
def test_malformed_presentations_exit_two(workdir, kind, data):
    fp = workdir / "bad.fp"
    fp.write_text(data.draw(_malformed_presentation(kind)))
    _assert_input_error(["analyze", "--presentation", str(fp), "--radius", "1"])
