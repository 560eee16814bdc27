"""CLI behavior: exit codes, report shapes, determinism, error mapping."""

import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semicover.cli import (
    COMMANDS, DIGIT_CAP, REQUIRED, UsageError, main, parse_args, render_json,
)
from semicover.cones import MAX_SPEC_DEPTH
from semicover.fixtures import fixture, table_text

A_CONE = {"op": "pullback", "images": [[1], [0]], "region": "lex_nonneg"}
B_CONE = {"op": "complement",
          "arg": {"op": "pullback", "images": [[1], [0]], "region": "lex_pos"}}

KLEIN_FP = "gens: a b\nrel: baBa\n"


@pytest.fixture
def cover_files(tmp_path):
    a = tmp_path / "a.cone"
    b = tmp_path / "b.cone"
    a.write_text(json.dumps(A_CONE))
    b.write_text(json.dumps(B_CONE))
    return str(a), str(b)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_klein(tmp_path, capsys):
    fp = tmp_path / "klein.fp"
    fp.write_text(KLEIN_FP)
    code, out = run_cli(capsys, "analyze", "--presentation", str(fp), "--radius", "8")
    assert code == 0
    report = json.loads(out)
    assert report["abelianization"] == "Z + Z/2"
    verdicts = report["cover_certificate"]["verdicts"]
    assert all(v["status"] == "verified" for v in verdicts.values())
    assert report["cover_certificate"]["radius"] == 8


def test_analyze_quaternion_inconclusive(tmp_path, capsys):
    fp = tmp_path / "q8.fp"
    fp.write_text("gens: a b\nrel: a^4\nrel: a^2B^2\nrel: Baba\n")
    code, out = run_cli(capsys, "analyze", "--presentation", str(fp))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["status"] == "inconclusive"
    assert "cover_certificate" not in report


def test_check_cover_overlapping_pair_fails_then_reduces(cover_files, capsys):
    a, b = cover_files
    code, out = run_cli(capsys, "check-cover", "--model", "z^1xC2",
                        "--A", a, "--B", b, "--radius", "8")
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["trivial_intersection"]["status"] == "counterexample"
    assert report["verdicts"]["trivial_intersection"]["witness"] == ["(0,1)"]

    code, out = run_cli(capsys, "check-cover", "--model", "z^1xC2",
                        "--A", a, "--B", b, "--radius", "8", "--reduce")
    assert code == 0
    report = json.loads(out)
    assert all(v["status"] == "verified" for v in report["verdicts"].values())


def test_witness_subcommand(cover_files, capsys):
    a, b = cover_files
    code, out = run_cli(capsys, "witness", "--model", "z^1xC2",
                        "--A", a, "--B", b, "--radius", "8")
    assert code == 0
    report = json.loads(out)
    assert all(v["status"] == "verified" for v in report["verdicts"].values())
    # the emitted kernel cone replays to exactly {0} x C2 on the ball
    from semicover import GroupModel, cone_from_obj, contains

    m = GroupModel.zr(1, (2,))
    kernel = cone_from_obj(m, report["witness"]["kernel"])
    for x in m.ball(6):
        assert contains(m, kernel, x) == (x in ((0, 0), (0, 1)))


def test_witness_depth_exceeded_report(cover_files, capsys, monkeypatch):
    # a descent that stops at its depth budget: exit 1, no witness, and the
    # descent's state in the report
    import semicover.covers as covers_mod
    from semicover.covers import DescentState

    def fake_descent(model, cover, max_depth):
        return DescentState(cover, 0, [], "depth_exceeded")

    monkeypatch.setattr(covers_mod, "minimal_pair_descent", fake_descent)
    a, b = cover_files
    code, out = run_cli(capsys, "witness", "--model", "z^1xC2",
                        "--A", a, "--B", b, "--radius", "3")
    assert code == 1
    report = json.loads(out)
    assert report["outcome"] == "depth_exceeded" and "witness" not in report
    assert report["descent"] == {"outcome": "depth_exceeded", "step": 0, "history": []}


def test_reduce_subcommand(cover_files, capsys):
    a, b = cover_files
    code, out = run_cli(capsys, "reduce", "--model", "z^1xC2",
                        "--A", a, "--B", b, "--radius", "8")
    assert code == 0
    report = json.loads(out)
    assert all(v["status"] == "verified" for v in report["verdicts"].values())
    # the emitted cones replay: the normalized A side is strictly negative
    from semicover import GroupModel, cone_from_obj, contains

    m = GroupModel.zr(1, (2,))
    a_cone = cone_from_obj(m, report["A"])
    assert contains(m, a_cone, (-2, 1)) and contains(m, a_cone, (0, 0))
    assert not contains(m, a_cone, (1, 0)) and not contains(m, a_cone, (0, 1))


def test_descend_subcommand(cover_files, capsys):
    a, b = cover_files
    code, out = run_cli(capsys, "descend", "--model", "z^1xC2",
                        "--A", a, "--B", b, "--radius", "6")
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "already_normal"
    assert report["history"] == []
    assert "normal_subgroup_cone" in report


def test_sigma_fixture(capsys):
    code, out = run_cli(capsys, "sigma", "--fixture", "V4", "--exhaustive")
    assert code == 0
    report = json.loads(out)
    assert report["sigma_g"] == 3 and report["sigma_s"] == 3
    assert report["census"]["all_are_subgroups"] is True
    assert report["two_cover_search"]["covers_found"] == []
    assert all(report["checks"].values())


def test_sigma_table_file(tmp_path, capsys):
    path = tmp_path / "s3.tbl"
    path.write_text(table_text(fixture("S3")))
    code, out = run_cli(capsys, "sigma", "--table", str(path))
    assert code == 0
    assert json.loads(out)["sigma_g"] == 4


def test_sigma_cap_is_a_flag_only(capsys, monkeypatch):
    # the environment sets no cap: at the default of 8, S3 gets its census
    monkeypatch.setenv("SEMICOVER_CAP", "4")
    code, out = run_cli(capsys, "sigma", "--fixture", "S3", "--exhaustive")
    assert code == 0
    assert json.loads(out)["census"]["closed_subsets"] == 6


@pytest.mark.parametrize("cap", ["abc", "0", "-3", "25"])
def test_exit_two_on_bad_cap(capsys, cap):
    code = main(["sigma", "--fixture", "S3", "--exhaustive", "--cap", cap])
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_sigma_cap_range_ends(capsys):
    code, out = run_cli(capsys, "sigma", "--fixture", "C1", "--exhaustive", "--cap", "1")
    assert code == 0 and json.loads(out)["census"]["closed_subsets"] == 1
    code, out = run_cli(capsys, "sigma", "--fixture", "A4", "--exhaustive", "--cap", "24")
    assert code == 0 and json.loads(out)["census"]["closed_subsets"] == 10


@pytest.mark.parametrize("cap", [["--cap", "4"], []], ids=["cap-4", "default-cap"])
def test_sigma_exhaustive_above_cap_is_refused(capsys, cap):
    # the census was asked for on a group past the cap: exit 2, naming the
    # order and the cap, rather than a report without the census
    code = main(["sigma", "--fixture", "A4", "--exhaustive", *cap])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "Traceback" not in captured.err
    assert f"order 12 needs --cap >= 12, got {cap[1] if cap else 8}" in captured.err


def test_exit_two_on_negative_count(capsys):
    code = main(["verify", "--suite", "lemmas", "--count", "-5", "--radius", "4"])
    assert code == 2
    assert "count" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["descend", "witness"])
def test_exit_two_on_negative_max_depth(cover_files, capsys, subcommand):
    a, b = cover_files
    code = main([subcommand, "--model", "z^1xC2", "--A", a, "--B", b,
                 "--radius", "6", "--max-depth", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "max-depth" in err and "Traceback" not in err


def test_exit_two_on_lemma_radius_zero(capsys):
    # ball(0) holds only the identity, so no random cover is nontrivial
    code = main(["verify", "--suite", "lemmas", "--count", "1", "--radius", "0"])
    assert code == 2
    assert "radius" in capsys.readouterr().err


def test_exit_two_on_negative_analyze_radius(tmp_path, capsys):
    fp = tmp_path / "klein.fp"
    fp.write_text(KLEIN_FP)
    code = main(["analyze", "--presentation", str(fp), "--radius", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "radius" in err and "Traceback" not in err


def test_exit_two_on_analyze_radius_zero_with_free_rank(tmp_path, capsys):
    # Z + Z/2 has the quotient Z, but ball(0) holds only the identity, so
    # no cover is certifiable there: an input error, not a negative verdict
    fp = tmp_path / "klein.fp"
    fp.write_text(KLEIN_FP)
    code = main(["analyze", "--presentation", str(fp), "--radius", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "radius" in err and "Traceback" not in err


def test_analyze_radius_zero_without_free_rank_reports(tmp_path, capsys):
    # free rank 0 builds no ball, so radius 0 is fine there
    fp = tmp_path / "q8.fp"
    fp.write_text("gens: a b\nrel: a^4\nrel: a^2B^2\nrel: Baba\n")
    code, out = run_cli(capsys, "analyze", "--presentation", str(fp), "--radius", "0")
    assert code == 0
    assert json.loads(out)["verdict"]["status"] == "inconclusive"


def test_verify_suites(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "finite")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out = run_cli(capsys, "verify", "--suite", "roundtrip", "--radius", "4")
    assert code == 0
    code, out = run_cli(capsys, "verify", "--suite", "lemmas",
                        "--seed", "42", "--count", "8", "--radius", "4")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] == 8 and report["failed"] == 0


def test_reports_are_byte_identical(cover_files, capsys):
    a, b = cover_files
    _, out1 = run_cli(capsys, "check-cover", "--model", "z^1xC2",
                      "--A", a, "--B", b, "--radius", "6")
    _, out2 = run_cli(capsys, "check-cover", "--model", "z^1xC2",
                      "--A", a, "--B", b, "--radius", "6")
    assert out1 == out2
    _, s1 = run_cli(capsys, "verify", "--suite", "lemmas", "--seed", "9",
                    "--count", "4", "--radius", "4")
    _, s2 = run_cli(capsys, "verify", "--suite", "lemmas", "--seed", "9",
                    "--count", "4", "--radius", "4")
    assert s1 == s2


def test_text_format_marks_radius(cover_files, capsys):
    a, b = cover_files
    code, out = run_cli(capsys, "check-cover", "--model", "z^1xC2",
                        "--A", a, "--B", b, "--radius", "6", "--format", "text")
    assert code == 1
    assert "at radius 6" in out


def test_exit_two_on_missing_file(capsys):
    code = main(["analyze", "--presentation", "/nonexistent/x.fp"])
    assert code == 2


def test_exit_two_on_bad_fixture(capsys):
    code = main(["sigma", "--fixture", "NOPE"])
    assert code == 2


def test_exit_two_on_malformed_table(tmp_path, capsys):
    path = tmp_path / "bad.tbl"
    path.write_text("order: 2\n0 1\n")
    code = main(["sigma", "--table", str(path)])
    assert code == 2


def test_exit_two_on_unknown_flag(capsys):
    code = main(["sigma", "--fixture", "V4", "--bogus"])
    assert code == 2


def test_exit_two_on_bad_cone_json(tmp_path, capsys):
    a = tmp_path / "a.cone"
    a.write_text("{not json")
    b = tmp_path / "b.cone"
    b.write_text(json.dumps(B_CONE))
    code = main(["check-cover", "--model", "z^1xC2", "--A", str(a), "--B", str(b)])
    assert code == 2


def _nested_spec(levels: int) -> str:
    """A_CONE as a spec `levels` cone nodes deep: an even number of
    complements around a one-part union.  Written as text, since the json
    encoder itself recurses per level."""
    wraps = levels - 2
    inner = json.dumps({"op": "union", "args": [A_CONE]})
    return '{"op": "complement", "arg": ' * wraps + inner + "}" * wraps


@pytest.mark.parametrize("levels", [500, 5000])
def test_exit_two_on_deeply_nested_cone(tmp_path, capsys, levels):
    # 500 levels used to overflow the stack in cone evaluation and 5000 in
    # json.loads, each ending in a traceback and exit 1
    a = tmp_path / "a.cone"
    a.write_text(_nested_spec(levels))
    b = tmp_path / "b.cone"
    b.write_text(json.dumps(B_CONE))
    code = main(["check-cover", "--model", "z^2", "--A", str(a), "--B", str(b)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_witness_runs_at_the_spec_depth_cap(tmp_path, capsys):
    a = tmp_path / "a.cone"
    a.write_text(_nested_spec(MAX_SPEC_DEPTH))
    b = tmp_path / "b.cone"
    b.write_text(json.dumps(B_CONE))
    code, out = run_cli(capsys, "witness", "--model", "z^1xC2", "--A", str(a), "--B", str(b),
                        "--radius", "3")
    assert code == 0
    assert all(v["status"] == "verified" for v in json.loads(out)["verdicts"].values())


@pytest.mark.parametrize("model, a_cone, extra", [
    ("z^1xC2", {"op": "pullback", "images": [["x"], [0]], "region": "lex_nonneg"}, []),
    ("z^1xC2", {"op": "pullback", "images": [[True], [0]], "region": "lex_nonneg"}, []),
    ("z^1xC2", {"op": "explicit", "elements": [5]}, []),
    ("z^1xC0", A_CONE, []),
    ("free:0", A_CONE, []),
    ("z^1xC2", A_CONE, ["--radius", "0"]),
    ("free:2", {"op": "explicit", "elements": ["a^99999999999999999999999"]}, []),
    ("z^99999999999999999999999", A_CONE, []),
    ("free:1000000000000", A_CONE, []),
    ("free:27", A_CONE, []),
], ids=["string-image", "bool-image", "number-element", "order-zero-factor",
        "free-rank-zero", "radius-zero", "word-over-ball-cap", "z-rank-over-cap",
        "free-rank-over-cap", "free-rank-over-letters"])
def test_exit_two_on_malformed_cover_input(tmp_path, capsys, model, a_cone, extra):
    a = tmp_path / "a.cone"
    a.write_text(json.dumps(a_cone))
    b = tmp_path / "b.cone"
    b.write_text(json.dumps(B_CONE))
    code = main(["check-cover", "--model", model, "--A", str(a), "--B", str(b), *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", ["analyze", "check-cover"])
def test_closed_stdout_keeps_the_exit_code(tmp_path, cover_files, command):
    # the reader of stdout is gone before the CLI writes its report
    fp = tmp_path / "klein.fp"
    fp.write_text(KLEIN_FP)
    a, b = cover_files
    argv = [sys.executable, "-m", "semicover.cli", command] + (
        ["--presentation", str(fp)] if command == "analyze"
        else ["--model", "z^1xC2", "--A", a, "--B", b, "--radius", "8"])
    src = str(Path(__file__).resolve().parent.parent / "src")
    # stdout block-buffered, as it is on a pipe unless PYTHONUNBUFFERED is set
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    whole = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    read, write = os.pipe()
    os.close(read)
    try:
        cut = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert whole.stdout and whole.returncode == (0 if command == "analyze" else 1)
    assert cut.returncode == whole.returncode
    assert b"Traceback" not in cut.stderr and b"Exception ignored" not in cut.stderr


def _run_in_c_locale(*args: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter whose locale encoding is ASCII."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "semicover.cli", *args],
                          capture_output=True, env=env, timeout=120)


def test_inputs_are_read_as_utf8_whatever_the_locale(tmp_path):
    # a valid presentation with an en dash in a comment
    fp = tmp_path / "klein.fp"
    fp.write_bytes(("# the Klein bottle – Z + Z/2\n" + KLEIN_FP).encode())
    run = _run_in_c_locale("analyze", "--presentation", str(fp), "--radius", "2")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["abelianization"] == "Z + Z/2"
    # bytes that are not UTF-8 are still a read error
    fp.write_bytes(b"gens: a b\n# \xe2\x80\nrel: baBa\n")
    run = _run_in_c_locale("analyze", "--presentation", str(fp))
    assert run.returncode == 2 and b"cannot read" in run.stderr and b"utf-8" in run.stderr


def test_output_is_written_as_utf8_whatever_the_locale(tmp_path):
    # the text report echoes the input path, which holds an en dash; in
    # the C locale it reaches argv as undecodable bytes, written back as is
    folder = tmp_path / "klein – bottle"
    folder.mkdir()
    fp = folder / "klein.fp"
    fp.write_text(KLEIN_FP)
    out = tmp_path / "report.txt"
    run = _run_in_c_locale("analyze", "--presentation", str(fp), "--format", "text",
                           "--output", str(out))
    assert run.returncode == 0, run.stderr
    assert f"input: {fp}\n".encode() in out.read_bytes()
    stdout = _run_in_c_locale("analyze", "--presentation", str(fp), "--format", "text")
    assert out.read_bytes() == stdout.stdout


def test_output_file(tmp_path, cover_files, capsys):
    a, b = cover_files
    out_path = tmp_path / "report.json"
    code = main(["check-cover", "--model", "z^1xC2", "--A", a, "--B", b,
                 "--radius", "6", "--output", str(out_path)])
    assert code == 1
    assert json.loads(out_path.read_text())["model"] == "z^1xC2"


@pytest.mark.parametrize("where, reason", [("missing-directory", "No such file or directory"),
                                           ("directory", "Is a directory")])
def test_exit_two_on_unwritable_output(tmp_path, capsys, where, reason):
    path = str(tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path)
    code = main(["sigma", "--fixture", "V4", "--output", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: cannot write {path!r}: {reason}\n"


NINES = "9" * 5000
HUGE = "1" + "0" * 3999
MILLION = "9" * 1_000_000
OVER_HALF = "1" + "0" * (DIGIT_CAP * 3 // 5)
PAST_CAP = f"error: an integer has more than {DIGIT_CAP} digits\n"
ANALYZE = ["analyze", "--presentation", "p.fp", "--radius", "2"]
CHECK_Z = ["check-cover", "--model", "z^1xC2", "--A", "a.cone", "--B", "b.cone"]
CHECK_FREE = ["check-cover", "--model", "free:2", "--A", "a.cone", "--B", "b.cone"]


def pullback_file(image: str) -> str:
    return '{"op": "pullback", "images": [[%s], [0]], "region": "lex_nonneg"}' % image


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter has no int<->str digit limit")
@pytest.mark.parametrize("files, argv, expected, err", [
    ({"p.fp": f"gens: a b\nrel: a^{NINES}b\n"}, ANALYZE, 0, ""),
    ({"p.fp": f"gens: a b c\nrel: a^{HUGE}b^{HUGE}1c^{HUGE}7\nrel: a^{HUGE}3b^{HUGE}c\n"},
     ANALYZE, 0, ""),
    ({"a.cone": pullback_file("1" + "0" * 4999), "b.cone": json.dumps(B_CONE)}, CHECK_Z, 1, ""),
    ({"a.cone": json.dumps({"op": "explicit", "elements": [f"a^{NINES}"]}),
      "b.cone": json.dumps(B_CONE)}, CHECK_FREE, 2, "error: "),
    # past the cap: the conversion is refused at once instead of taking seconds
    ({"p.fp": f"gens: a b\nrel: a^{MILLION}b\n"}, ANALYZE, 2, PAST_CAP),
    ({"p.fp": f"gens: a b c\nrel: a^{OVER_HALF}b^{OVER_HALF}1c\nrel: a^{OVER_HALF}3b^{OVER_HALF}c\n"},
     ANALYZE, 2, PAST_CAP),
    ({"a.cone": pullback_file(MILLION), "b.cone": json.dumps(B_CONE)}, CHECK_Z, 2, PAST_CAP),
    ({"a.cone": json.dumps({"op": "explicit", "elements": [f"a^{MILLION}"]}),
      "b.cone": json.dumps(B_CONE)}, CHECK_FREE, 2, PAST_CAP),
], ids=["relator-exponent", "surjection-image", "pullback-image", "explicit-element",
        "relator-exponent-past-cap", "surjection-image-past-cap", "pullback-image-past-cap",
        "explicit-element-past-cap"])
def test_integers_past_the_digit_limit(tmp_path, capsys, files, argv, expected, err):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    assert main(argv) == expected
    assert time.perf_counter() - start < 2.0  # unbounded, a million digits take 8 s to parse
    captured = capsys.readouterr()
    assert captured.err.startswith(err) and captured.err.count("\n") == (expected == 2)
    assert sys.get_int_max_str_digits() == limit
    if expected == 2:
        assert captured.out == ""
    else:
        assert re.search(r"\d{4301}", captured.out)  # the report holds the integer


def test_cli_import_loads_no_code_generation_modules():
    # dataclasses, with the inspect/ast/dis/tokenize it imports, made up more
    # than half of the CLI's import time, which every command pays
    program = ("import sys; before = set(sys.modules); sys.path.insert(0, 'src'); "
               "import semicover.cli; print(' '.join(sorted(set(sys.modules) - before)))")
    root = Path(__file__).resolve().parent.parent
    run = subprocess.run([sys.executable, "-I", "-c", program], cwd=root,
                         capture_output=True, text=True, timeout=60, check=True)
    loaded = set(run.stdout.split())
    assert "semicover.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})
    # argparse, with the gettext it imports, took 50-100 us to parse each
    # command line, a sixth of a median finite verdict
    assert loaded.isdisjoint({"argparse", "gettext"})


# ---------------------------------------------------------------------------
# The command line: what the parser accepts and refuses
# ---------------------------------------------------------------------------

COMMAND_FLAGS = {
    "analyze": ["--presentation", "--radius", "--output", "--format"],
    "check-cover": ["--model", "--A", "--B", "--reduce", "--radius", "--output", "--format"],
    "reduce": ["--model", "--A", "--B", "--radius", "--output", "--format"],
    "descend": ["--model", "--A", "--B", "--radius", "--max-depth", "--output", "--format"],
    "witness": ["--model", "--A", "--B", "--radius", "--max-depth", "--output", "--format"],
    "sigma": ["--fixture", "--table", "--exhaustive", "--cap", "--radius", "--output",
              "--format"],
    "verify": ["--suite", "--seed", "--count", "--radius", "--output", "--format"],
}
SIDES = ["--model", "z^1xC2", "--A", "{a}", "--B", "{b}"]


def _fill(argv, a, b):
    return [w.replace("{a}", a).replace("{b}", b) for w in argv]


@pytest.mark.parametrize("argv, spelled_out", [
    (["check-cover", "--model=z^1xC2", "--A={a}", "--B={b}", "--radius=3"],
     ["check-cover", *SIDES, "--radius", "3"]),
    (["witness", "--mod", "z^1xC2", "--A", "{a}", "--B", "{b}", "--rad", "4"],
     ["witness", *SIDES, "--radius", "4"]),
    (["descend", *SIDES, "--max=2", "--ra=3"],
     ["descend", *SIDES, "--max-depth", "2", "--radius", "3"]),
    (["check-cover", *SIDES, "--re", "--for", "text"],
     ["check-cover", *SIDES, "--reduce", "--format", "text"]),
    (["check-cover", *SIDES, "--radius", "9", "--format", "text", "--radius", "3",
      "--format", "json"],
     ["check-cover", *SIDES, "--radius", "3"]),
], ids=["equals", "prefixes", "prefix-equals", "prefix-switch", "repeated-flag"])
def test_parser_accepts(cover_files, capsys, argv, spelled_out):
    a, b = cover_files
    assert run_cli(capsys, *_fill(argv, a, b)) == run_cli(capsys, *_fill(spelled_out, a, b))


def test_parser_passes_a_negative_value_to_the_command(capsys):
    code = main(["verify", "--suite", "lemmas", "--count", "-5"])
    err = capsys.readouterr().err
    assert code == 2 and err == "error: cover count must be >= 0, got -5\n"


@pytest.mark.parametrize("command", [None, *COMMAND_FLAGS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_zero_and_lists_every_flag(capsys, command, flag):
    code = main([flag] if command is None else [command, flag])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    for word in COMMAND_FLAGS if command is None else COMMAND_FLAGS[command]:
        assert word in captured.out


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["sigma", "--fixture", "V4", "--bogus"],
    ["check-cover", *SIDES, "--r", "3"],
    ["sigma", "--fixture"],
    ["check-cover", "--model", "z^1xC2", "--A", "--B", "{b}"],
    ["sigma", "--fixture", "V4", "--radius", "x"],
    ["sigma", "--fixture", "V4", "--format", "xml"],
    ["witness", "--model", "z^1xC2", "--A", "{a}"],
    ["sigma", "--fixture", "V4", "--exhaustive=1"],
    ["sigma", "--fixture", "V4", "stray"],
    ["sigma", "--fixture", "V4", "--"],
], ids=["no-subcommand", "unknown-subcommand", "unknown-flag", "ambiguous-prefix",
        "missing-value", "flag-as-value", "bad-int", "bad-choice", "missing-required",
        "switch-with-value", "stray-positional", "double-dash"])
def test_parser_refuses(cover_files, capsys, argv):
    code = main(_fill(argv, *cover_files))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert "Traceback" not in captured.err
    assert re.match(r"semicover[^:]*: error: ", lines[-1])
    assert sum("error:" in line for line in lines) == 1


def _argparse_reference():
    """The argparse parser the CLI used to build, made from the same table."""
    import argparse

    parser = argparse.ArgumentParser(prog="semicover")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (_, about, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=about)
        for flag, convert, default, about in flags:
            if convert is bool:
                p.add_argument(flag, action="store_true", help=about)
            else:
                p.add_argument(flag, required=default is REQUIRED, help=about,
                               default=None if default is REQUIRED else default,
                               **({"choices": convert} if isinstance(convert, tuple)
                                  else {"type": convert}))
    return parser


# values: numbers, negative ones, choices, text, and words that look like flags
_FLAG_VALUES = ["3", "-5", "0", "-1.5", "x", "V4", "lemmas", "text", "xml", "", "-", "a b",
                "-a b", "-x", "--B"]
# stray words: subcommands, unknown or ambiguous flags, '--' and the like; no
# help flags, since argparse let a later -h win over some earlier errors
_STRAYS = ["sigma", "witness", "x", "-x", "-5", "--", "--r", "--m", "--bogus", "--exh=1"]


@st.composite
def _command_lines(draw):
    """A subcommand's required flags and a few others, in any order, each named
    in full or by a prefix (which may be ambiguous), its value after it or
    after '='; half the time one stray word is put in anywhere."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command][2]
    chosen = [f for f in flags if f[2] is REQUIRED] + draw(st.lists(st.sampled_from(flags),
                                                                    max_size=4))
    argv = [command]
    for flag, convert, _, _ in draw(st.permutations(chosen)):
        name = flag[:draw(st.integers(3, len(flag)))]
        value = draw(st.sampled_from(convert if isinstance(convert, tuple) else _FLAG_VALUES))
        if convert is bool:
            argv.append(name)
        elif draw(st.booleans()):
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_STRAYS)))
    return argv


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_command_lines())
def test_parser_agrees_with_argparse(argv):
    try:
        with redirect_stderr(io.StringIO()):
            expected = ("parsed", vars(_argparse_reference().parse_args(argv)))
    except SystemExit as exc:
        expected = ("exit", exc.code)
    try:
        got = ("parsed", vars(parse_args(argv)))
    except UsageError as exc:
        got = ("exit", 2 if exc.args[1] is not None else 0)
    assert got == expected


# ---------------------------------------------------------------------------
# The report writer against json.dumps
# ---------------------------------------------------------------------------

class _OnlyStr:
    """An object that json encodes only through default=str."""

    def __str__(self):
        return 'only "str"\\ \u00e9'


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600')))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**200).map(lambda n: -n),
    st.integers(2**64, 2**200), st.floats(), st.sampled_from([float("inf"), -float("inf"),
                                                              float("nan"), -0.0]),
    _TEXT, st.builds(_OnlyStr))
# dict keys of one type each, since json sorts them: str, int, float, bool or None
_KEYS = (_TEXT, st.integers(), st.floats(allow_nan=False), st.booleans(), st.none())
_VALUES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    *(st.dictionaries(keys, inner, max_size=4) for keys in _KEYS)), max_leaves=20)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_VALUES)
def test_render_json_writes_the_bytes_of_json_dumps(value):
    assert render_json(value) == json.dumps(value, sort_keys=True, indent=2, default=str)
