"""Golden reports: CLI output on the bundled inputs and on `sigma` for every
group of the finite corpus, compared byte for byte.

Each case runs `semicover.cli.main` and compares its stdout and exit code
with the files under tests/golden/.  `analyze` reports name their input
path, so that one line is dropped before comparing.  To rewrite the goldens
after an intended change of the reports, run this file as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from semicover.cli import main
from semicover.fixtures import CORPUS

INPUTS = Path(__file__).resolve().parent.parent / "inputs"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
_INPUT_LINE = re.compile(r'^  "input": .*\n', re.MULTILINE)


def _cases() -> dict:
    """{case name: argv} for every golden report."""
    cases = {}
    sides = {"nonneg": INPUTS / "zc2_nonneg.cone", "nonpos": INPUTS / "zc2_nonpos.cone"}
    for a, b in (("nonneg", "nonpos"), ("nonpos", "nonneg")):
        for radius in (3, 6):
            for command, extra in (("witness", []), ("check-cover", ["--reduce"]),
                                   ("reduce", []), ("descend", [])):
                cases[f"{command}_{a}_{b}_r{radius}"] = [
                    command, "--model", "z^1xC2", "--A", str(sides[a]),
                    "--B", str(sides[b]), "--radius", str(radius), *extra]
    # cones on a finite model: S3's rotations, and the reflections with the identity
    s3 = {"rotations": INPUTS / "s3_rotations.cone", "reflections": INPUTS / "s3_reflections.cone"}
    for a, b in (("rotations", "reflections"), ("reflections", "rotations")):
        for name, command, extra in (("check-cover", "check-cover", []),
                                     ("check-cover_reduce", "check-cover", ["--reduce"]),
                                     ("witness", "witness", [])):
            cases[f"{name}_S3_{a}_{b}"] = [
                command, "--model", f"finite:{INPUTS / 'S3.tbl'}", "--A", str(s3[a]),
                "--B", str(s3[b]), *extra]
    for path in sorted(INPUTS.glob("*.fp")):
        cases[f"analyze_{path.stem}"] = ["analyze", "--presentation", str(path)]
    for path in sorted(INPUTS.glob("*.tbl")):
        cases[f"sigma_{path.stem}"] = ["sigma", "--exhaustive", "--table", str(path)]
    for name in CORPUS:
        cases[f"sigma_fixture_{name}"] = ["sigma", "--fixture", name, "--exhaustive",
                                          "--cap", "12"]
    return cases


CASES = _cases()


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    out = buf.getvalue()
    if argv[0] == "analyze":
        out = _INPUT_LINE.sub("", out)
    return code, out


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, out = _run(CASES[name])
    assert out == (GOLDEN / f"{name}.json").read_text()
    assert code == json.loads(EXIT_CODES.read_text())[name]


def test_every_golden_has_a_case():
    stored = {p.stem for p in GOLDEN.glob("*.json")} - {EXIT_CODES.stem}
    assert stored == set(CASES)
    assert set(json.loads(EXIT_CODES.read_text())) == set(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], text = _run(argv)
        (GOLDEN / f"{case}.json").write_text(text)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} goldens to {GOLDEN}")
