"""Command-line front end.

Exit codes: 0 verified/success, 1 counterexample or negative verdict (the
report carries a replayable witness), 2 input errors (single-line
diagnostic naming the offending file or flag).  JSON is the canonical
output; the text renderer is derived from it and prefixes every
ball-local verdict with its radius.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import fixtures
from .cones import cone_from_obj, cone_to_obj, is_cover_pair
from .covering import (
    DEFAULT_EXHAUSTIVE_CAP,
    DEFAULT_SUBGROUP_CAP,
    scorza_check,
    sigma_g,
    sigma_s_finite,
    subsemigroup_census,
    two_cover_search,
)
from .covers import minimal_pair_descent, order_witness_from_cover, reduce_cover
from .errors import (
    DepthExceeded,
    SemicoverError,
    BallTooLarge,
    GroupTooLarge,
    InvalidElement,
    MalformedTable,
    MatrixTooLarge,
    ModelMismatch,
    NotAGroup,
    ParseError,
    UnknownSuite,
)
from .groups import load_finite_group, parse_model
from .presentations import analyze_presentation
from .suites import run_suite

INPUT_ERRORS = (
    ParseError, MalformedTable, NotAGroup, InvalidElement, ModelMismatch,
    MatrixTooLarge, GroupTooLarge, UnknownSuite, BallTooLarge, json.JSONDecodeError,
)


def _read(path: str) -> str:
    """An input file's text; a path naming no readable file, or a file that
    is not UTF-8 text, is an input error."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror}") from None
    except ValueError as exc:  # a NUL byte in the path, or bytes that are not UTF-8
        raise ParseError(f"cannot read {path!r}: {exc}") from None


def _load_model(selector: str):
    def loader(path):
        return load_finite_group(_read(path), name=Path(path).stem)

    return parse_model(selector, loader=loader)


def _load_cone(model, path: str):
    try:
        obj = json.loads(_read(path))
    except RecursionError:
        raise ParseError(f"{path}: JSON nests too deeply") from None
    return cone_from_obj(model, obj)


def _exhaustive_cap(args) -> int:
    """`SEMICOVER_CAP`, else `--cap`, else the default; 1 to DEFAULT_SUBGROUP_CAP."""
    raw = os.environ.get("SEMICOVER_CAP", args.cap)
    if raw is None:
        return DEFAULT_EXHAUSTIVE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if not 1 <= cap <= DEFAULT_SUBGROUP_CAP:
        raise ParseError(f"exhaustive cap {raw!r} is not an integer from 1 to "
                         f"{DEFAULT_SUBGROUP_CAP}")
    return cap


# ---------------------------------------------------------------------------
# Subcommands (each returns (exit_code, report))
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> tuple[int, dict]:
    if args.radius < 0:
        raise ParseError(f"--radius must be >= 0, got {args.radius}")
    text = _read(args.presentation)
    data = analyze_presentation(text, radius=args.radius)
    report = {"command": "analyze", "input": args.presentation}
    report.update(data.to_obj())
    if data.witness_cover is not None:
        report["cover_certificate"] = data.witness_cover.to_obj()
        ok = all(v.ok for v in data.witness_cover.flags.values())
        return (0 if ok else 1), report
    return 0, report


def _cover_args(args):
    model = _load_model(args.model)
    if not model.is_finite and args.radius < 1:
        raise ParseError(f"--radius must be >= 1 on {args.model}, got {args.radius}")
    a = _load_cone(model, args.A)
    b = _load_cone(model, args.B)
    return model, a, b


def _descent_args(args):
    if args.max_depth < 0:
        raise ParseError(f"--max-depth must be >= 0, got {args.max_depth}")
    return _cover_args(args)


def cmd_check_cover(args) -> tuple[int, dict]:
    model, a, b = _cover_args(args)
    if args.reduce:
        pair = reduce_cover(model, a, b, args.radius)
    else:
        pair = is_cover_pair(model, a, b, args.radius, check_duality=True)
    report = {"command": "check-cover", "reduced": bool(args.reduce)}
    report.update(pair.to_obj())
    ok = all(v.ok for v in pair.flags.values())
    return (0 if ok else 1), report


def cmd_reduce(args) -> tuple[int, dict]:
    model, a, b = _cover_args(args)
    pair = reduce_cover(model, a, b, args.radius)
    report = {"command": "reduce"}
    report.update(pair.to_obj())
    ok = all(v.ok for v in pair.flags.values())
    return (0 if ok else 1), report


def cmd_descend(args) -> tuple[int, dict]:
    model, a, b = _descent_args(args)
    pair = reduce_cover(model, a, b, args.radius)
    state = minimal_pair_descent(model, pair, args.max_depth, args.radius)
    report = {"command": "descend"}
    report.update(state.to_obj())
    report["final_pair"] = state.current.to_obj()
    if state.normal is not None:
        report["normal_subgroup_cone"] = cone_to_obj(state.normal)
    return (0 if state.succeeded else 1), report


def cmd_witness(args) -> tuple[int, dict]:
    model, a, b = _descent_args(args)
    report = {"command": "witness", "model": args.model, "radius": args.radius}
    try:
        witness, verdicts = order_witness_from_cover(model, a, b, args.radius, args.max_depth)
    except DepthExceeded as exc:
        report["outcome"] = "depth_exceeded"
        if exc.state is not None:
            report["descent"] = exc.state.to_obj()
        return 1, report
    report["witness"] = witness.to_obj()
    report["verdicts"] = {k: v.to_obj(model) for k, v in sorted(verdicts.items())}
    return 0, report


def cmd_sigma(args) -> tuple[int, dict]:
    if args.fixture:
        group = fixtures.fixture(args.fixture)
    elif args.table:
        group = load_finite_group(_read(args.table), name=Path(args.table).stem)
    else:
        raise ParseError("sigma needs --fixture or --table")
    cap = _exhaustive_cap(args)
    res_g = sigma_g(group)
    exhaustive = args.exhaustive and group.order <= cap
    census = subsemigroup_census(group, cap) if exhaustive else None
    res_s = sigma_s_finite(group, res_g, census)
    left, right = scorza_check(group, res_g)
    checks = {
        "sigma_identity": res_g.sigma_g == res_s.sigma_s,
        "sigma_not_2_or_7": res_g.sigma_g not in (2, 7),
        "klein_quotient_criterion_agreement": left == right,
    }
    report = {
        "command": "sigma",
        "group": group.name,
        "order": group.order,
        "sigma_g": res_g.sigma_g if res_g.sigma_g is not None else "undefined",
        "sigma_s": res_s.sigma_s if res_s.sigma_s is not None else "undefined",
        "witness_cover": res_g.witness_cover,
        "method": res_s.method,
        "checks": checks,
        "covering_number_three": left,
        "has_klein_four_quotient": right,
    }
    if census is not None:
        search = two_cover_search(group, census)
        report["census"] = {
            "closed_subsets": len(census.closed_subsets),
            "all_are_subgroups": census.all_are_subgroups,
        }
        report["two_cover_search"] = {
            "pairs_checked": search["pairs_checked"],
            "covers_found": search["covers_found"],
        }
        checks["census_subgroups"] = census.all_are_subgroups
        checks["no_two_cover"] = not search["covers_found"]
    ok = all(checks.values())
    return (0 if ok else 1), report


def cmd_verify(args) -> tuple[int, dict]:
    report = run_suite(args.suite, seed=args.seed, radius=args.radius, count=args.count)
    report["command"] = "verify"
    return (0 if report.get("ok") else 1), report


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        if "status" in obj and "radius_checked" in obj:
            extra = f" at radius {obj['radius_checked']}" if obj["radius_checked"] else ""
            line = f"{pad}{obj['status']}{extra}"
            if obj.get("witness") is not None:
                line += f"  witness: {obj['witness']}"
            if obj.get("note"):
                line += f"  ({obj['note']})"
            return line
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
        return "\n".join(lines)
    if isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(render_text(val, indent))
            else:
                lines.append(f"{pad}- {val}")
        return "\n".join(lines)
    return f"{pad}{obj}"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later
    call: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="semicover",
        description="Two-subsemigroup covers, left-order witnesses, and "
                    "finite covering numbers",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, depth=False):
        p.add_argument("--radius", type=int, default=6, help="verification ball radius")
        if depth:
            p.add_argument("--max-depth", type=int, default=8, help="descent step budget")
        p.add_argument("--output", default=None, help="write the report to a file")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("analyze", help="abelianize a presentation file")
    p.add_argument("--presentation", required=True)
    common(p)
    p.set_defaults(func=cmd_analyze)

    for name, func, depth in (
        ("check-cover", cmd_check_cover, False),
        ("reduce", cmd_reduce, False),
        ("descend", cmd_descend, True),
        ("witness", cmd_witness, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--model", required=True, help="model selector string")
        p.add_argument("--A", required=True, help="cone spec file for side A")
        p.add_argument("--B", required=True, help="cone spec file for side B")
        if name == "check-cover":
            p.add_argument("--reduce", action="store_true",
                           help="normalize before checking")
        common(p, depth=depth)
        p.set_defaults(func=func)

    p = sub.add_parser("sigma", help="covering numbers of a finite group")
    p.add_argument("--fixture", default=None, help="bundled fixture name")
    p.add_argument("--table", default=None, help="Cayley table file")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--cap", type=int, default=None, help="exhaustive order cap")
    common(p)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("verify", help="run a bundled verification suite")
    p.add_argument("--suite", required=True, choices=("lemmas", "roundtrip", "finite"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100, help="random cover count (lemmas)")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


DIGIT_CAP = 100_000  # int<->str conversion is quadratic: 0.1 s at this size


def main(argv=None) -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(DIGIT_CAP)
    try:
        return _run(argv)
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: an integer has more than {DIGIT_CAP} digits", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, report = args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SemicoverError as exc:
        code, report = 1, {"command": args.subcommand, "error": type(exc).__name__,
                           "message": str(exc)}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            report["witness"] = [repr(w) for w in witness]
    try:
        _emit(args, report)
    except BrokenPipeError:
        # the reader closed stdout early: the report's verdict stands, and
        # with stdout on devnull the interpreter's last flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _emit(args, report: dict) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2, default=str)
    else:
        text = render_text(report)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text, flush=True)


if __name__ == "__main__":
    sys.exit(main())
