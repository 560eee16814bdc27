"""Command-line front end.

Exit codes: 0 verified/success, 1 counterexample or negative verdict (the
report carries a replayable witness), 2 input errors (single-line
diagnostic naming the offending file or flag).  JSON is the canonical
output; the text renderer is derived from it and prefixes every
ball-local verdict with its radius.
"""

from __future__ import annotations

import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path
from types import SimpleNamespace

from . import fixtures
from .cones import cone_from_obj, cone_to_obj, is_cover_pair
from .covering import DEFAULT_EXHAUSTIVE_CAP, DEFAULT_SUBGROUP_CAP, subsemigroup_census
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
from .suites import run_suite, sigma_report

INPUT_ERRORS = (
    ParseError, MalformedTable, NotAGroup, InvalidElement, ModelMismatch,
    MatrixTooLarge, GroupTooLarge, UnknownSuite, BallTooLarge, json.JSONDecodeError,
)


def _on_file(path: str, verb: str, action):
    """`action(Path(path))`; a path that names no file it can `verb` (read or
    write), or a file that is not UTF-8 text, is an input error."""
    try:
        return action(Path(path))
    except OSError as exc:
        raise ParseError(f"cannot {verb} {path!r}: {exc.strerror}") from None
    except ValueError as exc:  # a NUL byte in the path, or bytes that are not UTF-8
        raise ParseError(f"cannot {verb} {path!r}: {exc}") from None


def _read(path: str) -> str:
    """The file's text, read as UTF-8 whatever the locale."""
    return _on_file(path, "read", lambda p: p.read_bytes().decode())


def _load_model(selector: str):
    return parse_model(selector, loader=lambda path: load_finite_group(
        _read(path), name=Path(path).stem))


def _load_cone(model, path: str):
    try:
        obj = json.loads(_read(path))
    except RecursionError:
        raise ParseError(f"{path}: JSON nests too deeply") from None
    return cone_from_obj(model, obj)


def _exhaustive_cap(args) -> int:
    """`--cap`, else the default; 1 to DEFAULT_SUBGROUP_CAP."""
    if args.cap is None:
        return DEFAULT_EXHAUSTIVE_CAP
    if not 1 <= args.cap <= DEFAULT_SUBGROUP_CAP:
        raise ParseError(f"exhaustive cap {args.cap} is not an integer from 1 to "
                         f"{DEFAULT_SUBGROUP_CAP}")
    return args.cap


# ---------------------------------------------------------------------------
# Subcommands (each returns (exit_code, report))
# ---------------------------------------------------------------------------

def _holds(pair) -> int:
    """The exit code of a cover pair: 0 when every verdict holds."""
    return 0 if all(v.ok for v in pair.flags.values()) else 1


def cmd_analyze(args) -> tuple[int, dict]:
    if args.radius < 0:
        raise ParseError(f"--radius must be >= 0, got {args.radius}")
    data = analyze_presentation(_read(args.presentation), radius=args.radius)
    report = {"command": "analyze", "input": args.presentation, **data.to_obj()}
    if data.witness_cover is None:
        return 0, report
    report["cover_certificate"] = data.witness_cover.to_obj()
    return _holds(data.witness_cover), report


def _cover_args(args):
    model = _load_model(args.model)
    if not model.is_finite and args.radius < 1:
        raise ParseError(f"--radius must be >= 1 on {args.model}, got {args.radius}")
    return model, _load_cone(model, args.A), _load_cone(model, args.B)


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
    return _holds(pair), {"command": "check-cover", "reduced": args.reduce, **pair.to_obj()}


def cmd_reduce(args) -> tuple[int, dict]:
    model, a, b = _cover_args(args)
    pair = reduce_cover(model, a, b, args.radius)
    return _holds(pair), {"command": "reduce", **pair.to_obj()}


def cmd_descend(args) -> tuple[int, dict]:
    model, a, b = _descent_args(args)
    pair = reduce_cover(model, a, b, args.radius)
    state = minimal_pair_descent(model, pair, args.max_depth)
    report = {"command": "descend", **state.to_obj(), "final_pair": state.current.to_obj()}
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
    if args.exhaustive and group.order > cap:
        raise ParseError(f"--exhaustive on a group of order {group.order} needs --cap >= "
                         f"{group.order}, got {cap}")
    census = subsemigroup_census(group, cap) if args.exhaustive else None
    report = {"command": "sigma", **sigma_report(group, census)}
    return (0 if all(report["checks"].values()) else 1), report


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


def render_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2, default=str)`, byte for byte,
    at a fraction of the cost of json's pure-Python indented encoder (which
    also refuses dict keys other than str, int, float, bool and None)."""
    parts: list[str] = []
    _write_json(obj, parts, "\n")
    return "".join(parts)


def _write_json(obj, parts: list, newline: str) -> None:
    if isinstance(obj, str):
        parts.append(_string(obj))
    elif isinstance(obj, (dict, list, tuple)):
        is_dict, inner = isinstance(obj, dict), newline + "  "
        opening, closing = "{}" if is_dict else "[]"
        parts.append(opening)
        for i, item in enumerate(sorted(obj.items()) if is_dict else obj):
            parts.append("," + inner if i else inner)
            if is_dict:  # json spells a None, bool, int or float key as that value
                key, item = item
                parts += _string(key if isinstance(key, str) else render_json(key)), ": "
            _write_json(item, parts, inner)
        parts.append(newline + closing if obj else closing)
    elif obj is None or obj is True or obj is False:
        parts.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        parts.append("NaN" if obj != obj else float.__repr__(obj) if obj - obj == 0
                     else "Infinity" if obj > 0 else "-Infinity")
    else:
        parts.append(_string(str(obj)))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# COMMANDS maps a subcommand to (handler, help, flags).  A flag is (name,
# converter, default, help): the converter is int, str, a tuple of choices,
# or bool for a switch, and a default of REQUIRED makes the flag required
REQUIRED = object()
_COMMON = (("--radius", int, 6, "verification ball radius"),
           ("--output", str, None, "write the report to a file"),
           ("--format", ("json", "text"), "json", "report format: json or text"))
_DEPTH = (("--max-depth", int, 8, "descent step budget"),)
_SIDES = (("--model", str, REQUIRED, "model selector string"),
          ("--A", str, REQUIRED, "cone spec file for side A"),
          ("--B", str, REQUIRED, "cone spec file for side B"))
COMMANDS = {
    "analyze": (cmd_analyze, "abelianize a presentation file",
                (("--presentation", str, REQUIRED, "presentation file"),) + _COMMON),
    "check-cover": (cmd_check_cover, "check that two cones cover the group", _SIDES + (
        ("--reduce", bool, False, "normalize before checking"),) + _COMMON),
    "reduce": (cmd_reduce, "normalize a cover", _SIDES + _COMMON),
    "descend": (cmd_descend, "descend to a cover with a normal shared part",
                _SIDES + _DEPTH + _COMMON),
    "witness": (cmd_witness, "left-order witness from a cover", _SIDES + _DEPTH + _COMMON),
    "sigma": (cmd_sigma, "covering numbers of a finite group", (
        ("--fixture", str, None, "bundled fixture name"),
        ("--table", str, None, "Cayley table file"),
        ("--exhaustive", bool, False, "run the subsemigroup census"),
        ("--cap", int, None, "exhaustive order cap")) + _COMMON),
    "verify": (cmd_verify, "run a bundled verification suite", (
        ("--suite", ("lemmas", "roundtrip", "finite"), REQUIRED, "lemmas, roundtrip or finite"),
        ("--seed", int, 0, "random seed"),
        ("--count", int, 100, "random cover count (lemmas)")) + _COMMON),
}
# a word read as a flag, not as a value: a dash and more, no space, not a number
_FLAG_WORD = re.compile(r"(?!-\d+\Z|-\d*\.\d+\Z)-[^ ]+\Z")


class UsageError(Exception):
    """(subcommand or None, message) of a refused command line; None asks for help."""


def _help(command) -> str:
    rows = ([(name, spec[1]) for name, spec in COMMANDS.items()] if command is None else
            [(f + " (required)" * (d is REQUIRED), text) for f, _, d, text in COMMANDS[command][2]])
    return f"usage: semicover {command or '<subcommand>'} [flags]\n\n" + "\n".join(
        f"  {a:24} {b}" for a, b in rows + [("-h, --help", "show this help")])


def parse_args(argv: list) -> SimpleNamespace:
    """The subcommand and its flags (`--max-depth` as `max_depth`).  A flag is
    named in full or by a unique prefix, its value follows it or an '='."""
    if not argv or argv[0] in ("-h", "--h", "--he", "--hel", "--help"):
        raise UsageError(None, None if argv else "a subcommand is required")
    command, *words = argv
    if command not in COMMANDS:
        raise UsageError(None, f"unknown subcommand {command!r}")
    converters = {flag: convert for flag, convert, _, _ in COMMANDS[command][2]}
    values = {flag: default for flag, _, default, _ in COMMANDS[command][2]}
    words = iter(words)
    for word in words:
        name, eq, value = word.partition("=")
        names = [name] if name in values else [f for f in (*values, "--help") if f.startswith(name)]
        if word == "-h" or names == ["--help"]:
            raise UsageError(command, None)
        if word == "--" or not (name.startswith("--") and names):
            raise UsageError(command, f"unrecognized argument {word!r}")
        if len(names) > 1:
            raise UsageError(command, f"ambiguous flag {name}: could be {', '.join(names)}")
        name, convert = names[0], converters[names[0]]
        if convert is bool and eq:
            raise UsageError(command, f"{name} takes no value, got {value!r}")
        if convert is not bool and not eq:
            value = next(words, None)
            if value is None or _FLAG_WORD.match(value):
                raise UsageError(command, f"{name} needs a value")
        if convert is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(command, f"{name}: invalid int value {value!r}") from None
        elif isinstance(convert, tuple) and value not in convert:
            raise UsageError(command, f"{name}: invalid choice {value!r}")
        values[name] = True if convert is bool else value
    missing = [flag for flag, value in values.items() if value is REQUIRED]
    if missing:
        raise UsageError(command, f"missing required flags: {', '.join(missing)}")
    return SimpleNamespace(subcommand=command, **{
        flag[2:].replace("-", "_"): value for flag, value in values.items()})


DIGIT_CAP = 100_000  # int<->str conversion is quadratic: 0.1 s at this size


def main(argv=None) -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(DIGIT_CAP)
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: an integer has more than {DIGIT_CAP} digits", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv: list) -> int:
    try:
        args = parse_args(argv)
    except UsageError as exc:
        command, message = exc.args
        if message is None:
            print(_help(command))
            return 0
        print(f"semicover: error: {message}", file=sys.stderr)
        return 2
    try:
        code, report = COMMANDS[args.subcommand][0](args)
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
    except ParseError as exc:  # --output names a file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _emit(args, report: dict) -> None:
    text = render_json(report) if args.format == "json" else render_text(report)
    if args.output:
        # UTF-8 whatever the locale; argv bytes the locale could not decode
        # (a path echoed in a text report) are written back as they came
        data = (text + "\n").encode(errors="surrogateescape")
        _on_file(args.output, "write", lambda path: path.write_bytes(data))
    else:
        print(text, flush=True)


if __name__ == "__main__":
    sys.exit(main())
