"""Command line interface.

Commands either print canonical text forms (words, ring elements,
rationals) or deterministic md/json documents (tables, verification
reports).  Exit status: 0 on success, 1 when a verification fails, 2 on
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .barbell import T_KINDS, Disk, hexagon, span_generator_records, t_poly, w3_target
from .ring import RingElement
from .solver import TableError, TableRow, regenerate_table
from .verify import (
    Report,
    verify_all,
    verify_hexagon_vanishing,
    verify_main_theorem,
    verify_psi_targets,
    verify_span_vanishing,
    _usable_cpus,
)
from .words import BASE, QUAD, parse_word
from . import barbell


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _kinds(text: str) -> tuple[int, ...]:
    try:
        kinds = tuple(sorted({int(piece) for piece in text.split(",") if piece.strip()}))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot read kinds {text!r}")
    if not kinds or any(i not in T_KINDS for i in kinds):
        raise argparse.ArgumentTypeError(f"kinds must be a nonempty subset of {T_KINDS}")
    return kinds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barbellw3",
        description=(
            "Free-group word arithmetic and verification of the barbell W3 "
            "non-membership certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="parse a word and print its reduced form")
    p.add_argument("word", help='word text, e.g. "t u^-2 t" (1 for the identity)')

    p = sub.add_parser("hexagon", help="print the hexagon relator H(nu, mu)")
    p.add_argument("nu", help="word over t, u")
    p.add_argument("mu", help="word over t, u")

    p = sub.add_parser("tpoly", help="print the kind-i polynomial value on (a, c)")
    p.add_argument("i", type=int, choices=T_KINDS, help="polynomial kind")
    p.add_argument("a", help="nontrivial word over t, u")
    p.add_argument("c", help="nontrivial word over t, u")

    p = sub.add_parser("target", help="print a W3 family value")
    p.add_argument("disk", choices=("d1", "d2"), help="which disk's family")
    p.add_argument("--k", type=_positive_int, required=True, help="family parameter")

    p = sub.add_parser("psi", help="evaluate the functional psi(k) on an element")
    p.add_argument("--k", type=_positive_int, required=True, help="functional parameter")
    p.add_argument("--in", dest="in_path", metavar="FILE",
                   help="element as JSON (as printed by span-dump values)")
    p.add_argument("expr", nargs="?",
                   help="a single word, taken as a one-term element")

    p = sub.add_parser("table", help="regenerate the 21-row solution table")
    p.add_argument("--k", type=_positive_int, required=True, help="witness parameter")
    p.add_argument("--format", choices=("md", "json"), default="md")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", choices=("all", "psi", "hexagon", "span", "main"))
    p.add_argument("--kmax", type=_positive_int, default=10)
    p.add_argument("--max-syllables", type=_positive_int, default=3)
    p.add_argument("--max-exponent", type=_positive_int, default=3)
    p.add_argument("--trials", type=_nonnegative_int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker processes (default: the processors this process may use)")
    p.add_argument("--format", choices=("md", "json"), default="md")

    p = sub.add_parser("span-dump", help="dump span generators as JSON records")
    p.add_argument("--max-syllables", type=_positive_int, required=True)
    p.add_argument("--max-exponent", type=_positive_int, required=True)
    p.add_argument("--kinds", type=_kinds, default=T_KINDS,
                   help=f"comma-separated subset of {T_KINDS}")

    return parser


# ---------------------------------------------------------------------------
# Rendering.

def _report_markdown(report: Report) -> str:
    parameters = ", ".join(f"{key}={value}" for key, value in report.parameters.items())
    lines = [
        f"# suite: {report.suite}",
        f"overall: {report.overall}",
        f"parameters: {parameters}",
        "",
        "| check | method | status | details |",
        "|---|---|---|---|",
    ]
    for check in report.checks:
        details = check.details.replace("|", "\\|")
        lines.append(f"| {check.name} | {check.method} | {check.status} | {details} |")
    return "\n".join(lines) + "\n"


# The keys of a check record, as sort_keys orders them.
_CHECK_FIELDS = ("claim", "details", "method", "name", "status")
_CHECK_KEYS = frozenset(_CHECK_FIELDS)
_string = json.encoder.encode_basestring_ascii


@lru_cache(maxsize=None)
def _check_layout(indent: str) -> str:
    """A check record laid out at ``indent``, with %s for each value."""
    inner = indent + "  "
    fields = ",\n".join(f'{inner}"{key}": %s' for key in _CHECK_FIELDS)
    return "{\n" + fields + f"\n{indent}}}"


def _layout(value, indent: str, out: list[str]) -> None:
    """Append the text of ``value``, its nested lines at ``indent``, to out."""
    if type(value) is str:
        out.append(_string(value))
    elif type(value) is dict:
        if not value:
            out.append("{}")
            return
        if value.keys() == _CHECK_KEYS:
            out.append(_check_layout(indent) % (
                _string(value["claim"]), _string(value["details"]),
                _string(value["method"]), _string(value["name"]),
                _string(value["status"]),
            ))
            return
        inner = indent + "  "
        opening = "{\n"
        for key in sorted(value):
            out.append(f"{opening}{inner}{_string(key)}: ")
            _layout(value[key], inner, out)
            opening = ",\n"
        out.append(f"\n{indent}}}")
    elif type(value) in (list, tuple):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        opening = "[\n"
        for item in value:
            out.append(opening + inner)
            _layout(item, inner, out)
            opening = ",\n"
        out.append(f"\n{indent}]")
    elif value is None or type(value) in (bool, int):
        out.append(json.dumps(value))
    else:
        raise TypeError(f"{type(value).__name__} is not laid out as JSON here")


def _json_text(value) -> str:
    """Exactly ``json.dumps(value, indent=2, sort_keys=True)``, plus a newline.

    With an indent, json.dumps runs the pure-Python encoder, so the
    strings, dicts with string keys, lists, ints, bools and None the
    documents are made of are laid out here, each string through the C
    escaper, into one list of pieces joined once.  Any other value, or a
    key or check field that is not a string, raises TypeError.
    """
    out: list[str] = []
    _layout(value, "", out)
    out.append("\n")
    return "".join(out)


def emit(report: Report | list[Report], format: str = "md") -> str:
    """Render one report or a list of them as md or json text.

    The json text is ``json.dumps(document, indent=2, sort_keys=True)``
    byte for byte, written by ``_json_text``: check records, most of a
    report, take one format string each.
    """
    if isinstance(report, Report):
        if format == "json":
            return _json_text(report.to_json_dict())
        return _report_markdown(report)
    reports = list(report)
    overall = "pass" if all(r.overall == "pass" for r in reports) else "fail"
    if format == "json":
        document = {
            "suite": "all",
            "overall": overall,
            "suites": [r.to_json_dict() for r in reports],
        }
        return _json_text(document)
    sections = [_report_markdown(r) for r in reports]
    return "\n".join(sections) + f"\n# all suites: {overall}\n"


def _pair_text(pair) -> str:
    return f"({pair[0]}, {pair[1]})"


def _table_markdown(rows: list[TableRow], k: int) -> str:
    lines = [
        f"| appears in | monomial term M(a, c) | (a, c) if M = m_1({k}) | (a, c) if M = m_2({k}) |",
        "|---|---|---|---|",
    ]
    for row in rows:
        appears = ", ".join(f"T_{i}" for i in row.appears_in)
        lines.append(
            f"| {appears} | {row.pattern} | {_pair_text(row.m1_solution)} "
            f"| {_pair_text(row.m2_solution)} |"
        )
    return "\n".join(lines) + "\n"


def _table_json(rows: list[TableRow]) -> str:
    documents = [
        {
            "pattern": str(row.pattern),
            "appears_in": list(row.appears_in),
            "m1_solution": {"a": str(row.m1_solution[0]), "c": str(row.m1_solution[1])},
            "m2_solution": {"a": str(row.m2_solution[0]), "c": str(row.m2_solution[1])},
            "admissible": row.admissible,
        }
        for row in rows
    ]
    return _json_text(documents)


def _write_span_dump(args, out) -> int:
    records = span_generator_records(args.max_syllables, args.max_exponent, args.kinds)
    out.write("[")
    first = True
    for record in records:
        document = {
            "i": record.i,
            "a": str(record.a),
            "c": str(record.c),
            "value": record.value.to_json_dict(),
        }
        out.write("" if first else ",")
        out.write("\n" + json.dumps(document, sort_keys=True))
        first = False
    out.write("\n]\n" if not first else "]\n")
    return 0


# ---------------------------------------------------------------------------
# Dispatch.

def _run_verify(args) -> int:
    bounds = {
        "kmax": args.kmax,
        "max_syllables": args.max_syllables,
        "max_exponent": args.max_exponent,
        "workers": args.workers if args.workers is not None else _usable_cpus(),
    }
    sampling = {"random_trials": args.trials, "seed": args.seed}
    # Each lambda looks its suite function up when called, so replacing
    # a module attribute takes effect.
    suites = {
        "all": lambda: verify_all(**bounds, **sampling),
        "psi": lambda: verify_psi_targets(kmax=args.kmax),
        "hexagon": lambda: verify_hexagon_vanishing(**bounds, **sampling),
        "span": lambda: verify_span_vanishing(**bounds),
        "main": lambda: verify_main_theorem(**bounds),
    }
    result = suites[args.suite]()
    reports = result if isinstance(result, list) else [result]
    sys.stdout.write(emit(result, args.format))
    return 0 if all(report.overall == "pass" for report in reports) else 1


def _run_psi(args, parser: argparse.ArgumentParser) -> int:
    if (args.in_path is None) == (args.expr is None):
        parser.error("psi needs exactly one of --in FILE or a word expression")
    if args.in_path is not None:
        try:
            with open(args.in_path, "r", encoding="utf-8") as handle:
                element = RingElement.from_json_dict(json.load(handle))
        except OSError as error:
            print(f"error: cannot read {args.in_path}: {error}", file=sys.stderr)
            return 2
        except ValueError as error:  # json.JSONDecodeError is one too
            print(f"error: bad element JSON: {error}", file=sys.stderr)
            return 2
    else:
        element = RingElement.monomial(parse_word(args.expr, QUAD))
    value = barbell.psi(args.k)(element)
    print(value.numerator if value.denominator == 1 else value)
    return 0


def _dispatch(args, parser: argparse.ArgumentParser) -> int:
    if args.command == "eval":
        print(parse_word(args.word))
        return 0
    if args.command == "hexagon":
        print(hexagon(parse_word(args.nu, BASE), parse_word(args.mu, BASE)))
        return 0
    if args.command == "tpoly":
        print(t_poly(args.i, parse_word(args.a, BASE), parse_word(args.c, BASE)))
        return 0
    if args.command == "target":
        disk = Disk.D1 if args.disk == "d1" else Disk.D2
        print(w3_target(disk, args.k))
        return 0
    if args.command == "psi":
        return _run_psi(args, parser)
    if args.command == "table":
        rows = regenerate_table(args.k)
        text = _table_json(rows) if args.format == "json" else _table_markdown(rows, args.k)
        sys.stdout.write(text)
        return 0
    if args.command == "verify":
        return _run_verify(args)
    if args.command == "span-dump":
        return _write_span_dump(args, sys.stdout)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, parser)
    except TableError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ValueError as error:  # the package's input errors are ValueErrors
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
