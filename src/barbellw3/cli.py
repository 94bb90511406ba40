"""Command line interface.

Commands either print canonical text forms (words, ring elements,
rationals) or deterministic md/json documents (tables, verification
reports).  Exit status: 0 on success, 1 when a verification fails, 2 on
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable

from .barbell import (
    BarbellError,
    Disk,
    hexagon,
    span_generator_records,
    t_poly,
    w3_target,
)
from .patterns import PatternError
from .ring import CoefficientError, RingElement
from .solver import SolveError, TableError, TableRow, regenerate_table
from .verify import (
    Report,
    verify_all,
    verify_hexagon_vanishing,
    verify_main_theorem,
    verify_psi_targets,
    verify_span_vanishing,
)
from .words import BASE, WordError, parse_word
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
    if not kinds or any(i not in (1, 3, 4, 6) for i in kinds):
        raise argparse.ArgumentTypeError("kinds must be a nonempty subset of 1,3,4,6")
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
    p.add_argument("i", type=int, choices=(1, 3, 4, 6), help="polynomial kind")
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
    p.add_argument("--kinds", type=_kinds, default=(1, 3, 4, 6),
                   help="comma-separated subset of 1,3,4,6")

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


def emit(report: Report | list[Report], format: str = "md") -> str:
    """Render one report or a list of them as md or json text."""
    if isinstance(report, Report):
        if format == "json":
            return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        return _report_markdown(report)
    reports = list(report)
    overall = "pass" if all(r.overall == "pass" for r in reports) else "fail"
    if format == "json":
        document = {
            "suite": "all",
            "overall": overall,
            "suites": [r.to_json_dict() for r in reports],
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"
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
    return json.dumps(documents, indent=2, sort_keys=True) + "\n"


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

def _default_workers() -> int:
    """Processors this process may run on; os.cpu_count() can count more."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _run_verify(args) -> int:
    workers = args.workers if args.workers is not None else _default_workers()
    if args.suite == "all":
        result: Report | list[Report] = verify_all(
            kmax=args.kmax,
            max_syllables=args.max_syllables,
            max_exponent=args.max_exponent,
            random_trials=args.trials,
            seed=args.seed,
            workers=workers,
        )
        failed = any(r.overall != "pass" for r in result)
    else:
        if args.suite == "psi":
            result = verify_psi_targets(kmax=args.kmax)
        elif args.suite == "hexagon":
            result = verify_hexagon_vanishing(
                kmax=args.kmax,
                max_syllables=args.max_syllables,
                max_exponent=args.max_exponent,
                random_trials=args.trials,
                seed=args.seed,
                workers=workers,
            )
        elif args.suite == "span":
            result = verify_span_vanishing(
                kmax=args.kmax,
                max_syllables=args.max_syllables,
                max_exponent=args.max_exponent,
                workers=workers,
            )
        else:
            result = verify_main_theorem(
                kmax=args.kmax,
                max_syllables=args.max_syllables,
                max_exponent=args.max_exponent,
                workers=workers,
            )
        failed = result.overall != "pass"
    sys.stdout.write(emit(result, args.format))
    return 1 if failed else 0


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
        except (json.JSONDecodeError, ValueError) as error:
            print(f"error: bad element JSON: {error}", file=sys.stderr)
            return 2
    else:
        element = RingElement.monomial(parse_word(args.expr))
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
        print(w3_target(disk, args.k).value)
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
    except (WordError, PatternError, BarbellError, SolveError, CoefficientError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
