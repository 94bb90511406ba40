"""Command line interface.

Commands either print canonical text forms (words, ring elements,
rationals) or deterministic md/json documents (tables, verification
reports).  A document goes to stdout as it is laid out, json in batches
of pieces and md a row at a time, each check's text made only when the
writer reaches it, so its size does not set the memory a command holds;
``emit`` returns the same text as a string.
Exit status: 0 on success, 1 when a verification fails, 2 on usage or
configuration errors, 141 when the reader closes stdout early, which
may be part way through a document.

Both launch paths, ``python -m barbellw3`` and the ``barbellw3`` console
script, start in ``launch``; in-process callers call ``main``.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from _json import encode_basestring_ascii as _string

from .barbell import T_KINDS, Disk, hexagon, span_generator_records, t_poly, w3_target
from .ring import RingElement
from .solver import TableError, TableRow, regenerate_table
from .verify import (
    Check,
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
        kinds = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot read kinds {text!r}")
    try:
        return barbell._check_kinds(kinds)
    except barbell.BarbellError as error:
        raise argparse.ArgumentTypeError(str(error))


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
    p.add_argument("disk", choices=[disk.value for disk in Disk], help="which disk's family")
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

def _write_markdown(report: Report, write) -> None:
    """Write the report's markdown table to ``write``: the header, then
    each check's row as it is laid out."""
    parameters = ", ".join(f"{key}={value}" for key, value in report.parameters.items())
    write(
        f"# suite: {report.suite}\noverall: {report.overall}\nparameters: {parameters}\n\n"
        "| check | method | status | details |\n|---|---|---|---|\n"
    )
    for check in report.checks:
        details = check.details.replace("|", "\\|")
        write(f"| {check.name} | {check.method} | {check.status} | {details} |\n")


# Once the writer holds this many pieces, at the end of a list item, it
# hands them to the stream, so a document of any length holds one batch.
_BATCH = 256


def _layout(value, indent: str, out: list[str], write) -> None:
    """Append the text of ``value``, its nested lines at ``indent``, to out.

    After each list item, a batch of pieces goes to ``write`` as one
    string and out is emptied.
    """
    if type(value) is str:
        out.append(_string(value))
    elif type(value) is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        opening = "{\n"
        for key in sorted(value):
            out.append(f"{opening}{inner}{_string(key)}: ")
            _layout(value[key], inner, out, write)
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
            # A check's dict is made only when the writer reaches it.
            _layout(item.to_json_dict() if type(item) is Check else item, inner, out, write)
            if len(out) >= _BATCH:
                write("".join(out))
                out.clear()
            opening = ",\n"
        out.append(f"\n{indent}]")
    elif value is None:
        out.append("null")
    elif type(value) is bool:
        out.append("true" if value else "false")
    elif type(value) is int:
        out.append(repr(value))
    else:
        raise TypeError(f"{type(value).__name__} is not laid out as JSON here")


def _write_json(value, stream) -> None:
    """Write exactly ``json.dumps(value, indent=2, sort_keys=True)``, plus
    a newline, to stream as it is laid out.

    With an indent, json.dumps runs the pure-Python encoder, so the
    strings, dicts with string keys, lists, ints, bools and None the
    documents are made of are laid out here, each string through the C
    escaper json.dumps uses, and every dict the same way.  The writer
    holds at most one batch of pieces, plus the pieces of one list item.
    A ``Check`` in a list is laid out as its ``to_json_dict()``, made
    when the writer reaches it.  Any other value, or a key that is not a
    string, raises TypeError, after the text laid out before it has been
    written.
    """
    out: list[str] = []
    _layout(value, "", out, stream.write)
    out.append("\n")
    stream.write("".join(out))


def _report_document(report: Report) -> dict:
    """``report.to_json_dict()`` with the checks themselves in place of
    their dicts, which ``_layout`` makes one at a time."""
    return {
        "suite": report.suite,
        "parameters": report.parameters,
        "checks": report.checks,
        "overall": report.overall,
    }


def _write_reports(report: Report | list[Report], format: str, stream) -> None:
    """Write one report or a list of them to stream as md or json, each
    check as the writer reaches it: markdown by ``_write_markdown``, json
    by ``_write_json``.
    """
    if isinstance(report, Report):
        if format == "json":
            _write_json(_report_document(report), stream)
        else:
            _write_markdown(report, stream.write)
        return
    reports = list(report)
    overall = "pass" if all(r.overall == "pass" for r in reports) else "fail"
    if format == "json":
        document = {
            "suite": "all",
            "overall": overall,
            "suites": [_report_document(r) for r in reports],
        }
        _write_json(document, stream)
        return
    for position, r in enumerate(reports):
        if position:
            stream.write("\n")
        _write_markdown(r, stream.write)
    stream.write(f"\n# all suites: {overall}\n")


def emit(report: Report | list[Report], format: str = "md") -> str:
    """Render one report or a list of them as md or json text.

    The text is what ``_write_reports`` writes to stdout for ``verify``.
    The json text is ``json.dumps(document, indent=2, sort_keys=True)``
    byte for byte.
    """
    stream = io.StringIO()
    _write_reports(report, format, stream)
    return stream.getvalue()


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


def _table_documents(rows: list[TableRow]) -> list[dict]:
    return [
        {
            "pattern": str(row.pattern),
            "appears_in": list(row.appears_in),
            "m1_solution": {"a": str(row.m1_solution[0]), "c": str(row.m1_solution[1])},
            "m2_solution": {"a": str(row.m2_solution[0]), "c": str(row.m2_solution[1])},
            "admissible": row.admissible,
        }
        for row in rows
    ]


def _write_span_dump(args, out) -> int:
    import json

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
    _write_reports(result, args.format, sys.stdout)
    return 0 if all(report.overall == "pass" for report in reports) else 1


def _run_psi(args, parser: argparse.ArgumentParser) -> int:
    if (args.in_path is None) == (args.expr is None):
        parser.error("psi needs exactly one of --in FILE or a word expression")
    if args.in_path is not None:
        import json

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
        print(w3_target(Disk(args.disk), args.k))
        return 0
    if args.command == "psi":
        return _run_psi(args, parser)
    if args.command == "table":
        rows = regenerate_table(args.k)
        if args.format == "json":
            _write_json(_table_documents(rows), sys.stdout)
        else:
            sys.stdout.write(_table_markdown(rows, args.k))
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


def launch() -> int:
    """Run ``main`` as a launched program, after freezing the heap.

    ``gc.freeze()`` moves every object the interpreter and the imports
    have made into the permanent generation, so no collection traverses
    them again, neither during the run nor at shutdown, and forked pool
    workers inherit the frozen heap.  Objects the run makes are collected
    as before, at shutdown too, so dev mode still reports their leaks.
    ``main`` itself does not freeze: in-process callers keep the
    collector as they set it.

    A reader that closes stdout early ends the run with 141, as a shell
    reports a filter that SIGPIPE stopped (128 + 13), not with the 1 of
    a failed check.  fd 1 then points at the null device, so the
    interpreter's last flush cannot raise again.  An unbuffered stdout
    (``python -u``, ``PYTHONUNBUFFERED``) is first replaced by a line
    buffered one on the same fd.
    """
    gc.freeze()
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        # The unbuffered text layer would drop the rest of a write the pipe
        # took only part of, and the run would end with 0; a BufferedWriter
        # retries a short write until every byte is written or it fails.
        sys.stdout = open(
            sys.stdout.fileno(), "w", buffering=1, encoding=sys.stdout.encoding,
            errors=sys.stdout.errors, newline="\n", closefd=False,
        )
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


if __name__ == "__main__":
    sys.exit(launch())
