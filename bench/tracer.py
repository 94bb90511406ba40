"""In-process tracing of barbellw3 from outside the package.

`Tracer.install` replaces functions and methods with timing wrappers in
every barbellw3 namespace that holds them (a name imported with
`from .words import rename` lives in several module namespaces), and
`Tracer.remove` puts the originals back.  Nothing inside the package is
changed on disk.

Each wrapped call is a frame on one stack.  When a frame ends, its
duration is added to its parent's child time, and its self time
(duration minus child time) is added to the totals of
(function, enclosing span).  Suites, checks, sweep chunks, `solve`,
`rank` and the per-k solver calls are spans: each is also kept as
(function, label, key, start, end, parent index) in memory, to be
written out when the run ends.  Leaf calls, millions per sweep, are
kept only as totals, so memory stays bounded.
"""

from __future__ import annotations

import functools
import re
from collections import defaultdict
from time import perf_counter
from types import ModuleType
from typing import Callable

_K_SUFFIX = re.compile(r"_k\d+$")


def _check_label(args) -> str:
    return args[0]


def _chunk_label(args) -> str:
    return f"{args[0][-2]}:{args[0][-1]}"


def _k_label(args) -> str:
    return f"k={args[0]}"


def _count_solutions(tracer: "Tracer", name: str, args, result) -> None:
    tracer.counters["solver.solve.solutions"] += len(result)


def _count_columns(tracer: "Tracer", name: str, args, result) -> None:
    vectors = args[0]
    if isinstance(vectors, (list, tuple)):
        tracer.counters["ring.rank.columns"] += len(
            {word for element in vectors for word in element._terms}
        )


def _record_chunk(tracer: "Tracer", name: str, args, result) -> None:
    tracer.chunk_tasks.append((name, args[0], result[0]))


# (metric name, module, attribute, kind, label, after).  A dotted
# attribute is a method of a class in that module.  kind is "span",
# "leaf" or "generator" (the iteration is timed, not the call).
CHUNKS = (
    ("verify._hexagon_chunk", "verify", "_hexagon_chunk", "span", _chunk_label, _record_chunk),
    ("verify._hexagon_random_chunk", "verify", "_hexagon_random_chunk", "span",
     _chunk_label, _record_chunk),
    ("verify._span_chunk", "verify", "_span_chunk", "span", _chunk_label, _record_chunk),
)

LAYERS = CHUNKS + (
    ("words.rename", "words", "rename", "leaf", None, None),
    ("words.invert", "words", "invert", "leaf", None, None),
    ("words.concat_words", "words", "concat_words", "leaf", None, None),
    ("words._merge_runs", "words", "_merge_runs", "leaf", None, None),
    ("words.bounded_words", "words", "bounded_words", "leaf", None, None),
    ("patterns.eval_pattern", "patterns", "eval_pattern", "leaf", None, None),
    ("ring.RingElement", "ring", "RingElement.__init__", "leaf", None, None),
    ("ring.RingElement", "ring", "RingElement._from_clean_dict", "leaf", None, None),
    ("ring.Functional.evaluate", "ring", "Functional.evaluate", "leaf", None, None),
    ("ring.rank", "ring", "rank", "span", None, _count_columns),
    ("ring.matrix_rank_exact", "ring", "matrix_rank_exact", "leaf", None, None),
    ("barbell.hexagon", "barbell", "hexagon", "leaf", None, None),
    ("barbell._pair_pieces", "barbell", "_pair_pieces", "leaf", None, None),
    ("barbell._t_poly_coeffs", "barbell", "_t_poly_coeffs", "leaf", None, None),
    ("barbell.t_poly", "barbell", "t_poly", "leaf", None, None),
    ("barbell.w3_target", "barbell", "w3_target", "leaf", None, None),
    ("barbell.enumerate_admissible", "barbell", "enumerate_admissible", "generator",
     None, None),
    ("solver.solve", "solver", "solve", "span", None, _count_solutions),
    ("solver.fallback", "solver", "_enumerate_one_variable", "leaf", None, None),
    ("solver.compare_with_reference", "solver", "compare_with_reference", "span",
     _k_label, None),
    ("solver.hexagon_case_analysis", "solver", "hexagon_case_analysis", "span",
     _k_label, None),
    ("verify.verify_all", "verify", "verify_all", "span", None, None),
    ("verify.verify_psi_targets", "verify", "verify_psi_targets", "span", None, None),
    ("verify.verify_hexagon_vanishing", "verify", "verify_hexagon_vanishing", "span",
     None, None),
    ("verify.verify_span_vanishing", "verify", "verify_span_vanishing", "span", None, None),
    ("verify.verify_main_theorem", "verify", "verify_main_theorem", "span", None, None),
    ("verify.check", "verify", "_run_check", "span", _check_label, None),
)


class Tracer:
    """Spans, per-(function, enclosing span) totals and counters of one run."""

    def __init__(self, package: dict[str, ModuleType]):
        self.package = package
        self.stack: list[list] = [[None, False, 0.0, 0.0]]  # name, is span, start, child
        self.open_spans: list[int] = [-1]
        self.spans: list[list] = []  # name, label, key, start, end, parent
        self.totals: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.chunk_tasks: list[tuple[str, tuple, int]] = []  # chunk, task, items
        self._undo: list[tuple[object, str, object]] = []

    # -- frames ------------------------------------------------------------

    def _enter(self, name: str, is_span: bool, label) -> None:
        if is_span:
            key = name if label is None else f"{name}:{_K_SUFFIX.sub('', label)}"
            self.spans.append([name, label, key, 0.0, 0.0, self.open_spans[-1]])
            self.open_spans.append(len(self.spans) - 1)
        self.stack.append([name, is_span, perf_counter(), 0.0])

    def _exit(self) -> None:
        end = perf_counter()
        name, is_span, start, child = self.stack.pop()
        duration = end - start
        self.stack[-1][3] += duration
        if is_span:
            span = self.spans[self.open_spans.pop()]
            span[3], span[4] = start, end
        enclosing = self.open_spans[-1]
        totals = self.totals[(name, self.spans[enclosing][2] if enclosing >= 0 else "-")]
        totals[0] += 1
        totals[1] += duration - child
        totals[2] += duration

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, kind: str, label, after) -> Callable:
        tracer = self
        if kind == "generator":

            @functools.wraps(fn)
            def iterate(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    tracer._enter(name, False, None)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.counters[name + ".pairs"] += 1
                    yield item

            return iterate

        is_span = kind == "span"

        @functools.wraps(fn)
        def call(*args, **kwargs):
            tracer._enter(name, is_span, label(args) if label else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(tracer, name, args, result)
            return result

        return call

    def install(self, layers=LAYERS) -> "Tracer":
        for name, module, attribute, kind, label, after in layers:
            owner = self.package[module]
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(original.__func__, name, kind, label, after))
            else:
                wrapper = self._wrap(original, name, kind, label, after)
            # Every namespace holding the object: the owner, modules that
            # imported it by name, class aliases such as Functional.__call__.
            holders = [owner] if isinstance(owner, type) else list(self.package.values())
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)
        return self

    def remove(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(t[0] for (n, _), t in self.totals.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(t[1] for (n, _), t in self.totals.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(t[2] for (n, _), t in self.totals.items() if n == name)

    def span_durations(self, name: str) -> list[float]:
        return [span[4] - span[3] for span in self.spans if span[0] == name]

    def to_json_dict(self) -> dict:
        return {
            "spans": [
                {"name": n, "label": label, "start": s, "end": e, "parent": parent}
                for n, label, _, s, e, parent in self.spans
            ],
            "totals": [
                {"function": n, "enclosing_span": where, "calls": c, "self_s": s,
                 "total_s": t}
                for (n, where), (c, s, t) in sorted(self.totals.items())
            ],
            "counters": dict(sorted(self.counters.items())),
        }
