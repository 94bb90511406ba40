"""What the benchmark under ``bench/`` needs of the package.

The traced benchmark run wraps package functions by name, from outside
the package, so renaming or deleting one of them breaks only that run.
These tests import ``bench/tracer.py`` and ``bench/run.py`` read-only
and run one small traced iteration.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import barbellw3
from barbellw3 import barbell, cli, patterns, ring, solver, verify, words

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE = {"barbellw3": barbellw3, "words": words, "patterns": patterns, "ring": ring,
           "barbell": barbell, "solver": solver, "verify": verify, "cli": cli}


@pytest.fixture
def bench(monkeypatch):
    """bench/run.py as a module, with bench/ on sys.path while it is used."""
    monkeypatch.syspath_prepend(str(BENCH))
    # Read-only: no bytecode cache is written under bench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("run", "tracer", "gate"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    run = importlib.import_module("run")
    yield run
    for name in ("run", "tracer", "gate"):
        sys.modules.pop(name, None)


def test_every_traced_layer_names_a_package_attribute(bench):
    for name, module, attribute, *_ in importlib.import_module("tracer").LAYERS:
        owner = PACKAGE[module]
        if "." in attribute:
            class_name, attribute = attribute.split(".")
            owner = owner.__dict__[class_name]
        assert attribute in owner.__dict__, f"{name}: {module}.{attribute} is gone"


def test_one_traced_iteration_reports_no_problems(bench):
    p = {"kmax": 2, "max_syllables": 1, "max_exponent": 1, "trials": 10, "seed": 0}
    metrics, reports, problems, _, _ = bench.traced_iteration(PACKAGE, p, 1)
    assert problems == []
    assert reports["one"] == reports["many"] == reports["traced"]
    assert bench.gate(0, reports["one"], reports["one"], p) == []
    assert metrics["barbell.enumerate_admissible.pairs"] > 0
    # One chunk per exhaustive sweep: each pair is enumerated and scanned once.
    assert metrics["verify.span_enumeration_ratio"] == 1
    assert metrics["verify.repeat_ratio"] == 1


def test_admissible_count_is_the_enumeration_and_the_gate_closed_form(bench):
    closed_form = importlib.import_module("gate").admissible_pair_count
    for max_syllables in (1, 2, 3):
        for max_exponent in (1, 2, 3):
            bounds = max_syllables, max_exponent
            count = barbell.count_admissible(*bounds)
            assert count == len(list(barbell.enumerate_admissible(*bounds)))
            assert count == closed_form(*bounds)


def test_word_count_is_the_enumeration_and_the_gate_closed_form(bench):
    closed_form = importlib.import_module("gate").bounded_word_count
    for max_syllables in range(5):
        for max_exponent in range(4):
            bounds = max_syllables, max_exponent
            count = words.count_words(*bounds)
            assert count == len(words.bounded_words(*bounds))
            assert count == closed_form(*bounds) - 1
    for bounds in ((-1, 1), (1, -1)):
        with pytest.raises(words.WordError):
            words.count_words(*bounds)


def test_the_traced_fallback_is_reachable(bench):
    # A wrapped name that resolves but is never called would read 0
    # forever.  solver.fallback times the solver's refusal, which a
    # pattern with no forced order must reach.
    tracer = importlib.import_module("tracer").Tracer(PACKAGE).install()
    try:
        with pytest.raises(solver.SolveError):
            solver.solve(patterns.parse_pattern("a_1 a_1^-1"), words.identity(words.QUAD))
    finally:
        tracer.remove()
    assert tracer.calls("solver.fallback") > 0
