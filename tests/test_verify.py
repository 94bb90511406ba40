"""Verification suites: check structure, determinism, and failure detection."""

from __future__ import annotations

import concurrent.futures
import functools
import json
import multiprocessing
import os
import pickle
import random
import re
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import barbellw3.barbell as barbell
import barbellw3.solver as solver
import barbellw3.verify as verify
from barbellw3.barbell import Disk, psi, t_poly, w3_target
from barbellw3.cli import emit, main
from barbellw3.patterns import CompiledFormulas, parse_pattern
from barbellw3.solver import solve
from barbellw3.verify import (
    Check,
    Report,
    verify_all,
    verify_hexagon_vanishing,
    verify_main_theorem,
    verify_psi_targets,
    verify_span_vanishing,
)
from barbellw3.ring import RingElement
from barbellw3.words import (
    BASE,
    QUAD,
    AlphabetMismatchError,
    K,
    concat_words,
    count_words,
    parse_word,
)

from oracles import brute_force_violations, naive_eval_pattern, random_word


def report_json(report):
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)


def test_psi_suite_shape():
    report = verify_psi_targets(1)
    assert report.suite == "psi-targets"
    assert report.overall == "pass"
    assert [check.name for check in report.checks] == [
        "psi_target_d1_k1",
        "psi_target_d2_k1",
    ]
    assert all(check.method == "exact" for check in report.checks)
    assert len(verify_psi_targets(3).checks) == 6


def test_check_serialization_omits_timing():
    report = verify_psi_targets(1)
    check = report.checks[0]
    assert check.elapsed_ms is not None and check.elapsed_ms >= 0
    data = check.to_json_dict()
    assert sorted(data) == ["claim", "details", "method", "name", "status"]
    assert "workers" not in report.to_json_dict()["parameters"]


def test_hexagon_suite_shape():
    report = verify_hexagon_vanishing(
        kmax=2, max_syllables=1, max_exponent=1, random_trials=25, seed=3, workers=1
    )
    assert report.overall == "pass"
    assert [(check.name, check.method) for check in report.checks] == [
        ("hexagon_exhaustive", "exhaustive-bounded"),
        ("hexagon_random", "randomized"),
        ("hexagon_cases_k1", "structural-complete"),
        ("hexagon_cases_k2", "structural-complete"),
    ]
    assert report.to_json_dict()["parameters"] == {
        "kmax": 2,
        "max_syllables": 1,
        "max_exponent": 1,
        "random_trials": 25,
        "seed": 3,
    }


def test_span_suite_shape():
    report = verify_span_vanishing(kmax=2, max_syllables=1, max_exponent=1, workers=1)
    assert report.overall == "pass"
    assert [check.name for check in report.checks] == [
        "span_generators",
        "solution_table_k1",
        "solution_table_k2",
    ]
    assert "8 admissible pairs" in report.checks[0].details


def test_main_suite_shape():
    report = verify_main_theorem(kmax=2, max_syllables=1, max_exponent=1, workers=1)
    assert report.overall == "pass"
    names = [check.name for check in report.checks]
    assert names == [
        "target_expansions_agree",
        "hexagon_exhaustive",
        "hexagon_cases_k1",
        "hexagon_cases_k2",
        "span_generators",
        "solution_table_k1",
        "solution_table_k2",
        "target_psi_d1_k1",
        "target_psi_d2_k1",
        "target_psi_d1_k2",
        "target_psi_d2_k2",
        "rank_d1",
        "rank_d2",
        "certificate_d1_k1",
        "certificate_d2_k1",
        "certificate_d1_k2",
        "certificate_d2_k2",
    ]
    assert "hexagon_random" not in names


def test_verify_all_returns_four_reports():
    reports = verify_all(kmax=1, max_syllables=1, max_exponent=1, random_trials=10, seed=0, workers=1)
    assert [report.suite for report in reports] == [
        "psi-targets",
        "hexagon-vanishing",
        "span-vanishing",
        "main-theorem",
    ]
    assert all(report.overall == "pass" for report in reports)


def test_verify_all_runs_each_check_once(monkeypatch):
    calls = []

    def count(name):
        original = getattr(verify, name)

        def counted(arg):
            calls.append((name, arg))
            return original(arg)

        monkeypatch.setattr(verify, name, counted)

    names = ("compare_with_reference", "hexagon_case_analysis",
             "_hexagon_chunk", "_hexagon_random_chunk", "_span_chunk")
    for name in names:
        count(name)
    kwargs = dict(kmax=2, max_syllables=1, max_exponent=1)
    reports = verify_all(**kwargs, random_trials=10, seed=0, workers=1)
    counts = Counter(name for name, _ in calls)
    # One symbolic analysis each, valid for every k: no k is exceptional,
    # so no concrete one.
    assert [arg for name, arg in calls if name == "compare_with_reference"] == [K]
    assert [arg for name, arg in calls if name == "hexagon_case_analysis"] == [K]
    assert set(counts) == set(names)
    assert len(calls) == len(set(calls))  # no (function, k or task) runs twice
    # Citing the checks already run leaves the report bytes unchanged.
    monkeypatch.undo()
    alone = verify_main_theorem(**kwargs, workers=1)
    assert emit(reports[3], "json") == emit(alone, "json")


def test_exceptional_k_is_checked_concretely(monkeypatch):
    calls = []
    original = verify.compare_with_reference

    def planted(k):
        calls.append(k)
        if k is K:
            # A seam u^k u^-2 that vanishes at k = 2, and an equation
            # a_1 a_3 = t_1^k t_3^3 whose two sides agree only at k = 3.
            concat_words([parse_word("u^k", k=True), parse_word("u^-2")])
            assert not solve(parse_pattern("a_1 a_3"), parse_word("t_1^k t_3^3", k=True))
        return original(k)

    monkeypatch.setattr(verify, "compare_with_reference", planted)
    kwargs = dict(kmax=4, max_syllables=1, max_exponent=1, workers=1)
    report = verify_span_vanishing(**kwargs)
    assert calls == [K, 2, 3]
    monkeypatch.undo()
    assert report_json(report) == report_json(verify_span_vanishing(**kwargs))


def test_verify_all_builds_each_target_once(monkeypatch):
    built = []
    original = verify.w3_target

    def counted(disk, k):
        built.append((disk, k))
        return original(disk, k)

    monkeypatch.setattr(verify, "w3_target", counted)
    kmax = 3
    reports = verify_all(
        kmax=kmax, max_syllables=1, max_exponent=1, random_trials=10, seed=0, workers=1
    )
    assert all(report.overall == "pass" for report in reports)
    # One build per disk at k = K, instantiated at every k: no k is
    # exceptional, so no concrete build.
    assert built == [(barbell.Disk.D1, K), (barbell.Disk.D2, K)]


def test_verify_all_builds_psi_once(monkeypatch):
    called = []
    original = barbell.psi

    def counted(k):
        called.append(k)
        return original(k)

    # verify reads psi under its own name, so both names are counted.
    for module in (barbell, verify):
        monkeypatch.setattr(module, "psi", counted)
    kmax = 3
    reports = verify_all(
        kmax=kmax, max_syllables=1, max_exponent=1, random_trials=10, seed=0, workers=1
    )
    assert all(report.overall == "pass" for report in reports)
    # One witness build for the psi matrix and the three sweeps.
    assert called == [1, 2, 3]


def test_a_psi_plant_between_two_calls_reaches_the_second_call(monkeypatch):
    # Nothing built from psi is kept across calls: a plant made after one
    # call reaches the next call's psi matrix and each of its sweeps.
    bounds = dict(kmax=2, max_syllables=1, max_exponent=1, random_trials=100, seed=0, workers=1)
    assert all(report.overall == "pass" for report in verify_all(**bounds))
    extra = [
        "t_1 u_3",  # term 1 of H(t, u)
        "u_1^-2 t_3^4",  # term 1 of H(u^-2, t^4), the first random pair
        "t_1^-1 u_3 t_3^-1",  # T_1's first shape at (t^-1, u^-1)
        "t_1 t_3 u_3^-2",  # a term of both targets at k = 2
    ]
    real = barbell.psi

    def planted(k):
        weights = real(k).weights
        if k == 1:
            weights.update({parse_word(text, QUAD): 1 for text in extra})
        return barbell.Functional(weights)

    monkeypatch.setattr(verify, "psi", planted)
    psi_report, hexagon, span, main = verify_all(**bounds)
    first = {
        check.name: check.details.split("; ")[0]
        for report in (psi_report, hexagon, span)
        for check in report.checks
        if not check.passed
    }
    off_diagonal = "psi_1 is nonzero off the diagonal: {2: Fraction(1, 1)}"
    assert first == {
        "psi_target_d1_k1": off_diagonal,
        "psi_target_d2_k1": off_diagonal,
        "hexagon_exhaustive": "psi_1(H(u^-1, t^-1)) = 1",
        "hexagon_random": "psi_1(H(u^-2, t^4)) = 1",
        "span_generators": "psi_1(t_poly(3, t^-1, u^-1)) = 1",
    }
    cited = {check.name for check in main.checks if not check.passed}
    assert {"hexagon_exhaustive", "span_generators"} <= cited


def _column(matrix, disk, j):
    """psi(1..kmax) on the disk's target j, as index k - 1 -> psi_k, read
    from the rows of ``verify._target_family``'s psi matrix."""
    return {k - 1: row[j - 1] for k, row in enumerate(matrix[disk], 1) if j - 1 in row}


def test_targets_built_at_K_match_the_concrete_build():
    kmax = 30
    targets = dict(verify._build_targets(kmax))
    assert list(targets) == [(disk, k) for k in range(1, kmax + 1) for disk in Disk]
    failures, matrix, ranks = verify._target_family(kmax, verify._witnesses(kmax))
    assert failures == {}
    assert ranks == {disk: kmax for disk in Disk}
    for disk in Disk:
        assert len(matrix[disk]) == kmax
        for k in range(1, kmax + 1):
            value = w3_target(disk, k)
            assert targets[disk, k] == value
            column = _column(matrix, disk, k)
            assert column == {
                j - 1: psi(j)(value) for j in range(1, kmax + 1) if psi(j)(value)
            }
            assert all(type(q) is Fraction for q in column.values())


def test_both_disks_share_each_syllable_at_each_k():
    targets = dict(verify._build_targets(5))
    for k in range(1, 6):
        # The k-dependent exponents are those of u_1 and u_3: u^k and u^-k.
        syllables = {}
        for disk in Disk:
            for word, _ in targets[disk, k].terms():
                for syllable in word.syllables:
                    if syllable[0].startswith("u"):
                        assert syllables.setdefault(syllable, syllable) is syllable
        assert sorted(syllables) == [("u_1", -k), ("u_1", k), ("u_3", -k), ("u_3", k)]


def test_verify_all_holds_one_k_of_targets_and_none_at_the_sweeps(monkeypatch):
    kmax = 4
    refs = []  # (k, weak reference) of every value the build yields
    build_targets = verify._build_targets

    def kept(kmax):
        for item in build_targets(kmax):
            refs.append((item[0][1], weakref.ref(item[1])))
            yield item
            del item  # not held while the next one is built

    class Held(RingElement):  # an element that takes weak references
        __slots__ = ("__weakref__",)

    alive = {}  # k -> the k of the targets alive when k's first target is built
    at_k = RingElement.at_k

    def instantiate(self, k, memo=None):
        if k not in alive:
            alive[k] = sorted({j for j, ref in refs if ref() is not None})
        value = at_k(self, k, memo)
        return Held._from_clean_dict(value.alphabet, value._terms)

    class Matrix(dict):  # a dict that takes weak references
        pass

    matrices = []
    target_family = verify._target_family

    def family(*args):
        failures, matrix, ranks = target_family(*args)
        matrix = Matrix(matrix)
        matrices.append(weakref.ref(matrix))
        return failures, matrix, ranks

    monkeypatch.setattr(verify, "_build_targets", kept)
    monkeypatch.setattr(verify, "_target_family", family)
    monkeypatch.setattr(RingElement, "at_k", instantiate)
    sweeps = []
    build_words = verify.bounded_words

    def bounded_words(*args, **kwargs):
        sweeps.append((sorted({j for j, ref in refs if ref() is not None}),
                       [ref() is not None for ref in matrices]))
        return build_words(*args, **kwargs)

    monkeypatch.setattr(verify, "bounded_words", bounded_words)
    reports = verify_all(kmax=kmax, max_syllables=1, max_exponent=1, random_trials=0,
                         workers=1)
    assert all(report.overall == "pass" for report in reports)
    assert [k for k, _ in refs] == [k for k in range(1, kmax + 1) for _ in Disk]
    # No target of k is alive when k + 1's targets are built, and neither
    # a target nor the psi matrix when the hexagon sweep builds its words.
    assert alive == {k: [] for k in range(1, kmax + 1)}
    assert sweeps == [([], [False])]


def test_verify_all_at_kmax_100_peaks_under_900_kb():
    # The target pass holds one target at a time; its psi matrices,
    # elimination pivots and column numbering now set the peak.
    probe = (
        "import gc, tracemalloc\n"
        "from barbellw3.verify import verify_all\n"
        "gc.freeze()\n"
        "tracemalloc.start()\n"
        "verify_all(kmax=100, max_syllables=1, max_exponent=1, random_trials=0, workers=1)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = str(Path(verify.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert result.returncode == 0, result.stderr
    # 673-843 KB on Python 3.10-3.13, the most on 3.10; with all 200
    # targets held through the rank elimination it was 993-1 117 KB.
    assert int(result.stdout) < 900 * 1024


@pytest.mark.parametrize(
    "build, sweeps",
    [
        # Only the hexagon sweep builds the bounded words; every sweep
        # pieces words (the 10 random pairs hold a candidate to piece).
        ("bounded_words", {"hexagon_exhaustive"}),
        ("word_pieces", {"hexagon_exhaustive", "hexagon_random", "span_generators"}),
    ],
    ids=["bounded_words", "word_pieces"],
)
def test_a_failed_word_build_fails_each_sweep_that_makes_it(monkeypatch, build, sweeps):
    def failing(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(verify, build, failing)
    psi_report, hexagon, span, main = verify_all(
        kmax=2, max_syllables=2, max_exponent=1, random_trials=10, seed=0, workers=1
    )
    failed = {
        check.name: check.details
        for report in (psi_report, hexagon, span)
        for check in report.checks
        if not check.passed
    }
    assert failed == dict.fromkeys(sweeps, "RuntimeError: planted")
    # Main-theorem cites the exhaustive sweeps, not the random one.
    assert sweeps - {"hexagon_random"} <= {check.name for check in main.checks if not check.passed}


def test_psi_columns_read_both_witness_monomials(monkeypatch):
    # The targets hold no m2 term; these elements do, and they hit
    # m1 and m2 of one k together, so the two weights must sum.
    kmax = 4
    m = {k: barbell.monomials_m(k) for k in range(1, kmax + 1)}
    elements = {
        (Disk.D1, 1): RingElement(QUAD, [(m[2][1], 5), (m[3][0], Fraction(1, 2))]),
        (Disk.D2, 1): RingElement(QUAD, [(m[4][0], 2), (m[4][1], 2), (parse_word("t_1"), 7)]),
        (Disk.D1, 2): RingElement(QUAD, [(m[1][0], 1), (m[1][1], -3)]),
        (Disk.D2, 2): "construction failed",
    }
    monkeypatch.setattr(verify, "_build_targets", lambda kmax: elements.items())
    _, matrix, _ = verify._target_family(kmax, verify._witnesses(kmax))
    # The failed target leaves no entry.
    assert _column(matrix, Disk.D2, 2) == {}
    for (disk, j), value in elements.items():
        if isinstance(value, RingElement):
            assert _column(matrix, disk, j) == {
                k - 1: psi(k)(value) for k in range(1, kmax + 1) if psi(k)(value)
            }
    assert _column(matrix, Disk.D1, 1) == {1: -5, 2: Fraction(1, 2)}
    assert _column(matrix, Disk.D2, 1) == {}
    assert _column(matrix, Disk.D1, 2) == {0: 4}
    assert matrix[Disk.D1] == [{1: 4}, {0: -5}, {0: Fraction(1, 2)}, {}]
    assert matrix[Disk.D2] == [{}, {}, {}, {}]


def test_a_target_over_another_alphabet_is_refused(monkeypatch):
    element = RingElement(BASE, [(parse_word("t u"), 1)])
    monkeypatch.setattr(verify, "_build_targets", lambda kmax: [((Disk.D1, 1), element)])
    with pytest.raises(AlphabetMismatchError, match="over another alphabet"):
        verify._target_family(1, verify._witnesses(1))


_PSI_KMAX = 3
# m1 and m2 of every k up to one past _PSI_KMAX, and words psi never weighs.
_PSI_WORDS = [
    *(m for k in range(1, _PSI_KMAX + 2) for m in barbell.monomials_m(k)),
    parse_word("t_1"),
    parse_word("t_1^-1 t_3 u_3^-1"),
]


@settings(max_examples=200, deadline=None)
@example(drawn=[(_PSI_WORDS[2], 1), (_PSI_WORDS[3], -1)], cancelled=[])
@example(drawn=[(_PSI_WORDS[0], 2), (_PSI_WORDS[1], 2)], cancelled=[])
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_PSI_WORDS),
            st.fractions(-3, 3, max_denominator=3).filter(bool),
        ),
        max_size=8,
    ),
    st.lists(st.integers(0, 7), max_size=4),
)
def test_psi_reads_a_formal_sum_as_the_functionals_do(drawn, cancelled):
    # Some drawn terms come again with the opposite coefficient, so they cancel.
    terms = drawn + [(drawn[i][0], -drawn[i][1]) for i in cancelled if i < len(drawn)]
    x = RingElement(QUAD, terms)
    index = {run: (k, weight) for run, k, weight in verify._witnesses(_PSI_KMAX)}
    assert verify._psi(((w.syllables, q) for w, q in terms), index) == {
        k: psi(k)(x) for k in range(1, _PSI_KMAX + 1) if psi(k)(x)
    }


def test_exceptional_k_builds_the_target_concretely(monkeypatch):
    built = []
    original = verify.w3_target

    def planted(disk, k):
        built.append((disk, k))
        if k is K:
            # A seam u^k u^-3 that vanishes at k = 3.
            concat_words([parse_word("u^k", k=True), parse_word("u^-3")])
        return original(disk, k)

    monkeypatch.setattr(verify, "w3_target", planted)
    kwargs = dict(kmax=4, max_syllables=1, max_exponent=1, random_trials=10, seed=0, workers=1)
    reports = verify_all(**kwargs)
    assert built == [(Disk.D1, K), (Disk.D2, K), (Disk.D1, 3), (Disk.D2, 3)]
    monkeypatch.undo()
    assert [report_json(r) for r in reports] == [report_json(r) for r in verify_all(**kwargs)]


def test_k_specific_expansion_defect_fails_only_where_it_shows(monkeypatch):
    # Row 0 with u_3^-2 for u_3^-k: right at k = 2 only.
    sign, _ = barbell.T4_EXPANSION_ROWS[0]
    row = (sign, parse_word("t_1^-1 t_3 u_3^-2 t_3^-2", QUAD))
    monkeypatch.setattr(barbell, "T4_EXPANSION_ROWS", (row,) + barbell.T4_EXPANSION_ROWS[1:])
    targets = dict(verify._build_targets(3))
    for disk in Disk:
        assert targets[disk, 2] == w3_target(disk, 2)
        for k in (1, 3):
            assert targets[disk, k] == (
                f"SelfCheckError: polynomial and hard-coded constructions of the "
                f"{disk.value} target disagree at k={k}"
            )
    psi_report, _, _, main = verify_all(
        kmax=3, max_syllables=1, max_exponent=1, random_trials=10, seed=0, workers=1
    )
    status = {check.name: check.status for check in main.checks}
    for disk in Disk:
        assert [status[f"target_psi_{disk.value}_k{k}"] for k in (1, 2, 3)] == [
            "fail", "pass", "fail"
        ]
    assert psi_report.checks[2].details == (
        "target construction failed for d1 at k=1: SelfCheckError: polynomial and "
        "hard-coded constructions of the d1 target disagree at k=1"
    )
    agree = main.checks[0]
    assert agree.details == (
        "4 of 6 targets failed, first: SelfCheckError: polynomial and hard-coded "
        "constructions of the d1 target disagree at k=1"
    )


@pytest.fixture
def pools(monkeypatch):
    """Each process pool opened, as [its size, its tasks]; every pool maps
    in this process.

    No process starts, so the processor count is set high: each suite
    gets the workers it asks for, on any machine.
    """
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1000)
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append([max_workers, []])

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            opened[-1][1] = list(tasks)
            return map(fn, opened[-1][1])

    # _sweep imports the pool where it opens one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return opened


_CHUNKS = ("_hexagon_chunk", "_hexagon_random_chunk", "_span_chunk")


def chunk_tasks(monkeypatch) -> dict[str, list[tuple]]:
    """The task of every chunk call, per chunk function, in call order."""
    tasks = {name: [] for name in _CHUNKS}
    for name, calls in tasks.items():

        def recorded(task, calls=calls, original=getattr(verify, name)):
            calls.append(task)
            return original(task)

        monkeypatch.setattr(verify, name, recorded)
    return tasks


@pytest.mark.parametrize("cpus, workers", [(1000, 2), (1000, 3), (1000, 500), (2, 10**6)])
def test_pools_fit_their_tasks_and_the_ranges_tile_each_sweep(monkeypatch, pools, cpus, workers):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    tasks = chunk_tasks(monkeypatch)
    kwargs = dict(kmax=1, max_syllables=1, max_exponent=1, random_trials=10, seed=0)
    totals = {"_hexagon_chunk": count_words(1, 1) + 1,
              "_hexagon_random_chunk": 10, "_span_chunk": barbell.count_admissible(1, 1)}
    reports = []
    for n in (1, workers):
        for calls in tasks.values():
            calls.clear()
        reports.append([report_json(r) for r in verify_all(**kwargs, workers=n)])
        # Each sweep's ranges cut [0, total) into nonempty pieces, in order.
        for name, total in totals.items():
            edges = [0] + [task[-1] for task in tasks[name]]
            assert [task[-2] for task in tasks[name]] == edges[:-1], name
            assert edges[-1] == total and edges == sorted(set(edges)), name
    assert reports[1] == reports[0]
    # No pool holds a process without a task, or more than the workers or processors.
    assert pools and all(size == len(mapped) <= min(workers, cpus) for size, mapped in pools)


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_pools_that_do_not_fork_write_the_same_report(monkeypatch, method):
    # Workers that start afresh import the chunk functions, and unpickle
    # their tasks' witness runs and forced frozensets under another string
    # hash seed.
    if verify._usable_cpus() < 2 or method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"needs 2 processors and the {method} start method")
    kwargs = dict(kmax=3, max_syllables=2, max_exponent=2, random_trials=200, seed=0)
    serial = emit(verify_all(**kwargs, workers=1), "json")
    pool = functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)
    )
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    assert emit(verify_all(**kwargs, workers=2), "json") == serial


def flipped_hexagon_sign(monkeypatch):
    """Two violations per k in the hexagon sweep, 12 in all at these bounds."""
    sign, pattern = barbell.HEXAGON_TERMS[0]
    terms = ((-sign, pattern),) + barbell.HEXAGON_TERMS[1:]
    flipped = CompiledFormulas(("nu", "mu"), {"H": terms})
    monkeypatch.setattr(verify, "HEXAGON_FORMULAS", flipped)
    kwargs = dict(kmax=6, max_syllables=3, max_exponent=6, random_trials=0)
    return "_hexagon_chunk", lambda workers: verify_hexagon_vanishing(**kwargs, workers=workers)


def planted_span_witness(monkeypatch):
    """A planted psi_1 witness word: 12 span violations at these bounds."""
    real = barbell.monomials_m

    def planted(k):
        m1, m2 = real(k)
        return (parse_word("t_1 u_3^-1 t_3"), m2) if k == 1 else (m1, m2)

    monkeypatch.setattr(barbell, "monomials_m", planted)
    kwargs = dict(kmax=1, max_syllables=1, max_exponent=2)
    return "_span_chunk", lambda workers: verify_span_vanishing(**kwargs, workers=workers)


@pytest.mark.parametrize("plant", [flipped_hexagon_sign, planted_span_witness])
def test_failing_reports_do_not_depend_on_the_split(monkeypatch, pools, plant):
    chunk, run = plant(monkeypatch)
    found = []  # violations per chunk of the last run, in task order

    def counted(task, original=getattr(verify, chunk)):
        checked, violations = original(task)
        found.append(len(violations))
        return checked, violations

    monkeypatch.setattr(verify, chunk, counted)
    reports = []
    for workers in (1, 2, 3):
        found.clear()
        reports.append(report_json(run(workers)))
    assert reports[0] == reports[1] == reports[2]
    sweep = json.loads(reports[0])["checks"][0]
    assert sweep["status"] == "fail"
    assert len(sweep["details"].split("; ")) == verify._VIOLATION_CAP
    # At three workers, two chunks or more find violations, more than the cap in all.
    assert sum(map(bool, found)) >= 2 and sum(found) > verify._VIOLATION_CAP


def test_a_failing_random_sweep_reports_alike_at_any_worker_count(monkeypatch, pools):
    # Twelve witness words, two per k, each the first hexagon term at a pair
    # the random sweep draws from its one stream.
    trials, seed = 64, 5
    rng = random.Random(f"{seed}:0")
    pairs = [(random_word(rng, 4, 4), random_word(rng, 4, 4)) for _ in range(trials)]
    shape = barbell.HEXAGON_FORMULAS.shapes[0]
    planted = [naive_eval_pattern(shape, {"nu": nu, "mu": mu}) for nu, mu in pairs[::5]][:12]
    assert len(set(planted)) == 12
    monkeypatch.setattr(barbell, "monomials_m", lambda k: tuple(planted[2 * k - 2:2 * k]))
    kwargs = dict(kmax=6, max_syllables=1, max_exponent=1, random_trials=trials, seed=seed)
    details = {
        workers: verify_hexagon_vanishing(**kwargs, workers=workers).checks[1].details
        for workers in (1, 2, 3, 5)
    }
    assert len(set(details.values())) == 1
    oracle = brute_force_violations(
        barbell.HEXAGON_FORMULAS, ("H",), "H({1}, {2})", pairs, 6, cap=None
    )
    # The pairs drawn hold more violations than the cap, and the sweep reports the first ones.
    assert len(oracle) > verify._VIOLATION_CAP
    assert details[1].split("; ") == oracle[:verify._VIOLATION_CAP]


def test_one_worker_enumerates_the_admissible_pairs_once(monkeypatch):
    yielded = []

    def counted(*bounds):
        yielded.append(0)
        for pair in barbell.enumerate_admissible(*bounds):
            yielded[-1] += 1
            yield pair

    monkeypatch.setattr(verify, "enumerate_admissible", counted)
    report = verify_span_vanishing(kmax=2, max_syllables=2, max_exponent=2, workers=1)
    assert report.overall == "pass"
    assert yielded == [barbell.count_admissible(2, 2)]


@pytest.mark.parametrize("counter, workers, off", [
    pytest.param(counter, workers, off, id=f"{counter}-{workers}" + ("-under" if off < 0 else ""))
    for off in (1, -1) for counter in ("count_admissible", "count_words") for workers in (1, 3)
])
def test_a_count_one_over_the_build_fails_its_sweep(monkeypatch, pools, counter, workers, off):
    # Each sweep sizes its ranges by the closed form; planted one over, the
    # build falls one short of it, and planted one under, it runs one past
    # it: either way the chunk that holds the end refuses.
    monkeypatch.setattr(verify, counter, lambda *bounds, real=getattr(verify, counter): (
        real(*bounds) + off
    ))
    kwargs = dict(kmax=2, max_syllables=2, max_exponent=2, workers=workers)
    if counter == "count_words":
        check = verify_hexagon_vanishing(**kwargs, random_trials=0).checks[0]
        assert check.status == "fail"
        words = count_words(2, 2) + 1
        assert check.details == f"ValueError: the bounded words number {words}, not {words + off}"
    elif off == -1:
        check = verify_span_vanishing(**kwargs).checks[0]
        assert check.status == "fail"
        total = barbell.count_admissible(2, 2) - 1
        assert check.details == (
            f"ValueError: the admissible enumeration yielded more than {total} pairs"
        )
    else:
        check = verify_span_vanishing(**kwargs).checks[0]
        assert check.status == "fail"
        refusal = re.fullmatch(r"ValueError: the admissible enumeration yielded (\d+) "
                               r"pairs in \[(\d+), (\d+)\), not (\d+)", check.details)
        yielded, start, stop, expected = map(int, refusal.groups())
        assert stop == barbell.count_admissible(2, 2) + 1
        assert yielded + 1 == expected == stop - start


@pytest.mark.parametrize("suite, bounds, refused", [
    (verify_psi_targets, dict(kmax=0), "kmax must be at least 1, not 0"),
    (verify_hexagon_vanishing, dict(kmax=1, max_syllables=0, max_exponent=1),
     "max_syllables must be at least 1, not 0"),
    (verify_hexagon_vanishing, dict(kmax=1, max_syllables=1, max_exponent=1, random_trials=-5),
     "random_trials must be at least 0, not -5"),
    (verify_span_vanishing, dict(kmax=1, max_syllables=1, max_exponent=0),
     "max_exponent must be at least 1, not 0"),
    (verify_main_theorem, dict(kmax=0, max_syllables=1, max_exponent=1),
     "kmax must be at least 1, not 0"),
    (verify_all, dict(kmax=0, max_syllables=1, max_exponent=1, random_trials=1),
     "kmax must be at least 1, not 0"),
    (verify_all, dict(kmax=1, max_syllables=0, max_exponent=1, random_trials=1),
     "max_syllables must be at least 1, not 0"),
    (verify_all, dict(kmax=1, max_syllables=1, max_exponent=-1, random_trials=1),
     "max_exponent must be at least 1, not -1"),
    (verify_all, dict(kmax=1, max_syllables=1, max_exponent=1, random_trials=-5),
     "random_trials must be at least 0, not -5"),
    *((suite, dict(kmax=1, max_syllables=1, max_exponent=1, workers=0),
       "workers must be at least 1, not 0")
      for suite in (verify_hexagon_vanishing, verify_span_vanishing, verify_main_theorem,
                    verify_all)),
])
def test_out_of_range_bounds_are_refused_before_any_check(monkeypatch, suite, bounds, refused):
    ran = []
    monkeypatch.setattr(verify, "_run_check", lambda name, *args: ran.append(name))
    with pytest.raises(ValueError) as refusal:
        suite(**bounds)
    assert str(refusal.value) == refused
    assert ran == []


def planted_at(monkeypatch, word):
    """Make ``word`` the first witness monomial at k = 1."""
    real = barbell.monomials_m
    monkeypatch.setattr(
        barbell, "monomials_m", lambda k: (word, real(k)[1]) if k == 1 else real(k)
    )


@pytest.mark.parametrize(
    "suite, witness",
    [
        # The first hexagon term at (t u, u^-1 t).
        (verify_hexagon_vanishing, "t_1 u_1 u_3^-1 t_3"),
        (verify_span_vanishing, "t_1 u_3^-1 t_3"),
    ],
)
def test_a_planted_witness_fails_alike_at_one_and_two_workers(monkeypatch, suite, witness):
    # The witnesses travel in the tasks, so a real pool's workers see the
    # plant under any start method.
    planted_at(monkeypatch, parse_word(witness))
    one, two = (
        suite(kmax=2, max_syllables=2, max_exponent=2, workers=workers).checks[0]
        for workers in (1, 2)
    )
    assert one.status == two.status == "fail"
    assert one.details == two.details
    assert one.details.startswith("psi_1(")


def test_words_and_pieces_share_one_syllable_per_value(monkeypatch):
    built = {"bounded_words": [], "word_pieces": []}  # what the hexagon chunk builds
    for name, results in built.items():

        def recorded(*args, original=getattr(verify, name), results=results, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(verify, name, recorded)
    verify_hexagon_vanishing(kmax=1, max_syllables=3, max_exponent=3, random_trials=0)
    [words], pieces = built["bounded_words"], built["word_pieces"]
    # Two letters and four tagged letters, each at six exponents.
    assert len({id(s) for word in words for s in word.syllables}) <= 12
    assert len({id(s) for four in pieces for run in four for s in run}) <= 24
    assert len(pieces) == len(words) == 1 + 12 + 12 * 6 + 12 * 6 * 6


def test_each_sweep_builds_its_words_and_pieces_once(monkeypatch):
    check = [None]  # the check running when a call is made
    calls = []
    run_check = verify._run_check

    def tracked_check(name, *args):
        check[0] = name
        return run_check(name, *args)

    monkeypatch.setattr(verify, "_run_check", tracked_check)
    for name in ("bounded_words", "word_pieces"):

        def counted(*args, name=name, original=getattr(verify, name), **kwargs):
            calls.append((check[0], name, args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    reports = verify_all(
        kmax=2, max_syllables=2, max_exponent=2, random_trials=10, workers=1
    )
    assert all(report.overall == "pass" for report in reports)
    # At one worker the hexagon chunk builds the bounded words once and pieces each once.
    bounded = Counter(sweep for sweep, name, _ in calls if name == "bounded_words")
    assert bounded == {"hexagon_exhaustive": 1}
    pieced = [w for where, name, w in calls
              if where == "hexagon_exhaustive" and name == "word_pieces"]
    assert pieced and len(pieced) == len(set(pieced))
    # The span chunk pieces each word of its candidate pairs once, and no other.
    _, [(forced_a, forced_c)] = verify._psi_witnesses(2, barbell.T_POLY_FORMULAS)
    candidates = {
        w
        for a, c in barbell.enumerate_admissible(2, 2)
        if a.syllables in forced_a or c.syllables in forced_c
        for w in (a, c)
    }
    pieced = [w for where, name, w in calls
              if where == "span_generators" and name == "word_pieces"]
    assert candidates and len(pieced) == len(set(pieced)) and set(pieced) == candidates


def test_every_task_is_small_hashable_and_picklable(monkeypatch, pools):
    # A task carries its sweep's bounds, witnesses and forced sets, not its
    # words: about 1.5 KB pickled here, where the (3, 3) words alone take 12 KB.
    tasks = chunk_tasks(monkeypatch)
    verify_all(kmax=10, max_syllables=3, max_exponent=3, random_trials=10, workers=3)
    assert all(tasks.values())
    for task in (task for calls in tasks.values() for task in calls):
        hash(task)
        assert pickle.loads(pickle.dumps(task)) == task
        assert len(pickle.dumps(task)) < 2048


def test_serial_run_loads_neither_the_process_pool_nor_dataclasses():
    code = (
        "import sys\n"
        "from barbellw3.cli import main\n"
        "main(['verify', 'all', '--kmax', '2', '--max-syllables', '1',"
        " '--max-exponent', '1', '--trials', '4', '--workers', '1', '--format', 'json'])\n"
        "print(sorted(name for name in sys.modules"
        " if name in ('concurrent.futures', 'dataclasses', 'inspect')"
        " or name.startswith(('concurrent.futures.', 'multiprocessing'))),"
        " file=sys.stderr)\n"
    )
    src = str(Path(verify.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["overall"] == "pass"
    assert result.stderr == "[]\n"


def test_witnesses_are_built_once_per_suite_call(monkeypatch):
    calls = []
    original = verify._witnesses

    def counted(kmax):
        calls.append(kmax)
        return original(kmax)

    monkeypatch.setattr(verify, "_witnesses", counted)
    kwargs = dict(kmax=2, max_syllables=1, max_exponent=1, seed=0, workers=1)
    report = verify_hexagon_vanishing(**kwargs, random_trials=0)
    assert calls == [2]
    assert report.checks[1].details == "0 seeded random pairs at bounds (4, 4): all zero"
    # One build shared by the exhaustive and the random sweep.
    verify_hexagon_vanishing(**kwargs, random_trials=10)
    assert calls == [2, 2]
    verify_span_vanishing(kmax=2, max_syllables=1, max_exponent=1, workers=1)
    verify_main_theorem(kmax=2, max_syllables=1, max_exponent=1, workers=1)
    verify_psi_targets(kmax=2)
    assert calls == [2, 2, 2, 2, 2]


def test_one_failed_target_fails_only_the_checks_that_use_it(monkeypatch):
    original = verify.w3_target

    def broken(disk, k):
        # The failed build at K sends every k of D2 to a concrete build.
        if disk is barbell.Disk.D2 and (k is K or k == 2):
            raise barbell.SelfCheckError("planted")
        return original(disk, k)

    monkeypatch.setattr(verify, "w3_target", broken)
    psi_report, _, _, main = verify_all(
        kmax=2, max_syllables=1, max_exponent=1, random_trials=10, seed=0, workers=1
    )
    failed = {
        check.name: check.details
        for report in (psi_report, main)
        for check in report.checks
        if not check.passed
    }
    assert set(failed) == {
        "psi_target_d2_k1",
        "psi_target_d2_k2",
        "target_expansions_agree",
        "target_psi_d2_k2",
        "rank_d2",
        "certificate_d1_k1",
        "certificate_d2_k1",
        "certificate_d1_k2",
        "certificate_d2_k2",
    }
    reason = "target construction failed for d2 at k=2: SelfCheckError: planted"
    assert failed["psi_target_d2_k1"] == failed["rank_d2"] == reason
    assert failed["target_expansions_agree"] == (
        "1 of 4 targets failed, first: SelfCheckError: planted"
    )


def test_reports_are_deterministic():
    kwargs = dict(kmax=2, max_syllables=2, max_exponent=1, random_trials=40, seed=11)
    first = verify_hexagon_vanishing(workers=1, **kwargs)
    second = verify_hexagon_vanishing(workers=1, **kwargs)
    assert report_json(first) == report_json(second)


def test_reports_do_not_depend_on_worker_count(monkeypatch):
    # Three processors, whatever the machine has, so the hexagon sweep
    # still splits three ways.
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 3)
    kwargs = dict(kmax=2, max_syllables=2, max_exponent=1, random_trials=40, seed=11)
    serial = verify_hexagon_vanishing(workers=1, **kwargs)
    parallel = verify_hexagon_vanishing(workers=3, **kwargs)
    assert report_json(serial) == report_json(parallel)
    span_serial = verify_span_vanishing(kmax=1, max_syllables=1, max_exponent=2, workers=1)
    span_parallel = verify_span_vanishing(kmax=1, max_syllables=1, max_exponent=2, workers=2)
    assert report_json(span_serial) == report_json(span_parallel)


def test_random_suite_seed_sensitivity():
    base = dict(kmax=1, max_syllables=1, max_exponent=1, random_trials=30, workers=1)
    a = verify_hexagon_vanishing(seed=1, **base)
    b = verify_hexagon_vanishing(seed=2, **base)
    assert a.overall == b.overall == "pass"
    details_a = next(c for c in a.checks if c.name == "hexagon_random").details
    details_b = next(c for c in b.checks if c.name == "hexagon_random").details
    assert details_a == details_b  # same trial count, both clean


def _main_theorem_on(monkeypatch, kmax, value):
    """verify_main_theorem at word bounds (1, 1), with value(disk, k) for
    the target of each disk at each k = 1..kmax."""
    targets = {(disk, k): value(disk, k) for k in range(1, kmax + 1) for disk in Disk}
    monkeypatch.setattr(verify, "_build_targets", lambda kmax: targets.items())
    return verify_main_theorem(kmax=kmax, max_syllables=1, max_exponent=1, workers=1)


def test_negative_control_fails_main_suite(monkeypatch):
    fake = lambda disk, k: t_poly(4, parse_word("t"), parse_word("u"))
    report = _main_theorem_on(monkeypatch, 1, fake)
    assert report.overall == "fail"
    status = {check.name: check.status for check in report.checks}
    assert status["target_psi_d1_k1"] == "fail"
    assert status["target_psi_d2_k1"] == "fail"
    assert status["certificate_d1_k1"] == "fail"
    assert status["certificate_d2_k1"] == "fail"
    assert status["hexagon_exhaustive"] == "pass"
    assert status["span_generators"] == "pass"


def test_planted_dependence_fails_the_rank_check(monkeypatch):
    def dependent(disk, k):
        if disk is barbell.Disk.D1 and k == 3:
            return dependent(disk, 1) + dependent(disk, 2)
        return barbell.w3_target(disk, k)

    report = _main_theorem_on(monkeypatch, 3, dependent)
    checks = {check.name: check for check in report.checks}
    assert checks["rank_d1"].status == "fail"
    assert checks["rank_d1"].details == (
        "rank of the d1 family is 2 by elimination and 2 by the functional matrix, "
        "expected 3"
    )
    assert checks["certificate_d1_k3"].status == "fail"
    assert checks["rank_d2"].status == "pass"
    assert checks["certificate_d2_k3"].status == "pass"


# psi(k)'s witness word with weight 1.
def _witness(k):
    word = parse_word(f"t_1^-1 t_3 u_3^-{k} t_3^-2", QUAD)
    assert psi(k).weights[word] == 1
    return word


def _psi_targets_report(monkeypatch, kmax, targets):
    monkeypatch.setattr(verify, "_build_targets", lambda kmax: targets.items())
    return verify_psi_targets(kmax)


def test_psi_matrix_off_diagonal_details_list_j_in_ascending_order(monkeypatch):
    kmax = 3
    targets = dict(verify._build_targets(kmax))
    targets[Disk.D1, 3] += RingElement.monomial(_witness(1), Fraction(-1, 2))
    targets[Disk.D1, 2] += RingElement.monomial(_witness(1), Fraction(2, 3))
    report = _psi_targets_report(monkeypatch, kmax, targets)
    failed = {check.name: check.details for check in report.checks if not check.passed}
    assert failed == {
        "psi_target_d1_k1": (
            "psi_1 is nonzero off the diagonal: {2: Fraction(2, 3), 3: Fraction(-1, 2)}"
        )
    }


def test_both_entry_points_write_one_failing_psi_targets_report(monkeypatch):
    kmax = 3
    targets = dict(verify._build_targets(kmax))
    targets[Disk.D2, 2] = "ValueError: planted"
    targets[Disk.D1, 3] += RingElement.monomial(_witness(1), Fraction(-1, 2))
    alone = _psi_targets_report(monkeypatch, kmax, targets)
    first = verify_all(kmax, max_syllables=1, max_exponent=1, random_trials=0, workers=1)[0]
    assert alone.overall == first.overall == "fail"
    assert report_json(alone) == report_json(first)


def test_psi_matrix_zero_diagonal_details(monkeypatch):
    kmax = 3
    # Each plant cancels psi(k) on its target at k: the diagonal entry is 0.
    plants = {(Disk.D1, 2): RingElement.monomial(_witness(2), -1),
              (Disk.D2, 1): RingElement.monomial(_witness(1), -3)}
    targets = dict(verify._build_targets(kmax))
    for key, plant in plants.items():
        targets[key] += plant
    failed = {
        check.name: check.details
        for check in _psi_targets_report(monkeypatch, kmax, targets).checks
        if not check.passed
    }
    assert failed == {
        "psi_target_d2_k1": "psi_1 on the d2 target at k=1 is 0, expected 3",
        "psi_target_d1_k2": "psi_2 on the d1 target at k=2 is 0, expected 1",
    }

    def planted(disk, k):
        value = w3_target(disk, k)
        return value + plants[disk, k] if (disk, k) in plants else value

    report = _main_theorem_on(monkeypatch, kmax, planted)
    failed = {
        check.name: check.details
        for check in report.checks
        if not check.passed and not check.name.startswith("certificate_")
    }
    assert failed == {
        "target_psi_d2_k1": "psi_1 on the d2 value is 0, expected 3",
        "target_psi_d1_k2": "psi_2 on the d1 value is 0, expected 1",
        "rank_d1": (
            "rank of the d1 family is 3 by elimination and 2 by the functional "
            "matrix, expected 3"
        ),
        "rank_d2": (
            "rank of the d2 family is 3 by elimination and 2 by the functional "
            "matrix, expected 3"
        ),
    }


def test_corrupted_expansion_table_is_caught(monkeypatch):
    sign, word = barbell.T4_EXPANSION_ROWS[0]
    monkeypatch.setattr(
        barbell, "T4_EXPANSION_ROWS", ((-sign, word),) + tuple(barbell.T4_EXPANSION_ROWS[1:])
    )
    report = verify_main_theorem(kmax=1, max_syllables=1, max_exponent=1, workers=1)
    assert report.overall == "fail"
    status = {check.name: check.status for check in report.checks}
    assert status["target_expansions_agree"] == "fail"
    # The suites that share the target build fail their checks, not the run.
    psi_report = verify_psi_targets(2)
    assert [check.status for check in psi_report.checks] == ["fail"] * 4
    assert psi_report.checks[0].details == (
        "target construction failed for d1 at k=1: SelfCheckError: polynomial and "
        "hard-coded constructions of the d1 target disagree at k=1"
    )
    psi_report, hexagon_report, span_report, main = verify_all(
        kmax=1, max_syllables=1, max_exponent=1, random_trials=10, seed=0, workers=1
    )
    assert psi_report.overall == main.overall == "fail"
    assert hexagon_report.overall == span_report.overall == "pass"
    status = {check.name: check.status for check in main.checks}
    for name in ("target_expansions_agree", "target_psi_d1_k1", "target_psi_d2_k1",
                 "rank_d1", "rank_d2", "certificate_d1_k1", "certificate_d2_k1"):
        assert status[name] == "fail", name
    assert status["hexagon_exhaustive"] == status["span_generators"] == "pass"


def test_corrupted_reference_table_is_caught(monkeypatch):
    text, appears_in, m1_row, m2_row = solver.REFERENCE_TABLE_ROWS[0]
    mutated = ((text, (1,), m1_row, m2_row),) + tuple(solver.REFERENCE_TABLE_ROWS[1:])
    monkeypatch.setattr(solver, "REFERENCE_TABLE_ROWS", mutated)
    report = verify_span_vanishing(kmax=1, max_syllables=1, max_exponent=1, workers=1)
    assert report.overall == "fail"
    status = {check.name: check.status for check in report.checks}
    assert status["solution_table_k1"] == "fail"
    assert status["span_generators"] == "pass"
    # Through verify_all, main-theorem cites the failed table check.
    reports = verify_all(
        kmax=1, max_syllables=1, max_exponent=1, random_trials=10, seed=0, workers=1
    )
    span, main = reports[2], reports[3]
    for suite in (span, main):
        status = {check.name: check.status for check in suite.checks}
        assert status["solution_table_k1"] == "fail"
    certificates = [c for c in main.checks if c.name.startswith("certificate_")]
    assert [c.name for c in certificates] == ["certificate_d1_k1", "certificate_d2_k1"]
    assert all(c.status == "fail" for c in certificates)


def test_transcribed_word_right_at_one_k_fails_the_other_k(monkeypatch):
    # Row 0's m1 solution c = t u^k t^-1, transcribed as t u^2 t^-1: right
    # at k = 2 only, so each k instantiates the transcription on its own.
    text, appears_in, (a, _), m2_row = solver.REFERENCE_TABLE_ROWS[0]
    mutated = ((text, appears_in, (a, parse_word("t u^2 t^-1")), m2_row),) + tuple(
        solver.REFERENCE_TABLE_ROWS[1:]
    )
    monkeypatch.setattr(solver, "REFERENCE_TABLE_ROWS", mutated)
    report = verify_span_vanishing(kmax=3, max_syllables=1, max_exponent=1, workers=1)
    check = {check.name: check for check in report.checks}
    assert check["solution_table_k1"].status == "fail"
    assert check["solution_table_k1"].details == (
        "TableError: shape a_1 c_3^-1 a_3: solutions at k=1 differ from the transcription"
    )
    assert check["solution_table_k2"].status == "pass"
    assert check["solution_table_k3"].status == "fail"


def test_empty_report_passes():
    report = Report(suite="empty", parameters={}, checks=[])
    assert report.overall == "pass"


def test_failed_check_carries_reason(monkeypatch):
    fake = lambda disk, k: t_poly(4, parse_word("t"), parse_word("u"))
    report = _main_theorem_on(monkeypatch, 1, fake)
    failing = next(c for c in report.checks if c.status == "fail")
    assert failing.details


def test_a_repeated_witness_word_is_refused(monkeypatch, capsys):
    # psi(2) planted to weigh m1(1) again: a lookup from word to (k,
    # weight) would keep one of the two k, a sum over psi would count both.
    real = barbell.monomials_m
    repeated = real(1)[0]

    def planted(k):
        m1, m2 = real(k)
        return (repeated, m2) if k == 2 else (m1, m2)

    monkeypatch.setattr(barbell, "monomials_m", planted)
    message = f"psi(1) and psi(2) both weigh the word {repeated}"
    assert message == "psi(1) and psi(2) both weigh the word t_1^-1 t_3 u_3^-1 t_3^-2"
    with pytest.raises(ValueError) as raised:
        verify._witnesses(3)
    assert str(raised.value) == message
    assert verify._witnesses(1)  # below the repeat nothing is refused
    bounds = dict(kmax=2, max_syllables=1, max_exponent=1)
    for run in (
        lambda: verify_all(**bounds, random_trials=10, seed=0, workers=1),
        lambda: verify_psi_targets(kmax=2),
        lambda: verify_hexagon_vanishing(**bounds, random_trials=10, seed=0, workers=1),
        lambda: verify_span_vanishing(**bounds, workers=1),
        lambda: verify_main_theorem(**bounds, workers=1),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            run()
    # The command line reports it as an error, not as a verdict, in every suite.
    for suite in ("all", "psi", "hexagon", "span", "main"):
        code = main(["verify", suite, "--kmax", "2", "--max-syllables", "1",
                     "--max-exponent", "1", "--workers", "1", "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), suite
