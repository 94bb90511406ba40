"""Verification suites: check structure, determinism, and failure detection."""

from __future__ import annotations

import json
from collections import Counter

import pytest

import barbellw3.barbell as barbell
import barbellw3.solver as solver
import barbellw3.verify as verify
from barbellw3.barbell import t_poly
from barbellw3.cli import emit
from barbellw3.verify import (
    Check,
    Report,
    verify_all,
    verify_hexagon_vanishing,
    verify_main_theorem,
    verify_psi_targets,
    verify_span_vanishing,
)
from barbellw3.words import parse_word


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
    assert counts["compare_with_reference"] == counts["hexagon_case_analysis"] == 2
    assert set(counts) == set(names)
    assert len(calls) == len(set(calls))  # no (function, k or task) runs twice
    # Citing the checks already run leaves the report bytes unchanged.
    monkeypatch.undo()
    alone = verify_main_theorem(**kwargs, workers=1)
    assert emit(reports[3], "json") == emit(alone, "json")


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
    assert len(built) == 2 * kmax
    assert set(built) == {(disk, k) for disk in barbell.Disk for k in range(1, kmax + 1)}


def test_one_failed_target_fails_only_the_checks_that_use_it(monkeypatch):
    original = verify.w3_target

    def broken(disk, k):
        if (disk, k) == (barbell.Disk.D2, 2):
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


def test_reports_do_not_depend_on_worker_count():
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


def test_negative_control_fails_main_suite():
    fake = lambda disk, k: t_poly(4, parse_word("t"), parse_word("u"))
    report = verify_main_theorem(
        kmax=1, max_syllables=1, max_exponent=1, workers=1, target_factory=fake
    )
    assert report.overall == "fail"
    status = {check.name: check.status for check in report.checks}
    assert status["target_psi_d1_k1"] == "fail"
    assert status["target_psi_d2_k1"] == "fail"
    assert status["certificate_d1_k1"] == "fail"
    assert status["certificate_d2_k1"] == "fail"
    assert status["hexagon_exhaustive"] == "pass"
    assert status["span_generators"] == "pass"


def test_planted_dependence_fails_the_rank_check():
    def dependent(disk, k):
        if disk is barbell.Disk.D1 and k == 3:
            return dependent(disk, 1) + dependent(disk, 2)
        return barbell.w3_target(disk, k).value

    report = verify_main_theorem(
        kmax=3, max_syllables=1, max_exponent=1, workers=1, target_factory=dependent
    )
    checks = {check.name: check for check in report.checks}
    assert checks["rank_d1"].status == "fail"
    assert "is 2 by elimination" in checks["rank_d1"].details
    assert checks["certificate_d1_k3"].status == "fail"
    assert checks["rank_d2"].status == "pass"
    assert checks["certificate_d2_k3"].status == "pass"


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


def test_empty_report_passes():
    report = Report(suite="empty", parameters={}, checks=[])
    assert report.overall == "pass"


def test_failed_check_carries_reason():
    fake = lambda disk, k: t_poly(4, parse_word("t"), parse_word("u"))
    report = verify_main_theorem(
        kmax=1, max_syllables=1, max_exponent=1, workers=1, target_factory=fake
    )
    failing = next(c for c in report.checks if c.status == "fail")
    assert failing.details
