"""Acceptance suite: one test per published criterion, at the stated bounds.

Each test enforces the exact claim and its time budget; the terminal
summary (see conftest) prints one ACCEPTANCE line per criterion.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from barbellw3.barbell import (
    HEXAGON_TERMS,
    Disk,
    is_admissible,
    monomials_m,
    psi,
    t4_expansion,
    t6_expansion,
    t_poly,
    target_argument_pair,
    w3_target,
)
from barbellw3.patterns import eval_pattern
from barbellw3.ring import matrix_rank_exact, rank
from barbellw3.solver import (
    compare_with_reference,
    hexagon_case_analysis,
    regenerate_table,
    solve,
    table_patterns,
)
from barbellw3 import verify
from barbellw3.verify import verify_hexagon_vanishing, verify_main_theorem
from barbellw3.words import parse_word

from oracles import oracle_solutions
from test_words import rand_word


def test_criterion_1_target_expansion_identity():
    started = time.perf_counter()
    for k in range(1, 21):
        a, c = target_argument_pair(k)
        four = t_poly(4, a, c)
        six = t_poly(6, a, c)
        assert four.term_count == 8
        assert six.term_count == 16
        assert t4_expansion(k) == four
        assert t6_expansion(k) == six
        assert w3_target(Disk.D1, k) == four
        assert w3_target(Disk.D2, k) == 2 * four + six
    assert time.perf_counter() - started < 1.0


def test_criterion_2_functional_values_on_targets():
    started = time.perf_counter()
    for k in range(1, 21):
        assert psi(k)(w3_target(Disk.D1, k)) == 1
        assert psi(k)(w3_target(Disk.D2, k)) == 3
    for k in range(1, 11):
        for j in range(1, 11):
            expected = 1 if k == j else 0
            assert psi(k)(w3_target(Disk.D1, j)) == expected
            assert psi(k)(w3_target(Disk.D2, j)) == 3 * expected
    assert time.perf_counter() - started < 1.0


def test_criterion_3_functional_kills_relators():
    started = time.perf_counter()
    report = verify_hexagon_vanishing(
        kmax=5,
        max_syllables=2,
        max_exponent=2,
        random_trials=10_000,
        seed=0,
        workers=1,
    )
    assert report.overall == "pass"
    names = [check.name for check in report.checks]
    assert "hexagon_exhaustive" in names and "hexagon_random" in names
    assert {f"hexagon_cases_k{k}" for k in range(1, 6)} <= set(names)
    # the four proof bullets: each relator term hits each marker monomial
    # exactly once, and the paired term carries the same sign
    for k in range(1, 6):
        cases = hexagon_case_analysis(k)
        assert len(cases) == 8
        by_key = {(case.term_index, case.target_name): case for case in cases}
        assert set(by_key) == {(i, m) for i in (1, 2, 3, 4) for m in ("m1", "m2")}
        for case in cases:
            partner = by_key[
                (case.partner_index, "m2" if case.target_name == "m1" else "m1")
            ]
            assert case.sign == HEXAGON_TERMS[case.partner_index - 1][0]
            assert (partner.nu, partner.mu) == (case.nu, case.mu)
    assert time.perf_counter() - started < 60.0


def test_criterion_4_solution_table():
    started = time.perf_counter()
    for k in range(1, 11):
        rows = compare_with_reference(k)
        assert len(rows) == 21
        for row in rows:
            assert not is_admissible(*row.m1_solution)
            assert not is_admissible(*row.m2_solution)
    assert time.perf_counter() - started < 10.0


def test_criterion_5_functional_kills_span():
    started = time.perf_counter()
    from barbellw3.verify import verify_span_vanishing

    report = verify_span_vanishing(kmax=10, max_syllables=3, max_exponent=3, workers=1)
    assert report.overall == "pass"
    generators = next(c for c in report.checks if c.name == "span_generators")
    assert generators.status == "pass"
    assert "133128 admissible pairs" in generators.details
    assert time.perf_counter() - started < 120.0


def test_criterion_6_targets_linearly_independent():
    started = time.perf_counter()
    for disk, scale in ((Disk.D1, 1), (Disk.D2, 3)):
        targets = [w3_target(disk, k) for k in range(1, 11)]
        elimination_rank = rank(targets)
        functional_matrix = [
            [psi(k)(target) for target in targets] for k in range(1, 11)
        ]
        functional_rank = matrix_rank_exact(functional_matrix)
        assert elimination_rank == functional_rank == 10
        assert functional_matrix == [
            [scale if k == j else 0 for j in range(10)] for k in range(10)
        ]
    assert time.perf_counter() - started < 10.0


def test_criterion_7_solver_matches_oracle():
    started = time.perf_counter()
    rng = random.Random(1729)
    patterns = [pattern for pattern, _ in table_patterns()]
    bounds = (3, 4)
    checked = 0
    while checked < 500:
        pattern = rng.choice(patterns)
        values = {
            var: rand_word(rng, max_syllables=2, max_exponent=2)
            for var in pattern.variables()
        }
        if any(word.is_identity for word in values.values()):
            continue
        checked += 1
        target = eval_pattern(pattern, values)
        found = solve(pattern, target)
        in_bounds = {
            s.items
            for s in found
            if all(
                word.syllable_count <= bounds[0] and word.max_exponent() <= bounds[1]
                for _, word in s.items
            )
        }
        assert in_bounds == oracle_solutions(pattern, target, *bounds)
        assert tuple(sorted(values.items())) in in_bounds
    assert time.perf_counter() - started < 120.0


def test_criterion_8_negative_control(monkeypatch):
    started = time.perf_counter()
    fake = t_poly(4, parse_word("t"), parse_word("u"))
    targets = {(disk, k): fake for k in range(1, 4) for disk in Disk}
    monkeypatch.setattr(verify, "_build_targets", lambda kmax: targets.items())
    report = verify_main_theorem(kmax=3, max_syllables=1, max_exponent=1, workers=1)
    assert report.overall == "fail"
    status = {check.name: check.status for check in report.checks}
    for k in range(1, 4):
        for disk in ("d1", "d2"):
            assert status[f"target_psi_{disk}_k{k}"] == "fail"
            assert status[f"certificate_{disk}_k{k}"] == "fail"
    assert time.perf_counter() - started < 10.0


def test_criterion_9_reports_are_byte_identical():
    def run(workers):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "barbellw3",
                "verify",
                "all",
                "--kmax",
                "10",
                "--seed",
                "0",
                "--workers",
                str(workers),
                "--format",
                "json",
            ],
            capture_output=True,
            timeout=900,
        )
        assert result.returncode == 0, result.stderr.decode()
        return result.stdout

    first = run(1)
    second = run(1)
    eight = run(8)
    assert first == second == eight
    # The report at the default bounds (3, 3), pinned like those of test_cli.
    assert hashlib.sha256(first).hexdigest() == (
        "676d0c24dc141dc391169f421f202a272d212d7c6575de1a77990d65798f6809"
    )
    combined = json.loads(first)
    assert combined["overall"] == "pass"


def test_readme_library_quick_tour_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "['a = t^-1, c = t u^2 t^-1']\n"
