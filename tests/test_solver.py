"""Word-equation solving, the solution table, and the relator case analysis."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import barbellw3.solver as solver
from barbellw3.barbell import (
    HEXAGON_TERMS,
    T_FORMULAS,
    hexagon,
    is_admissible,
    monomials_m,
)
from barbellw3.patterns import eval_pattern, parse_pattern
from barbellw3.solver import (
    REFERENCE_TABLE_ROWS,
    CaseAnalysisError,
    Solution,
    Solutions,
    TableError,
    compare_with_reference,
    for_every_k,
    hexagon_case_analysis,
    reference_table,
    regenerate_table,
    solve,
    table_patterns,
)
from barbellw3.words import (
    BASE,
    QUAD,
    K,
    at_k,
    identity,
    parse_word,
    recorded_roots,
    split_blocks,
)

from oracles import oracle_solutions
from test_words import rand_word


def assignments(solutions):
    return {tuple((var, str(word)) for var, word in s.items) for s in solutions}


def test_solution_basics():
    s = Solution.of({"c": parse_word("u"), "a": parse_word("t")})
    assert str(s) == "a = t, c = u"
    assert s.items == (("a", parse_word("t")), ("c", parse_word("u")))
    assert s.assignment == {"a": parse_word("t"), "c": parse_word("u")}


def test_solve_two_variable_examples():
    cases = [
        ("a_1 c_3^-1 a_3", "t_1^-1 t_3 u_3^-2 t_3^-2", {(("a", "t^-1"), ("c", "t u^2 t^-1"))}),
        ("c_1^-1 a_1 a_3", "t_1^2 u_1 t_1^-1 t_3", {(("a", "t"), ("c", "t^2 u^-1 t^-2"))}),
        ("c_1^-1 a_3^-1", "u_1^-2 t_3^-1", {(("a", "t"), ("c", "u^2"))}),
    ]
    for pattern_text, target_text, expected in cases:
        found = solve(parse_pattern(pattern_text), parse_word(target_text))
        assert assignments(found) == expected


def test_solve_finds_collapse_solutions():
    # c = a collapses the middle so the pattern can reach a pure block
    found = solve(parse_pattern("a_1 c_3^-1 a_3"), parse_word("t_1"))
    assert assignments(found) == {(("a", "t"), ("c", "t"))}


def test_solve_single_variable():
    found = solve(parse_pattern("a_1 a_3"), parse_word("t_1 t_3"))
    assert assignments(found) == {(("a", "t"),)}
    assert solve(parse_pattern("a_1 a_3"), parse_word("t_1 u_3")) == ()
    assert solve(parse_pattern("a_1 a_3"), parse_word("t_3 t_1")) == ()


def test_solve_never_returns_trivial_values():
    found = solve(parse_pattern("a_1 a_1^-1"), identity(QUAD), 1, 1)
    assert found and all(not word.is_identity for s in found for _, word in s.items)
    assert assignments(found) == {
        (("a", "t"),), (("a", "t^-1"),), (("a", "u"),), (("a", "u^-1"),)
    }
    # a a^-1 = 1 is not division-solvable: only the fallback finds these.
    assert found.used_fallback


CERTIFICATE_SHAPES = [pattern for pattern, _ in table_patterns()] + [
    pattern for _, pattern in HEXAGON_TERMS
]


def branch_solutions(pattern, target):
    """solve's answer recomputed by matching every collapse branch of the
    pattern, enumerated afresh, against the target's blocks."""
    blocks = split_blocks(target)
    variables = pattern.variables()
    runs = solver._pattern_runs(pattern)
    found = set()
    for surviving, collapsed in solver._collapse_branches(runs, (), set()):
        if [tag for tag, _ in surviving] != [tag for tag, _ in blocks]:
            continue
        equations = [
            (factors, word) for (_, factors), (_, word) in zip(surviving, blocks)
        ]
        equations += [(factors, identity(BASE)) for factors in collapsed]
        assignments, _ = solver._solve_system(
            equations, {}, 4, target.max_exponent() + 1
        )
        for assignment in assignments:
            if all(v in assignment and not assignment[v].is_identity for v in variables):
                if eval_pattern(pattern, assignment) == target:
                    found.add(tuple(sorted((v, assignment[v]) for v in variables)))
    return found


def test_planned_solve_matches_fresh_branch_enumeration():
    assert len(CERTIFICATE_SHAPES) == 25
    for k in range(1, 6):
        for target in monomials_m(k):
            for pattern in CERTIFICATE_SHAPES:
                found = solve(pattern, target)
                assert {s.items for s in found} == branch_solutions(pattern, target)
                assert len(found) == 1 and not found.used_fallback
    # Targets whose blocks only a collapse can reach.
    for pattern_text, target_text in [
        ("a_1 c_3^-1 a_3", "t_1"),
        ("c_1^-1 a_1 a_3", "t_3^2"),
        ("c_1 a_1^-1 a_3^-1", "u_3^2"),
        ("nu_1^-1 mu_3 nu_3^-1", "t_1^-1"),
    ]:
        pattern, target = parse_pattern(pattern_text), parse_word(target_text)
        found = solve(pattern, target)
        assert {s.items for s in found} == branch_solutions(pattern, target)


def test_solve_output_is_sorted_and_verified():
    pattern = parse_pattern("a_1 c_3^-1 a_3")
    target = parse_word("t_1^-1 t_3 u_3^-2 t_3^-2")
    found = solve(pattern, target)
    keys = [s.sort_key() for s in found]
    assert keys == sorted(keys)
    for s in found:
        assert eval_pattern(pattern, s.assignment) == target


def test_solve_matches_exhaustive_oracle_random():
    rng = random.Random(2718)
    patterns = [pattern for pattern, _ in table_patterns()]
    for _ in range(120):
        pattern = rng.choice(patterns)
        values = {
            var: rand_word(rng, max_syllables=2, max_exponent=2)
            for var in pattern.variables()
        }
        if any(word.is_identity for word in values.values()):
            continue
        target = eval_pattern(pattern, values)
        found = solve(pattern, target, 3, 4)
        planted = tuple(sorted(values.items()))
        mine = {s.items for s in found}
        assert planted in mine
        expected = oracle_solutions(pattern, target, 3, 4)
        assert expected <= mine
        for extra in mine - expected:
            assert any(
                word.syllable_count > 3 or word.max_exponent() > 4
                for _, word in extra
            )


def test_table_patterns_shape():
    entries = table_patterns()
    assert len(entries) == 21
    texts = [str(pattern) for pattern, _ in entries]
    assert len(set(texts)) == 21
    assert texts[0] == "a_1 c_3^-1 a_3"
    for pattern, appears_in in entries:
        formula_kinds = tuple(
            kind
            for kind in (1, 3, 4, 6)
            if any(term == pattern for _, term in T_FORMULAS[kind])
        )
        assert appears_in == formula_kinds and appears_in


def test_regenerate_table():
    rows = regenerate_table(1)
    assert len(rows) == 21
    m1, m2 = monomials_m(1)
    for row in rows:
        a1, c1 = row.m1_solution
        a2, c2 = row.m2_solution
        assert eval_pattern(row.pattern, {"a": a1, "c": c1}) == m1
        assert eval_pattern(row.pattern, {"a": a2, "c": c2}) == m2
        assert row.admissible is False
        assert not is_admissible(a1, c1)
        assert not is_admissible(a2, c2)


def test_regenerated_table_matches_transcription():
    for k in (1, 2, 3, 7, 10):
        rows = compare_with_reference(k)
        assert len(rows) == len(reference_table(k)) == 21


def test_reference_rows_substitute_k():
    rows = reference_table(3)
    first = rows[0]
    assert str(first.m1_solution[1]) == "t u^3 t^-1"
    assert str(first.m2_solution[0]) == "t^2 u^3 t^-1"


def test_reference_templates_match_text_substitution():
    # The transcription's words at k, against their printed text with k
    # substituted and parsed.
    for k in range(1, 31):
        for row, (text, appears_in, pair1, pair2) in zip(
            reference_table(k), REFERENCE_TABLE_ROWS
        ):
            parsed = [
                parse_word(str(w).replace("k", str(k)), BASE) for w in pair1 + pair2
            ]
            assert (row.pattern_text, row.appears_in) == (text, appears_in)
            assert [*row.m1_solution, *row.m2_solution] == parsed


def test_fallback_use_fails_the_structural_checks(monkeypatch):
    original = solver.solve

    def flagged(pattern, target):
        return Solutions(original(pattern, target), True)

    monkeypatch.setattr(solver, "solve", flagged)
    with pytest.raises(TableError, match="bounded fallback"):
        regenerate_table(1)
    with pytest.raises(CaseAnalysisError, match="bounded fallback"):
        hexagon_case_analysis(1)


def test_symbolic_analyses_match_every_concrete_k():
    rows, table_roots = for_every_k(compare_with_reference)
    analysis, case_roots = for_every_k(hexagon_case_analysis)
    assert table_roots == case_roots == frozenset()
    assert analysis.k is K

    def pair_at(pair, k):
        return tuple(at_k(word, k) for word in pair)

    for k in range(1, 31):
        assert [
            replace(row, m1_solution=pair_at(row.m1_solution, k),
                    m2_solution=pair_at(row.m2_solution, k))
            for row in rows
        ] == regenerate_table(k)
        assert [
            replace(case, nu=at_k(case.nu, k), mu=at_k(case.mu, k))
            for case in analysis.cases
        ] == list(hexagon_case_analysis(k).cases)


def test_solve_records_where_an_equation_holds_at_one_k():
    pattern = parse_pattern("a_1 a_3")
    target = parse_word("t_1^k t_3^3", QUAD, k=True)
    with recorded_roots() as roots:
        found = solve(pattern, target)
    assert found == () and not found.used_fallback
    assert roots == {3}
    # Outside the recorded root the symbolic answer holds; at it, not.
    for k in (1, 2, 4, 5):
        assert solve(pattern, at_k(target, k)) == ()
    assert assignments(solve(pattern, at_k(target, 3))) == {(("a", "t^3"),)}


def test_symbolic_analysis_that_does_not_go_through_returns_none(monkeypatch):
    # A planted transcription row: the symbolic comparison fails, so
    # every k must be checked concretely.
    text, _, m1_row, m2_row = REFERENCE_TABLE_ROWS[0]
    monkeypatch.setattr(
        solver,
        "REFERENCE_TABLE_ROWS",
        ((text, (1,), m1_row, m2_row),) + tuple(REFERENCE_TABLE_ROWS[1:]),
    )
    assert for_every_k(compare_with_reference) == (None, frozenset())
    original = solver.solve
    monkeypatch.setattr(
        solver, "solve", lambda pattern, target: Solutions(original(pattern, target), True)
    )
    assert for_every_k(hexagon_case_analysis) == (None, frozenset())


def test_case_analysis_structure():
    for k in (1, 2, 3, 5):
        analysis = hexagon_case_analysis(k)
        assert analysis.k == k
        assert len(analysis.cases) == 8
        seen = {(case.term_index, case.target_name) for case in analysis.cases}
        assert seen == {(i, m) for i in (1, 2, 3, 4) for m in ("m1", "m2")}
        by_key = {(case.term_index, case.target_name): case for case in analysis.cases}
        m1, m2 = monomials_m(k)
        monomial = {"m1": m1, "m2": m2}
        for case in analysis.cases:
            assert case.sign == case.partner_sign
            partner = by_key[(case.partner_index, "m2" if case.target_name == "m1" else "m1")]
            assert (partner.nu, partner.mu) == (case.nu, case.mu)
            h = hexagon(case.nu, case.mu)
            assert h.coeff(monomial[case.target_name]) == case.sign
            assert h.coeff(m1) == h.coeff(m2)


def test_case_analysis_values_k2():
    analysis = hexagon_case_analysis(2)
    table = {
        (case.term_index, case.target_name): (str(case.nu), str(case.mu), case.sign)
        for case in analysis.cases
    }
    assert table == {
        (1, "m1"): ("t^-1", "t u^-2 t^-2", 1),
        (1, "m2"): ("t^2 u^2 t^-1", "t", 1),
        (2, "m1"): ("t^2 u^2 t^-1", "t", 1),
        (2, "m2"): ("t^-1", "t u^-2 t^-2", 1),
        (3, "m1"): ("t", "t u^-2 t^-1", -1),
        (3, "m2"): ("t u^-2 t^-2", "t^2 u^-2 t^-2", -1),
        (4, "m1"): ("t u^-2 t^-2", "t^2 u^-2 t^-2", -1),
        (4, "m2"): ("t", "t u^-2 t^-1", -1),
    }


def test_case_analysis_rejects_bad_k():
    with pytest.raises(Exception):
        hexagon_case_analysis(0)
