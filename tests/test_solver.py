"""Word-equation solving, the solution table, and the relator case analysis."""

from __future__ import annotations

import random

import pytest

import barbellw3.solver as solver
from barbellw3.barbell import (
    HEXAGON_TERMS,
    T_FORMULAS,
    hexagon,
    is_admissible,
    monomials_m,
)
from barbellw3.patterns import CompiledFormulas, eval_pattern, parse_pattern
from barbellw3.solver import (
    REFERENCE_TABLE_ROWS,
    CaseAnalysisError,
    Solution,
    SolveError,
    TableError,
    at_each_k,
    compare_with_reference,
    hexagon_case_analysis,
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
    invert,
    parse_word,
    recorded_roots,
)

from oracles import branch_solutions, oracle_solutions
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
    # Division gives c = 1 here, which solve drops.
    assert solve(parse_pattern("a_1 c_3"), parse_word("t_1")) == ()
    assert assignments(solve(parse_pattern("a_1 c_3"), parse_word("t_1 u_3"))) == {
        (("a", "t"), ("c", "u"))
    }


def test_solve_refuses_what_division_cannot_fix():
    # a a^-1 = 1 holds for every a: no equation has a single unknown.
    with pytest.raises(SolveError, match="division does not fix every variable"):
        solve(parse_pattern("a_1 a_1^-1"), identity(QUAD))


CERTIFICATE_SHAPES = [pattern for pattern, _ in table_patterns()] + [
    pattern for _, pattern in HEXAGON_TERMS
]


def test_solve_matches_branch_reference_on_certificate_shapes():
    assert len(CERTIFICATE_SHAPES) == 25
    for k in range(1, 31):
        for target in monomials_m(k):
            for pattern in CERTIFICATE_SHAPES:
                found = solve(pattern, target)
                assert {s.items for s in found} == branch_solutions(pattern, target)
                assert len(found) == 1


def test_solve_matches_branch_reference_at_K():
    for target in monomials_m(K):
        for pattern in CERTIFICATE_SHAPES:
            with recorded_roots() as solve_roots:
                found = solve(pattern, target)
            with recorded_roots() as branch_roots:
                expected = branch_solutions(pattern, target)
            assert {s.items for s in found} == expected
            assert len(found) == 1
            assert solve_roots == branch_roots == set()


def test_branch_reference_catches_a_planted_division_fault(monkeypatch):
    # With the solver's inverse replaced by the identity, division gives
    # wrong quotients; the oracle divides on its own, so the two must
    # disagree on some shape at a concrete k and at K.
    monkeypatch.setattr(solver, "invert", lambda w: w)
    for k in (2, K):
        mismatches = [
            pattern
            for target in monomials_m(k)
            for pattern in CERTIFICATE_SHAPES
            if {s.items for s in solve(pattern, target)} != branch_solutions(pattern, target)
        ]
        assert mismatches, f"no mismatch at k={k}"


def test_solve_matches_branch_reference_on_planted_targets():
    rng = random.Random(1618)
    for _ in range(300):
        pattern = rng.choice(CERTIFICATE_SHAPES)
        first, second = pattern.variables()
        x = rand_word(rng, max_syllables=3, max_exponent=2)
        # Two draws in three tie the second value to the first, as x or
        # x^-1, so that runs of the pattern collapse.
        y = rng.choice([rand_word(rng, max_syllables=3, max_exponent=2), x, invert(x)])
        if x.is_identity or y.is_identity:
            continue
        target = eval_pattern(pattern, {first: x, second: y})
        found = solve(pattern, target)
        assert tuple(sorted({first: x, second: y}.items())) in {s.items for s in found}
        assert {s.items for s in found} == branch_solutions(pattern, target)


def test_solve_matches_branch_reference_on_collapse_only_targets():
    # Targets whose blocks only a collapse of the pattern's runs can reach.
    for pattern_text, target_text in [
        ("a_1 c_3^-1 a_3", "t_1"),
        ("c_1^-1 a_1 a_3", "t_3^2"),
        ("c_1 a_1^-1 a_3^-1", "u_3^2"),
        ("nu_1^-1 mu_3 nu_3^-1", "t_1^-1"),
    ]:
        pattern, target = parse_pattern(pattern_text), parse_word(target_text)
        found = solve(pattern, target)
        assert found
        assert {s.items for s in found} == branch_solutions(pattern, target)


def test_unforced_shape_is_refused_and_fails_the_table(monkeypatch):
    # No subscript of a_1 c_1 a_3 c_3 has a single factor, so neither
    # projection equation is division-solvable.
    planted = parse_pattern("a_1 c_1 a_3 c_3")
    monkeypatch.setattr(
        solver, "table_patterns", lambda: [(planted, (1,))] + table_patterns()
    )
    for k in (K, 2):
        m1, _ = monomials_m(k)
        with pytest.raises(SolveError, match="division does not fix"):
            solve(planted, m1)
        with pytest.raises(TableError, match="division does not fix"):
            solver._unique_solutions(planted, k, f"pattern {planted}", TableError)
        with pytest.raises(TableError, match="division does not fix"):
            regenerate_table(k)


def test_an_unforced_hexagon_term_fails_the_case_analysis(monkeypatch):
    terms = ((1, parse_pattern("nu_1 mu_1 nu_3 mu_3")),) + HEXAGON_TERMS[1:]
    monkeypatch.setattr(solver, "HEXAGON_TERMS", terms)
    for k in (K, 2):
        with pytest.raises(CaseAnalysisError) as cases:
            hexagon_case_analysis(k)
        assert str(cases.value).startswith(f"term 1 = m1({k}): ")
        assert "division does not fix" in str(cases.value)


def test_solve_output_is_one_verified_solution():
    pattern = parse_pattern("a_1 c_3^-1 a_3")
    target = parse_word("t_1^-1 t_3 u_3^-2 t_3^-2")
    (found,) = solve(pattern, target)
    assert eval_pattern(pattern, found.assignment) == target


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
        found = solve(pattern, target)
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
        assert not is_admissible(a1, c1)
        assert not is_admissible(a2, c2)


def test_regenerated_table_matches_transcription():
    for k in (1, 2, 3, 7, 10):
        rows = compare_with_reference(k)
        assert len(rows) == len(REFERENCE_TABLE_ROWS) == 21


def test_reference_rows_substitute_k():
    _, _, m1_solution, m2_solution = REFERENCE_TABLE_ROWS[0]
    assert str(at_k(m1_solution[1], 3)) == "t u^3 t^-1"
    assert str(at_k(m2_solution[0], 3)) == "t^2 u^3 t^-1"


def test_reference_templates_match_text_substitution():
    # The transcription's words at k, against their printed text with k
    # substituted and parsed.
    for k in range(1, 31):
        for _, _, pair1, pair2 in REFERENCE_TABLE_ROWS:
            parsed = [
                parse_word(str(w).replace("k", str(k)), BASE) for w in pair1 + pair2
            ]
            assert [at_k(w, k) for w in pair1 + pair2] == parsed


def refuse(pattern, target):
    raise SolveError("division does not fix every variable: planted")


def test_a_refusal_fails_the_structural_checks(monkeypatch):
    monkeypatch.setattr(solver, "solve", refuse)
    with pytest.raises(TableError, match="division does not fix"):
        regenerate_table(1)
    with pytest.raises(CaseAnalysisError, match="division does not fix"):
        hexagon_case_analysis(1)


def counted_at_each_k(analysis, calls):
    """at_each_k of ``analysis``, appending each k it runs at to ``calls``."""

    def run(k):
        calls.append(k)
        return analysis(k)

    return at_each_k(run)


def test_symbolic_analyses_match_every_concrete_k():
    table_calls, case_calls = [], []
    table_at = counted_at_each_k(compare_with_reference, table_calls)
    analysis_at = counted_at_each_k(hexagon_case_analysis, case_calls)
    rows, cases = table_at(1), analysis_at(1)

    def pair_at(pair, k):
        return tuple(at_k(word, k) for word in pair)

    for k in range(1, 31):
        assert [
            row._replace(m1_solution=pair_at(row.m1_solution, k),
                         m2_solution=pair_at(row.m2_solution, k))
            for row in rows
        ] == regenerate_table(k)
        assert [
            case._replace(nu=at_k(case.nu, k), mu=at_k(case.mu, k))
            for case in cases
        ] == list(hexagon_case_analysis(k))
        assert (table_at(k), analysis_at(k)) == (rows, cases)
    # E is empty for both: the one run at K answers every k.
    assert table_calls == case_calls == [K]


def test_solve_records_where_an_equation_holds_at_one_k():
    pattern = parse_pattern("a_1 a_3")
    target = parse_word("t_1^k t_3^3", QUAD, k=True)
    with recorded_roots() as roots:
        found = solve(pattern, target)
    assert found == ()
    assert roots == {3}
    # Outside the recorded root the symbolic answer holds; at it, not.
    for k in (1, 2, 4, 5):
        assert solve(pattern, at_k(target, k)) == ()
    assert assignments(solve(pattern, at_k(target, 3))) == {(("a", "t^3"),)}


def test_symbolic_analysis_that_does_not_go_through_runs_every_k_concretely(monkeypatch):
    # A planted transcription row: the symbolic comparison fails, so
    # every k is checked concretely, where it fails again.
    text, _, m1_row, m2_row = REFERENCE_TABLE_ROWS[0]
    monkeypatch.setattr(
        solver,
        "REFERENCE_TABLE_ROWS",
        ((text, (1,), m1_row, m2_row),) + tuple(REFERENCE_TABLE_ROWS[1:]),
    )
    calls = []
    table_at = counted_at_each_k(compare_with_reference, calls)
    for k in (1, 2):
        with pytest.raises(TableError, match="appears-in"):
            table_at(k)
    assert calls == [K, 1, 2]
    monkeypatch.setattr(solver, "solve", refuse)
    calls.clear()
    analysis_at = counted_at_each_k(hexagon_case_analysis, calls)
    with pytest.raises(CaseAnalysisError, match="division does not fix"):
        analysis_at(3)
    assert calls == [K, 3]


# ---------------------------------------------------------------------------
# Each refusal of the table and the case analysis, planted at K and at one k.

@pytest.mark.parametrize("copies", [2, 0])
def test_other_than_one_solution_fails_both_analyses(monkeypatch, copies):
    # solve returns each solution twice, or none.
    original = solver.solve
    monkeypatch.setattr(
        solver,
        "solve",
        lambda pattern, target: original(pattern, target) * copies,
    )
    for k in (K, 2):
        with pytest.raises(TableError) as table:
            regenerate_table(k)
        assert str(table.value) == (
            f"pattern a_1 c_3^-1 a_3 = m1({k}) has {copies} solutions, expected exactly 1"
        )
        with pytest.raises(CaseAnalysisError) as cases:
            hexagon_case_analysis(k)
        assert str(cases.value) == f"term 1 = m1({k}) has {copies} solutions, expected exactly 1"


def test_an_admissible_solution_fails_the_table(monkeypatch):
    monkeypatch.setattr(solver, "is_admissible", lambda a, c: True)
    for k in (K, 2):
        with pytest.raises(TableError) as table:
            regenerate_table(k)
        assert str(table.value) == (
            f"pattern a_1 c_3^-1 a_3: a solution at k={k} is admissible, contradicting the table"
        )


def plant_hexagon_term(monkeypatch, index):
    """Add a copy of hexagon term ``index`` (from 1) as a fifth term."""
    terms = HEXAGON_TERMS + (HEXAGON_TERMS[index - 1],)
    monkeypatch.setattr(solver, "HEXAGON_TERMS", terms)
    monkeypatch.setattr(
        solver, "HEXAGON_FORMULAS", CompiledFormulas(("nu", "mu"), {"H": terms})
    )


def test_a_second_partner_fails_the_case_analysis(monkeypatch):
    # Term 2 is term 1's partner: where term 1 is m1, term 2 is m2.
    plant_hexagon_term(monkeypatch, 2)
    for k in (K, 2):
        with pytest.raises(CaseAnalysisError) as cases:
            hexagon_case_analysis(k)
        assert str(cases.value) == (
            f"term 1 = m1({k}): expected exactly one partner term equal to m2, found 2"
        )


def test_a_compiled_term_unlike_the_solved_one_fails_the_coefficient_check(monkeypatch):
    # Term 1 compiled with its factors swapped: at term 1's solution the
    # compiled term misses m1, while its partner still hits m2.
    terms = ((1, parse_pattern("mu_3 nu_1")),) + HEXAGON_TERMS[1:]
    monkeypatch.setattr(
        solver, "HEXAGON_FORMULAS", CompiledFormulas(("nu", "mu"), {"H": terms})
    )
    for k in (K, 2):
        with pytest.raises(CaseAnalysisError) as cases:
            hexagon_case_analysis(k)
        assert str(cases.value) == (
            f"term 1 = m1({k}): hexagon coefficients at the witness monomials differ"
        )


def test_a_third_term_hit_fails_the_case_analysis(monkeypatch):
    plant_hexagon_term(monkeypatch, 1)
    for k in (K, 2):
        with pytest.raises(CaseAnalysisError) as cases:
            hexagon_case_analysis(k)
        assert str(cases.value) == (
            f"term 1 = m1({k}): term 5 also hits a witness monomial"
        )


def test_case_analysis_structure():
    for k in (1, 2, 3, 5):
        cases = hexagon_case_analysis(k)
        assert len(cases) == 8
        seen = {(case.term_index, case.target_name) for case in cases}
        assert seen == {(i, m) for i in (1, 2, 3, 4) for m in ("m1", "m2")}
        by_key = {(case.term_index, case.target_name): case for case in cases}
        m1, m2 = monomials_m(k)
        monomial = {"m1": m1, "m2": m2}
        for case in cases:
            assert case.sign == HEXAGON_TERMS[case.partner_index - 1][0]
            partner = by_key[(case.partner_index, "m2" if case.target_name == "m1" else "m1")]
            assert (partner.nu, partner.mu) == (case.nu, case.mu)
            h = hexagon(case.nu, case.mu)
            assert h.coeff(monomial[case.target_name]) == case.sign
            assert h.coeff(m1) == h.coeff(m2)


def test_case_analysis_values_k2():
    table = {
        (case.term_index, case.target_name): (str(case.nu), str(case.mu), case.sign)
        for case in hexagon_case_analysis(2)
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
