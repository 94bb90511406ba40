"""The compiled formula engine and the sweeps built on it.

Term words and coefficients are compared with the letter-level oracles
(stack reduction of single letters), never with the engine itself.  The
planted defects check that the sweeps and the hexagon case analysis
still see a broken formula or a broken witness.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import barbellw3.barbell as barbell
import barbellw3.solver as solver
import barbellw3.verify as verify
from barbellw3.barbell import (
    HEXAGON_FORMULAS,
    HEXAGON_TERMS,
    T_FORMULAS,
    T_KINDS,
    T_POLY_FORMULAS,
    enumerate_admissible,
    hexagon,
    monomials_m,
    psi,
    t_poly,
)
from barbellw3.patterns import CompiledFormulas, PatternError, parse_pattern, word_pieces
from barbellw3.solver import hexagon_case_analysis
from barbellw3.verify import verify_hexagon_vanishing, verify_span_vanishing
from barbellw3.words import BASE, QUAD, Word, bounded_words, parse_word

from oracles import all_base_words, naive_eval_pattern, naive_formula


def assert_shapes_match_oracle(formulas: CompiledFormulas, *values: Word) -> None:
    assignment = dict(zip(formulas.variables, values))
    pieces = sum((word_pieces(value) for value in values), ())
    assert formulas.evaluate(pieces) == [
        naive_eval_pattern(pattern, assignment).syllables for pattern in formulas.shapes
    ]


def _alternating(first: str, exponents: list[int]) -> Word:
    letters = (first, "u" if first == "t" else "t")
    return Word(BASE, [(letters[n % 2], exp) for n, exp in enumerate(exponents)])


def base_words(min_syllables: int = 0):
    exponents = st.integers(-4, 4).filter(bool)
    return st.builds(
        _alternating,
        st.sampled_from("tu"),
        st.lists(exponents, min_size=min_syllables, max_size=5),
    )


def test_shape_counts():
    assert len(HEXAGON_FORMULAS.shapes) == 4
    assert len(T_POLY_FORMULAS.shapes) == 21
    for kind in T_KINDS:
        assert [
            (sign, T_POLY_FORMULAS.shapes[shape]) for sign, shape in T_POLY_FORMULAS.terms[kind]
        ] == list(T_FORMULAS[kind])


def test_word_pieces():
    pieces = word_pieces(parse_word("t^2 u^-1"))
    assert [str(Word(QUAD, run)) for run in pieces] == [
        "t_1^2 u_1^-1", "u_1 t_1^-2", "t_3^2 u_3^-1", "u_3 t_3^-2",
    ]
    assert word_pieces(Word(BASE)) == ((), (), (), ())
    with pytest.raises(PatternError):
        word_pieces(parse_word("t_1"))


def test_unknown_variable_is_refused():
    with pytest.raises(PatternError):
        CompiledFormulas(("a",), {0: ((1, parse_pattern("a_1 c_3")),)})


def test_hexagon_matches_oracle_on_all_pairs():
    values = list(all_base_words(2, 2, include_identity=True))
    assert len(values) == 41
    for nu in values:
        for mu in values:
            assert hexagon(nu, mu) == naive_formula(HEXAGON_TERMS, {"nu": nu, "mu": mu})
            assert_shapes_match_oracle(HEXAGON_FORMULAS, nu, mu)


def test_t_poly_matches_oracle_on_all_admissible_pairs():
    pairs = list(enumerate_admissible(2, 2))
    assert len(pairs) == 800
    for pair in pairs:
        assignment = {"a": pair.a, "c": pair.c}
        for kind in T_KINDS:
            assert t_poly(kind, pair.a, pair.c) == naive_formula(T_FORMULAS[kind], assignment)
        assert_shapes_match_oracle(T_POLY_FORMULAS, pair.a, pair.c)


@settings(max_examples=300, deadline=None)
@given(base_words(), base_words())
@example(Word(BASE), Word(BASE))
@example(parse_word("t u^2"), parse_word("t u^2"))
def test_hexagon_property(nu, mu):
    assert hexagon(nu, mu) == naive_formula(HEXAGON_TERMS, {"nu": nu, "mu": mu})
    assert_shapes_match_oracle(HEXAGON_FORMULAS, nu, mu)
    assert psi(1)(hexagon(nu, mu)) == 0


@settings(max_examples=300, deadline=None)
@given(base_words(min_syllables=1), base_words(min_syllables=1))
@example(parse_word("t u^2"), parse_word("t u^2"))
@example(parse_word("t^-1 u"), parse_word("t"))
def test_t_poly_property(a, c):
    for kind in T_KINDS:
        assert t_poly(kind, a, c) == naive_formula(T_FORMULAS[kind], {"a": a, "c": c})
    assert_shapes_match_oracle(T_POLY_FORMULAS, a, c)


# Shapes whose subscript changes more than once: an inner stretch that
# reduces to the identity lets the stretches around it cancel.
NESTED = CompiledFormulas(
    ("a", "c"),
    {
        0: (
            (1, parse_pattern("a_1 c_3 c_3^-1 a_1^-1")),
            (1, parse_pattern("a_1 c_3 a_3^-1 c_1 a_1^-1")),
            (-1, parse_pattern("c_1^-1 a_1 a_3 c_3^-1 a_1 c_1")),
        )
    },
)


@settings(max_examples=300, deadline=None)
@given(base_words(), base_words())
@example(parse_word("t u"), parse_word("t u"))
@example(parse_word("t u"), parse_word("u^-1"))
def test_nested_shapes_property(a, c):
    assert_shapes_match_oracle(NESTED, a, c)
    terms = [(sign, NESTED.shapes[shape]) for sign, shape in NESTED.terms[0]]
    expected = naive_formula(terms, {"a": a, "c": c})
    coefficients = NESTED.coefficients(0, NESTED.evaluate(word_pieces(a) + word_pieces(c)))
    assert {Word(QUAD, run): n for run, n in coefficients.items()} == dict(expected.items())


# ---------------------------------------------------------------------------
# The sweeps: planted defects and non-vacuity.

def test_flipped_hexagon_sign_fails_the_exhaustive_sweep(monkeypatch):
    sign, pattern = HEXAGON_TERMS[0]
    flipped = CompiledFormulas(("nu", "mu"), {"H": ((-sign, pattern),) + HEXAGON_TERMS[1:]})
    monkeypatch.setattr(verify, "HEXAGON_FORMULAS", flipped)
    monkeypatch.setattr(barbell, "HEXAGON_FORMULAS", flipped)
    report = verify_hexagon_vanishing(
        kmax=3, max_syllables=3, max_exponent=3, random_trials=0, workers=1
    )
    check = next(check for check in report.checks if check.name == "hexagon_exhaustive")
    assert check.status == "fail"
    assert check.details.split("; ")[0] == "psi_1(H(t^-1, t u^-1 t^-2)) = -2"
    assert psi(1)(hexagon(parse_word("t^-1"), parse_word("t u^-1 t^-2"))) == -2


def test_planted_witness_fails_the_span_sweep(monkeypatch):
    real = barbell.monomials_m

    def planted(k):
        m1, m2 = real(k)
        return (parse_word("t_1 u_3^-1 t_3"), m2) if k == 1 else (m1, m2)

    monkeypatch.setattr(barbell, "monomials_m", planted)
    report = verify_span_vanishing(kmax=3, max_syllables=2, max_exponent=2, workers=1)
    check = next(check for check in report.checks if check.name == "span_generators")
    assert check.status == "fail"
    violations = check.details.split("; ")
    assert "psi_1(t_poly(1, t, u)) = 1" in violations
    # T_6 carries the planted shape a_1 c_3^-1 a_3 with sign -1.
    assert "psi_1(t_poly(6, t, u)) = -1" in violations


def test_planted_witness_fails_the_random_sweep(monkeypatch):
    # The first pair chunk 0 draws at seed 0 and bounds (1 + 3, 1 + 3).
    nu, mu = parse_word("u^-2"), parse_word("t^4")
    rng = random.Random("0:0")
    drawn = verify._random_word(rng, 4, 4), verify._random_word(rng, 4, 4)
    assert drawn == (nu.syllables, mu.syllables)
    real = barbell.monomials_m
    term_1 = naive_eval_pattern(HEXAGON_TERMS[0][1], {"nu": nu, "mu": mu})

    def planted(k):
        m1, m2 = real(k)
        return (term_1, m2) if k == 1 else (m1, m2)

    monkeypatch.setattr(barbell, "monomials_m", planted)
    report = verify_hexagon_vanishing(
        kmax=3, max_syllables=1, max_exponent=1, random_trials=100, seed=0, workers=1
    )
    check = next(check for check in report.checks if check.name == "hexagon_random")
    assert check.status == "fail"
    assert check.details.split("; ")[0] == "psi_1(H(u^-2, t^4)) = 1"


def test_flipped_hexagon_sign_fails_the_case_analysis_not_the_small_sweeps(monkeypatch):
    # Below three syllables the exhaustive sweep reaches no witness
    # monomial (see the next test) and the random one seldom does, so the
    # case analysis is what sees the flip.
    sign, pattern = HEXAGON_TERMS[0]
    terms = ((-sign, pattern),) + HEXAGON_TERMS[1:]
    flipped = CompiledFormulas(("nu", "mu"), {"H": terms})
    for module in (barbell, verify, solver):
        monkeypatch.setattr(module, "HEXAGON_FORMULAS", flipped)
    for module in (barbell, solver):
        monkeypatch.setattr(module, "HEXAGON_TERMS", terms)
    report = verify_hexagon_vanishing(
        kmax=3, max_syllables=1, max_exponent=1, random_trials=1000, seed=0, workers=1
    )
    status = {check.name: check.status for check in report.checks}
    assert status["hexagon_exhaustive"] == status["hexagon_random"] == "pass"
    cases = [check for check in report.checks if check.name.startswith("hexagon_cases_k")]
    assert len(cases) == 3
    for check in cases:
        assert check.status == "fail"
        assert "partner term 2 carries the opposite sign" in check.details


def _witness_hits(max_syllables: int, max_exponent: int, kmax: int) -> set:
    witness = {
        m.syllables: (k, name)
        for k in range(1, kmax + 1)
        for name, m in zip(("m1", "m2"), monomials_m(k))
    }
    values = bounded_words(max_syllables, max_exponent, include_identity=True)
    pieces = [word_pieces(w) for w in values]
    hits = set()
    for nu, nu_pieces in zip(values, pieces):
        for mu, mu_pieces in zip(values, pieces):
            for index, word in enumerate(HEXAGON_FORMULAS.evaluate(nu_pieces + mu_pieces)):
                if word in witness:
                    hits.add((witness[word], index + 1, nu, mu))
    return hits


def test_exhaustive_hexagon_sweep_reaches_the_witnesses_from_three_syllables():
    hits = _witness_hits(3, 3, 3)
    assert len(hits) == 24
    # the same (term, monomial, nu, mu) as the solver's case analysis
    assert hits == {
        ((k, case.target_name), case.term_index, case.nu, case.mu)
        for k in (1, 2, 3)
        for case in hexagon_case_analysis(k).cases
    }
    assert _witness_hits(2, 3, 10) == set()
