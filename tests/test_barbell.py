"""Hexagon relators, T-polynomials, targets, functionals, admissible pairs."""

from __future__ import annotations

import random
from collections import Counter

import pytest

import barbellw3.barbell as barbell
from barbellw3.barbell import (
    BarbellError,
    Disk,
    SelfCheckError,
    T_FORMULAS,
    T_KINDS,
    count_admissible,
    enumerate_admissible,
    hexagon,
    is_admissible,
    monomials_m,
    psi,
    span_generator_records,
    t4_expansion,
    t6_expansion,
    t_poly,
    target_argument_pair,
    w3_target,
)
from barbellw3.ring import RingElement
from barbellw3.words import BASE, K, identity, parse_word, word_sort_key

from oracles import all_base_words, naive_concat, naive_invert, naive_rename
from test_words import rand_word


def test_formula_term_counts():
    assert tuple(sorted(T_FORMULAS)) == T_KINDS == (1, 3, 4, 6)
    assert {kind: len(T_FORMULAS[kind]) for kind in T_KINDS} == {1: 4, 3: 8, 4: 8, 6: 16}
    for kind in T_KINDS:
        for sign, pattern in T_FORMULAS[kind]:
            assert sign in (1, -1)
            assert set(pattern.variables()) <= {"a", "c"}


def test_hexagon_small_values():
    t, u = parse_word("t"), parse_word("u")
    e = identity(BASE)
    assert str(hexagon(t, u)) == "t_1 u_3 + u_1^-1 t_3^-1 - t_1^-1 u_3 t_3^-1 - t_1 u_1^-1 t_3"
    assert hexagon(e, e).is_zero
    assert str(hexagon(t, e)) == "t_1 + t_3^-1 - t_1^-1 t_3^-1 - t_1 t_3"


def test_hexagon_matches_letter_level_oracle():
    rng = random.Random(3)
    for _ in range(100):
        nu, mu = rand_word(rng, max_syllables=3), rand_word(rng, max_syllables=3)
        expected = RingElement.zero(barbell.hexagon(nu, mu).alphabet)
        for sign, factors in [
            (1, [(nu, 1, False), (mu, 3, False)]),
            (1, [(mu, 1, True), (nu, 3, True)]),
            (-1, [(nu, 1, True), (mu, 3, False), (nu, 3, True)]),
            (-1, [(nu, 1, False), (mu, 1, True), (nu, 3, False)]),
        ]:
            pieces = []
            for value, tag, inverted in factors:
                if inverted:
                    value = naive_invert(value)
                pieces.append(naive_rename(value, tag))
            expected = expected + RingElement.monomial(naive_concat(*pieces), sign)
        assert hexagon(nu, mu) == expected


def test_hexagon_coefficient_difference_vanishes():
    # the functional that the certificates rely on kills every relator
    rng = random.Random(19)
    for _ in range(60):
        nu, mu = rand_word(rng, max_syllables=3), rand_word(rng, max_syllables=3)
        h = hexagon(nu, mu)
        for k in (1, 2, 3):
            assert psi(k)(h) == 0


def test_t_poly_validation():
    t, u = parse_word("t"), parse_word("u")
    with pytest.raises(BarbellError):
        t_poly(2, t, u)
    with pytest.raises(BarbellError):
        t_poly(1, identity(BASE), u)
    with pytest.raises(BarbellError):
        t_poly(1, t, identity(BASE))
    with pytest.raises(BarbellError):
        t_poly(1, parse_word("t_1"), u)


def test_t_poly_small_value():
    value = t_poly(1, parse_word("t"), parse_word("u"))
    assert str(value) == "- t_1^-1 u_3^-1 - u_1^-1 t_3^-1 + t_1 u_3^-1 t_3 + u_1^-1 t_1 t_3"


def test_t_poly_matches_pattern_evaluation():
    # generic arguments: every formula term lands on a distinct word
    rng = random.Random(29)
    from barbellw3.patterns import eval_pattern

    for _ in range(40):
        a = rand_word(rng, max_syllables=2, max_exponent=2)
        c = rand_word(rng, max_syllables=2, max_exponent=2)
        if a.is_identity or c.is_identity:
            continue
        for kind in T_KINDS:
            expected = RingElement.zero(t_poly(kind, a, c).alphabet)
            for sign, pattern in T_FORMULAS[kind]:
                word = eval_pattern(pattern, {"a": a, "c": c})
                expected = expected + RingElement.monomial(word, sign)
            assert t_poly(kind, a, c) == expected


def test_target_argument_pair():
    a, c = target_argument_pair(3)
    assert (str(a), str(c)) == ("t", "t u^3 t^-1")


def test_expansions_match_formula_evaluation():
    for k in list(range(1, 11)) + [20]:
        a, c = target_argument_pair(k)
        assert t4_expansion(k) == t_poly(4, a, c)
        assert t6_expansion(k) == t_poly(6, a, c)
        assert w3_target(Disk.D2, k) == 2 * t_poly(4, a, c) + t_poly(6, a, c)


def test_w3_target_d1():
    element = w3_target(Disk.D1, 1)
    assert element.term_count == 8
    assert all(abs(coeff) == 1 for _, coeff in element.items())
    expected = {
        "t_1 t_3 u_3^-1": 1,
        "t_1^-1 t_3 u_3^-1 t_3^-1": 1,
        "t_1 t_3 u_3^-1 t_3^-1": 1,
        "t_1^-1 t_3 u_3^-1 t_3^-2": 1,
        "t_1 u_1^-1 t_3": -1,
        "t_1 u_1^-1 t_1^-1 t_3^-1": -1,
        "t_1 u_1^-1 t_1^-1 t_3": -1,
        "t_1 u_1^-1 t_1^-2 t_3^-1": -1,
    }
    assert {str(w): int(c) for w, c in element.items()} == expected


def test_w3_target_d1_terms_stay_distinct():
    for k in range(1, 11):
        element = w3_target(Disk.D1, k)
        assert element.term_count == 8
        assert all(abs(coeff) == 1 for _, coeff in element.items())


def test_w3_target_d2_spectrum():
    for k in range(1, 11):
        element = w3_target(Disk.D2, k)
        assert element.term_count == 18
        spectrum = Counter(int(coeff) for _, coeff in element.items())
        assert dict(spectrum) == {-3: 2, -2: 1, -1: 6, 1: 6, 2: 1, 3: 2}


def test_w3_target_self_check_detects_corruption(monkeypatch):
    sign, word = barbell.T4_EXPANSION_ROWS[0]
    mutated = ((-sign, word),) + tuple(barbell.T4_EXPANSION_ROWS[1:])
    monkeypatch.setattr(barbell, "T4_EXPANSION_ROWS", mutated)
    with pytest.raises(SelfCheckError):
        w3_target(Disk.D1, 2)
    with pytest.raises(SelfCheckError):
        w3_target(Disk.D2, 2)


def test_w3_target_validation():
    with pytest.raises(BarbellError):
        w3_target(Disk.D1, 0)
    with pytest.raises(BarbellError):
        w3_target(Disk.D1, -3)


def test_family_parameter_is_a_positive_int_or_affine_in_k():
    # True used to pass as k = 1.
    for bad in (True, False, 2.0, "2", None, -K, K - 1):
        for build in (monomials_m, psi, t4_expansion, target_argument_pair):
            with pytest.raises(BarbellError, match="positive integer"):
                build(bad)
        with pytest.raises(BarbellError):
            w3_target(Disk.D1, bad)
    m1, m2 = monomials_m(K)
    assert (str(m1), str(m2)) == ("t_1^-1 t_3 u_3^-k t_3^-2", "t_1^2 u_1^k t_1^-1 t_3")
    assert monomials_m(2 * K + 1)[0] == parse_word("t_1^-1 t_3 u_3^-2k-1 t_3^-2", k=True)


def test_monomials_and_psi_values():
    m1, m2 = monomials_m(2)
    assert str(m1) == "t_1^-1 t_3 u_3^-2 t_3^-2"
    assert str(m2) == "t_1^2 u_1^2 t_1^-1 t_3"
    for k in range(1, 6):
        for j in range(1, 6):
            assert psi(k)(w3_target(Disk.D1, j)) == (1 if k == j else 0)
            assert psi(k)(w3_target(Disk.D2, j)) == (3 if k == j else 0)
    assert psi(1)(RingElement.zero(m1.alphabet)) == 0


def test_is_admissible():
    cases = [
        ("t", "u", True),
        ("t", "t", False),
        ("u^-1", "t^2 u", True),
        ("t u^2", "t", True),
        ("t u^2", "u", False),
        ("u t^-1", "u^-3", True),
    ]
    for a, c, expected in cases:
        assert is_admissible(parse_word(a), parse_word(c)) is expected
    assert not is_admissible(identity(BASE), parse_word("u"))
    assert not is_admissible(parse_word("t"), identity(BASE))


def test_admissible_counts():
    assert count_admissible(1, 1) == 8
    assert count_admissible(1, 2) == 32
    assert count_admissible(2, 2) == 800
    assert count_admissible(3, 3) == 133128


def test_admissible_enumeration_matches_naive_filter():
    for max_syllables, max_exponent in [(1, 1), (1, 2), (2, 2)]:
        produced = list(enumerate_admissible(max_syllables, max_exponent))
        assert len(produced) == count_admissible(max_syllables, max_exponent)
        assert len(set(produced)) == len(produced)
        expected = {
            (a, c)
            for a in all_base_words(max_syllables, max_exponent)
            for c in all_base_words(max_syllables, max_exponent)
            if (a.syllables[-1][0], c.syllables[0][0]) in {("t", "u"), ("u", "t")}
        }
        assert set(produced) == expected


def test_admissible_enumeration_order_is_deterministic():
    pairs = list(enumerate_admissible(2, 2))
    sizes = [a.syllable_count + c.syllable_count for a, c in pairs]
    assert sizes == sorted(sizes)
    assert pairs == list(enumerate_admissible(2, 2))


def test_admissible_enumeration_order_matches_oracle():
    # total syllable count, then the word order of a, then that of c
    words = sorted(all_base_words(2, 2), key=word_sort_key)
    expected = [
        (a, c)
        for total in range(2, 5)
        for a in words
        for c in words
        if a.syllable_count + c.syllable_count == total
        and a.syllables[-1][0] != c.syllables[0][0]
    ]
    produced = list(enumerate_admissible(2, 2))
    assert produced == expected
    # Plain tuples: building a tuple subclass costs the span sweep's walk
    # about four times a tuple per pair.
    assert all(type(pair) is tuple for pair in produced)
    assert count_admissible(2, 2) == len(expected)


def test_span_generators():
    records = list(span_generator_records(1, 1))
    assert len(records) == 4 * 8
    for record in records:
        assert record.i in T_KINDS
        assert is_admissible(record.a, record.c)
        assert record.value == t_poly(record.i, record.a, record.c)
    kinds = [record.i for record in records[:4]]
    assert kinds == sorted(kinds)
