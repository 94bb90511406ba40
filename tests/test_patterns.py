"""Pattern factors, parsing, and evaluation over renamed copies."""

from __future__ import annotations

import random

import pytest

from barbellw3.patterns import (
    PatternError,
    PatternFactor,
    eval_pattern,
    parse_pattern,
)
from barbellw3.words import QUAD, identity, parse_word

from oracles import naive_concat, naive_invert, naive_rename
from test_words import rand_word


def test_factor_validation():
    factor = PatternFactor("a", 1, True)
    assert str(factor) == "a_1^-1"
    assert str(PatternFactor("c", 3, False)) == "c_3"
    for bad in ("a_2", "_1", "A_1"):
        with pytest.raises(PatternError):
            parse_pattern(bad)


def test_parse_round_trip():
    for text in ("a_1 c_3^-1 a_3", "c_1^-1 a_3^-1", "nu_1 mu_3", "a_1"):
        pattern = parse_pattern(text)
        assert str(pattern) == text
        assert parse_pattern(str(pattern)) == pattern


def test_parse_errors():
    for bad in ("", "a_2", "a", "a_1^2", "a_1^-2"):
        with pytest.raises(PatternError):
            parse_pattern(bad)


def test_pattern_structure_rules():
    with pytest.raises(PatternError):
        parse_pattern("")
    with pytest.raises(PatternError):
        parse_pattern("a_1 b_3 c_1")  # three distinct variables


def test_variables_in_first_appearance_order():
    assert parse_pattern("c_1^-1 a_1 a_3").variables() == ("c", "a")
    assert parse_pattern("a_1 c_3^-1 a_3").variables() == ("a", "c")
    assert parse_pattern("a_1 a_3").variables() == ("a",)


def test_eval_requires_all_variables():
    pattern = parse_pattern("a_1 c_3^-1 a_3")
    with pytest.raises(PatternError):
        eval_pattern(pattern, {"a": parse_word("t")})


def test_eval_example():
    pattern = parse_pattern("a_1 c_3^-1 a_3")
    value = eval_pattern(pattern, {"a": parse_word("t^-1"), "c": parse_word("t u^2 t^-1")})
    assert str(value) == "t_1^-1 t_3 u_3^-2 t_3^-2"


def test_eval_allows_identity_values():
    pattern = parse_pattern("nu_1 mu_3")
    value = eval_pattern(pattern, {"nu": parse_word("1"), "mu": parse_word("t")})
    assert str(value) == "t_3"


def test_eval_matches_letter_level_oracle():
    rng = random.Random(13)
    texts = ["a_1 c_3^-1 a_3", "c_1^-1 a_1 a_3", "a_1 c_1 a_3^-1 c_3", "a_1^-1 a_3 a_1"]
    for _ in range(150):
        pattern = parse_pattern(rng.choice(texts))
        values = {var: rand_word(rng, max_syllables=3) for var in pattern.variables()}
        expected = identity(QUAD)
        for factor in pattern.factors:
            piece = values[factor.var]
            if factor.inverted:
                piece = naive_invert(piece)
            expected = naive_concat(expected, naive_rename(piece, factor.tag))
        assert eval_pattern(pattern, values) == expected
