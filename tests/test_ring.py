"""Group-ring elements: exact arithmetic, serialization, functionals, rank."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
import sympy

from barbellw3.barbell import Disk, w3_target
from barbellw3.ring import (
    CoefficientError,
    Functional,
    RingElement,
    as_fraction,
    matrix_rank_exact,
    rank,
)
from barbellw3.words import (
    BASE,
    QUAD,
    K,
    AlphabetMismatchError,
    WordSyntaxError,
    at_k,
    identity,
    parse_word,
    recorded_roots,
)

from test_words import rand_word


def rand_element(rng, alphabet=BASE, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        terms[rand_word(rng, alphabet)] = coeff
    return RingElement(alphabet, terms)


def test_as_fraction_accepts_exact_values():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(2, 6)) == Fraction(1, 3)
    assert as_fraction("2/3") == Fraction(2, 3)
    for inexact in (0.5, True, False):
        with pytest.raises(CoefficientError):
            as_fraction(inexact)


def test_constructor_sums_duplicates_and_drops_zeros():
    t = parse_word("t")
    x = RingElement(BASE, [(t, 1), (t, 2)])
    assert x.coeff(t) == 3 and x.term_count == 1
    assert not RingElement(BASE, [(t, 1), (t, -1)])
    assert not RingElement(BASE)
    assert str(RingElement(BASE)) == "0"


def test_constructor_keeps_each_word_where_it_first_appeared():
    t, u = parse_word("t"), parse_word("u")
    x = RingElement(BASE, [(t, 1), (u, 1), (t, -1), (t, 2)])
    assert list(x.terms()) == [(t, 2), (u, 1)]
    assert list((x + RingElement(BASE, [(u, -1), (t, 1)])).terms()) == [(t, 3)]


def test_constructor_rejects_bad_terms():
    with pytest.raises(AlphabetMismatchError):
        RingElement(BASE, {parse_word("t_1"): 1})
    with pytest.raises(CoefficientError):
        RingElement(BASE, {parse_word("t"): 0.25})


def test_module_laws_random():
    rng = random.Random(17)
    zero = RingElement(BASE)
    for _ in range(200):
        x, y, z = (rand_element(rng) for _ in range(3))
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x + zero == x
        assert x - x == zero
        assert -x == zero - x
        assert (x + y).scale(q) == x.scale(q) + y.scale(q)
        assert q * x == x * q == x.scale(q)
        for word, _ in (x + y).items():
            assert (x + y).coeff(word) == x.coeff(word) + y.coeff(word)


def test_scalar_multiplication_rejects_floats():
    x = RingElement.monomial(parse_word("t"))
    with pytest.raises(CoefficientError):
        x.scale(0.5)
    with pytest.raises(TypeError):
        x * x


def test_coeff_of_absent_word_is_zero():
    x = RingElement.monomial(parse_word("t"))
    assert x.coeff(parse_word("u")) == Fraction(0)
    assert x.coeff(identity(BASE)) == 0


def test_items_are_sorted_by_word_order():
    rng = random.Random(23)
    for _ in range(50):
        x = rand_element(rng)
        keys = [word.sort_key() for word, _ in x.items()]
        assert keys == sorted(keys)


def test_str_format():
    t, u, tu = parse_word("t"), parse_word("u"), parse_word("t u")
    x = RingElement(BASE, {t: 1, u: Fraction(-2), tu: Fraction(1, 3), identity(BASE): -1})
    assert str(x) == "- 1 + t - 2 * u + 1/3 * t u"
    assert str(RingElement(BASE, {t: -1})) == "- t"
    assert str(RingElement(BASE, {t: 1})) == "t"


def test_values_at_K_print_and_record_nothing():
    targets = [w3_target(disk, K) for disk in (Disk.D1, Disk.D2)]
    with recorded_roots() as roots:
        printed = [(str(x), repr(x), x.to_json_dict()) for x in targets]
    assert roots == set()
    for target, (text, text_repr, document), count in zip(targets, printed, (8, 18)):
        assert text_repr == f"RingElement(QUAD, {text})"
        assert text.count(" + ") + text.count(" - ") + 1 == count == target.term_count
        assert {
            parse_word(term["word"], QUAD, k=True): Fraction(term["coeff"])
            for term in document["terms"]
        } == dict(target.terms())
    assert printed[0][0].startswith("- t_1 u_1^-k t_3 + t_1 t_3 u_3^-k + ")
    # Concrete words first, then affine ones.
    mixed = RingElement(BASE, [(parse_word("u^k", k=True), 1), (parse_word("t^5"), -1)])
    assert str(mixed) == "- t^5 + u^k"


def test_the_json_form_reads_back_concrete_values_only():
    document = w3_target(Disk.D1, K).to_json_dict()
    with pytest.raises(WordSyntaxError, match="-k"):
        RingElement.from_json_dict(document)


def test_json_round_trip_and_shape():
    t, tu = parse_word("t"), parse_word("t u")
    x = RingElement(BASE, {t: Fraction(-2), tu: Fraction(1, 3)})
    data = x.to_json_dict()
    assert data == {
        "alphabet": "BASE",
        "terms": [
            {"word": "t", "coeff": "-2"},
            {"word": "t u", "coeff": "1/3"},
        ],
    }
    assert RingElement.from_json_dict(data) == x
    assert RingElement.from_json_dict(json.loads(json.dumps(x.to_json_dict()))) == x


def test_json_round_trip_random():
    rng = random.Random(41)
    for _ in range(100):
        x = rand_element(rng, rng.choice([BASE, QUAD]))
        assert RingElement.from_json_dict(json.loads(json.dumps(x.to_json_dict()))) == x


def test_from_json_dict_validation():
    assert not RingElement.from_json_dict(
        {"alphabet": "BASE", "terms": [{"word": "t", "coeff": "1"}, {"word": "t", "coeff": "-1"}]}
    )
    with pytest.raises(ValueError):
        RingElement.from_json_dict({"alphabet": "NOPE", "terms": []})
    # decimal strings are exact and convert losslessly, unlike binary floats
    permissive = RingElement.from_json_dict(
        {"alphabet": "BASE", "terms": [{"word": "t", "coeff": "0.5"}]}
    )
    assert permissive.coeff(parse_word("t")) == Fraction(1, 2)
    with pytest.raises(CoefficientError):
        RingElement.from_json_dict({"alphabet": "BASE", "terms": [{"word": "t", "coeff": 0.5}]})
    with pytest.raises(CoefficientError):
        RingElement.from_json_dict({"alphabet": "QUAD", "terms": [{"word": "t_1", "coeff": True}]})
    for malformed in MALFORMED_ELEMENT_JSON:
        with pytest.raises(ValueError):
            RingElement.from_json_dict(malformed)


# Element documents of the wrong shape, each refused with a ValueError.
MALFORMED_ELEMENT_JSON = [
    {"alphabet": "QUAD", "terms": 5},
    {"alphabet": ["QUAD"], "terms": []},
    {"alphabet": "QUAD", "terms": [{"word": 5, "coeff": 1}]},
]


def test_at_k_merges_terms_that_meet():
    u_k = parse_word("t u^k", k=True)
    element = RingElement(BASE, [(u_k, 2), (parse_word("t u^2"), -2), (parse_word("u"), 1)])
    assert element.term_count == 3
    # At k = 2 the two words coincide and their terms cancel.
    assert element.at_k(2) == RingElement(BASE, [(parse_word("u"), 1)])
    assert element.at_k(3) == RingElement(
        BASE, [(parse_word("t u^3"), 2), (parse_word("t u^2"), -2), (parse_word("u"), 1)]
    )
    # A concrete element is its own instance.
    assert element.at_k(3).at_k(5) == element.at_k(3)


def test_functional_is_linear():
    rng = random.Random(57)
    t, u = parse_word("t"), parse_word("u")
    f = Functional([(t, 1), (u, -1)])
    assert f(RingElement(BASE, {t: Fraction(5), u: 2})) == 3
    for _ in range(100):
        x, y = rand_element(rng), rand_element(rng)
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert f(x + y) == f(x) + f(y)
        assert f(x.scale(q)) == q * f(x)


def test_functional_weights_merge_like_ring_elements():
    t = parse_word("t")
    assert Functional([(t, 1), (t, 2)]).weights[t] == 3
    for cancelled in ([(t, 1), (t, -1)], [(t, 0)], {}):
        with pytest.raises(ValueError, match="a functional needs a nonzero weight"):
            Functional(cancelled)
    with pytest.raises(AlphabetMismatchError):
        Functional([(t, 1), (parse_word("t_1"), 1)])


def test_functional_rejects_cross_alphabet_input():
    f = Functional([(parse_word("t"), 1)])
    with pytest.raises(AlphabetMismatchError):
        f(RingElement.monomial(parse_word("t_1")))


def test_matrix_rank_exact_examples():
    assert matrix_rank_exact([[1, 0], [0, 1]]) == 2
    assert matrix_rank_exact([[1, 2], [2, 4]]) == 1
    assert matrix_rank_exact([]) == 0
    assert matrix_rank_exact([[0, 0, 0]]) == 0
    assert matrix_rank_exact([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]) == 1


def test_matrix_rank_exact_rejects_ragged_rows():
    for rows in ([[1, 2], [3]], [[], [1]]):
        with pytest.raises(ValueError, match="ragged matrix"):
            matrix_rank_exact(rows)
    with pytest.raises(CoefficientError):
        matrix_rank_exact([[0.5]])


def test_matrix_rank_matches_sympy_random():
    rng = random.Random(101)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        entries = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        expected = sympy.Matrix([[sympy.Rational(q) for q in row] for row in entries]).rank()
        assert matrix_rank_exact(entries) == expected


def test_rank_of_elements():
    t, u = parse_word("t"), parse_word("u")
    x = RingElement(BASE, {t: 1})
    y = RingElement(BASE, {u: 1})
    assert rank([x, x.scale(2), y]) == 2
    assert rank([x - x]) == 0
    assert rank([]) == 0


def sympy_rank(elements):
    columns = sorted({word for x in elements for word, _ in x.items()}, key=lambda w: w.sort_key())
    if not elements or not columns:
        return 0
    return sympy.Matrix(
        [[sympy.Rational(x.coeff(word)) for word in columns] for x in elements]
    ).rank()


def test_rank_with_fill_in():
    a, b, c = (RingElement.monomial(parse_word(text)) for text in ("t", "u", "t u"))
    # Reducing a - c by a + b fills in -b, which b + c then cancels.
    assert rank([a + b, b + c, a - c]) == 2
    assert rank([a + b, b + c, a + c]) == 3
    assert matrix_rank_exact([[1, 1, 0], [0, 1, 1], [1, 0, -1]]) == 2
    assert matrix_rank_exact([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 3


def test_rank_matches_sympy_on_overlapping_supports():
    rng = random.Random(131)
    pool = [parse_word(text) for text in ("t", "u", "t u", "u t", "t^2", "u^-1", "t^-1 u")]
    for _ in range(150):
        family = []
        for _ in range(rng.randint(1, 7)):
            if family and rng.random() < 0.3:
                # A combination of earlier rows, so that some families are dependent.
                x = sum(
                    (y.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for y in family),
                    RingElement(BASE),
                )
            else:
                x = RingElement(BASE, {
                    word: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for word in rng.sample(pool, rng.randint(1, 4))
                })
            family.append(x)
        assert rank(family) == sympy_rank(family)


def test_rank_of_target_families_matches_sympy():
    for disk in Disk:
        family = [w3_target(disk, k) for k in range(1, 7)]
        assert rank(family) == sympy_rank(family) == 6


def test_at_k_merges_coinciding_words_as_the_constructor_does():
    def k_word(text):
        return parse_word(text, QUAD, k=True)

    element = RingElement(
        QUAD,
        [
            (k_word("t_1 u_1^k-2 t_1"), 3),  # t_1^2 at k = 2, cancelling the next
            (k_word("t_1^2"), -3),
            (k_word("u_3^k"), Fraction(1, 2)),
            (k_word("t_3^k-1"), 1),  # t_3 at k = 2, adding to the next
            (k_word("t_3^-k+3"), 2),
            (k_word("u_1 t_3^k"), -1),
        ],
    )
    for k in (1, 2, 3, 4):
        instantiated = element.at_k(k)
        constructed = RingElement(QUAD, [(at_k(w, k), c) for w, c in element.terms()])
        assert instantiated == constructed
        assert list(instantiated.terms()) == list(constructed.terms())  # insertion order
        assert all(c and isinstance(c, Fraction) for _, c in instantiated.terms())
    at_2 = element.at_k(2)
    assert at_2.coeff(parse_word("t_1^2")) == 0
    assert at_2.coeff(parse_word("t_3")) == 3
    assert at_2.term_count == 3
    assert element.at_k(3).term_count == 6
