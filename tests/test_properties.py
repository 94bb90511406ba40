"""Hypothesis properties of the word and ring layers, and of words whose
exponents are affine in k.

The affine properties state what the structural checks rely on: a
computation run once on k-words, inside ``recorded_roots``, gives at
every k outside the recorded roots what the same computation gives on
the words instantiated at that k.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from barbellw3.barbell import HEXAGON_FORMULAS, T_POLY_FORMULAS, monomials_m, psi
from barbellw3.patterns import eval_pattern, word_pieces
from barbellw3.ring import RingElement, rank
from barbellw3.solver import solve, table_patterns
from barbellw3.words import (
    BASE,
    QUAD,
    K,
    Word,
    at_k,
    concat_words,
    identity,
    invert,
    parse_word,
    project,
    recorded_roots,
    rename,
)

from oracles import (
    equal_syllables,
    merged_at_k,
    naive_concat,
    naive_invert,
    naive_project,
    reduce_letters,
    split_blocks,
)
from test_ring import sympy_rank

INTS = st.integers(-4, 4).filter(bool)
AFFINE = st.one_of(
    INTS,
    st.builds(lambda a, b: a + b * K, st.integers(-5, 5), st.integers(-2, 2).filter(bool)),
)
KS = range(1, 31)


@st.composite
def syllables(draw, alphabet=BASE, exponents=INTS, min_size=0, max_size=5):
    """Syllables of a reduced word: no letter repeats its neighbour."""
    out, previous = [], None
    for _ in range(draw(st.integers(min_size, max_size))):
        letter = draw(st.sampled_from([l for l in alphabet.letters if l != previous]))
        out.append((letter, draw(exponents)))
        previous = letter
    return out


def words(alphabet=BASE, min_size=0):
    return syllables(alphabet, min_size=min_size).map(lambda s: Word(alphabet, s))


def unreduced(alphabet):
    """Syllables with adjacent repeats and zero exponents."""
    syllable = st.tuples(st.sampled_from(alphabet.letters), st.integers(-3, 3))
    return st.lists(syllable, max_size=8)


def vanishing_at_2(alphabet, syllables) -> Word:
    """A word with affine exponents whose syllables at k = 2 are the
    given ones, each zero exponent written k - 2, and each pair of
    neighbours with one letter held apart by another letter to the
    power k - 2."""
    out = []
    for letter, exp in syllables:
        if out and out[-1][0] == letter:
            out.append((next(l for l in alphabet.letters if l != letter), K - 2))
        out.append((letter, exp or K - 2))
    return Word(alphabet, out)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([BASE, QUAD]).flatmap(
        lambda a: st.tuples(words(a), words(a), words(a), unreduced(a))
    )
)
def test_group_laws(case):
    a, b, c, syllables = case
    e = identity(a.alphabet)
    assert concat_words([concat_words([a, b]), c]) == concat_words([a, concat_words([b, c])])
    assert concat_words([a, invert(a)]) == e == concat_words([invert(a), a])
    assert concat_words([a, e]) == a == concat_words([e, a])
    assert invert(concat_words([a, b])) == concat_words([invert(b), invert(a)])
    assert invert(invert(a)) == a
    assert concat_words([a, b, c]) == naive_concat(a, b, c)
    assert invert(a) == naive_invert(a)
    # The normaliser's one-syllable-at-a-time path, as at_k and parse_word take it.
    letters = [(l, 1 if n > 0 else -1) for l, n in syllables for _ in range(abs(n))]
    expected = reduce_letters(a.alphabet, letters)
    assert at_k(vanishing_at_2(a.alphabet, syllables), 2) == expected
    text = " ".join(f"{l}^{n}" for l, n in syllables if n)
    assert parse_word(text or "1", a.alphabet) == expected


@settings(max_examples=200, deadline=None)
@given(words(QUAD), words(BASE, min_size=1), words(BASE, min_size=1))
def test_rename_split_blocks_round_trip(w, a, b):
    blocks = split_blocks(w)
    assert all(first[0] != second[0] for first, second in zip(blocks, blocks[1:]))
    assert concat_words([rename(base, tag) for tag, base in blocks], QUAD) == w
    assert split_blocks(concat_words([rename(a, 1), rename(b, 3)])) == [(1, a), (3, b)]


@settings(max_examples=200, deadline=None)
@given(words(QUAD), words(QUAD), words(BASE), st.sampled_from((1, 3)))
def test_project_is_a_homomorphism_undoing_rename(x, y, w, tag):
    assert project(x * y, tag) == project(x, tag) * project(y, tag)
    assert project(x, tag) == naive_project(x, tag)
    assert project(rename(w, tag), tag) == w
    assert project(rename(w, 4 - tag), tag) == identity(BASE)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([BASE, QUAD]).flatmap(
        lambda a: syllables(a, exponents=AFFINE).map(lambda s: Word(a, s))
    ),
    # Small int k often zeroes an exponent; an affine k (positive at
    # every k >= 1) zeroes none, but each exponent records its roots.
    st.one_of(
        st.integers(1, 6),
        st.builds(lambda a, b: a + b * K, st.integers(0, 3), st.integers(1, 2)),
    ),
)
@example(Word(BASE, [("t", 1), ("u", K - 2), ("t", 1)]), 2)
@example(Word(QUAD, [("t_1", 1), ("u_3", 2 - K), ("t_1", -1), ("u_1", K)]), 2)
@example(Word(BASE, [("t", K - 3), ("u", 1), ("t", 3 - K)]), K + 2)
def test_at_k_matches_the_merge_runs_reference(w, k):
    with recorded_roots() as roots:
        fast = at_k(w, k)
    with recorded_roots() as reference_roots:
        reference = merged_at_k(w, k)
    assert fast == reference
    assert roots == reference_roots


def elements(k):
    m1, m2 = monomials_m(k)
    pool = st.one_of(st.sampled_from([m1, m2]), words(QUAD))
    coefficients = st.fractions(max_denominator=5).filter(bool)
    return st.lists(st.tuples(pool, coefficients), max_size=6).map(
        lambda terms: RingElement(QUAD, terms)
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda k: st.tuples(st.just(k), elements(k), elements(k), st.fractions(max_denominator=7))
))
def test_psi_is_linear(case):
    k, x, y, q = case
    functional = psi(k)
    assert functional(x + y) == functional(x) + functional(y)
    assert functional(x.scale(q)) == q * functional(x)
    assert functional(x - x) == 0 and functional(x) == -functional(-x)
    m1, m2 = monomials_m(k)
    assert functional(x) == x.coeff(m1) - x.coeff(m2)
    assert isinstance(functional(x), Fraction)


@st.composite
def families(draw):
    """Up to 6 elements over at most 4 words, so that many are dependent."""
    pool = draw(st.lists(words(QUAD, min_size=1), min_size=1, max_size=4, unique=True))
    coefficients = st.fractions(-3, 3, max_denominator=3)
    terms = st.lists(st.tuples(st.sampled_from(pool), coefficients), max_size=4)
    return draw(st.lists(terms.map(lambda t: RingElement(QUAD, t)), max_size=6))


@settings(max_examples=100, deadline=None)
@given(families().flatmap(lambda family: st.tuples(st.just(family), st.permutations(family))))
def test_rank_matches_sympy_in_any_order(case):
    family, shuffled = case
    assert rank(family) == sympy_rank(family) == rank(shuffled)


@settings(max_examples=200, deadline=None)
@given(
    syllables(exponents=AFFINE),
    syllables(exponents=AFFINE),
    st.sampled_from([pattern for pattern, _ in table_patterns()]),
    st.sampled_from([HEXAGON_FORMULAS, T_POLY_FORMULAS]),
)
@example([("u", K)], [("u", 3)], table_patterns()[0][0], HEXAGON_FORMULAS)
@example([("t", 1), ("u", K)], [("u", 2 - K), ("t", 1)], table_patterns()[0][0], HEXAGON_FORMULAS)
# Seams t_1^k t_1^(k-2) in H's fourth term and t_1^(2-k) t_1^-k in the
# T shape c_1 a_1^-1 a_3^-1, both vanishing at k = 1.
@example([("t", K)], [("u", 1), ("t", 2 - K)], table_patterns()[0][0], HEXAGON_FORMULAS)
@example([("t", K)], [("u", 1), ("t", 2 - K)], table_patterns()[0][0], T_POLY_FORMULAS)
def test_operations_commute_with_instantiation(a_syllables, c_syllables, pattern, formulas):
    # Each decision is checked against only the roots it recorded itself.
    with recorded_roots() as input_roots:
        a, c = Word(BASE, a_syllables), Word(BASE, c_syllables)
    with recorded_roots() as equality_roots:
        equal = a == c
    with recorded_roots() as roots:
        product = concat_words([a, c, invert(a)])
        inverse = invert(a)
        value = eval_pattern(pattern, {"a": a, "c": c})
    with recorded_roots() as shape_roots:
        shapes = formulas.evaluate(word_pieces(a) + word_pieces(c))
    for k in KS:
        if k in input_roots:
            continue
        a_k, c_k = at_k(a, k), at_k(c, k)
        if k not in equality_roots:
            assert equal == (a_k == c_k)
        if k not in roots:
            assert at_k(product, k) == concat_words([a_k, c_k, invert(a_k)])
            assert at_k(inverse, k) == invert(a_k)
            assert at_k(value, k) == eval_pattern(pattern, {"a": a_k, "c": c_k})
        if k not in shape_roots:
            assert [at_k(Word(QUAD, shape), k).syllables for shape in shapes] == (
                formulas.evaluate(word_pieces(a_k) + word_pieces(c_k))
            )


@settings(max_examples=300, deadline=None)
@given(syllables(exponents=AFFINE), syllables(exponents=AFFINE), st.booleans())
@example([("u", K)], [("u", 3)], False)
@example([("t", 1), ("u", K)], [("t", 1), ("u", K)], True)
@example([("t", K), ("u", 2)], [("t", 2 * K - 3), ("u", 2)], True)
@example([("t", K), ("u", 2)], [("u", K), ("t", 2)], False)
def test_equality_records_as_the_reference(x_syllables, y_syllables, nested):
    # Words compare lengths first and record the reference's roots.  A
    # tuple compares its items before its length, so runs of two lengths
    # may record a root more; never one fewer.
    x, y = tuple(x_syllables), tuple(y_syllables)
    with recorded_roots() as reference_roots:
        expected = equal_syllables(x, y)
    for left, right in ((Word(BASE, x), Word(BASE, y)), (x, y)):
        for compare, answer in ((operator.eq, expected), (operator.ne, not expected)):
            with recorded_roots() as roots:
                if nested:
                    with recorded_roots() as inner:
                        assert compare(left, right) is answer
                    assert inner == roots
                else:
                    assert compare(left, right) is answer
            if len(x) == len(y) or type(left) is Word:
                assert roots == reference_roots
            else:
                assert roots >= reference_roots


@settings(max_examples=100, deadline=None)
@given(
    syllables(exponents=AFFINE, min_size=1, max_size=3),
    syllables(exponents=AFFINE, min_size=1, max_size=3),
    st.sampled_from([pattern for pattern, _ in table_patterns()]),
)
@example([("t", 1)], [("t", 1), ("u", K), ("t", -1)], table_patterns()[0][0])
def test_symbolic_solve_holds_outside_the_recorded_roots(a_syllables, c_syllables, pattern):
    with recorded_roots() as roots:
        a, c = Word(BASE, a_syllables), Word(BASE, c_syllables)
        target = eval_pattern(pattern, {"a": a, "c": c})
        found = solve(pattern, target)
    assert tuple(sorted({"a": a, "c": c}.items())) in {s.items for s in found}
    for k in KS:
        if k in roots:
            continue
        concrete = solve(pattern, at_k(target, k))
        assert {s.items for s in concrete} == {
            tuple((var, at_k(word, k)) for var, word in s.items) for s in found
        }
