"""Hypothesis properties of the word and ring layers, and of words whose
exponents are affine in k.

The affine properties state what the structural checks rely on: a
computation run once on k-words, inside ``recorded_roots``, gives at
every k outside the recorded roots what the same computation gives on
the words instantiated at that k.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from barbellw3.barbell import monomials_m, psi
from barbellw3.patterns import eval_pattern
from barbellw3.ring import RingElement
from barbellw3.solver import solve, table_patterns
from barbellw3.words import (
    BASE,
    QUAD,
    K,
    Word,
    at_k,
    concat_words,
    equal_syllables,
    identity,
    invert,
    recorded_roots,
    rename,
    split_blocks,
)

from oracles import naive_concat, naive_invert

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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([BASE, QUAD]).flatmap(lambda a: st.tuples(words(a), words(a), words(a))))
def test_group_laws(triple):
    a, b, c = triple
    e = identity(a.alphabet)
    assert concat_words([concat_words([a, b]), c]) == concat_words([a, concat_words([b, c])])
    assert concat_words([a, invert(a)]) == e == concat_words([invert(a), a])
    assert concat_words([a, e]) == a == concat_words([e, a])
    assert invert(concat_words([a, b])) == concat_words([invert(b), invert(a)])
    assert invert(invert(a)) == a
    assert concat_words([a, b, c]) == naive_concat(a, b, c)
    assert invert(a) == naive_invert(a)


@settings(max_examples=200, deadline=None)
@given(words(QUAD), words(BASE, min_size=1), words(BASE, min_size=1))
def test_rename_split_blocks_round_trip(w, a, b):
    blocks = split_blocks(w)
    assert all(first[0] != second[0] for first, second in zip(blocks, blocks[1:]))
    assert concat_words([rename(base, tag) for tag, base in blocks], QUAD) == w
    assert split_blocks(concat_words([rename(a, 1), rename(b, 3)])) == [(1, a), (3, b)]


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


@settings(max_examples=200, deadline=None)
@given(
    syllables(exponents=AFFINE),
    syllables(exponents=AFFINE),
    st.sampled_from([pattern for pattern, _ in table_patterns()]),
)
@example([("u", K)], [("u", 3)], table_patterns()[0][0])
@example([("t", 1), ("u", K)], [("u", 2 - K), ("t", 1)], table_patterns()[0][0])
def test_operations_commute_with_instantiation(a_syllables, c_syllables, pattern):
    # Each decision is checked against only the roots it recorded itself.
    with recorded_roots() as input_roots:
        a, c = Word(BASE, a_syllables), Word(BASE, c_syllables)
    with recorded_roots() as equality_roots:
        equal = equal_syllables(a.syllables, c.syllables)
    with recorded_roots() as roots:
        product = concat_words([a, c, invert(a)])
        inverse = invert(a)
        value = eval_pattern(pattern, {"a": a, "c": c})
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
    if found.used_fallback:
        return
    assert tuple(sorted({"a": a, "c": c}.items())) in {s.items for s in found}
    for k in KS:
        if k in roots:
            continue
        concrete = solve(pattern, at_k(target, k))
        assert not concrete.used_fallback
        assert {s.items for s in concrete} == {
            tuple((var, at_k(word, k)) for var, word in s.items) for s in found
        }
