"""Hexagon relations, the four T-polynomials, and the W3 target family.

The objects here live in the rational group ring of the free group on
(t_1, u_1, t_3, u_3).  A pair of two-letter words (nu, mu) determines a
hexagon relator H(nu, mu); a pair (a, c) determines four polynomial
values T_1, T_3, T_4, T_6.  The distinguished family of targets is
T-polynomials evaluated at (a, c) = (t, t u^k t^-1), one family per
disk, and the coefficient functional psi(k) separates the whole family
from the span of hexagons and admissible-pair generators.

The target family is duplicated on purpose: once through the T
formulas and once as hard-coded expansions.  ``w3_target`` insists the
two constructions agree, so corrupting either copy makes every
downstream verification fail loudly.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .patterns import CompiledFormulas, Pattern, Run, parse_pattern, word_pieces
from .ring import Functional, RingElement
from .words import (
    BASE,
    QUAD,
    Affine,
    Exponent,
    Word,
    at_k,
    bounded_words,
    parse_word,
)


class BarbellError(ValueError):
    """Illegal arguments to a polynomial or enumeration routine."""


class SelfCheckError(RuntimeError):
    """The two independent target constructions disagree."""


def _formula(*signed_patterns: tuple[int, str]) -> tuple[tuple[int, Pattern], ...]:
    return tuple((sign, parse_pattern(text)) for sign, text in signed_patterns)


# The four polynomial shapes, written in the variables (a, c).  The
# variable pair fed to t_poly is unbarred: each formula already spells
# out its own inversions.
T_FORMULAS: dict[int, tuple[tuple[int, Pattern], ...]] = {
    1: _formula(
        (+1, "a_1 c_3^-1 a_3"),
        (+1, "c_1^-1 a_1 a_3"),
        (-1, "c_1^-1 a_3^-1"),
        (-1, "a_1^-1 c_3^-1"),
    ),
    3: _formula(
        (-1, "c_1 a_3^-1 c_3"),
        (+1, "a_1 c_3^-1 a_3"),
        (+1, "a_1^-1 c_3 a_3^-1"),
        (-1, "c_1 a_3"),
        (-1, "a_1 c_3"),
        (+1, "c_1 a_1^-1 a_3^-1"),
        (+1, "c_1^-1 a_1 a_3"),
        (-1, "a_1 c_1^-1 c_3^-1"),
    ),
    4: _formula(
        (+1, "a_1^-1 c_3^-1 a_3^-1"),
        (+1, "a_1 c_3^-1 a_3"),
        (-1, "c_1^-1 a_3^-1"),
        (-1, "c_1^-1 a_3"),
        (+1, "a_1^-1 c_3^-1"),
        (+1, "a_1 c_3^-1"),
        (-1, "c_1^-1 a_1^-1 a_3^-1"),
        (-1, "c_1^-1 a_1 a_3"),
    ),
    6: _formula(
        (+1, "c_1^-1 a_3^-1 c_3^-1"),
        (+1, "c_1 a_3^-1 c_3"),
        (-1, "a_1 c_3 a_3"),
        (-1, "a_1 c_3^-1 a_3"),
        (+1, "a_1^-1 c_3 a_3^-1"),
        (+1, "a_1^-1 c_3^-1 a_3^-1"),
        (+1, "a_1^-1 c_3^-1"),
        (+1, "a_1^-1 c_3"),
        (-1, "c_1^-1 a_3^-1"),
        (-1, "c_1 a_3^-1"),
        (-1, "c_1^-1 a_1^-1 a_3^-1"),
        (-1, "c_1 a_1^-1 a_3^-1"),
        (+1, "c_1^-1 a_1 a_3"),
        (+1, "c_1 a_1 a_3"),
        (-1, "a_1^-1 c_1^-1 c_3^-1"),
        (-1, "a_1^-1 c_1 c_3"),
    ),
}

T_KINDS = (1, 3, 4, 6)

# The four terms of the hexagon relator H(nu, mu).
HEXAGON_TERMS: tuple[tuple[int, Pattern], ...] = _formula(
    (+1, "nu_1 mu_3"),
    (+1, "mu_1^-1 nu_3^-1"),
    (-1, "nu_1^-1 mu_3 nu_3^-1"),
    (-1, "nu_1 mu_1^-1 nu_3"),
)

# Every formula compiled once: the 4 hexagon shapes, and the 21 distinct
# shapes shared by the four polynomial kinds.
HEXAGON_FORMULAS = CompiledFormulas(("nu", "mu"), {"H": HEXAGON_TERMS})
T_POLY_FORMULAS = CompiledFormulas(("a", "c"), T_FORMULAS)


# _pair_pieces and _t_poly_coeffs stay separate functions because
# bench/tracer.py times them by name.
def _pair_pieces(a: Word, c: Word) -> tuple[Run, ...]:
    return word_pieces(a) + word_pieces(c)


def _t_poly_coeffs(i: int, words: Sequence[Run]) -> dict[Run, int]:
    """Coefficients of the kind-i polynomial on evaluated T_POLY_FORMULAS shapes."""
    return T_POLY_FORMULAS.coefficients(i, words)


def _element_from_coeffs(coeffs: Mapping[Run, int]) -> RingElement:
    return RingElement(QUAD, [(Word._raw(QUAD, s), n) for s, n in coeffs.items()])


def t_poly(i: int, a: Word, c: Word) -> RingElement:
    """Value of the kind-i polynomial on a pair of nontrivial words."""
    if i not in T_FORMULAS:
        raise BarbellError(f"polynomial kind must be one of {T_KINDS}, got {i!r}")
    for name, value in (("a", a), ("c", c)):
        if value.alphabet is not BASE:
            raise BarbellError(f"{name} must be a word over the two-letter alphabet")
        if value.is_identity:
            raise BarbellError(f"{name} must be nontrivial")
    words = T_POLY_FORMULAS.evaluate(_pair_pieces(a, c))
    return _element_from_coeffs(_t_poly_coeffs(i, words))


def hexagon(nu: Word, mu: Word) -> RingElement:
    """The hexagon relator H(nu, mu); identity arguments are allowed."""
    for name, value in (("nu", nu), ("mu", mu)):
        if value.alphabet is not BASE:
            raise BarbellError(f"{name} must be a word over the two-letter alphabet")
    words = HEXAGON_FORMULAS.evaluate(word_pieces(nu) + word_pieces(mu))
    return _element_from_coeffs(HEXAGON_FORMULAS.coefficients("H", words))


# ---------------------------------------------------------------------------
# The target family, built twice.

# The hard-coded expansions, as signed words with exponents affine in k.
def _expansion(*rows: tuple[int, str]) -> tuple[tuple[int, Word], ...]:
    return tuple((sign, parse_word(text, QUAD, k=True)) for sign, text in rows)


T4_EXPANSION_ROWS = _expansion(
    (+1, "t_1^-1 t_3 u_3^-k t_3^-2"),
    (+1, "t_1 t_3 u_3^-k"),
    (-1, "t_1 u_1^-k t_1^-1 t_3^-1"),
    (-1, "t_1 u_1^-k t_1^-1 t_3"),
    (+1, "t_1^-1 t_3 u_3^-k t_3^-1"),
    (+1, "t_1 t_3 u_3^-k t_3^-1"),
    (-1, "t_1 u_1^-k t_1^-2 t_3^-1"),
    (-1, "t_1 u_1^-k t_3"),
)

T6_EXPANSION_ROWS = _expansion(
    (+1, "t_1 u_1^-k t_1^-1 u_3^-k t_3^-1"),
    (+1, "t_1 u_1^k t_1^-1 u_3^k t_3^-1"),
    (-1, "t_1 t_3 u_3^k"),
    (-1, "t_1 t_3 u_3^-k"),
    (+1, "t_1^-1 t_3 u_3^k t_3^-2"),
    (+1, "t_1^-1 t_3 u_3^-k t_3^-2"),
    (+1, "t_1^-1 t_3 u_3^-k t_3^-1"),
    (+1, "t_1^-1 t_3 u_3^k t_3^-1"),
    (-1, "t_1 u_1^-k t_1^-1 t_3^-1"),
    (-1, "t_1 u_1^k t_1^-1 t_3^-1"),
    (-1, "t_1 u_1^-k t_1^-2 t_3^-1"),
    (-1, "t_1 u_1^k t_1^-2 t_3^-1"),
    (+1, "t_1 u_1^-k t_3"),
    (+1, "t_1 u_1^k t_3"),
    (-1, "u_1^-k t_1^-1 t_3 u_3^-k t_3^-1"),
    (-1, "u_1^k t_1^-1 t_3 u_3^k t_3^-1"),
)


def _check_k(k: Exponent) -> None:
    # k is a positive int, or an affine exponent positive at every k >= 1
    # (K itself, for the structural analysis run once for every k).
    if not (
        type(k) is int and k >= 1
        or isinstance(k, Affine) and k.b > 0 and k.a + k.b >= 1
    ):
        raise BarbellError(f"the family parameter k must be a positive integer, got {k!r}")


def _expansion_element(rows: Iterable[tuple[int, Word]], k: Exponent) -> RingElement:
    return RingElement(QUAD, [(at_k(word, k), sign) for sign, word in rows])


def t4_expansion(k: Exponent) -> RingElement:
    """Hard-coded 8-term expansion of the disk-1 target."""
    _check_k(k)
    return _expansion_element(T4_EXPANSION_ROWS, k)


def t6_expansion(k: Exponent) -> RingElement:
    """Hard-coded 16-term expansion of the kind-6 value at (t, t u^k t^-1)."""
    _check_k(k)
    return _expansion_element(T6_EXPANSION_ROWS, k)


class Disk(Enum):
    """The two disks whose W3 values the targets certify."""

    D1 = "d1"
    D2 = "d2"


def target_argument_pair(k: Exponent) -> tuple[Word, Word]:
    """The argument pair (a, c) = (t, t u^k t^-1) of the target family."""
    _check_k(k)
    return (Word(BASE, [("t", 1)]), Word(BASE, [("t", 1), ("u", k), ("t", -1)]))


def w3_target(disk: Disk, k: int) -> RingElement:
    """The disk's W3 target at k, built twice; both constructions must agree."""
    if not isinstance(disk, Disk):
        raise BarbellError(f"disk must be Disk.D1 or Disk.D2, got {disk!r}")
    _check_k(k)
    a, c = target_argument_pair(k)
    if disk is Disk.D1:
        value = t_poly(4, a, c)
        expansion = t4_expansion(k)
    else:
        value = t_poly(4, a, c).scale(2) + t_poly(6, a, c)
        expansion = t4_expansion(k).scale(2) + t6_expansion(k)
    if value != expansion:
        raise SelfCheckError(
            f"polynomial and hard-coded constructions of the {disk.value} target "
            f"disagree at k={k}"
        )
    return value


def monomials_m(k: Exponent) -> tuple[Word, Word]:
    """The two witness monomials the functional psi(k) weighs."""
    _check_k(k)
    # Adjacent letters differ and k is nonzero: both words are reduced.
    m1 = Word._raw(QUAD, (("t_1", -1), ("t_3", 1), ("u_3", -k), ("t_3", -2)))
    m2 = Word._raw(QUAD, (("t_1", 2), ("u_1", k), ("t_1", -1), ("t_3", 1)))
    return (m1, m2)


def psi(k: int) -> Functional:
    """The separating functional: coefficient at m1(k) minus coefficient at m2(k)."""
    m1, m2 = monomials_m(k)
    return Functional([(m1, 1), (m2, -1)])


# ---------------------------------------------------------------------------
# Admissible pairs and the span they generate.

def is_admissible(a: Word, c: Word) -> bool:
    """True when a ends and c begins with powers of different letters."""
    if a.alphabet is not BASE or c.alphabet is not BASE:
        raise BarbellError("admissibility is defined for two-letter-alphabet words")
    if a.is_identity or c.is_identity:
        return False
    return a.syllables[-1][0] != c.syllables[0][0]


_OTHER_LETTER = {"t": "u", "u": "t"}


def enumerate_admissible(
    max_syllables: int, max_exponent: int
) -> Iterator[tuple[Word, Word]]:
    """All admissible pairs within bounds, each a plain tuple (a, c),
    without repetition.

    Deterministic order: total syllable count of the pair, then the word
    order of a, then the word order of c.
    """
    if max_syllables < 1 or max_exponent < 1:
        raise BarbellError("enumeration bounds must be at least 1")
    words = bounded_words(max_syllables, max_exponent)
    # Filtering the sorted words keeps each (syllable count, first letter)
    # group in word order.
    heads: dict[tuple[int, str], list[Word]] = {
        (count, letter): [] for count in range(1, max_syllables + 1) for letter in "tu"
    }
    for w in words:
        heads[(w.syllable_count, w.syllables[0][0])].append(w)
    for total in range(2, 2 * max_syllables + 1):
        for a in words:
            c_count = total - a.syllable_count
            if 1 <= c_count <= max_syllables:
                for c in heads[(c_count, _OTHER_LETTER[a.syllables[-1][0]])]:
                    yield a, c


def count_admissible(max_syllables: int, max_exponent: int) -> int:
    """Number of pairs enumerate_admissible yields, from the bounds: 2 * E^2.

    For each letter, E = sum of (2e)^n over n = 1..S words end in it and as
    many begin with it; a pair picks a's last letter, a, then c beginning
    with the other letter."""
    if max_syllables < 1 or max_exponent < 1:
        raise BarbellError("enumeration bounds must be at least 1")
    ending = sum((2 * max_exponent) ** n for n in range(1, max_syllables + 1))
    return 2 * ending * ending


class SpanRecord(NamedTuple):
    """One span generator: the polynomial kind, the pair, and the value."""

    i: int
    a: Word
    c: Word
    value: RingElement


def _check_kinds(kinds: Iterable[int]) -> tuple[int, ...]:
    kind_list = sorted(set(kinds))
    if not kind_list or any(i not in T_FORMULAS for i in kind_list):
        raise BarbellError(f"kinds must be a nonempty subset of {T_KINDS}")
    return tuple(kind_list)


def span_generator_records(
    max_syllables: int, max_exponent: int, kinds: Iterable[int] = T_KINDS
) -> Iterator[SpanRecord]:
    """Stream the span generators with their provenance, pairs outermost."""
    kind_list = _check_kinds(kinds)
    for a, c in enumerate_admissible(max_syllables, max_exponent):
        words = T_POLY_FORMULAS.evaluate(_pair_pieces(a, c))
        for i in kind_list:
            yield SpanRecord(i, a, c, _element_from_coeffs(_t_poly_coeffs(i, words)))
