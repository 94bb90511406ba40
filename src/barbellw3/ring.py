"""Exact linear algebra in the rational group ring of a free group.

Elements are finite formal sums of reduced words with Fraction
coefficients, stored sparsely as a word -> coefficient map with no zero
entries.  Everything is exact: floats are rejected outright so a
verification can never pass by rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .words import (
    Alphabet,
    AlphabetMismatchError,
    Exponent,
    Word,
    at_k,
    parse_word,
)


class CoefficientError(ValueError):
    """A coefficient that is not an exact rational (or not an integer where one is required)."""


def as_fraction(value) -> Fraction:
    """Coerce int, Fraction, or a rational string to Fraction; floats and
    bools are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise CoefficientError(f"cannot read rational {value!r}") from exc
    raise CoefficientError(
        f"coefficients must be exact rationals, got {type(value).__name__}"
    )


def _format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class RingElement:
    """A finite rational combination of reduced words over one alphabet."""

    __slots__ = ("alphabet", "_terms")

    def __init__(
        self,
        alphabet: Alphabet,
        terms: Mapping[Word, object] | Iterable[tuple[Word, object]] = (),
    ):
        acc: dict[Word, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for word, coeff in items:
            if not isinstance(word, Word):
                raise TypeError(f"term keys must be words, got {type(word).__name__}")
            if word.alphabet is not alphabet:
                raise AlphabetMismatchError(
                    f"term {word} is over {word.alphabet.name}, element is over {alphabet.name}"
                )
            value = acc.get(word, _ZERO) + as_fraction(coeff)
            if value:
                acc[word] = value
            elif word in acc:
                del acc[word]
        self.alphabet = alphabet
        self._terms = acc

    @classmethod
    def monomial(cls, word: Word, coeff=1) -> "RingElement":
        return cls(word.alphabet, [(word, coeff)])

    @classmethod
    def _from_clean_dict(cls, alphabet: Alphabet, terms: dict[Word, Fraction]) -> "RingElement":
        # Trusted constructor: no zero values, all words over the alphabet.
        elem = object.__new__(cls)
        elem.alphabet = alphabet
        elem._terms = terms
        return elem

    def coeff(self, word: Word) -> Fraction:
        return self._terms.get(word, _ZERO)

    def items(self) -> list[tuple[Word, Fraction]]:
        """Terms sorted by the deterministic word order."""
        return sorted(self._terms.items(), key=lambda item: item[0].sort_key())

    def terms(self) -> Iterable[tuple[Word, Fraction]]:
        """The terms in no fixed order, for lookups that need no sorting."""
        return self._terms.items()

    def at_k(self, k: Exponent, memo: dict | None = None) -> "RingElement":
        """An element with affine exponents at one k: each word through
        ``words.at_k``, and words that coincide there merged.

        ``memo``, a dict a caller keeps for one k, is passed on to
        ``words.at_k``, so the elements instantiated with it hold one
        object per instantiated syllable value.
        """
        # The coefficients are already nonzero Fractions: only words that
        # coincide at k are added, and a sum that vanishes is dropped.
        terms: dict[Word, Fraction] = {}
        for word, coeff in self._terms.items():
            word = at_k(word, k, memo)
            if word in terms:
                coeff += terms[word]
                if not coeff:
                    del terms[word]
                    continue
            terms[word] = coeff
        return RingElement._from_clean_dict(self.alphabet, terms)

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.alphabet is other.alphabet and self._terms == other._terms

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        if self.alphabet is not other.alphabet:
            raise AlphabetMismatchError("cannot add elements over different alphabets")
        acc = dict(self._terms)
        for word, coeff in other._terms.items():
            value = acc.get(word, _ZERO) + coeff
            if value:
                acc[word] = value
            elif word in acc:
                del acc[word]
        return RingElement._from_clean_dict(self.alphabet, acc)

    def __neg__(self) -> "RingElement":
        return RingElement._from_clean_dict(
            self.alphabet, {w: -c for w, c in self._terms.items()}
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def scale(self, scalar) -> "RingElement":
        q = as_fraction(scalar)
        if not q:
            return RingElement(self.alphabet)
        return RingElement._from_clean_dict(
            self.alphabet, {w: q * c for w, c in self._terms.items()}
        )

    def __mul__(self, scalar) -> "RingElement":
        if isinstance(scalar, (int, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for word, coeff in self.items():
            sign = "-" if coeff < 0 else "+"
            magnitude = abs(coeff)
            body = str(word) if magnitude == 1 else f"{_format_fraction(magnitude)} * {word}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("- " if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"RingElement({self.alphabet.name}, {self})"

    def to_json_dict(self) -> dict:
        return {
            "alphabet": self.alphabet.name,
            "terms": [
                {"word": str(word), "coeff": _format_fraction(coeff)}
                for word, coeff in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RingElement":
        if not isinstance(data, dict) or "alphabet" not in data or "terms" not in data:
            raise ValueError("element JSON must have 'alphabet' and 'terms' fields")
        try:
            alphabet = Alphabet[data["alphabet"]]
        except (KeyError, TypeError):
            raise ValueError(f"unknown alphabet {data['alphabet']!r}") from None
        if not isinstance(data["terms"], list):
            raise ValueError("'terms' must be a list")
        terms = []
        for entry in data["terms"]:
            if not isinstance(entry, dict) or "word" not in entry or "coeff" not in entry:
                raise ValueError("each term must have 'word' and 'coeff' fields")
            if not isinstance(entry["word"], str):
                raise ValueError("each term's 'word' must be word text")
            terms.append((parse_word(entry["word"], alphabet), as_fraction(entry["coeff"])))
        return cls(alphabet, terms)


_ZERO = Fraction(0)


class Functional:
    """A linear functional given by finitely many word weights."""

    __slots__ = ("alphabet", "weights")

    def __init__(self, weights: Mapping[Word, object] | Iterable[tuple[Word, object]]):
        items = weights.items() if isinstance(weights, Mapping) else list(weights)
        acc: dict[Word, Fraction] = {}
        alphabet = None
        for word, value in items:
            if alphabet is None:
                alphabet = word.alphabet
            elif word.alphabet is not alphabet:
                raise AlphabetMismatchError("functional weights must share one alphabet")
            q = as_fraction(value)
            if q:
                acc[word] = q
        if alphabet is None:
            raise ValueError("a functional needs at least one weighted word")
        self.alphabet = alphabet
        self.weights = acc

    def evaluate(self, x: RingElement) -> Fraction:
        if x.alphabet is not self.alphabet:
            raise AlphabetMismatchError(
                "cannot evaluate a functional on an element over another alphabet"
            )
        get = x._terms.get
        total = _ZERO
        for word, weight in self.weights.items():
            coefficient = get(word)
            if coefficient is not None:
                total += weight * coefficient
        return total

    __call__ = evaluate


def _reduce(pivots: dict, row: dict) -> None:
    """Reduce one sparse rational row, a column -> nonzero Fraction map,
    into ``pivots``, each pivot row kept under its least column.

    The row is reduced in place at its least column until it is zero or
    starts a column that no pivot holds, where it becomes that column's
    pivot.  The rank of the rows reduced so far is ``len(pivots)``.
    """
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = row
            return
        factor = row[lead] / pivot[lead]
        for column, value in pivot.items():
            updated = row.get(column, _ZERO) - factor * value
            if updated:
                row[column] = updated
            else:
                del row[column]


def _eliminate(rows: Iterable[dict]) -> int:
    """Rank of sparse rational rows, each reduced in place by ``_reduce``
    into one set of pivots, so a caller may hand them in one at a time."""
    pivots: dict = {}
    for row in rows:
        _reduce(pivots, row)
    return len(pivots)


def _row(element: RingElement, columns: dict[tuple, int]) -> dict[int, Fraction]:
    """The element's terms as a sparse row for ``_reduce``.

    ``columns`` numbers each word's syllable tuple as it is first seen;
    rank does not depend on the column order.  It holds no word, so a
    word dies with its element.  One ``columns`` serves elements over one
    alphabet.
    """
    return {
        columns.setdefault(word.syllables, len(columns)): q
        for word, q in element._terms.items()
    }


def matrix_rank_exact(rows: Sequence[Sequence]) -> int:
    """Rank of a rational matrix by exact elimination."""
    matrix = [[as_fraction(x) for x in row] for row in rows]
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("ragged matrix")
    return _eliminate({j: q for j, q in enumerate(row) if q} for row in matrix)


def rank(vectors: Iterable[RingElement]) -> int:
    """Dimension of the span of finitely many elements, computed exactly."""
    elements = list(vectors)
    for element in elements:
        if element.alphabet is not elements[0].alphabet:
            raise AlphabetMismatchError("rank needs elements over one alphabet")
    columns: dict[tuple, int] = {}
    return _eliminate(_row(element, columns) for element in elements)
