"""Monomial patterns: formal products of subscripted variables.

A pattern like ``a_1 c_3^-1 a_3`` stands for the map sending two-letter
words (a, c) to the four-letter word a_1 * invert(c)_3 * a_3, where the
subscript is the letter renaming.  Patterns are what the relation
formulas are written in and what the word-equation solver consumes.

``CompiledFormulas`` evaluates signed sums of patterns in bulk: each
distinct pattern is compiled once, and evaluated on the syllables of
the renamed and inverted pieces of its arguments (``word_pieces``),
so no intermediate ``Word`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .words import (
    _RENAME,
    BASE,
    Syllable,
    Word,
    _merge_runs,
    concat_words,
    invert,
    rename,
)


class PatternError(ValueError):
    """Malformed pattern text or an evaluation with missing/bad values."""


@dataclass(frozen=True)
class PatternFactor:
    """One factor: a variable name, a subscript tag, and an inversion flag."""

    var: str
    tag: int
    inverted: bool = False

    def __post_init__(self):
        if not self.var.isalpha() or not self.var.islower():
            raise PatternError(f"variable name must be lowercase letters, got {self.var!r}")
        if self.tag not in (1, 3):
            raise PatternError(f"subscript tag must be 1 or 3, got {self.tag!r}")

    def __str__(self) -> str:
        text = f"{self.var}_{self.tag}"
        return f"{text}^-1" if self.inverted else text


@dataclass(frozen=True)
class Pattern:
    """A nonempty product of factors in at most two distinct variables."""

    factors: tuple[PatternFactor, ...]

    def __post_init__(self):
        if not self.factors:
            raise PatternError("a pattern needs at least one factor")
        if len(self.variables()) > 2:
            raise PatternError("patterns use at most two distinct variables")

    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for factor in self.factors:
            if factor.var not in seen:
                seen.append(factor.var)
        return tuple(seen)

    def __str__(self) -> str:
        return " ".join(str(factor) for factor in self.factors)


def parse_pattern(text: str) -> Pattern:
    """Read a pattern from text like ``c_1^-1 a_1 a_3``."""
    factors = []
    for token in text.split():
        body, inverted = (token[:-3], True) if token.endswith("^-1") else (token, False)
        name, _, tag_text = body.rpartition("_")
        if not name or tag_text not in ("1", "3"):
            raise PatternError(f"cannot read pattern factor {token!r}")
        factors.append(PatternFactor(name, int(tag_text), inverted))
    return Pattern(tuple(factors))


def eval_pattern(pattern: Pattern, assignment: Mapping[str, Word]) -> Word:
    """Substitute two-letter words for the variables and reduce."""
    pieces = []
    for factor in pattern.factors:
        try:
            value = assignment[factor.var]
        except KeyError:
            raise PatternError(f"no value for variable {factor.var!r}") from None
        if value.alphabet is not BASE:
            raise PatternError(
                f"value for {factor.var!r} must be over the two-letter alphabet"
            )
        if factor.inverted:
            value = invert(value)
        pieces.append(rename(value, factor.tag))
    return concat_words(pieces)


Run = tuple[Syllable, ...]


def word_pieces(w: Word) -> tuple[Run, Run, Run, Run]:
    """The syllables of w_1, (w^-1)_1, w_3 and (w^-1)_3, in that order.

    These are the four values a pattern factor can take on w; a formula
    evaluation reads them by index instead of renaming w again.
    """
    if w.alphabet is not BASE:
        raise PatternError("pattern values must be over the two-letter alphabet")
    inverse = tuple((letter, -exp) for letter, exp in reversed(w.syllables))
    return tuple(
        tuple((table[letter], exp) for letter, exp in run)
        for table in (_RENAME[1], _RENAME[3])
        for run in (w.syllables, inverse)
    )


class CompiledFormulas:
    """Signed pattern formulas over shared variables, compiled for evaluation.

    ``formulas`` maps a key to its signed terms.  The distinct term
    patterns (the shapes) are numbered once across all formulas and
    compiled to indices into the pieces of the variable values.

    ``evaluate`` takes the concatenated ``word_pieces`` of one value per
    variable, in the order of ``variables``, and multiplies out every
    shape once.  Pieces are reduced, so a product can only cancel where
    the same letter meets itself at a seam, and only there is it
    reduced.  Letters with different subscripts never meet that way, so
    a change of subscript is a plain concatenation, unless the stretch
    before it reduced to the identity and let its neighbours meet.
    ``coefficients`` then sums one formula's signed terms over those
    shape words.
    """

    def __init__(
        self,
        variables: Sequence[str],
        formulas: Mapping[Hashable, Iterable[tuple[int, Pattern]]],
    ):
        self.variables = tuple(variables)
        shapes: list[Pattern] = []
        terms: dict[Hashable, tuple[tuple[int, int], ...]] = {}
        for key, formula in formulas.items():
            entries = []
            for sign, pattern in formula:
                if pattern not in shapes:
                    shapes.append(pattern)
                entries.append((sign, shapes.index(pattern)))
            terms[key] = tuple(entries)
        self.shapes = tuple(shapes)
        self.terms = terms
        self._indices = tuple(
            tuple(self._piece_index(factor) for factor in pattern.factors)
            for pattern in shapes
        )

    def _piece_index(self, factor: PatternFactor) -> int:
        if factor.var not in self.variables:
            raise PatternError(f"no value for variable {factor.var!r}")
        return (
            4 * self.variables.index(factor.var)
            + (2 if factor.tag == 3 else 0)
            + factor.inverted
        )

    def evaluate(self, pieces: Sequence[Run]) -> list[Run]:
        """Reduced syllables of every shape, indexed like ``shapes``."""
        words = []
        for first, *rest in self._indices:
            word = pieces[first]
            for index in rest:
                piece = pieces[index]
                if word and piece and word[-1][0] == piece[0][0]:
                    word = _merge_runs((word, piece))
                else:
                    word += piece
            words.append(word)
        return words

    def coefficients(self, key: Hashable, words: Sequence[Run]) -> dict[Run, int]:
        """Nonzero integer coefficients of formula ``key`` on evaluated shapes."""
        acc: dict[Run, int] = {}
        for sign, shape in self.terms[key]:
            word = words[shape]
            total = acc.get(word, 0) + sign
            if total:
                acc[word] = total
            elif word in acc:
                del acc[word]
        return acc
