"""Monomial patterns: formal products of subscripted variables.

A pattern like ``a_1 c_3^-1 a_3`` stands for the map sending two-letter
words (a, c) to the four-letter word a_1 * invert(c)_3 * a_3, where the
subscript is the letter renaming.  Patterns are what the relation
formulas are written in and what the word-equation solver consumes.

``CompiledFormulas`` evaluates signed sums of patterns in bulk: each
distinct pattern is compiled once, and evaluated on the syllables of
the renamed and inverted pieces of its arguments (``word_pieces``),
so no intermediate ``Word`` is built.

Patterns and their factors are plain ``NamedTuple`` records;
``parse_pattern``, the one place the package builds them, checks their
structure.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .words import (
    _RENAME,
    BASE,
    Syllable,
    Word,
    _seam,
    concat_words,
    invert,
    rename,
)


class PatternError(ValueError):
    """Malformed pattern text or an evaluation with missing/bad values."""


class PatternFactor(NamedTuple):
    """One factor: a variable name, a subscript tag, and an inversion flag."""

    var: str
    tag: int
    inverted: bool = False

    def __str__(self) -> str:
        text = f"{self.var}_{self.tag}"
        return f"{text}^-1" if self.inverted else text


class Pattern(NamedTuple):
    """A nonempty product of factors in at most two distinct variables."""

    factors: tuple[PatternFactor, ...]

    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for factor in self.factors:
            if factor.var not in seen:
                seen.append(factor.var)
        return tuple(seen)

    def projection(self, tag: int) -> tuple[tuple[str, bool], ...]:
        """The factors of subscript ``tag``, in order, as (variable, inverted).

        pi_tag (``words.project``), which keeps the letters of subscript
        ``tag``, is a homomorphism that undoes the renaming, so
        pi_tag(pattern(values)) is the product of these factors' values.
        """
        return tuple((factor.var, factor.inverted) for factor in self.factors if factor.tag == tag)

    def __str__(self) -> str:
        return " ".join(str(factor) for factor in self.factors)


def parse_pattern(text: str) -> Pattern:
    """Read a pattern from text like ``c_1^-1 a_1 a_3``.

    A NamedTuple cannot check its fields when built, so the structure
    checks live here: each variable name is lowercase letters, each tag
    is 1 or 3, and the pattern has at least one factor and at most two
    distinct variables.
    """
    factors = []
    for token in text.split():
        body, inverted = (token[:-3], True) if token.endswith("^-1") else (token, False)
        name, _, tag_text = body.rpartition("_")
        if not name or tag_text not in ("1", "3"):
            raise PatternError(f"cannot read pattern factor {token!r}")
        if not name.isalpha() or not name.islower():
            raise PatternError(f"variable name must be lowercase letters, got {name!r}")
        factors.append(PatternFactor(name, int(tag_text), inverted))
    if not factors:
        raise PatternError("a pattern needs at least one factor")
    pattern = Pattern(tuple(factors))
    if len(pattern.variables()) > 2:
        raise PatternError("patterns use at most two distinct variables")
    return pattern


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

# Each two-letter syllable's tagged forms s_1, (s^-1)_1, s_3 and (s^-1)_3,
# made once, so every piece shares one tuple per (tagged letter, exponent).
# The keys are the syllables of the values met so far and their inverses:
# a few dozen at the sweep bounds.
_TAGGED: dict[Syllable, tuple[Syllable, Syllable, Syllable, Syllable]] = {}


def _tagged(syllable: Syllable) -> tuple[Syllable, Syllable, Syllable, Syllable]:
    letter, exp = syllable
    one, three = _RENAME[1][letter], _RENAME[3][letter]
    forms = ((one, exp), (one, -exp), (three, exp), (three, -exp))
    _TAGGED[letter, -exp] = (forms[1], forms[0], forms[3], forms[2])
    _TAGGED[syllable] = forms
    return forms


def word_pieces(w: Word) -> tuple[Run, Run, Run, Run]:
    """The syllables of w_1, (w^-1)_1, w_3 and (w^-1)_3, in that order.

    These are the four values a pattern factor can take on w; a formula
    evaluation reads them by index instead of renaming w again.
    """
    if w.alphabet is not BASE:
        raise PatternError("pattern values must be over the two-letter alphabet")
    table = _TAGGED
    forms = [table.get(syllable) or _tagged(syllable) for syllable in w.syllables]
    backwards = forms[::-1]
    return (
        tuple([form[0] for form in forms]),
        tuple([form[1] for form in backwards]),
        tuple([form[2] for form in forms]),
        tuple([form[3] for form in backwards]),
    )


class CompiledFormulas:
    """Signed pattern formulas over shared variables, compiled for evaluation.

    ``formulas`` maps a key to its signed terms.  The distinct term
    patterns (the shapes) are numbered once across all formulas and
    compiled to indices into the pieces of the variable values.

    ``evaluate`` takes the concatenated ``word_pieces`` of one value per
    variable, in the order of ``variables``, and multiplies out every
    shape once, each held as its first piece index and the rest.  Pieces
    are reduced, so a product can only cancel where the same letter
    meets itself at a seam, and only there does ``words._seam``, the
    one cancellation rule, walk back as far as syllables cancel; the
    rest is sliced.
    Letters with different subscripts never meet that way, so a change
    of subscript is a plain concatenation, unless the stretch before it
    reduced to the identity and let its neighbours meet.
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
        indices = [
            [self._piece_index(factor) for factor in pattern.factors] for pattern in shapes
        ]
        self._indices = tuple((first, tuple(rest)) for first, *rest in indices)

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
        for first, rest in self._indices:
            word = pieces[first]
            for index in rest:
                piece = pieces[index]
                if word and piece and word[-1][0] == piece[0][0]:
                    i, j, middle = _seam(word, piece)
                    word = word[:i] + middle + piece[j:]
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
