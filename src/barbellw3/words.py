"""Reduced words in the two free groups the package works in.

Everything downstream manipulates elements of a free group on two
generators (letters ``t``, ``u``) or of a free group on four generators
(letters ``t_1``, ``u_1``, ``t_3``, ``u_3``).  A word is stored
run-length encoded as a tuple of (letter, exponent) syllables with
nonzero exponents and no two adjacent syllables sharing a letter, so
each group element has exactly one representation and equality is
syntactic.

An exponent is an int, or an affine exponent ``a + b*k`` in the family
parameter k (``Affine``).  A word with affine exponents stands for the
whole family of words it gives at k = 1, 2, ...  Reduction, products,
inverses, renaming and projection run on it unchanged and answer
for every k but finitely many; the measures and the word order, which
need the sign of an exponent, refuse it.  The exceptional k are where a
truth test on an affine value would flip (a seam sum that vanishes, two
exponents that coincide), and a ``recorded_roots`` block collects them.

The module also provides the text grammar used by the command line
tools: syllables like ``t^-2`` separated by single spaces, ``1`` for
the identity (``e`` accepted on input), ``^1`` omitted when printing.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from enum import Enum
from typing import Iterable, Iterator, Sequence, Union


class WordError(ValueError):
    """Malformed word data or an illegal word operation."""


class WordSyntaxError(WordError):
    """Word text that does not match the grammar; knows where it failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownLetterError(WordSyntaxError):
    """A letter outside the requested alphabet."""


class ZeroExponentError(WordSyntaxError):
    """An explicit exponent of zero, which the grammar forbids."""


class MixedAlphabetError(WordError):
    """Subscripted and unsubscripted letters mixed in one word."""


class AlphabetMismatchError(WordError):
    """An operation combining words over different alphabets."""


class Alphabet(Enum):
    """The two supported letter sets; no other alphabet is constructible."""

    BASE = ("t", "u")
    QUAD = ("t_1", "u_1", "t_3", "u_3")

    @property
    def letters(self) -> tuple[str, ...]:
        return self.value

    def letter_index(self, letter: str) -> int:
        try:
            return self.value.index(letter)
        except ValueError:
            raise WordError(f"letter {letter!r} is not in alphabet {self.name}") from None


BASE = Alphabet.BASE
QUAD = Alphabet.QUAD

# Longest first so that "t_1" is never read as "t" followed by junk.
_ALL_LETTERS = ("t_1", "u_1", "t_3", "u_3", "t", "u")

_INT_RE = re.compile(r"[+-]?[0-9]+")
_AFFINE_RE = re.compile(r"([+-]?)([0-9]*)k([+-][0-9]+)?")

# The roots sets of the recorded_roots blocks now open.  The truth tests
# happen deep inside _seam, which every word operation shares, so
# the open sets are found here rather than passed down every call.
_OPEN_ROOTS: list[set[int]] = []


@contextmanager
def recorded_roots() -> Iterator[set[int]]:
    """Collect into the yielded set every positive integer k at which a
    truth test on an affine exponent, made inside the block, would flip.

    A computation on words with affine exponents that raises nothing
    inside the block gives, at every positive k outside the set, what
    the same computation gives on the words instantiated at k.
    """
    roots: set[int] = set()
    _OPEN_ROOTS.append(roots)
    try:
        yield roots
    finally:
        _OPEN_ROOTS.pop()


class Affine:
    """An exponent a + b*k in the family parameter k, with b != 0.

    Arithmetic with ints and other affine exponents is exact and gives a
    plain int when the k terms cancel.  Equality compares (a, b).  The
    truth value is that of a polynomial in k, True, but it is a
    k-dependent decision: it records the root -a/b when that is a
    positive integer.  There is no order: whether a + b*k exceeds
    another value depends on k.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if type(a) is not int or type(b) is not int or not b:
            raise WordError(f"an affine exponent needs ints a and b != 0, got {a!r}, {b!r}")
        self.a = a
        self.b = b

    def __add__(self, other):
        if type(other) is int:
            return Affine(self.a + other, self.b)
        if isinstance(other, Affine):
            b = self.b + other.b
            return Affine(self.a + other.a, b) if b else self.a + other.a
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine(-self.a, -self.b)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not int:
            return NotImplemented
        return Affine(self.a * other, self.b * other) if other else 0

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        root, remainder = divmod(-self.a, self.b)
        if not remainder and root >= 1:
            for roots in _OPEN_ROOTS:
                roots.add(root)
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Affine) and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def at(self, k: "Exponent") -> "Exponent":
        """The value at k, a positive int or another affine exponent."""
        return self.a + self.b * k

    def __str__(self) -> str:
        text = {1: "k", -1: "-k"}.get(self.b, f"{self.b}k")
        return f"{text}{self.a:+d}" if self.a else text

    def __repr__(self) -> str:
        return f"Affine({self.a}, {self.b})"


Exponent = Union[int, Affine]
Syllable = tuple[str, Exponent]

# The family parameter itself.
K = Affine(0, 1)


class Word:
    """A reduced word.  Immutable; safe as a dict key."""

    __slots__ = ("alphabet", "syllables", "_hash")

    def __init__(self, alphabet: Alphabet, syllables: Iterable[Syllable] = ()):
        syls = tuple((letter, exp) for letter, exp in syllables)
        letters = alphabet.letters
        previous = None
        for letter, exp in syls:
            if letter not in letters:
                raise WordError(f"letter {letter!r} is not in alphabet {alphabet.name}")
            if type(exp) is not int and not isinstance(exp, Affine):
                raise WordError(
                    f"exponent must be an int or an affine exponent, got {exp!r}"
                )
            if not exp:
                raise WordError("zero exponent in word")
            if letter == previous:
                raise WordError("word is not reduced: adjacent syllables share a letter")
            previous = letter
        self.alphabet = alphabet
        self.syllables = syls
        # The alphabets share no letter, so the syllables alone hash well;
        # __eq__ still compares the alphabet (the two identities differ).
        self._hash = hash(syls)

    @classmethod
    def _raw(cls, alphabet: Alphabet, syllables: tuple[Syllable, ...]) -> "Word":
        # Trusted constructor: the caller guarantees reducedness.
        w = object.__new__(cls)
        w.alphabet = alphabet
        w.syllables = syllables
        w._hash = hash(syllables)
        return w

    def __reduce__(self):
        # Pickled without its hash, which a process with another string
        # hash seed, such as a spawned worker, computes afresh.
        return (Word._raw, (self.alphabet, self.syllables))

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    @property
    def has_k(self) -> bool:
        """Whether some exponent is affine in k."""
        return any(type(exp) is not int for _, exp in self.syllables)

    @property
    def syllable_count(self) -> int:
        return len(self.syllables)

    @property
    def length(self) -> int:
        return sum(abs(exp) for _, exp in self.syllables)

    def max_exponent(self) -> int:
        return max((abs(exp) for _, exp in self.syllables), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.alphabet is other.alphabet
            and self.syllables == other.syllables
        )

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return concat(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, n: int) -> "Word":
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return identity(self.alphabet)
        base = self if n > 0 else invert(self)
        result = base
        for _ in range(abs(n) - 1):
            result = concat(result, base)
        return result

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(
            letter if exp == 1 else f"{letter}^{exp}" for letter, exp in self.syllables
        )

    def __repr__(self) -> str:
        return f"Word({self.alphabet.name}, {self})"

    def sort_key(self) -> tuple:
        """Total order on words of one alphabet: length, syllables, spelling."""
        index = self.alphabet.letter_index
        return (
            self.length,
            len(self.syllables),
            tuple((index(letter), exp) for letter, exp in self.syllables),
        )


_IDENTITY = {alphabet: Word._raw(alphabet, ()) for alphabet in Alphabet}


def identity(alphabet: Alphabet) -> Word:
    return _IDENTITY[alphabet]


def word_sort_key(w: Word) -> tuple:
    return w.sort_key()


def _seam(
    left: Sequence[Syllable], right: tuple[Syllable, ...]
) -> tuple[int, int, tuple[Syllable, ...]]:
    """Where two reduced runs cancel when multiplied.

    Only the seam can cancel: the step walks back from it while the
    meeting syllables share a letter and their exponents sum to zero,
    and stops at the first pair whose sum does not vanish.  It returns
    (i, j, merged) such that ``left[:i] + merged + right[j:]`` is the
    reduced product, ``merged`` being that pair's syllable, or empty.
    """
    i, j, n = len(left), 0, len(right)
    while i and j < n:
        letter, exp = left[i - 1]
        if letter != right[j][0]:
            break
        exp += right[j][1]
        if exp:
            return i - 1, j + 1, ((letter, exp),)
        i -= 1
        j += 1
    return i, j, ()


def _merge_runs(parts: Iterable[tuple[Syllable, ...]]) -> tuple[Syllable, ...]:
    """Concatenate reduced runs, cancelling across the seams.

    A left fold of ``_seam``, the one cancellation rule, into a list, so
    the cost stays linear in the syllables.  Unreduced input is passed
    one nonzero syllable per part.
    """
    merged: list[Syllable] = []
    for part in parts:
        if merged and part and merged[-1][0] == part[0][0]:
            i, j, middle = _seam(merged, part)
            del merged[i:]
            merged += middle
            merged += part[j:]
        else:
            merged += part
    return tuple(merged)


def equal_syllables(x: tuple[Syllable, ...], y: tuple[Syllable, ...]) -> bool:
    """Whether two reduced syllable runs are equal, recording where not.

    Runs equal syllable for syllable are equal at every k.  Otherwise
    they can be equal only at a k where their letters agree and every
    exponent difference vanishes, so the first difference is truth
    tested, which records its root.  ``Word.__eq__`` compares hashes
    first and would record nothing.
    """
    if x == y:
        return True
    if len(x) != len(y) or any(a != b for (a, _), (b, _) in zip(x, y)):
        return False
    return not any(e - f for (_, e), (_, f) in zip(x, y))


def at_k(w: Word, k: Exponent) -> Word:
    """A word with affine exponents at one k (a positive int, or an
    affine exponent for a sub-family), reduced.

    Adjacent syllables of a reduced word have different letters, so only
    an exponent that vanishes at k can bring equal letters together: the
    syllables are reduced again only then.  Each exponent is truth tested
    once either way, so ``recorded_roots`` sees the same roots.
    """
    if not (type(k) is int and k >= 1 or isinstance(k, Affine)):
        raise WordError(f"k must be a positive int or an affine exponent, got {k!r}")
    syllables = []
    vanished = False
    for s in w.syllables:
        exp = s[1]
        # Syllables with int exponents are shared with w, not copied.
        if type(exp) is not int:
            exp = exp.at(k)
            s = (s[0], exp)
        if exp:
            syllables.append(s)
        else:
            vanished = True
    if vanished:
        return Word._raw(w.alphabet, _merge_runs([(s,) for s in syllables]))
    return Word._raw(w.alphabet, tuple(syllables))


def concat(v: Word, w: Word) -> Word:
    """Product of two words, reduced."""
    if v.alphabet is not w.alphabet:
        raise AlphabetMismatchError(
            f"cannot concatenate a {v.alphabet.name} word with a {w.alphabet.name} word"
        )
    if not v.syllables:
        return w
    if not w.syllables:
        return v
    return Word._raw(v.alphabet, _merge_runs((v.syllables, w.syllables)))


def concat_words(words: Iterable[Word], alphabet: Alphabet | None = None) -> Word:
    """Product of any number of words, reduced once at the end."""
    parts = []
    for w in words:
        if alphabet is None:
            alphabet = w.alphabet
        elif w.alphabet is not alphabet:
            raise AlphabetMismatchError("cannot concatenate words over different alphabets")
        parts.append(w.syllables)
    if alphabet is None:
        raise WordError("empty product with no alphabet given")
    return Word._raw(alphabet, _merge_runs(parts))


def invert(w: Word) -> Word:
    return Word._raw(
        w.alphabet, tuple((letter, -exp) for letter, exp in reversed(w.syllables))
    )


_RENAME = {
    1: {"t": "t_1", "u": "u_1"},
    3: {"t": "t_3", "u": "u_3"},
}

# Per subscript, the letters project keeps, untagged.
_PROJECT = {
    tag: {tagged: letter for letter, tagged in table.items()} for tag, table in _RENAME.items()
}


def rename(w: Word, tag: int) -> Word:
    """Apply the injective homomorphism sending t, u to their tagged copies."""
    if tag not in (1, 3):
        raise WordError(f"subscript tag must be 1 or 3, got {tag!r}")
    if w.alphabet is not BASE:
        raise AlphabetMismatchError("rename expects a word over the two-letter alphabet")
    table = _RENAME[tag]
    return Word._raw(QUAD, tuple((table[letter], exp) for letter, exp in w.syllables))


def project(w: Word, tag: int) -> Word:
    """Apply the homomorphism pi_tag onto the two-letter group: keep the
    letters with subscript ``tag``, drop the others, and reduce.

    It undoes ``rename(., tag)`` and sends the other subscript's copy to
    the identity.
    """
    if tag not in (1, 3):
        raise WordError(f"subscript tag must be 1 or 3, got {tag!r}")
    if w.alphabet is not QUAD:
        raise AlphabetMismatchError("project expects a word over the four-letter alphabet")
    table = _PROJECT[tag]
    return Word._raw(
        BASE,
        _merge_runs([((table[letter], exp),) for letter, exp in w.syllables if letter in table]),
    )


def _tokenize(text: str) -> list[tuple[int, str]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        if text[i] == " ":
            i += 1
            continue
        j = i
        while j < n and text[j] != " ":
            j += 1
        tokens.append((i, text[i:j]))
        i = j
    return tokens


def _parse_syllable(
    pos: int, token: str, alphabet: Alphabet | None, k: bool
) -> Syllable:
    letter = next((l for l in _ALL_LETTERS if token.startswith(l)), None)
    if letter is None:
        raise WordSyntaxError(f"cannot read a letter in {token!r}", pos)
    if alphabet is not None and letter not in alphabet.letters:
        raise UnknownLetterError(
            f"letter {letter!r} is not in alphabet {alphabet.name}", pos
        )
    rest = token[len(letter):]
    if not rest:
        return (letter, 1)
    if rest[0] != "^":
        raise WordSyntaxError(
            f"unexpected character {rest[0]!r} after letter {letter!r}", pos + len(letter)
        )
    exp_text = rest[1:]
    affine = _AFFINE_RE.fullmatch(exp_text) if k else None
    if affine:
        sign, coefficient, constant = affine.groups()
        exp = int(constant or 0) + int(sign + (coefficient or "1")) * K
    elif _INT_RE.fullmatch(exp_text):
        exp = int(exp_text)
    else:
        raise WordSyntaxError(
            f"exponent {exp_text!r} is not a signed decimal integer"
            + (" or affine in k" if k else ""),
            pos + len(letter) + 1,
        )
    if not exp:
        raise ZeroExponentError("exponent 0 is not allowed", pos + len(letter) + 1)
    return (letter, exp)


def parse_word(text: str, alphabet: Alphabet | None = None, k: bool = False) -> Word:
    """Parse word text, reducing it fully.

    With ``alphabet=None`` the alphabet is inferred from the letters that
    occur; a bare identity parses over the two-letter alphabet.  With
    ``k=True`` exponents may also be affine in k, written like ``k``,
    ``-k`` or ``2k-1``; the transcribed tables are read this way, while
    the command line takes concrete words only.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise WordSyntaxError("empty word text", 0)
    if len(tokens) == 1 and tokens[0][1] in ("1", "e"):
        return identity(alphabet if alphabet is not None else BASE)
    syllables = [_parse_syllable(pos, token, alphabet, k) for pos, token in tokens]
    if alphabet is None:
        subscripted = {letter in QUAD.letters for letter, _ in syllables}
        if len(subscripted) > 1:
            raise MixedAlphabetError(
                "word mixes subscripted and unsubscripted letters: " + text.strip()
            )
        alphabet = QUAD if subscripted.pop() else BASE
    return Word._raw(alphabet, _merge_runs((s,) for s in syllables))


def bounded_words(
    max_syllables: int,
    max_exponent: int,
    alphabet: Alphabet = BASE,
    include_identity: bool = False,
) -> list[Word]:
    """All reduced words within the bounds, sorted by the word order.

    Bounds are on the syllable count and on each syllable's absolute
    exponent.  Over the two-letter alphabet adjacent syllables simply
    alternate letters; over the four-letter alphabet any letter change
    is allowed.
    """
    if max_syllables < 0 or max_exponent < 0:
        raise WordError("bounds must be nonnegative")
    exponents = [e for e in range(-max_exponent, max_exponent + 1) if e != 0]
    letters = alphabet.letters
    out: list[Word] = [identity(alphabet)] if include_identity else []
    level: list[tuple[Syllable, ...]] = [()]
    for _ in range(max_syllables):
        next_level: list[tuple[Syllable, ...]] = []
        for prefix in level:
            last = prefix[-1][0] if prefix else None
            for letter in letters:
                if letter == last:
                    continue
                for exp in exponents:
                    next_level.append(prefix + ((letter, exp),))
        out.extend(Word._raw(alphabet, syls) for syls in next_level)
        level = next_level
    out.sort(key=word_sort_key)
    return out
