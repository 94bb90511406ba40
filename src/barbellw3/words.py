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
need the sign of an exponent, refuse it.  One rule makes every decision
that depends on k: the truth test of an affine value, which records the
k where it would flip.  A seam sum that vanishes is one; ``==`` on
exponents is another, the truth test of their difference, so ``==`` and
``!=`` on exponents, runs, words and tuples of words record the k where
unequal values would coincide (a bare run, which compares its items
before its length, may record one more).  A ``recorded_roots`` block
collects these k, and ``at_each_k`` runs a computation once at ``K``
inside one and replays it at each k; no other module records or replays.

One decision is still unrecorded: a hash-keyed lookup, such as the term
merging of ``RingElement``, between words whose exponents differ, which
unequal hashes settle without comparing.  Each such lookup is safe
today: it ends in ``RingElement.at_k``'s merge again at k, or in a
failure that sends every k down the concrete path.

The module also provides the text grammar used by the command line
tools: syllables like ``t^-2`` separated by single spaces, ``1`` for
the identity (``e`` accepted on input), ``^1`` omitted when printing.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence, TypeVar, Union


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

_TOKEN_RE = re.compile("[^ ]+")
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


Result = TypeVar("Result")


def at_each_k(analysis: Callable[[Exponent], Result]) -> Callable[[int], Result]:
    """A k-parametrised computation, such as ``solver.compare_with_reference``,
    ``solver.hexagon_case_analysis`` or a target build, for each positive k.

    It runs once now, at k = K, recording its exceptional set E.  At each
    k outside E the result at K holds: every decision it made comes out
    the same on the concrete words.  At each k in E, and at every k when
    the run at K raised, the computation runs at that k, where a failure
    is met again.
    """
    with recorded_roots() as roots:
        try:
            for_all = analysis(K)
        except Exception:
            for_all = None
    exceptional = frozenset(roots)

    def at(k: int) -> Result:
        return analysis(k) if for_all is None or k in exceptional else for_all

    return at


class Affine:
    """An exponent a + b*k in the family parameter k, with b != 0.

    Arithmetic with ints and other affine exponents is exact and gives a
    plain int when the k terms cancel.  The truth value is that of a
    polynomial in k, True, but it is a k-dependent decision: it records
    the root -a/b when that is a positive integer.  Equality with an int
    or an affine exponent is the negated truth value of the difference,
    so it holds when (a, b) agree and otherwise records the k where the
    two would coincide.  There is no order: whether a + b*k exceeds
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
        if type(other) is not int and not isinstance(other, Affine):
            return NotImplemented
        return not (self - other)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __reduce__(self):  # __slots__ alone does not pickle at protocols 0 and 1
        return (Affine, (self.a, self.b))

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


def is_family_parameter(k: object) -> bool:
    """Whether k is a positive int, or an affine exponent a + b*k with
    b > 0 and a + b >= 1, so positive at every k >= 1 (``K`` itself, for
    a computation run once for every k)."""
    return type(k) is int and k >= 1 or isinstance(k, Affine) and k.b > 0 and k.a + k.b >= 1


class Word:
    """A reduced word.  Immutable; safe as a dict key."""

    __slots__ = ("alphabet", "syllables")

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

    @classmethod
    def _raw(cls, alphabet: Alphabet, syllables: tuple[Syllable, ...]) -> "Word":
        # Trusted constructor: the caller guarantees reducedness.
        w = object.__new__(cls)
        w.alphabet = alphabet
        w.syllables = syllables
        return w

    def __reduce__(self):
        # A class with __slots__ and no __getstate__ does not pickle at
        # protocols 0 and 1 without it.
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
        # Lengths first: a tuple compares its items before its length, and
        # == on an affine exponent records a root.
        x, y = self.syllables, other.syllables
        return self.alphabet is other.alphabet and len(x) == len(y) and x == y

    def __hash__(self) -> int:
        # The alphabets share no letter, so the syllables alone hash well;
        # __eq__ still compares the alphabet (the two identities differ).
        return hash(self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return concat_words((self, other), self.alphabet)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, n: int) -> "Word":
        if not isinstance(n, int):
            return NotImplemented
        base = invert(self) if n < 0 else self
        return concat_words([base] * abs(n), self.alphabet)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(  # printing records nothing: no == on an affine exponent
            letter if type(exp) is int and exp == 1 else f"{letter}^{exp}"
            for letter, exp in self.syllables
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


def at_k(w: Word, k: Exponent, memo: dict | None = None) -> Word:
    """A word with affine exponents at one k, reduced: a positive int, or
    an affine exponent for a sub-family (``is_family_parameter``; any
    other k is refused).

    Adjacent syllables of a reduced word have different letters, so only
    an exponent that vanishes at k can bring equal letters together: the
    syllables are reduced again only then.  Each exponent is truth tested
    once either way, so ``recorded_roots`` sees the same roots.

    ``memo``, a dict a caller keeps for one k, maps each instantiated
    syllable to its first object, so the words it instantiates there hold
    one object per syllable value.
    """
    if not is_family_parameter(k):
        raise WordError(f"k must be a family parameter, positive at every k >= 1, got {k!r}")
    syllables = []
    vanished = False
    for s in w.syllables:
        exp = s[1]
        # Syllables with int exponents are shared with w, not copied.
        if type(exp) is not int:
            exp = exp.at(k)
            s = (s[0], exp)
            if memo is not None:
                s = memo.setdefault(s, s)
        if exp:
            syllables.append(s)
        else:
            vanished = True
    if vanished:
        return Word._raw(w.alphabet, _merge_runs([(s,) for s in syllables]))
    return Word._raw(w.alphabet, tuple(syllables))


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
    """The (position, text) of each run of characters between single spaces."""
    return [(match.start(), match.group()) for match in _TOKEN_RE.finditer(text)]


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
    max_syllables: int, max_exponent: int, include_identity: bool = False
) -> list[Word]:
    """All reduced words over t, u within the bounds, sorted by the word
    order.

    Bounds are on the syllable count and on each syllable's absolute
    exponent; adjacent syllables alternate letters.
    """
    if max_syllables < 0 or max_exponent < 0:
        raise WordError("bounds must be nonnegative")
    exponents = [e for e in range(-max_exponent, max_exponent + 1) if e != 0]
    # One syllable object per (letter, exponent), shared by every word.
    syllables = {letter: [(letter, e) for e in exponents] for letter in BASE.letters}
    out: list[Word] = [identity(BASE)] if include_identity else []
    level: list[tuple[Syllable, ...]] = [()]
    for _ in range(max_syllables):
        next_level: list[tuple[Syllable, ...]] = []
        for prefix in level:
            last = prefix[-1][0] if prefix else None
            for letter, choices in syllables.items():
                if letter == last:
                    continue
                for syllable in choices:
                    next_level.append(prefix + (syllable,))
        out.extend(Word._raw(BASE, syls) for syls in next_level)
        level = next_level
    out.sort(key=Word.sort_key)
    return out


def count_words(max_syllables: int, max_exponent: int) -> int:
    """Number of the nonidentity words ``bounded_words`` returns: a word of n
    syllables picks its first letter and n exponents, of 2 * max_exponent each."""
    if max_syllables < 0 or max_exponent < 0:
        raise WordError("bounds must be nonnegative")
    return 2 * sum((2 * max_exponent) ** n for n in range(1, max_syllables + 1))
