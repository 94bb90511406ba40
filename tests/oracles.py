"""Independent reference implementations used only by the tests.

Everything here recomputes results by a different route than the
package: words are reduced letter by letter on a stack instead of
syllable-merged, enumeration is recursive instead of level-by-level,
and the equation oracles do not solve the two subscript projection
equations (``Pattern.projection``) that ``solve`` solves:
``oracle_solutions`` enumerates assignments exhaustively within bounds
(dividing out single-occurrence variables so the enumeration stays
affordable), and ``branch_solutions`` matches the pattern's runs of
constant subscript to the target's blocks, branching over every way of
collapsing runs to the identity, and divides its equations with its
own products and inverses.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product

import barbellw3.barbell as barbell
from barbellw3.patterns import CompiledFormulas, Pattern, eval_pattern
from barbellw3.ring import RingElement
from barbellw3.words import BASE, QUAD, Syllable, Word, _merge_runs, identity


def equal_syllables(x: tuple[Syllable, ...], y: tuple[Syllable, ...]) -> bool:
    """Whether two reduced syllable runs are equal, recording where not:
    the reference for ``==`` on runs and words.

    Runs equal syllable for syllable are equal at every k.  Otherwise
    they can be equal only at a k where their letters agree and every
    exponent difference vanishes, so the first difference is truth
    tested, which records its root.  Lengths and letters are compared
    before any exponent.  ``Word.__eq__`` compares lengths first, so over
    the two-letter alphabet, where runs of one length whose first letters
    agree agree in every letter, it records the same roots.  Over four
    letters it may record one more, where a later letter differs, and so
    may ``==`` on bare runs of two lengths.
    """
    if len(x) != len(y) or any(a != b for (a, _), (b, _) in zip(x, y)):
        return False
    return not any(e - f for (_, e), (_, f) in zip(x, y))


def expand_letters(w: Word) -> list[tuple[str, int]]:
    """Word as a sequence of single letters with exponents +1 or -1."""
    letters = []
    for letter, exp in w.syllables:
        step = 1 if exp > 0 else -1
        letters.extend([(letter, step)] * abs(exp))
    return letters


def _stack_reduce(letters) -> list[tuple[str, int]]:
    stack: list[tuple[str, int]] = []
    for letter, sign in letters:
        if stack and stack[-1][0] == letter and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((letter, sign))
    return stack


def reduce_letters(alphabet, letters) -> Word:
    """Stack reduction of a letter sequence, then run-length encoding."""
    return _run_length(alphabet, _stack_reduce(letters))


def _run_length(alphabet, stack) -> Word:
    syllables: list[tuple[str, int]] = []
    for letter, sign in stack:
        if syllables and syllables[-1][0] == letter:
            syllables[-1] = (letter, syllables[-1][1] + sign)
        else:
            syllables.append((letter, sign))
    return Word(alphabet, syllables)


def _stack_syllables(alphabet, syllables) -> Word:
    """Stack reduction of a syllable sequence, for words whose affine
    exponents cannot be spelled letter by letter.  Each merged exponent
    is truth tested once, so its root is recorded."""
    stack: list[tuple[str, object]] = []
    for letter, exp in syllables:
        if stack and stack[-1][0] == letter:
            exp = exp + stack.pop()[1]
            if not exp:
                continue
        stack.append((letter, exp))
    return Word._raw(alphabet, tuple(stack))


def naive_concat(*words: Word) -> Word:
    alphabet = words[0].alphabet
    assert all(w.alphabet is alphabet for w in words)
    if any(w.has_k for w in words):
        return _stack_syllables(alphabet, [s for w in words for s in w.syllables])
    return reduce_letters(alphabet, [letter for w in words for letter in expand_letters(w)])


def naive_invert(w: Word) -> Word:
    if w.has_k:
        return _stack_syllables(
            w.alphabet, [(letter, -exp) for letter, exp in reversed(w.syllables)]
        )
    return reduce_letters(
        w.alphabet, [(letter, -sign) for letter, sign in reversed(expand_letters(w))]
    )


_TAGGED = {("t", 1): "t_1", ("u", 1): "u_1", ("t", 3): "t_3", ("u", 3): "u_3"}
_UNTAGGED = {tagged: pair for pair, tagged in _TAGGED.items()}


def naive_rename(w: Word, tag: int) -> Word:
    return reduce_letters(
        QUAD, [(_TAGGED[(letter, tag)], sign) for letter, sign in expand_letters(w)]
    )


def naive_project(w: Word, tag: int) -> Word:
    """pi_tag letter by letter: keep the letters of subscript tag, untagged."""
    return reduce_letters(
        BASE,
        [
            (_UNTAGGED[letter][0], sign)
            for letter, sign in expand_letters(w)
            if _UNTAGGED[letter][1] == tag
        ],
    )


def merged_at_k(w: Word, k) -> Word:
    """``words.at_k`` without its fast path: every instantiated syllable
    with a nonzero exponent goes through ``_merge_runs`` on its own."""
    syllables = [s if type(s[1]) is int else (s[0], s[1].at(k)) for s in w.syllables]
    return Word._raw(w.alphabet, _merge_runs([(s,) for s in syllables if s[1]]))


def naive_eval_pattern(pattern: Pattern, assignment) -> Word:
    """A pattern's word, renamed, inverted and reduced letter by letter."""
    pieces = []
    for factor in pattern.factors:
        value = assignment[factor.var]
        if factor.inverted:
            value = naive_invert(value)
        pieces.append(naive_rename(value, factor.tag))
    return naive_concat(*pieces)


def naive_formula(formula, assignment) -> RingElement:
    """A signed sum of patterns, term by term through naive_eval_pattern."""
    total = RingElement(QUAD)
    for sign, pattern in formula:
        total = total + RingElement.monomial(naive_eval_pattern(pattern, assignment), sign)
    return total


def all_base_words(max_syllables: int, max_exponent: int, include_identity=False):
    """Recursive enumeration of reduced two-letter words within bounds."""
    exponents = [e for e in range(-max_exponent, max_exponent + 1) if e != 0]

    def grow(prefix):
        yield prefix
        if len(prefix) == max_syllables:
            return
        last = prefix[-1][0] if prefix else None
        for letter in ("t", "u"):
            if letter == last:
                continue
            for exp in exponents:
                yield from grow(prefix + ((letter, exp),))

    for syllables in grow(()):
        if syllables or include_identity:
            yield Word(BASE, syllables)


@lru_cache(maxsize=None)
def _candidates(max_syllables: int, max_exponent: int):
    """Every nontrivial word within bounds, with the letters of the four
    pieces a pattern factor can make of it, keyed by (tag, inverted).
    Expanded once per bounds."""
    return [
        (
            w,
            {
                (tag, inverted): expand_letters(
                    naive_rename(naive_invert(w) if inverted else w, tag)
                )
                for tag in (1, 3)
                for inverted in (False, True)
            },
        )
        for w in all_base_words(max_syllables, max_exponent)
    ]


def _divide_for_variable(pattern: Pattern, position: int, pieces: dict, target_letters):
    """Solve for the factor at `position` given the pieces of the other
    variables: reduce prefix^-1 target suffix^-1 letter by letter, and
    accept it only as one block with the factor's tag."""
    factors = pattern.factors

    def inverse(indices) -> list:
        # (p_1 ... p_m)^-1 = p_m^-1 ... p_1^-1, each piece inverted by its key
        letters = []
        for index in reversed(indices):
            factor = factors[index]
            letters += pieces[factor.var][(factor.tag, not factor.inverted)]
        return letters

    stack = _stack_reduce(
        inverse(range(position)) + target_letters + inverse(range(position + 1, len(factors)))
    )
    factor = factors[position]
    if not stack or any(_UNTAGGED[letter][1] != factor.tag for letter, _ in stack):
        return None
    value = _run_length(BASE, [(_UNTAGGED[letter][0], sign) for letter, sign in stack])
    return naive_invert(value) if factor.inverted else value


def oracle_solutions(
    pattern: Pattern, target: Word, max_syllables: int, max_exponent: int
) -> set[tuple[tuple[str, Word], ...]]:
    """Every in-bounds assignment of nontrivial words with pattern = target.

    Exhaustive over the stated bounds: variables other than one
    single-occurrence variable are enumerated outright, and the last
    variable is recovered by division (a forced value, so nothing in
    bounds is missed).  With no single-occurrence variable every
    variable is enumerated.
    """
    variables = pattern.variables()
    occurrences = {
        var: sum(1 for factor in pattern.factors if factor.var == var)
        for var in variables
    }
    candidates = _candidates(max_syllables, max_exponent)
    solutions = set()

    divided = next((var for var in variables if occurrences[var] == 1), None)
    if divided is not None and len(variables) > 1:
        position = next(
            index
            for index, factor in enumerate(pattern.factors)
            if factor.var == divided
        )
        others = [var for var in variables if var != divided]
        target_letters = expand_letters(target)
        for combo in product(candidates, repeat=len(others)):
            known = {var: word for var, (word, _) in zip(others, combo)}
            pieces = {var: letters for var, (_, letters) in zip(others, combo)}
            value = _divide_for_variable(pattern, position, pieces, target_letters)
            if value is None or value.is_identity:
                continue
            if value.syllable_count > max_syllables or value.max_exponent() > max_exponent:
                continue
            known[divided] = value
            if naive_eval_pattern(pattern, known) == target:
                solutions.add(tuple(sorted(known.items())))
    else:
        words = [word for word, _ in candidates]
        for combo in product(words, repeat=len(variables)):
            known = dict(zip(variables, combo))
            if eval_pattern(pattern, known) == target:
                solutions.add(tuple(sorted(known.items())))
    return solutions


def split_blocks(w: Word) -> list[tuple[int, Word]]:
    """Split a four-letter word into maximal runs of constant subscript.

    Each block is returned as (tag, word over the two-letter alphabet),
    for example t_1^2 u_1 t_1^-1 t_3 -> [(1, t^2 u t^-1), (3, t)].
    """
    assert w.alphabet is QUAD
    blocks: list[tuple[int, list]] = []
    for letter, exp in w.syllables:
        base_letter, tag = _UNTAGGED[letter]
        if not blocks or blocks[-1][0] != tag:
            blocks.append((tag, []))
        blocks[-1][1].append((base_letter, exp))
    return [(tag, Word._raw(BASE, tuple(syllables))) for tag, syllables in blocks]


def _merge_adjacent(runs):
    merged = []
    for tag, factors in runs:
        if merged and merged[-1][0] == tag:
            merged[-1] = (tag, merged[-1][1] + factors)
        else:
            merged.append((tag, factors))
    return tuple(merged)


def _collapse_branches(runs, collapsed, seen):
    """Every way of striking out runs that multiply to the identity, as
    (surviving runs, factors of the collapsed runs).

    Striking out a run can make its neighbours adjacent with equal
    subscripts, so survivors are re-merged and the merged run may be
    struck out in turn.
    """
    runs = _merge_adjacent(runs)
    key = (runs, tuple(sorted(collapsed)))
    if key in seen:
        return
    seen.add(key)
    yield runs, collapsed
    for index in range(len(runs)):
        yield from _collapse_branches(
            runs[:index] + runs[index + 1:], collapsed + (runs[index][1],), seen
        )


def _naive_product(factors, known) -> Word:
    return naive_concat(
        identity(BASE),
        *(naive_invert(known[var]) if inverted else known[var] for var, inverted in factors),
    )


def _divide(equations) -> dict[str, Word] | None:
    """The assignment that one-sided division forces on a system of
    (factors, word) equations, or None when an equation whose variables
    are all known fails.

    Division takes an equation with one unknown occurrence and solves it
    through ``naive_concat`` and ``naive_invert``, never through the
    solver.  A system where no equation left has one unknown occurrence
    raises a ValueError.
    """
    known: dict[str, Word] = {}
    pending = list(equations)
    while pending:
        for index, (factors, rhs) in enumerate(pending):
            unknown = [i for i, (var, _) in enumerate(factors) if var not in known]
            if len(unknown) <= 1:
                break
        else:
            raise ValueError(f"division does not fix every variable of {pending}")
        del pending[index]
        if not unknown:
            if _naive_product(factors, known) != rhs:
                return None
            continue
        [i] = unknown
        var, inverted = factors[i]
        value = naive_concat(
            naive_invert(_naive_product(factors[:i], known)),
            rhs,
            naive_invert(_naive_product(factors[i + 1:], known)),
        )
        known[var] = naive_invert(value) if inverted else value
    return known


def first_single_factor(pattern: Pattern) -> tuple[str, int, bool] | None:
    """``solver.forcing_factor``'s answer read off the factors, or None
    where it refuses: (variable, subscript, inverted) of the first
    subscript, 1 then 3, holding exactly one factor of ``pattern``."""
    for tag in (1, 3):
        factors = [factor for factor in pattern.factors if factor.tag == tag]
        if len(factors) == 1:
            return factors[0].var, tag, factors[0].inverted
    return None


def branch_solutions(pattern: Pattern, target: Word) -> set[tuple[tuple[str, Word], ...]]:
    """``solve``'s answer by the route of block matching.

    The pattern's factors are grouped into maximal runs of constant
    subscript and the target into its blocks.  For every way of
    collapsing runs to the identity whose surviving runs carry the
    blocks' subscripts, each surviving run is equated to its block and
    each collapsed run to the identity, and the system is divided out
    by ``_divide``.  Candidates with an identity value, or that miss the
    target on the pattern, are dropped.
    """
    blocks = split_blocks(target)
    runs = tuple((factor.tag, ((factor.var, factor.inverted),)) for factor in pattern.factors)
    found = set()
    for surviving, collapsed in _collapse_branches(runs, (), set()):
        if [tag for tag, _ in surviving] != [tag for tag, _ in blocks]:
            continue
        equations = [(factors, word) for (_, factors), (_, word) in zip(surviving, blocks)]
        equations += [(factors, identity(BASE)) for factors in collapsed]
        assignment = _divide(equations)
        if assignment is None or any(word.is_identity for word in assignment.values()):
            continue
        if eval_pattern(pattern, assignment) == target:
            found.add(tuple(sorted(assignment.items())))
    return found


def random_word(rng, max_syllables: int, max_exponent: int) -> Word:
    """A random reduced two-letter word drawn through randint and choice:
    syllable count, first letter, then each exponent and its sign."""
    count = rng.randint(1, max_syllables)
    letter = rng.choice("tu")
    syllables = []
    for _ in range(count):
        syllables.append((letter, rng.randint(1, max_exponent) * rng.choice((1, -1))))
        letter = "u" if letter == "t" else "t"
    return Word(BASE, syllables)


def brute_force_violations(
    formulas: CompiledFormulas, keys, label: str, pairs, kmax: int, cap: int = 10
) -> list[str]:
    """The psi violations of a sweep over every pair, none skipped.

    Each shape is evaluated letter by letter, each formula's coefficients
    summed in a Counter, and psi(1..kmax) read from ``barbell.psi`` at
    call time, so planted witnesses show.  Violations are formatted and
    ordered as the sweeps report them: pair, key, then k.
    """
    functionals = [barbell.psi(k).weights for k in range(1, kmax + 1)]
    violations = []
    for x, y in pairs:
        assignment = dict(zip(formulas.variables, (x, y)))
        values = [naive_eval_pattern(shape, assignment) for shape in formulas.shapes]
        for key in keys:
            coefficients = Counter()
            for sign, shape in formulas.terms[key]:
                coefficients[values[shape]] += sign
            for k, weights in enumerate(functionals, 1):
                total = sum(weights.get(word, 0) * n for word, n in coefficients.items())
                if total:
                    violations.append(f"psi_{k}({label.format(key, x, y)}) = {total}")
    return violations[:cap]
