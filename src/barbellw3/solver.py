"""Word equations: which substitutions send a pattern to a given word.

Solving ``pattern = target`` over a free group goes through the two
subscript projections.  pi_s (``words.project``) keeps the letters of
subscript s and is a homomorphism onto the two-letter group, so every
solution also solves pi_s(pattern) = pi_s(target) for s = 1 and s = 3,
where pi_s(pattern) is the product of the pattern's subscript-s factors
(``Pattern.projection``).  Whenever one of these equations has exactly
one unknown occurrence the unknown is forced by one-sided division;
systems that never reach that state fall back to bounded enumeration of
one variable at a time, so the solver is exhaustive in general only up
to the fallback bounds.  Each candidate is then checked on the pattern
itself, and ``solve`` says whether it needed the fallback.

The module also regenerates the solution table for the 21 monomial
shapes of the four T-polynomials, compares it with an independently
transcribed copy (words with exponents affine in k), and checks the
hexagon case analysis.  Both rest on one lemma, which
``_unique_solutions`` checks shape by shape: each shape meets each
witness monomial m1(k), m2(k) in exactly one pair, found without the
fallback.  None of the 25 shapes needs the fallback: each has a
subscript whose factors are one factor, which division fixes, and the
other variable then occurs once among some subscript's factors.

Everything here also runs with k symbolic: ``at_each_k`` passes the
family parameter ``K`` to the table, the hexagon case analysis or a
target build, so the words carry exponents a + b*k.  The same code then
answers for every k >= 1 except a finite exceptional set E: the k at
which one of its k-dependent decisions would flip, a seam sum that
vanishes in ``_seam`` or two words that coincide in ``equal_syllables``.
Every k in E is computed again concretely.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, TypeVar

from .barbell import (
    HEXAGON_FORMULAS,
    HEXAGON_TERMS,
    T_POLY_FORMULAS,
    is_admissible,
    monomials_m,
)
from .patterns import Pattern, eval_pattern, word_pieces
from .words import (
    BASE,
    QUAD,
    K,
    Exponent,
    Word,
    at_k,
    bounded_words,
    concat_words,
    equal_syllables,
    invert,
    parse_word,
    project,
    recorded_roots,
    word_sort_key,
)


class SolveError(ValueError):
    """Ill-formed solver input."""


class TableError(RuntimeError):
    """The regenerated solution table violates its contract."""


class CaseAnalysisError(RuntimeError):
    """The hexagon term pairing does not hold as claimed."""


class Solution(NamedTuple):
    """One satisfying assignment, stored as (variable, word) pairs."""

    items: tuple[tuple[str, Word], ...]

    @classmethod
    def of(cls, assignment: Mapping[str, Word]) -> "Solution":
        return cls(tuple(sorted(assignment.items())))

    @property
    def assignment(self) -> dict[str, Word]:
        return dict(self.items)

    def sort_key(self) -> tuple:
        return tuple((var, word_sort_key(word)) for var, word in self.items)

    def __str__(self) -> str:
        return ", ".join(f"{var} = {word}" for var, word in self.items)


class Solutions(tuple):
    """What ``solve`` returns: its solutions, plus ``used_fallback``, True
    when division did not reach every variable and the bounded enumeration
    was used, so the solutions are complete only within its bounds."""

    used_fallback: bool

    def __new__(cls, solutions: Iterable[Solution], used_fallback: bool):
        result = super().__new__(cls, solutions)
        result.used_fallback = used_fallback
        return result


Factors = tuple[tuple[str, bool], ...]


def _product(
    factors: Iterable[tuple[str, bool]], known: Mapping[str, Word]
) -> Word:
    pieces = []
    for var, inverted in factors:
        value = known[var]
        pieces.append(invert(value) if inverted else value)
    return concat_words(pieces, BASE)


def _solve_system(
    equations: list[tuple[Factors, Word]],
    known: dict[str, Word],
    fallback_syllables: int,
    fallback_exponent: int,
) -> tuple[list[dict[str, Word]], bool]:
    """All in-bounds assignments satisfying every equation, and whether
    the bounded fallback was used.

    Division steps are exact, and a divided value may be the identity;
    only systems with no equation containing a single unknown occurrence
    resort to enumerating one variable over the fallback bounds and
    recursing.
    """
    pending = list(equations)
    known = dict(known)
    while pending:
        progress = False
        remaining = []
        for factors, rhs in pending:
            unknown_positions = [
                index for index, (var, _) in enumerate(factors) if var not in known
            ]
            if not unknown_positions:
                if not equal_syllables(_product(factors, known).syllables, rhs.syllables):
                    return [], False
                progress = True
                continue
            if len(unknown_positions) == 1:
                index = unknown_positions[0]
                var, inverted = factors[index]
                prefix = _product(factors[:index], known)
                suffix = _product(factors[index + 1:], known)
                value = concat_words([invert(prefix), rhs, invert(suffix)], BASE)
                known[var] = invert(value) if inverted else value
                progress = True
                continue
            remaining.append((factors, rhs))
        pending = remaining
        if pending and not progress:
            return _enumerate_one_variable(
                pending, known, fallback_syllables, fallback_exponent
            ), True
    return [known], False


def _enumerate_one_variable(
    pending, known, fallback_syllables, fallback_exponent
) -> list[dict[str, Word]]:
    occurrences: dict[str, int] = {}
    for factors, _ in pending:
        for var, _ in factors:
            if var not in known:
                occurrences[var] = occurrences.get(var, 0) + 1
    # Enumerate the most-repeated unknown: what is left is then closest
    # to division-solvable.
    var = max(sorted(occurrences), key=lambda v: occurrences[v])
    results = []
    for candidate in bounded_words(fallback_syllables, fallback_exponent):
        results.extend(
            _solve_system(
                pending, {**known, var: candidate}, fallback_syllables, fallback_exponent
            )[0]
        )
    return results


def solve(
    pattern: Pattern,
    target: Word,
    fallback_max_syllables: int = 4,
    fallback_max_exponent: int | None = None,
) -> Solutions:
    """All assignments of nontrivial words satisfying pattern = target.

    The system solved is the pair of projection equations
    pi_s(pattern) = pi_s(target), s = 1, 3, and every candidate it yields
    is checked on the pattern.  Returned in a deterministic order for a
    target without k.  Complete whenever division reaches every variable;
    otherwise complete up to the fallback bounds, and the result's
    ``used_fallback`` is True.
    """
    if target.alphabet is not QUAD:
        raise SolveError("the target must be a word over the four-letter alphabet")
    if fallback_max_exponent is None:
        # A k-word has no largest exponent.  At bound 0 the fallback
        # finds nothing, and used_fallback tells the caller so.
        fallback_max_exponent = 0 if target.has_k else target.max_exponent() + 1
    equations = [(pattern.projection(tag), project(target, tag)) for tag in (1, 3)]
    assignments, used_fallback = _solve_system(
        equations, {}, fallback_max_syllables, fallback_max_exponent
    )
    found: set[tuple[tuple[str, Word], ...]] = set()
    for assignment in assignments:
        if any(word.is_identity for word in assignment.values()):
            continue
        if equal_syllables(eval_pattern(pattern, assignment).syllables, target.syllables):
            found.add(tuple(sorted(assignment.items())))
    solutions = [Solution(items) for items in found]
    if len(solutions) > 1 and not target.has_k:  # k-words have no order
        solutions.sort(key=Solution.sort_key)
    return Solutions(solutions, used_fallback)


def _unique_solutions(
    pattern: Pattern, k: Exponent, label: str, error: type[Exception]
) -> tuple[dict[str, Word], ...]:
    """The one assignment solving pattern = m1(k), then the one for m2(k).

    Raises ``error``, naming ``label``, when ``solve`` needed the bounded
    fallback or found other than one solution.
    """
    assignments = []
    for name, monomial in zip(("m1", "m2"), monomials_m(k)):
        solutions = solve(pattern, monomial)
        if solutions.used_fallback:
            raise error(
                f"{label} = {name}({k}) needed the bounded fallback, so its "
                "solutions are complete only within bounds"
            )
        if len(solutions) != 1:
            raise error(
                f"{label} = {name}({k}) has {len(solutions)} solutions, expected exactly 1"
            )
        assignments.append(solutions[0].assignment)
    return tuple(assignments)


# ---------------------------------------------------------------------------
# The 21-row solution table.

def table_patterns() -> list[tuple[Pattern, tuple[int, ...]]]:
    """The distinct monomial shapes of the four polynomials, numbered as in
    T_POLY_FORMULAS, each with the kinds whose terms cite it."""
    return [
        (
            shape,
            tuple(
                kind
                for kind, terms in T_POLY_FORMULAS.terms.items()
                if any(cited == index for _, cited in terms)
            ),
        )
        for index, shape in enumerate(T_POLY_FORMULAS.shapes)
    ]


class TableRow(NamedTuple):
    """Solutions of pattern = m1(k) and pattern = m2(k) for one shape."""

    pattern: Pattern
    appears_in: tuple[int, ...]
    m1_solution: tuple[Word, Word]
    m2_solution: tuple[Word, Word]
    admissible: bool


def regenerate_table(k: Exponent) -> list[TableRow]:
    """Solve every table shape against both witness monomials at this k
    (or, at k = K, for every k outside the recorded roots).

    Raises TableError unless every shape has exactly one solution per
    monomial, found without the bounded fallback, and none of the
    solutions is an admissible pair.
    """
    rows = []
    for pattern, appears_in in table_patterns():
        pair1, pair2 = (
            (assignment["a"], assignment["c"])
            for assignment in _unique_solutions(pattern, k, f"pattern {pattern}", TableError)
        )
        if is_admissible(*pair1) or is_admissible(*pair2):
            raise TableError(
                f"pattern {pattern}: a solution at k={k} is admissible, "
                "contradicting the table"
            )
        rows.append(TableRow(pattern, appears_in, pair1, pair2, False))
    return rows


# Independent transcription of the published solution table, as words
# with exponents affine in k.  The appears-in sets follow the polynomial
# formulas.
def _pair(a: str, c: str) -> tuple[Word, Word]:
    return (parse_word(a, BASE, k=True), parse_word(c, BASE, k=True))


REFERENCE_TABLE_ROWS: tuple[tuple[str, tuple[int, ...], tuple[Word, Word], tuple[Word, Word]], ...] = (
    ("a_1 c_3^-1 a_3", (1, 3, 4, 6), _pair("t^-1", "t u^k t^-1"), _pair("t^2 u^k t^-1", "t^2 u^k t^-2")),
    ("c_1^-1 a_1 a_3", (1, 3, 4, 6), _pair("t u^-k t^-2", "t u^-k t^-1"), _pair("t", "t^2 u^-k t^-2")),
    ("c_1^-1 a_3^-1", (1, 4, 6), _pair("t^2 u^k t^-1", "t"), _pair("t^-1", "t u^-k t^-2")),
    ("a_1^-1 c_3^-1", (1, 4, 6), _pair("t", "t^2 u^k t^-1"), _pair("t u^-k t^-2", "t^-1")),
    ("c_1 a_3^-1 c_3", (3, 6), _pair("t u^k t^-1", "t^-1"), _pair("t^2 u^k t^-2", "t^2 u^k t^-1")),
    ("a_1^-1 c_3 a_3^-1", (3, 6), _pair("t", "t u^-k t^-1"), _pair("t u^-k t^-2", "t^2 u^-k t^-2")),
    ("c_1 a_3", (3,), _pair("t u^-k t^-2", "t^-1"), _pair("t", "t^2 u^k t^-1")),
    ("a_1 c_3", (3,), _pair("t^-1", "t u^-k t^-2"), _pair("t^2 u^k t^-1", "t")),
    ("c_1 a_1^-1 a_3^-1", (3, 6), _pair("t^2 u^k t^-1", "t u^k t^-1"), _pair("t^-1", "t^2 u^k t^-2")),
    ("a_1 c_1^-1 c_3^-1", (3,), _pair("t u^k t^-1", "t^2 u^k t^-1"), _pair("t^2 u^k t^-2", "t^-1")),
    ("a_1^-1 c_3^-1 a_3^-1", (4, 6), _pair("t", "t u^k t^-1"), _pair("t u^-k t^-2", "t^2 u^k t^-2")),
    ("c_1^-1 a_3", (4,), _pair("t u^-k t^-2", "t"), _pair("t", "t u^-k t^-2")),
    ("a_1 c_3^-1", (4,), _pair("t^-1", "t^2 u^k t^-1"), _pair("t^2 u^k t^-1", "t^-1")),
    ("c_1^-1 a_1^-1 a_3^-1", (4, 6), _pair("t^2 u^k t^-1", "t u^-k t^-1"), _pair("t^-1", "t^2 u^-k t^-2")),
    ("c_1 a_3^-1", (6,), _pair("t^2 u^k t^-1", "t^-1"), _pair("t^-1", "t^2 u^k t^-1")),
    ("c_1 a_1 a_3", (6,), _pair("t u^-k t^-2", "t u^k t^-1"), _pair("t", "t^2 u^k t^-2")),
    ("c_1^-1 a_3^-1 c_3^-1", (6,), _pair("t u^k t^-1", "t"), _pair("t^2 u^k t^-2", "t u^-k t^-2")),
    ("a_1 c_3 a_3", (6,), _pair("t^-1", "t u^-k t^-1"), _pair("t^2 u^k t^-1", "t^2 u^-k t^-2")),
    ("a_1^-1 c_1^-1 c_3^-1", (6,), _pair("t u^-k t^-1", "t^2 u^k t^-1"), _pair("t^2 u^-k t^-2", "t^-1")),
    ("a_1^-1 c_3", (6,), _pair("t", "t u^-k t^-2"), _pair("t u^-k t^-2", "t")),
    ("a_1^-1 c_1 c_3", (6,), _pair("t u^-k t^-1", "t u^-k t^-2"), _pair("t^2 u^-k t^-2", "t")),
)


class ReferenceRow(NamedTuple):
    pattern_text: str
    appears_in: tuple[int, ...]
    m1_solution: tuple[Word, Word]
    m2_solution: tuple[Word, Word]


def reference_table(k: Exponent) -> list[ReferenceRow]:
    """The transcribed table instantiated at one k, in its published order."""
    return [
        ReferenceRow(
            pattern_text,
            appears_in,
            (at_k(pair1[0], k), at_k(pair1[1], k)),
            (at_k(pair2[0], k), at_k(pair2[1], k)),
        )
        for pattern_text, appears_in, pair1, pair2 in REFERENCE_TABLE_ROWS
    ]


def _same_pair(x: tuple[Word, Word], y: tuple[Word, Word]) -> bool:
    return all(equal_syllables(v.syllables, w.syllables) for v, w in zip(x, y))


def compare_with_reference(k: Exponent) -> list[TableRow]:
    """Regenerate the table and insist it matches the transcription row for row."""
    rows = regenerate_table(k)
    reference = {row.pattern_text: row for row in reference_table(k)}
    if len(rows) != len(reference):
        raise TableError(
            f"regenerated table has {len(rows)} shapes, transcription has {len(reference)}"
        )
    for row in rows:
        ref = reference.get(str(row.pattern))
        if ref is None:
            raise TableError(f"shape {row.pattern} is missing from the transcription")
        if row.appears_in != ref.appears_in:
            raise TableError(
                f"shape {row.pattern}: appears-in {row.appears_in} differs from "
                f"transcribed {ref.appears_in}"
            )
        if not (
            _same_pair(row.m1_solution, ref.m1_solution)
            and _same_pair(row.m2_solution, ref.m2_solution)
        ):
            raise TableError(
                f"shape {row.pattern}: solutions at k={k} differ from the transcription"
            )
    return rows


# ---------------------------------------------------------------------------
# The hexagon cancellation mechanism, verified structurally.

class HexagonCase(NamedTuple):
    """Unique way one hexagon term hits one witness monomial, with its partner."""

    term_index: int
    target_name: str
    nu: Word
    mu: Word
    partner_index: int
    sign: int


class HexagonCaseAnalysis(NamedTuple):
    k: Exponent
    cases: tuple[HexagonCase, ...]


def hexagon_case_analysis(k: Exponent) -> HexagonCaseAnalysis:
    """Check the pairing that makes psi(k) kill every hexagon.

    For each of the four hexagon terms and each witness monomial, the
    equation term = monomial has exactly one solution (nu, mu), found
    without the bounded fallback; at that solution, evaluated on the
    compiled hexagon formula, exactly one other term equals the other
    monomial, with the same sign, and the remaining two terms hit
    neither monomial.  The two matched contributions therefore cancel
    inside psi(k).
    """
    monomials = dict(zip(("m1", "m2"), monomials_m(k)))
    signed = HEXAGON_FORMULAS.terms["H"]
    cases = []
    for term_index, (sign, pattern) in enumerate(HEXAGON_TERMS, start=1):
        solved = _unique_solutions(pattern, k, f"term {term_index}", CaseAnalysisError)
        for target_name, other_name, assignment in zip(("m1", "m2"), ("m2", "m1"), solved):
            nu, mu = assignment["nu"], assignment["mu"]
            words = HEXAGON_FORMULAS.evaluate(word_pieces(nu) + word_pieces(mu))
            # The witness monomials each term equals at (nu, mu), one
            # comparison per (term, monomial); every check below reads it.
            hits = [
                {name for name, m in monomials.items()
                 if equal_syllables(words[shape], m.syllables)}
                for _, shape in signed
            ]
            case = f"term {term_index} = {target_name}({k})"
            partners = [i for i, hit in enumerate(hits, 1)
                        if i != term_index and other_name in hit]
            if len(partners) != 1:
                raise CaseAnalysisError(
                    f"{case}: expected exactly one partner term equal to "
                    f"{other_name}, found {len(partners)}"
                )
            partner_index = partners[0]
            if HEXAGON_TERMS[partner_index - 1][0] != sign:
                raise CaseAnalysisError(
                    f"{case}: partner term {partner_index} carries the opposite sign"
                )
            for index, hit in enumerate(hits, start=1):
                if hit and index not in (term_index, partner_index):
                    raise CaseAnalysisError(
                        f"{case}: term {index} also hits a witness monomial"
                    )
            # What psi rests on.  Past the three checks above it fails only
            # where a compiled term differs from the term solved.
            coefficients = [
                sum(term_sign for (term_sign, _), hit in zip(signed, hits) if name in hit)
                for name in monomials
            ]
            if coefficients[0] != coefficients[1]:
                raise CaseAnalysisError(
                    f"{case}: hexagon coefficients at the witness monomials differ"
                )
            cases.append(HexagonCase(term_index, target_name, nu, mu, partner_index, sign))
    return HexagonCaseAnalysis(k, tuple(cases))


# ---------------------------------------------------------------------------
# One structural analysis for every k.

Result = TypeVar("Result")


def at_each_k(analysis: Callable[[Exponent], Result]) -> Callable[[int], Result]:
    """A k-parametrised computation, such as ``compare_with_reference``,
    ``hexagon_case_analysis`` or a target build, for each positive k.

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
