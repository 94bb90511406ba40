"""Word equations: which substitution sends a pattern to a given word.

Solving ``pattern = target`` over a free group goes through the two
subscript projections.  pi_s (``words.project``) keeps the letters of
subscript s and is a homomorphism onto the two-letter group, so every
solution also solves pi_s(pattern) = pi_s(target) for s = 1 and s = 3,
where pi_s(pattern) is the product of the pattern's subscript-s factors
(``Pattern.projection``).  Whenever one of these equations has exactly
one unknown occurrence the unknown is forced by one-sided division.
``solve`` answers by division alone: it fixes each variable once, so
there is at most one solution, which is checked on the pattern itself.
A system that division cannot finish is refused with ``SolveError``.

The module also regenerates the solution table for the 21 monomial
shapes of the four T-polynomials, compares it with an independently
transcribed copy (words with exponents affine in k), and checks the
hexagon case analysis.  Both rest on one lemma, which
``_unique_solutions`` checks shape by shape: each shape meets each
witness monomial m1(k), m2(k) in exactly one pair, found by division.
Each of the 25 shapes has a subscript whose factors are one factor,
which division fixes, and the other variable then occurs once among
some subscript's factors.

Everything here also runs with k symbolic: ``at_each_k`` passes the
family parameter ``K`` to the table, the hexagon case analysis or a
target build, so the words carry exponents a + b*k.  The same code then
answers for every k >= 1 except a finite exceptional set E: the k at
which one of its k-dependent decisions would flip, a seam sum that
vanishes in ``_seam`` or two words that coincide in ``equal_syllables``.
Every k in E is computed again concretely.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, NoReturn, TypeVar

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
    concat_words,
    equal_syllables,
    invert,
    parse_word,
    project,
    recorded_roots,
)


class SolveError(ValueError):
    """Solver input refused: a target off the four-letter alphabet, or a
    system that division does not finish."""


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

    def __str__(self) -> str:
        return ", ".join(f"{var} = {word}" for var, word in self.items)


Factors = tuple[tuple[str, bool], ...]


def _product(
    factors: Iterable[tuple[str, bool]], known: Mapping[str, Word]
) -> Word:
    pieces = []
    for var, inverted in factors:
        value = known[var]
        pieces.append(invert(value) if inverted else value)
    return concat_words(pieces, BASE)


def _solve_system(equations: list[tuple[Factors, Word]]) -> dict[str, Word] | None:
    """The one assignment satisfying every equation, or None when an
    equation with no unknowns fails.

    Each step divides an equation with a single unknown occurrence by
    the known factors on either side, exactly; a divided value may be
    the identity.  Raises SolveError when no equation left has a single
    unknown occurrence.
    """
    pending = list(equations)
    known: dict[str, Word] = {}
    while pending:
        remaining = []
        for factors, rhs in pending:
            unknown_positions = [
                index for index, (var, _) in enumerate(factors) if var not in known
            ]
            if not unknown_positions:
                if not equal_syllables(_product(factors, known).syllables, rhs.syllables):
                    return None
                continue
            if len(unknown_positions) == 1:
                index = unknown_positions[0]
                var, inverted = factors[index]
                prefix = _product(factors[:index], known)
                suffix = _product(factors[index + 1:], known)
                value = concat_words([invert(prefix), rhs, invert(suffix)], BASE)
                known[var] = invert(value) if inverted else value
                continue
            remaining.append((factors, rhs))
        # Every step that makes progress removes its equation.
        if len(remaining) == len(pending):
            _enumerate_one_variable(remaining)
        pending = remaining
    return known


# The refusal keeps this name because bench/tracer.py times it as
# solver.fallback, whose count is therefore the number of refusals.
def _enumerate_one_variable(pending: list[tuple[Factors, Word]]) -> NoReturn:
    stuck = "; ".join(
        " ".join(var + ("^-1" if inverted else "") for var, inverted in factors)
        + f" = {rhs}"
        for factors, rhs in pending
    )
    raise SolveError(
        "division does not fix every variable: no equation left has a single "
        f"unknown occurrence ({stuck})"
    )


def solve(pattern: Pattern, target: Word) -> tuple[Solution, ...]:
    """The assignment of nontrivial words satisfying pattern = target, as
    a tuple of at most one solution.

    The system solved is the pair of projection equations
    pi_s(pattern) = pi_s(target), s = 1, 3.  Division fixes each variable
    once, so there is at most one candidate, and it is checked on the
    pattern.  Raises SolveError when division does not fix every
    variable.
    """
    if target.alphabet is not QUAD:
        raise SolveError("the target must be a word over the four-letter alphabet")
    equations = [(pattern.projection(tag), project(target, tag)) for tag in (1, 3)]
    assignment = _solve_system(equations)
    if (
        assignment is None
        or any(word.is_identity for word in assignment.values())
        or not equal_syllables(eval_pattern(pattern, assignment).syllables, target.syllables)
    ):
        return ()
    return (Solution.of(assignment),)


def _unique_solutions(
    pattern: Pattern, k: Exponent, label: str, error: type[Exception]
) -> tuple[dict[str, Word], ...]:
    """The one assignment solving pattern = m1(k), then the one for m2(k).

    Raises ``error``, naming ``label``, when division does not fix every
    variable or ``solve`` returns other than one solution.
    """
    assignments = []
    for name, monomial in zip(("m1", "m2"), monomials_m(k)):
        case = f"{label} = {name}({k})"
        try:
            solutions = solve(pattern, monomial)
        except SolveError as refusal:
            raise error(f"{case}: {refusal}") from refusal
        if len(solutions) != 1:
            raise error(f"{case} has {len(solutions)} solutions, expected exactly 1")
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
    """The solutions of pattern = m1(k) and pattern = m2(k) for one shape."""

    pattern: Pattern
    appears_in: tuple[int, ...]
    m1_solution: tuple[Word, Word]
    m2_solution: tuple[Word, Word]


def regenerate_table(k: Exponent) -> list[TableRow]:
    """Solve every table shape against both witness monomials at this k
    (or, at k = K, for every k outside the recorded roots).

    Raises TableError unless division fixes every shape's variables,
    every shape has exactly one solution per monomial, and none of the
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
        rows.append(TableRow(pattern, appears_in, pair1, pair2))
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


def _same_pair(row: tuple[Word, Word], transcribed: tuple[Word, Word], k: Exponent) -> bool:
    """Whether a regenerated pair equals a transcribed pair instantiated
    at k (``at_k``), word for word, recording where not."""
    return all(
        equal_syllables(v.syllables, at_k(w, k).syllables) for v, w in zip(row, transcribed)
    )


def compare_with_reference(k: Exponent) -> list[TableRow]:
    """Regenerate the table at k and insist it matches the transcription,
    ``REFERENCE_TABLE_ROWS``, row for row: the same shapes, appears-in
    sets, and m1 and m2 solutions once the transcribed words are
    instantiated at k."""
    rows = regenerate_table(k)
    reference = {row[0]: row[1:] for row in REFERENCE_TABLE_ROWS}
    if len(rows) != len(reference):
        raise TableError(
            f"regenerated table has {len(rows)} shapes, transcription has {len(reference)}"
        )
    for row in rows:
        ref = reference.get(str(row.pattern))
        if ref is None:
            raise TableError(f"shape {row.pattern} is missing from the transcription")
        appears_in, m1_solution, m2_solution = ref
        if row.appears_in != appears_in:
            raise TableError(
                f"shape {row.pattern}: appears-in {row.appears_in} differs from "
                f"transcribed {appears_in}"
            )
        if not (
            _same_pair(row.m1_solution, m1_solution, k)
            and _same_pair(row.m2_solution, m2_solution, k)
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


def hexagon_case_analysis(k: Exponent) -> tuple[HexagonCase, ...]:
    """Check the pairing that makes psi(k) kill every hexagon, and return
    its 8 cases, one per hexagon term and witness monomial.

    For each of the four hexagon terms and each witness monomial, the
    equation term = monomial has exactly one solution (nu, mu), found by
    division; at that solution, evaluated on the compiled hexagon
    formula, exactly one other term equals the other monomial, with the
    same sign, and the remaining two terms hit neither monomial.  The
    two matched contributions therefore cancel inside psi(k).
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
    return tuple(cases)


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
