"""Word equations: which substitutions send a pattern to a given word.

Solving ``pattern = target`` over a free group is done structurally.
The pattern's factors are grouped into maximal runs of constant
subscript; the target splits uniquely into blocks of constant
subscript.  Some runs may multiply out to the identity and vanish, so
the solver branches over every way of collapsing runs (re-merging the
survivors, which can enable further collapses), matches surviving runs
to target blocks in order, and then solves the resulting system of
free-group equations.  Whenever an equation has exactly one unknown
occurrence the unknown is forced by one-sided division; systems that
never reach that state fall back to bounded enumeration of one
variable at a time, so the solver is exhaustive in general only up to
the fallback bounds.  ``solve`` says whether any branch needed the
fallback, and the solution table and the hexagon case analysis refuse
a result that did.

The collapse branches depend on the pattern alone, so each pattern is
compiled once into a plan that indexes them by the subscript tags of
their surviving runs; solving against a target visits only the
branches whose tags are those of the target's blocks.

The module also regenerates the solution table for the 21 monomial
shapes of the four T-polynomials and carries an independently
transcribed copy of that table to compare against, as words with
exponents affine in k.

Everything here also runs with k symbolic: ``for_every_k`` passes the
family parameter ``K`` to the table or the hexagon case analysis, so
the words carry exponents a + b*k.  The same code then answers for
every k >= 1 except a finite exceptional set E: the k at which one of
its k-dependent decisions would flip, a seam sum that vanishes in
``_merge_runs`` or two words that coincide in ``equal_syllables``.
Every k in E must be solved again concretely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

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
    identity,
    invert,
    parse_word,
    recorded_roots,
    split_blocks,
    word_sort_key,
)


class SolveError(ValueError):
    """Ill-formed solver input."""


class TableError(RuntimeError):
    """The regenerated solution table violates its contract."""


class CaseAnalysisError(RuntimeError):
    """The hexagon term pairing does not hold as claimed."""


@dataclass(frozen=True)
class Solution:
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
    when some branch was not division-solvable and reached the bounded
    enumeration, so the solutions are complete only within its bounds."""

    used_fallback: bool

    def __new__(cls, solutions: Iterable[Solution], used_fallback: bool):
        result = super().__new__(cls, solutions)
        result.used_fallback = used_fallback
        return result


Factors = tuple[tuple[str, bool], ...]
Run = tuple[int, Factors]
# The factors of the surviving runs, then those of the collapsed runs.
Branch = tuple[tuple[Factors, ...], tuple[Factors, ...]]


def _pattern_runs(pattern: Pattern) -> tuple[Run, ...]:
    runs: list[Run] = []
    for factor in pattern.factors:
        entry = (factor.var, factor.inverted)
        if runs and runs[-1][0] == factor.tag:
            runs[-1] = (factor.tag, runs[-1][1] + (entry,))
        else:
            runs.append((factor.tag, (entry,)))
    return tuple(runs)


def _merge_adjacent(runs: tuple[Run, ...]) -> tuple[Run, ...]:
    merged: list[Run] = []
    for tag, factors in runs:
        if merged and merged[-1][0] == tag:
            merged[-1] = (tag, merged[-1][1] + factors)
        else:
            merged.append((tag, factors))
    return tuple(merged)


def _collapse_branches(
    runs: tuple[Run, ...],
    collapsed: tuple[Factors, ...],
    seen: set,
) -> Iterator[tuple[tuple[Run, ...], tuple[Factors, ...]]]:
    """Every way of striking out runs that multiply to the identity.

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
            runs[:index] + runs[index + 1:],
            collapsed + (runs[index][1],),
            seen,
        )


@lru_cache(maxsize=256)
def _plan(pattern: Pattern) -> tuple[tuple[str, ...], dict[tuple[int, ...], list[Branch]]]:
    """A pattern compiled for solving: its variables, and its collapse
    branches indexed by the subscript tags of their surviving runs."""
    branches: dict[tuple[int, ...], list[Branch]] = {}
    for surviving, collapsed in _collapse_branches(_pattern_runs(pattern), (), set()):
        tags = tuple(tag for tag, _ in surviving)
        branches.setdefault(tags, []).append(
            (tuple(factors for _, factors in surviving), collapsed)
        )
    return pattern.variables(), branches


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

    Division steps are exact; only systems with no equation containing a
    single unknown occurrence resort to enumerating one variable over
    the fallback bounds and recursing.
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
                if inverted:
                    value = invert(value)
                if value.is_identity:
                    return [], False
                known[var] = value
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

    Returned in a deterministic order for a target without k.  Complete
    whenever every branch is division-solvable; otherwise complete up to
    the fallback bounds, and the result's ``used_fallback`` is True.
    """
    if target.alphabet is not QUAD:
        raise SolveError("the target must be a word over the four-letter alphabet")
    if fallback_max_exponent is None:
        # A k-word has no largest exponent.  At bound 0 the fallback
        # finds nothing, and used_fallback tells the caller so.
        fallback_max_exponent = 0 if target.has_k else target.max_exponent() + 1
    blocks = split_blocks(target)
    block_words = [block_word for _, block_word in blocks]
    variables, branches = _plan(pattern)
    found: set[tuple[tuple[str, Word], ...]] = set()
    used_fallback = False
    for surviving, collapsed in branches.get(tuple(tag for tag, _ in blocks), ()):
        equations = list(zip(surviving, block_words))
        equations += [(factors, identity(BASE)) for factors in collapsed]
        assignments, fell_back = _solve_system(
            equations, {}, fallback_max_syllables, fallback_max_exponent
        )
        used_fallback = used_fallback or fell_back
        for assignment in assignments:
            if any(var not in assignment for var in variables):
                continue
            if any(assignment[var].is_identity for var in variables):
                continue
            if equal_syllables(eval_pattern(pattern, assignment).syllables, target.syllables):
                found.add(tuple(sorted((v, assignment[v]) for v in variables)))
    solutions = [Solution(items) for items in found]
    if len(solutions) > 1 and not target.has_k:  # k-words have no order
        solutions.sort(key=Solution.sort_key)
    return Solutions(solutions, used_fallback)


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


@dataclass(frozen=True)
class TableRow:
    """Solutions of pattern = m1(k) and pattern = m2(k) for one shape."""

    pattern: Pattern
    appears_in: tuple[int, ...]
    m1_solution: tuple[Word, Word]
    m2_solution: tuple[Word, Word]
    admissible: bool


def _unique_pair_solution(pattern: Pattern, target: Word, label: str) -> tuple[Word, Word]:
    solutions = solve(pattern, target)
    if solutions.used_fallback:
        raise TableError(
            f"pattern {pattern} = {label} needed the bounded fallback, so its "
            "solutions are complete only within bounds"
        )
    if len(solutions) != 1:
        raise TableError(
            f"pattern {pattern} = {label} has {len(solutions)} solutions, expected 1"
        )
    assignment = solutions[0].assignment
    return (assignment["a"], assignment["c"])


def regenerate_table(k: Exponent) -> list[TableRow]:
    """Solve every table shape against both witness monomials at this k
    (or, at k = K, for every k outside the recorded roots).

    Raises TableError unless every shape has exactly one solution per
    monomial, found without the bounded fallback, and none of the
    solutions is an admissible pair.
    """
    m1, m2 = monomials_m(k)
    rows = []
    for pattern, appears_in in table_patterns():
        pair1 = _unique_pair_solution(pattern, m1, f"m1({k})")
        pair2 = _unique_pair_solution(pattern, m2, f"m2({k})")
        admissible = is_admissible(*pair1) or is_admissible(*pair2)
        if admissible:
            raise TableError(
                f"pattern {pattern}: a solution at k={k} is admissible, "
                "contradicting the table"
            )
        rows.append(TableRow(pattern, appears_in, pair1, pair2, admissible))
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


@dataclass(frozen=True)
class ReferenceRow:
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

@dataclass(frozen=True)
class HexagonCase:
    """Unique way one hexagon term hits one witness monomial, with its partner."""

    term_index: int
    target_name: str
    nu: Word
    mu: Word
    partner_index: int
    sign: int
    partner_sign: int


@dataclass(frozen=True)
class HexagonCaseAnalysis:
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
    m1, m2 = monomials_m(k)
    monomials = {"m1": m1, "m2": m2}
    shapes = [shape for _, shape in HEXAGON_FORMULAS.terms["H"]]
    cases = []
    for term_index, (sign, pattern) in enumerate(HEXAGON_TERMS, start=1):
        for target_name, monomial in monomials.items():
            solutions = solve(pattern, monomial)
            if solutions.used_fallback:
                raise CaseAnalysisError(
                    f"term {term_index} = {target_name}({k}) needed the bounded "
                    "fallback, so its solutions are complete only within bounds"
                )
            if len(solutions) != 1:
                raise CaseAnalysisError(
                    f"term {term_index} = {target_name}({k}) has "
                    f"{len(solutions)} solutions, expected exactly 1"
                )
            assignment = solutions[0].assignment
            nu, mu = assignment["nu"], assignment["mu"]
            words = HEXAGON_FORMULAS.evaluate(word_pieces(nu) + word_pieces(mu))
            values = {index: words[shape] for index, shape in enumerate(shapes, start=1)}
            other_name = "m2" if target_name == "m1" else "m1"
            other = monomials[other_name].syllables
            partners = [
                index
                for index, value in values.items()
                if index != term_index and equal_syllables(value, other)
            ]
            if len(partners) != 1:
                raise CaseAnalysisError(
                    f"term {term_index} = {target_name}({k}): expected exactly one "
                    f"partner term equal to {other_name}, found {len(partners)}"
                )
            partner_index = partners[0]
            partner_sign = HEXAGON_TERMS[partner_index - 1][0]
            if partner_sign != sign:
                raise CaseAnalysisError(
                    f"term {term_index} = {target_name}({k}): partner term "
                    f"{partner_index} carries the opposite sign"
                )
            for index, value in values.items():
                if index in (term_index, partner_index):
                    continue
                if equal_syllables(value, m1.syllables) or equal_syllables(
                    value, m2.syllables
                ):
                    raise CaseAnalysisError(
                        f"term {term_index} = {target_name}({k}): term {index} "
                        "also hits a witness monomial"
                    )
            coefficients = [
                sum(
                    term_sign
                    for term_sign, shape in HEXAGON_FORMULAS.terms["H"]
                    if equal_syllables(words[shape], monomial.syllables)
                )
                for monomial in (m1, m2)
            ]
            if coefficients[0] != coefficients[1]:
                raise CaseAnalysisError(
                    f"term {term_index} = {target_name}({k}): hexagon coefficients "
                    "at the witness monomials differ"
                )
            cases.append(
                HexagonCase(
                    term_index=term_index,
                    target_name=target_name,
                    nu=nu,
                    mu=mu,
                    partner_index=partner_index,
                    sign=sign,
                    partner_sign=partner_sign,
                )
            )
    return HexagonCaseAnalysis(k, tuple(cases))


# ---------------------------------------------------------------------------
# One structural analysis for every k.

Result = TypeVar("Result")


def for_every_k(
    analysis: Callable[[Exponent], Result],
) -> tuple[Result | None, frozenset[int]]:
    """Run a structural analysis, ``compare_with_reference`` or
    ``hexagon_case_analysis``, once at k = K, and return its result with
    the exceptional set E.

    The result holds at every positive k outside E: there each decision
    the analysis made comes out the same on the concrete words.  It is
    None when the symbolic argument did not go through (the analysis
    raised its TableError or CaseAnalysisError: not exactly one
    solution, the fallback, a mismatch, or an admissible solution), and
    then every k must be analysed concretely.
    """
    with recorded_roots() as roots:
        try:
            result = analysis(K)
        except (TableError, CaseAnalysisError):
            result = None
    return result, frozenset(roots)
