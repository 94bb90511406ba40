"""Verification suites producing deterministic machine-checkable reports.

Each suite runs a list of named checks and returns a Report.  A check
records the claim it verifies, how it verifies it, and pass/fail with
details.  Methods are labelled honestly: "exact" for a finite algebraic
identity computed in full, "exhaustive-bounded" for enumeration up to
stated bounds, "randomized" for seeded sampling, and
"structural-complete" for solver-based arguments that cover every case
of a finite analysis.  Bounded enumeration is never presented as a
proof of the unbounded statement.

The main-theorem suite cites the hexagon and span checks its
certificates rest on.  ``verify_all`` passes it the hexagon and span
reports it has already built, so every check runs once per call;
``verify_main_theorem`` on its own runs those two suites itself.  The
target values, and each one's psi(1..kmax) values, are built once per
call as well, and a target whose construction fails fails only the
checks that use it.

The per-k structural checks, ``solution_table_k*`` and
``hexagon_cases_k*``, rest on one analysis per suite call, run with k
symbolic (``solver.for_every_k``).  It is valid for every k outside its
exceptional set E; the k in E, or every k when the symbolic argument
did not go through, are analysed concretely, so a report reads the same
either way.  The symbolic result is not cached across calls: the
planted-defect tests replace the tables between calls, and the per-call
work counts must repeat from run to run.

Reports serialize byte-identically from run to run: wall-clock timings
stay in memory only, enumerations are chunked the same way regardless
of the worker count, and chunk results are merged in enumeration order.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from time import perf_counter
from typing import Callable, Iterable

from .barbell import (
    HEXAGON_FORMULAS,
    T_KINDS,
    T_POLY_FORMULAS,
    Disk,
    count_admissible,
    enumerate_admissible,
    monomials_m,
    psi,
    w3_target,
)
from .patterns import Run, word_pieces
from .ring import RingElement, matrix_rank_exact, rank
from .solver import compare_with_reference, for_every_k, hexagon_case_analysis
from .words import BASE, Word, bounded_words

_VIOLATION_CAP = 10
_CHUNK_COUNT = 32


class CheckFailure(Exception):
    """A check that completed and found the claim false."""


@dataclass
class Check:
    """One verified claim: what was claimed, how, and what happened."""

    name: str
    claim: str
    method: str
    status: str
    details: str
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        # elapsed_ms stays in memory: serialized reports must not vary
        # from run to run.
        return {
            "name": self.name,
            "claim": self.claim,
            "method": self.method,
            "status": self.status,
            "details": self.details,
        }


@dataclass
class Report:
    """A suite's named checks plus the parameters it ran at."""

    suite: str
    parameters: dict
    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return "pass" if all(check.passed for check in self.checks) else "fail"

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "checks": [check.to_json_dict() for check in self.checks],
            "overall": self.overall,
        }


def _run_check(name: str, claim: str, method: str, body: Callable[[], str]) -> Check:
    started = perf_counter()
    try:
        details = body()
        status = "pass"
    except CheckFailure as failure:
        status, details = "fail", str(failure)
    except Exception as error:
        status, details = "fail", f"{type(error).__name__}: {error}"
    return Check(name, claim, method, status, details, (perf_counter() - started) * 1000)


def _chunk_ranges(total: int) -> list[tuple[int, int]]:
    # Chunking depends only on the workload, never on the worker count,
    # so reports cannot vary with parallelism.
    if total <= 0:
        return []
    chunk_count = min(_CHUNK_COUNT, total)
    base, extra = divmod(total, chunk_count)
    ranges = []
    start = 0
    for index in range(chunk_count):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _run_tasks(fn: Callable, tasks: list, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _merge_chunks(results: Iterable[tuple[int, list[str]]]) -> tuple[int, list[str]]:
    checked = 0
    violations: list[str] = []
    for count, chunk_violations in results:
        checked += count
        violations.extend(chunk_violations)
    return checked, violations[:_VIOLATION_CAP]


def _witness_index(kmax: int) -> dict[Run, tuple[int, int]]:
    """Syllables of m1(k) and m2(k), k <= kmax, mapped to (k, weight in psi(k))."""
    index = {}
    for k in range(1, kmax + 1):
        m1, m2 = monomials_m(k)
        index[m1.syllables] = (k, 1)
        index[m2.syllables] = (k, -1)
    return index


def _psi_violations(
    terms: tuple[tuple[int, int], ...],
    values: list[Run],
    witness: dict[Run, tuple[int, int]],
    label: str,
    violations: list[str],
) -> None:
    # psi_k(label) for each k, ascending, where the signed terms that hit
    # a witness monomial do not cancel.
    differences: dict[int, int] = {}
    for sign, shape in terms:
        hit = witness.get(values[shape])
        if hit:
            k, weight = hit
            differences[k] = differences.get(k, 0) + sign * weight
    for k in sorted(differences):
        if differences[k] and len(violations) < _VIOLATION_CAP:
            violations.append(f"psi_{k}({label}) = {differences[k]}")


# ---------------------------------------------------------------------------
# Chunk workers (top level so process pools can import them).  Each one
# evaluates every shape once per item and looks the words up in the
# witness index; only an item that hits a witness monomial is summed.


def _hexagon_chunk(task: tuple) -> tuple[int, list[str]]:
    max_syllables, max_exponent, kmax, start, stop = task
    words = bounded_words(max_syllables, max_exponent, BASE, include_identity=True)
    pieces = [word_pieces(w) for w in words]
    n = len(words)
    witness = _witness_index(kmax)
    misses = witness.keys().isdisjoint
    evaluate = HEXAGON_FORMULAS.evaluate
    violations: list[str] = []
    for flat in range(start, stop):
        i, j = divmod(flat, n)
        values = evaluate(pieces[i] + pieces[j])
        if not misses(values):
            label = f"H({words[i]}, {words[j]})"
            _psi_violations(
                HEXAGON_FORMULAS.terms["H"], values, witness, label, violations
            )
    return (stop - start, violations)


def _random_word(rng: random.Random, max_syllables: int, max_exponent: int) -> Word:
    count = rng.randint(1, max_syllables)
    letter = rng.choice("tu")
    syllables = []
    for _ in range(count):
        exponent = rng.randint(1, max_exponent) * rng.choice((1, -1))
        syllables.append((letter, exponent))
        letter = "u" if letter == "t" else "t"
    # Alternating letters and nonzero exponents: the word is reduced.
    return Word._raw(BASE, tuple(syllables))


def _hexagon_random_chunk(task: tuple) -> tuple[int, list[str]]:
    max_syllables, max_exponent, kmax, seed, chunk_index, trials = task
    rng = random.Random(f"{seed}:{chunk_index}")
    witness = _witness_index(kmax)
    misses = witness.keys().isdisjoint
    evaluate = HEXAGON_FORMULAS.evaluate
    violations: list[str] = []
    for _ in range(trials):
        nu = _random_word(rng, max_syllables, max_exponent)
        mu = _random_word(rng, max_syllables, max_exponent)
        values = evaluate(word_pieces(nu) + word_pieces(mu))
        if not misses(values):
            label = f"H({nu}, {mu})"
            _psi_violations(
                HEXAGON_FORMULAS.terms["H"], values, witness, label, violations
            )
    return (trials, violations)


def _span_chunk(task: tuple) -> tuple[int, list[str]]:
    max_syllables, max_exponent, kinds, kmax, start, stop = task
    witness = _witness_index(kmax)
    misses = witness.keys().isdisjoint
    evaluate = T_POLY_FORMULAS.evaluate
    pieces: dict[Word, tuple[Run, ...]] = {}
    violations: list[str] = []
    generators = 0
    pairs = islice(enumerate_admissible(max_syllables, max_exponent), start, stop)
    for pair in pairs:
        a, c = pair.a, pair.c
        if a not in pieces:
            pieces[a] = word_pieces(a)
        if c not in pieces:
            pieces[c] = word_pieces(c)
        values = evaluate(pieces[a] + pieces[c])
        generators += len(kinds)
        if not misses(values):
            for i in kinds:
                label = f"t_poly({i}, {a}, {c})"
                _psi_violations(
                    T_POLY_FORMULAS.terms[i], values, witness, label, violations
                )
    return (generators, violations)


# ---------------------------------------------------------------------------
# Target values, each one or the reason its construction failed.

Targets = dict[tuple[Disk, int], RingElement | str]


def _build_targets(
    kmax: int, factory: Callable[[Disk, int], RingElement] | None = None
) -> Targets:
    """Both disks' targets for k = 1..kmax, by w3_target (which compares its
    two constructions) unless a factory is given."""
    targets: Targets = {}
    for k in range(1, kmax + 1):
        for disk in Disk:
            try:
                if factory is None:
                    targets[disk, k] = w3_target(disk, k).value
                else:
                    targets[disk, k] = factory(disk, k)
            except Exception as error:
                targets[disk, k] = f"{type(error).__name__}: {error}"
    return targets


# psi(1..kmax) on each target, or the reason its construction failed.
Columns = dict[tuple[Disk, int], list[Fraction] | str]


def _psi_columns(kmax: int, targets: Targets) -> Columns:
    functionals = [psi(k) for k in range(1, kmax + 1)]
    return {
        key: value if isinstance(value, str) else [f(value) for f in functionals]
        for key, value in targets.items()
    }


def _target(targets: Targets | Columns, disk: Disk, k: int):
    value = targets[disk, k]
    if isinstance(value, str):
        raise CheckFailure(f"target construction failed for {disk.value} at k={k}: {value}")
    return value


# ---------------------------------------------------------------------------
# Suites.

def verify_psi_targets(kmax: int = 10) -> Report:
    """psi(k) takes value 1 on disk-1 targets, 3 on disk-2 targets, 0 across."""
    return _psi_targets(kmax, _psi_columns(kmax, _build_targets(kmax)))


def _psi_targets(kmax: int, columns: Columns) -> Report:
    report = Report("psi-targets", {"kmax": kmax})
    expected = {Disk.D1: 1, Disk.D2: 3}
    for k in range(1, kmax + 1):
        for disk in Disk:
            value = expected[disk]

            def body(disk=disk, k=k, value=value) -> str:
                row = {
                    j: _target(columns, disk, j)[k - 1] for j in range(1, kmax + 1)
                }
                if row[k] != value:
                    raise CheckFailure(
                        f"psi_{k} on the {disk.value} target at k={k} is {row[k]}, "
                        f"expected {value}"
                    )
                off_diagonal = {j: q for j, q in row.items() if j != k and q != 0}
                if off_diagonal:
                    raise CheckFailure(
                        f"psi_{k} is nonzero off the diagonal: {off_diagonal}"
                    )
                return f"psi_{k} = {value} at j={k}, 0 at the other j <= {kmax}"

            report.checks.append(
                _run_check(
                    f"psi_target_{disk.value}_k{k}",
                    f"the functional psi({k}) takes value {value} on the {disk.value} "
                    f"family value at k={k} and 0 on the rest of the family",
                    "exact",
                    body,
                )
            )
    return report


def verify_hexagon_vanishing(
    kmax: int = 10,
    max_syllables: int = 3,
    max_exponent: int = 3,
    random_trials: int = 10000,
    seed: int = 0,
    workers: int = 1,
) -> Report:
    """psi(k) kills every hexagon relator, by enumeration and by structure."""
    report = Report(
        "hexagon-vanishing",
        {
            "kmax": kmax,
            "max_syllables": max_syllables,
            "max_exponent": max_exponent,
            "random_trials": random_trials,
            "seed": seed,
        },
    )

    def exhaustive() -> str:
        words = bounded_words(max_syllables, max_exponent, BASE, include_identity=True)
        total = len(words) ** 2
        tasks = [
            (max_syllables, max_exponent, kmax, start, stop)
            for start, stop in _chunk_ranges(total)
        ]
        checked, violations = _merge_chunks(_run_tasks(_hexagon_chunk, tasks, workers))
        if violations:
            raise CheckFailure("; ".join(violations))
        return f"{checked} pairs (identity included) x k = 1..{kmax}: all zero"

    report.checks.append(
        _run_check(
            "hexagon_exhaustive",
            f"psi(k) vanishes on H(nu, mu) for every pair of words with at most "
            f"{max_syllables} syllables and exponents up to {max_exponent}, "
            f"including identities, for k = 1..{kmax}",
            "exhaustive-bounded",
            exhaustive,
        )
    )

    def randomized() -> str:
        random_syllables = max_syllables + 3
        random_exponent = max_exponent + 3
        quotas = [
            stop - start for start, stop in _chunk_ranges(random_trials)
        ]
        tasks = [
            (random_syllables, random_exponent, kmax, seed, index, quota)
            for index, quota in enumerate(quotas)
        ]
        checked, violations = _merge_chunks(
            _run_tasks(_hexagon_random_chunk, tasks, workers)
        )
        if violations:
            raise CheckFailure("; ".join(violations))
        return (
            f"{checked} seeded random pairs at bounds "
            f"({random_syllables}, {random_exponent}): all zero"
        )

    report.checks.append(
        _run_check(
            "hexagon_random",
            f"psi(k) vanishes on H(nu, mu) for {random_trials} seeded random pairs "
            f"with at most {max_syllables + 3} syllables and exponents up to "
            f"{max_exponent + 3}, for k = 1..{kmax}",
            "randomized",
            randomized,
        )
    )

    for_all, exceptional = for_every_k(hexagon_case_analysis)
    for k in range(1, kmax + 1):

        def cases(k=k) -> str:
            analysis = for_all
            if for_all is None or k in exceptional:
                analysis = hexagon_case_analysis(k)
            pairings = sorted(
                {
                    (case.term_index, case.partner_index)
                    for case in analysis.cases
                }
            )
            return f"8 term-monomial cases, pairings {pairings}"

        report.checks.append(
            _run_check(
                f"hexagon_cases_k{k}",
                f"each of the 4 hexagon terms hits each witness monomial at k={k} "
                "for exactly one (nu, mu), and a same-signed partner term hits the "
                "other monomial there, so the two contributions cancel in psi",
                "structural-complete",
                cases,
            )
        )
    return report


def verify_span_vanishing(
    kmax: int = 10,
    max_syllables: int = 3,
    max_exponent: int = 3,
    workers: int = 1,
) -> Report:
    """psi(k) kills every admissible-pair generator; the solution table checks out."""
    report = Report(
        "span-vanishing",
        {
            "kmax": kmax,
            "max_syllables": max_syllables,
            "max_exponent": max_exponent,
        },
    )

    def generators() -> str:
        total_pairs = count_admissible(max_syllables, max_exponent)
        tasks = [
            (max_syllables, max_exponent, T_KINDS, kmax, start, stop)
            for start, stop in _chunk_ranges(total_pairs)
        ]
        checked, violations = _merge_chunks(_run_tasks(_span_chunk, tasks, workers))
        if violations:
            raise CheckFailure("; ".join(violations))
        return (
            f"{total_pairs} admissible pairs, {checked} generators "
            f"(kinds {list(T_KINDS)}) x k = 1..{kmax}: all zero"
        )

    report.checks.append(
        _run_check(
            "span_generators",
            f"psi(k) vanishes on t_poly(i, a, c) for every admissible pair with at "
            f"most {max_syllables} syllables per word and exponents up to "
            f"{max_exponent}, every kind i, for k = 1..{kmax}",
            "exhaustive-bounded",
            generators,
        )
    )

    for_all, exceptional = for_every_k(compare_with_reference)
    for k in range(1, kmax + 1):

        def table(k=k) -> str:
            rows = for_all
            if for_all is None or k in exceptional:
                rows = compare_with_reference(k)
            return (
                f"{len(rows)} shapes, unique solutions per monomial, none "
                "admissible, all matching the transcription"
            )

        report.checks.append(
            _run_check(
                f"solution_table_k{k}",
                f"every monomial shape of the four polynomials solves each witness "
                f"monomial at k={k} uniquely, no solution is admissible, and the "
                "rows match the transcribed table",
                "structural-complete",
                table,
            )
        )
    return report


def verify_main_theorem(
    kmax: int = 10,
    max_syllables: int = 3,
    max_exponent: int = 3,
    workers: int = 1,
    target_factory: Callable[[Disk, int], RingElement] | None = None,
) -> Report:
    """Assemble the non-membership certificate for both disks, k = 1..kmax."""
    hexagon = verify_hexagon_vanishing(
        kmax=kmax,
        max_syllables=max_syllables,
        max_exponent=max_exponent,
        random_trials=0,
        seed=0,
        workers=workers,
    )
    span = verify_span_vanishing(
        kmax=kmax,
        max_syllables=max_syllables,
        max_exponent=max_exponent,
        workers=workers,
    )
    built = _build_targets(kmax)
    values = built if target_factory is None else _build_targets(kmax, target_factory)
    return _main_theorem(
        kmax, max_syllables, max_exponent, hexagon, span, built, values,
        _psi_columns(kmax, values),
    )


def _main_theorem(
    kmax: int,
    max_syllables: int,
    max_exponent: int,
    hexagon: Report,
    span: Report,
    built: Targets,
    values: Targets,
    columns: Columns,
) -> Report:
    """The main-theorem report, citing the checks of hexagon and span reports
    built at the same kmax and word bounds; their random trials are not cited.

    ``built`` holds the w3_target values for k = 1..kmax, ``values`` the
    targets the certificates test (the same unless a factory replaced them)
    and ``columns`` psi(1..kmax) on each of ``values``.
    """
    report = Report(
        "main-theorem",
        {
            "kmax": kmax,
            "max_syllables": max_syllables,
            "max_exponent": max_exponent,
        },
    )

    def expansions() -> str:
        failures = [value for value in built.values() if isinstance(value, str)]
        if failures:
            raise CheckFailure(
                f"{len(failures)} of {len(built)} targets failed, first: {failures[0]}"
            )
        return f"both disks, k = 1..{kmax}: formula and expansion constructions agree"

    agree = _run_check(
        "target_expansions_agree",
        "the polynomial construction of every target equals the hard-coded "
        f"expansion termwise for both disks, k = 1..{kmax}",
        "exact",
        expansions,
    )
    exhaustive, _random, *hexagon_cases = hexagon.checks
    span_generators, *solution_tables = span.checks
    report.checks += [agree, exhaustive, *hexagon_cases, span_generators, *solution_tables]

    expected = {Disk.D1: 1, Disk.D2: 3}

    target_checks: dict[tuple[Disk, int], Check] = {}
    for k in range(1, kmax + 1):
        for disk in Disk:

            def nonvanishing(disk=disk, k=k) -> str:
                value = _target(columns, disk, k)[k - 1]
                if value != expected[disk]:
                    raise CheckFailure(
                        f"psi_{k} on the {disk.value} value is {value}, "
                        f"expected {expected[disk]}"
                    )
                return f"psi_{k} = {expected[disk]} != 0"

            target_checks[disk, k] = _run_check(
                f"target_psi_{disk.value}_k{k}",
                f"psi({k}) is nonzero (value {expected[disk]}) on the "
                f"{disk.value} value at k={k}",
                "exact",
                nonvanishing,
            )
            report.checks.append(target_checks[disk, k])

    rank_checks: dict[Disk, Check] = {}
    for disk in Disk:

        def ranks(disk=disk) -> str:
            family = [_target(values, disk, k) for k in range(1, kmax + 1)]
            elimination_rank = rank(family)
            functional_matrix = [
                [columns[disk, j][k] for j in range(1, kmax + 1)] for k in range(kmax)
            ]
            matrix_rank = matrix_rank_exact(functional_matrix)
            if elimination_rank != kmax or matrix_rank != kmax:
                raise CheckFailure(
                    f"rank of the {disk.value} family is {elimination_rank} by "
                    f"elimination and {matrix_rank} by the functional matrix, "
                    f"expected {kmax}"
                )
            return (
                f"rank {elimination_rank} by exact elimination, "
                f"{matrix_rank} by the psi matrix; both equal kmax = {kmax}"
            )

        rank_checks[disk] = _run_check(
            f"rank_{disk.value}",
            f"the {disk.value} family values for k = 1..{kmax} are linearly "
            "independent, by exact elimination and by the psi functional matrix",
            "exact",
            ranks,
        )
        report.checks.append(rank_checks[disk])

    for k in range(1, kmax + 1):
        for disk in Disk:
            prerequisites = [
                agree,
                exhaustive,
                hexagon_cases[k - 1],
                span_generators,
                solution_tables[k - 1],
                target_checks[disk, k],
                rank_checks[disk],
            ]
            failed = [check.name for check in prerequisites if not check.passed]
            if failed:
                check = Check(
                    name=f"certificate_{disk.value}_k{k}",
                    claim=_certificate_claim(disk, k),
                    method="exhaustive-bounded",
                    status="fail",
                    details="prerequisite checks failed: " + ", ".join(failed),
                )
            else:
                check = Check(
                    name=f"certificate_{disk.value}_k{k}",
                    claim=_certificate_claim(disk, k),
                    method="exhaustive-bounded",
                    status="pass",
                    details=(
                        "psi separates the value from every hexagon and admissible "
                        "generator checked within bounds"
                    ),
                )
            report.checks.append(check)
    return report


def _certificate_claim(disk: Disk, k: int) -> str:
    return (
        f"the {disk.value} value at k={k} is nonzero on psi({k}) while psi({k}) "
        "vanishes on all hexagon relators and span generators verified within "
        "the bounds, certifying non-membership up to those bounds"
    )


def verify_all(
    kmax: int = 10,
    max_syllables: int = 3,
    max_exponent: int = 3,
    random_trials: int = 10000,
    seed: int = 0,
    workers: int = 1,
) -> list[Report]:
    """Run the four suites in a fixed order, each check once.

    The 2 * kmax targets are built once, by w3_target, and so is the
    kmax x kmax psi matrix of each disk; both are shared by the
    psi-targets checks and main-theorem's expansion, target and rank
    checks.  Main-theorem cites the hexagon and span checks run just
    before it.
    """
    targets = _build_targets(kmax)
    columns = _psi_columns(kmax, targets)
    psi_targets = _psi_targets(kmax, columns)
    hexagon = verify_hexagon_vanishing(
        kmax=kmax,
        max_syllables=max_syllables,
        max_exponent=max_exponent,
        random_trials=random_trials,
        seed=seed,
        workers=workers,
    )
    span = verify_span_vanishing(
        kmax=kmax,
        max_syllables=max_syllables,
        max_exponent=max_exponent,
        workers=workers,
    )
    return [
        psi_targets,
        hexagon,
        span,
        _main_theorem(
            kmax, max_syllables, max_exponent, hexagon, span, targets, targets, columns
        ),
    ]
