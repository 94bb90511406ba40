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
certificates rest on.  It is assembled in one place: ``verify_all``
passes it the hexagon and span reports it has already built, so every
check runs once per call, and ``verify_main_theorem`` is the last report
of ``verify_all`` run with no random trials.  The target values hold
each instantiated syllable value once per k (``_build_targets``).  They
are read in one pass as they are built, one at a time
(``_target_family``): each adds its psi(1..kmax) values to its disk's
psi matrix and its row to its disk's exact elimination, and is dropped.
``verify_all`` runs every check that reads the pass right after it, and
releases it before the sweeps.  A target whose construction fails fails
only the checks that use it.

The per-k structural checks, ``solution_table_k*`` and
``hexagon_cases_k*``, rest on one analysis per suite call, run with k
symbolic by ``solver.at_each_k``, which analyses concretely the k in
its exceptional set E, or every k when the symbolic argument did not go
through, so a report reads the same either way.  The targets are built
by the same runner: once per disk at k = K, comparing the two
constructions as formal sums with affine exponents, then instantiated
at each k outside E.  Instantiation
reduces a word again only where an exponent vanishes (``words.at_k``),
and psi(1..kmax) is read on the targets by ``_psi``, through one index
from witness word to (k, weight); each disk's psi matrix is held once,
as rows of its nonzero entries only.  The symbolic results are not
cached across calls: the planted-defect tests replace the tables
between calls, and the per-call work counts must repeat from run to run.

The three sweeps, ``hexagon_exhaustive``, ``hexagon_random`` and
``span_generators``, are one computation: ``_scan`` reads psi of each
formula's coefficients at each of a stream of word pairs, and ``_sweep``
cuts a sweep into chunk tasks, runs them and joins their violations in
order, cut to the cap.  The sweeps and the targets read psi of a formal
sum through one function, ``_psi``.  Each suite call builds
psi(1..kmax)'s witness words once, from ``psi`` itself
(``_witnesses``), and reads off their subscript projections
(``_images``) the forced sets (below) of each sweep formula set it runs
(``_psi_witnesses``), before any of its checks; it shares them with the
psi matrix and every sweep.  Like the symbolic results
they are not cached across calls.  A chunk task holds no word: it is
the sweep's bounds, witnesses and forced sets, the random sweep's seed,
then the chunk's range.  A hexagon chunk builds and pieces the bounded
words, a span chunk walks its range of admissible pairs and pieces its
candidates' words, and the random sweep's one chunk draws its pairs
from one seeded stream.

Bad inputs are refused there, in one way: a ValueError stops the suite
call before any check runs.  ``_require_bounds`` refuses a bound out of
range, ``_witnesses`` a word that psi weighs at two k (every lookup by
witness word assumes none is), and ``_single_factor`` a shape that no
projection forces.

Only the pairs a subscript projection cannot rule out reach ``_scan``.
Every shape has a subscript whose factors are one factor x or x^-1, and
projecting onto that subscript, a homomorphism, forces x to one value
per witness word (``_forced``, sets of syllable runs read off the
witnesses' projections, the one key the sweeps test words by); a pair
taking none of its variables' forced values has no witness word among
its shape values and no violation, so it is settled by projection.  At
bounds (3, 3) and kmax 10 that leaves 6 172 of 267 289 hexagon pairs
and 4 128 of 133 128 admissible pairs.
A shape with no such subscript is refused, as above.  Each chunk
counts its share from its bounds, so the reports read as if every pair
were scanned, and refuses a build that yields another count: a word
list (``count_words``) or an admissible walk.  A hexagon chunk takes a
range of rows, row-major: a forced row takes every column, any other
row the forced columns.  The random sweep draws runs from
``getrandbits`` as randint and choice would, and makes words and pieces
only for candidate pairs.

Reports serialize byte-identically from run to run: wall-clock timings
stay in memory only.  ``_sweep`` runs at most one worker per processor
the process may use (``_usable_cpus``) and cuts each exhaustive sweep
into one contiguous range per worker, of rows or of admissible pairs.
Each chunk keeps its first violations up to the cap, so the chunks
joined in order give the whole scan's first ones for any split.  The
random sweep is drawn in process at any worker count, as one chunk of
all its trials from one stream, ``random.Random(f"{seed}:0")``: the
pairs it draws are part of the report's definition.  The process pool,
and the modules it needs, load only when a sweep has more than one
task, one per worker.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from functools import cache
from itertools import count, islice
from time import perf_counter
from typing import Callable, Iterable, Iterator, NamedTuple

from .barbell import (
    HEXAGON_FORMULAS,
    T_KINDS,
    T_POLY_FORMULAS,
    Disk,
    count_admissible,
    enumerate_admissible,
    psi,
    w3_target,
)
from .patterns import CompiledFormulas, Pattern, Run, word_pieces
from .ring import RingElement, _eliminate, _reduce, _row
from .solver import at_each_k, compare_with_reference, hexagon_case_analysis
from .words import (
    BASE,
    QUAD,
    AlphabetMismatchError,
    Word,
    bounded_words,
    count_words,
    invert,
    project,
)

_VIOLATION_CAP = 10


class CheckFailure(Exception):
    """A check that completed and found the claim false."""


class Check(NamedTuple):
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


class Report:
    """A suite's named checks plus the parameters it ran at."""

    __slots__ = ("suite", "parameters", "checks")

    def __init__(self, suite: str, parameters: dict, checks: list[Check] | None = None):
        self.suite = suite
        self.parameters = parameters
        self.checks = [] if checks is None else checks

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


def _usable_cpus() -> int:
    """Processors this process may run on; os.cpu_count() can count more."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _chunk_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """[0, total) cut into min(parts, total) contiguous ranges, in order, the
    first ones one longer when they cannot all be equal.  Fewer than one
    part counts as one, so a worker count below 1 runs serially."""
    if total <= 0:
        return []
    chunk_count = min(max(parts, 1), total)
    base, extra = divmod(total, chunk_count)
    starts = [index * base + min(index, extra) for index in range(chunk_count + 1)]
    return list(zip(starts, starts[1:]))


def _sweep(chunk: Callable, head: tuple, total: int, workers: int) -> int:
    """The items a sweep's chunks checked.  [0, total) is cut into one
    contiguous range per worker, at most one per usable processor, and
    each chunk gets the sweep's ``head`` followed by its (start, stop).
    The chunks' violations, joined in range order and cut to the cap,
    raise a CheckFailure."""
    ranges = _chunk_ranges(total, min(workers, _usable_cpus()))
    tasks = [(*head, start, stop) for start, stop in ranges]
    if len(tasks) > 1:
        # Imported here, so that a serial run never loads the pool's modules.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            results = list(pool.map(chunk, tasks))
    else:
        results = [chunk(task) for task in tasks]
    violations = [line for _, found in results for line in found]
    if violations:
        raise CheckFailure("; ".join(violations[:_VIOLATION_CAP]))
    return sum(checked for checked, _ in results)


Witnesses = tuple[tuple[Run, int, Fraction], ...]
# Each subscript's projections of the witness words, and their inverses.
Images = dict[tuple[int, bool], frozenset[Run]]
# Per variable of a sweep's formulas, the runs some witness word forces it to.
Forced = tuple[frozenset[Run], ...]


def _require_bounds(
    kmax: int, max_syllables: int = 1, max_exponent: int = 1, random_trials: int = 0
) -> None:
    """Raise a ValueError naming the first bound out of range, before a
    suite call builds anything: each bound must be at least 1, and
    ``random_trials`` at least 0."""
    bounds = (("kmax", kmax, 1), ("max_syllables", max_syllables, 1),
              ("max_exponent", max_exponent, 1), ("random_trials", random_trials, 0))
    for name, value, least in bounds:
        if value < least:
            raise ValueError(f"{name} must be at least {least}, not {value}")


def _witnesses(kmax: int) -> Witnesses:
    """psi(1..kmax)'s weighted words as (syllables, k, weight), built once
    per suite call and passed to the psi matrix and to every chunk in its
    task.

    Every lookup of a word's (k, weight) assumes no word is weighed
    twice, so a repeated word raises a ValueError naming both k.
    """
    first: dict[Run, int] = {}
    witnesses = []
    for k in range(1, kmax + 1):
        for word, weight in psi(k).weights.items():
            j = first.setdefault(word.syllables, k)
            if j != k:
                raise ValueError(f"psi({j}) and psi({k}) both weigh the word {word}")
            witnesses.append((word.syllables, k, weight))
    return tuple(witnesses)


def _single_factor(shape: Pattern) -> tuple[str, int, bool]:
    """(variable, subscript, inverted) of the first subscript whose factors
    in ``shape`` (``Pattern.projection``) are one factor.  A shape with no
    such subscript raises a ValueError: no projection forces its values."""
    for tag in (1, 3):
        factors = shape.projection(tag)
        if len(factors) == 1:
            [(var, inverted)] = factors
            return var, tag, inverted
    raise ValueError(f"no subscript of shape {shape} has a single factor")


def _images(witnesses: Witnesses) -> Images:
    """pi_s(m) and pi_s(m)^-1 of every witness word m, as one run set per
    (subscript s, inverted), built once per suite call with the witnesses.

    pi_s keeps the letters of subscript s."""
    images: Images = {}
    for tag in (1, 3):
        projected = [project(Word._raw(QUAD, run), tag) for run, _, _ in witnesses]
        images[tag, False] = frozenset(w.syllables for w in projected)
        images[tag, True] = frozenset(invert(w).syllables for w in projected)
    return images


def _psi_witnesses(
    kmax: int, *formulas: CompiledFormulas
) -> tuple[Witnesses, list[Forced]]:
    """The witness words of psi(1..kmax), and the ``_forced`` sets of each
    of ``formulas``: a suite call's sweep inputs, built, or refused with a
    ValueError, before any of its checks runs."""
    witnesses = _witnesses(kmax)
    images = _images(witnesses)
    return witnesses, [_forced(each, images) for each in formulas]


def _forced(formulas: CompiledFormulas, images: Images) -> Forced:
    """The syllable runs each variable of ``formulas`` is forced to take
    where some shape is a witness word, in the order of ``variables``.
    A shape with no subscript whose factors are one factor raises a
    ValueError (``_single_factor``), which stops the suite call before
    any check runs.

    pi_s is a homomorphism, and pi_s(shape) is the product of the shape's
    subscript-s factors (``Pattern.projection``): the projection
    equations ``solver.solve`` solves.  So a shape whose subscript-s
    factors are the one factor x (or x^-1) is the witness m at (x, y) only
    if x = pi_s(m) (or pi_s(m)^-1).  A pair whose values are all outside
    these sets has no witness word among its shape values, hence no psi
    violation.  Each (subscript, inverted) image is one run set of
    ``images``, shared by the shapes that use it.
    """
    choices = {_single_factor(shape) for shape in formulas.shapes}
    forced: dict[str, set[Run]] = {var: set() for var in formulas.variables}
    for var, tag, inverted in choices:
        forced[var] |= images[tag, inverted]
    return tuple(frozenset(forced[var]) for var in formulas.variables)


def _psi(
    terms: Iterable[tuple[Run, object]], index: dict[Run, tuple[int, Fraction]]
) -> dict[int, Fraction]:
    """psi_k of a formal sum, given as (run, coefficient) pairs, for each k
    of ``index``, the map from each witness word to its (k, weight);
    nonzero values only.  m1(k) and m2(k) can both be terms, so the
    products of one k are summed."""
    sums: dict[int, Fraction] = {}
    for run, coefficient in terms:
        hit = index.get(run)
        if hit:
            k, weight = hit
            sums[k] = sums.get(k, 0) + weight * coefficient
    return {k: q for k, q in sums.items() if q}


def _scan(
    formulas: CompiledFormulas,
    label: str,
    items: Iterable[tuple[Word, Word, tuple[Run, ...]]],
    witnesses: Witnesses,
) -> list[str]:
    """The psi violations found among the candidate items of a sweep.

    An item is (x, y, the word_pieces of x then of y).  The sweeps pass
    only the pairs that ``_forced`` cannot rule out; every other pair is
    settled by projection, with no violation, so each chunk counts its
    pairs from its bounds.  Every shape is evaluated once per item, and
    only where some shape is a witness word is each formula read, as
    its ``coefficients``, through ``_psi``.  A nonzero psi_k is reported
    as psi_k(label) = value, ``label`` formatted with (key, x, y), in
    item, key and k order.
    """
    weights = {run: (k, weight) for run, k, weight in witnesses}
    misses = weights.keys().isdisjoint
    evaluate, coefficients = formulas.evaluate, formulas.coefficients
    violations: list[str] = []
    for x, y, pieces in items:
        values = evaluate(pieces)
        if misses(values):
            continue
        for key in formulas.terms:
            sums = _psi(coefficients(key, values).items(), weights)
            for k in sorted(sums):
                if len(violations) < _VIOLATION_CAP:
                    violations.append(f"psi_{k}({label.format(key, x, y)}) = {sums[k]}")
    return violations


# ---------------------------------------------------------------------------
# Chunk workers (top level so process pools can import them).  Each one
# produces the candidate items of its share of a sweep, scans them and
# counts its share from its bounds.


def _hexagon_chunk(task: tuple) -> tuple[int, list[str]]:
    max_syllables, max_exponent, witnesses, nus, mus, start, stop = task
    words = bounded_words(max_syllables, max_exponent, include_identity=True)
    if len(words) != (expected := count_words(max_syllables, max_exponent) + 1):
        raise ValueError(f"the bounded words number {len(words)}, not {expected}")
    pieces = [word_pieces(w) for w in words]
    # Rows [start, stop), row-major: a forced row takes every column, any other the forced ones.
    every = range(len(words))
    columns = [j for j in every if words[j].syllables in mus]
    items = (
        (words[i], words[j], pieces[i] + pieces[j])
        for i in range(start, stop)
        for j in (every if words[i].syllables in nus else columns)
    )
    violations = _scan(HEXAGON_FORMULAS, "H({1}, {2})", items, witnesses)
    return (stop - start) * len(words), violations


def _random_word(rng: random.Random, max_syllables: int, max_exponent: int) -> Run:
    # The draws of randint and choice, in their order (the count, the first
    # letter, then each exponent and its sign), each made as their
    # Random._randbelow(n) makes it: getrandbits(n.bit_length()) until below n.
    bits, width = rng.getrandbits, max_exponent.bit_length()
    while (n := bits(max_syllables.bit_length())) >= max_syllables: pass
    while (first := bits(2)) >= 2: pass
    letter = "tu"[first]
    syllables = []
    for _ in range(n + 1):
        while (exponent := bits(width)) >= max_exponent: pass
        while (sign := bits(2)) >= 2: pass
        syllables.append((letter, -1 - exponent if sign else 1 + exponent))
        letter = "u" if letter == "t" else "t"
    # Alternating letters and nonzero exponents: the run is reduced.
    return tuple(syllables)


def _hexagon_random_chunk(task: tuple) -> tuple[int, list[str]]:
    max_syllables, max_exponent, witnesses, nus, mus, seed, start, stop = task
    # stop - start pairs, nu then mu, from the start of the one stream.
    rng = random.Random(f"{seed}:0")
    draws = (_random_word(rng, max_syllables, max_exponent) for _ in range(2 * (stop - start)))
    pairs = ((nu, mu) for nu, mu in zip(draws, draws) if nu in nus or mu in mus)
    words = ((Word._raw(BASE, nu), Word._raw(BASE, mu)) for nu, mu in pairs)
    items = ((nu, mu, word_pieces(nu) + word_pieces(mu)) for nu, mu in words)
    return stop - start, _scan(HEXAGON_FORMULAS, "H({1}, {2})", items, witnesses)


def _span_chunk(task: tuple) -> tuple[int, list[str]]:
    max_syllables, max_exponent, witnesses, forced_a, forced_c, start, stop = task
    # Only the candidate pairs' words are pieced, each once per chunk.
    pieced = cache(word_pieces)
    # zip takes a pair before its count, so ``walked`` ends at the pairs taken.
    walked = count()
    pairs = zip(islice(enumerate_admissible(max_syllables, max_exponent), start, stop), walked)
    items = (
        (a, c, pieced(a) + pieced(c))
        for (a, c), _ in pairs if a.syllables in forced_a or c.syllables in forced_c
    )
    violations = _scan(T_POLY_FORMULAS, "t_poly({0}, {1}, {2})", items, witnesses)
    taken = next(walked)
    if taken != stop - start:
        raise ValueError(f"the admissible enumeration yielded {taken} pairs in "
                         f"[{start}, {stop}), not {stop - start}")
    return (stop - start) * len(T_KINDS), violations


# ---------------------------------------------------------------------------
# Target values, each one or the reason its construction failed, read in
# one pass as they are built.

def _build_targets(kmax: int) -> Iterator[tuple[tuple[Disk, int], RingElement | str]]:
    """Both disks' w3_target values for k = 1..kmax, yielded as
    ((disk, k), value) by k, then disk; where a construction raised, its
    error as a string instead.

    Each disk's target is built through ``solver.at_each_k``: at K,
    comparing the two constructions as affine formal sums, and
    instantiated at each k outside E, since instantiation is linear; a
    failure reads as it would concretely.

    At each k both disks' targets are instantiated with one syllable
    memo (``RingElement.at_k``), so each instantiated syllable value is
    one object.  The generator holds no value it has yielded, and drops
    k's memo before it builds k + 1's targets.
    """
    at = {disk: at_each_k(lambda k, d=disk: w3_target(d, k)) for disk in Disk}

    def instance(disk: Disk, k: int, memo: dict) -> RingElement | str:
        try:
            # at_k leaves a value built at a concrete k as it is.
            return at[disk](k).at_k(k, memo)
        except Exception as error:
            return f"{type(error).__name__}: {error}"

    for k in range(1, kmax + 1):
        memo: dict = {}
        for disk in Disk:
            yield (disk, k), instance(disk, k, memo)


# (failures, matrix, ranks), as ``_target_family`` returns them.
_Family = tuple[
    dict[tuple[Disk, int], str], dict[Disk, list[dict[int, Fraction]]], dict[Disk, int]
]


def _target_family(kmax: int, witnesses: Witnesses) -> _Family:
    """One pass over ``_build_targets(kmax)``: each target, as it is built,
    adds psi(1..kmax) on it, read through ``_psi``, to its disk's matrix
    and reduces its row into its disk's pivots (``ring._reduce``), and is
    then dropped, so the pass holds one target at a time.  A target over
    another alphabet than QUAD raises an AlphabetMismatchError.

    It returns (failures, matrix, ranks).  ``failures`` holds, by (disk,
    k) in build order, why a construction failed.  ``matrix`` holds each
    disk's psi matrix by rows: row k - 1 holds psi_k on the disk's
    targets as index j - 1 -> value, nonzero values only; a failed target
    has no entries.  ``ranks`` holds the rank of each disk's built
    targets by exact elimination.
    """
    index = {run: (k, weight) for run, k, weight in witnesses}
    matrix: dict[Disk, list[dict[int, Fraction]]] = {
        disk: [{} for _ in range(kmax)] for disk in Disk
    }
    pivots: dict[Disk, dict] = {disk: {} for disk in Disk}
    # One numbering for both disks: every target is over QUAD.
    columns: dict[tuple, int] = {}
    failures: dict[tuple[Disk, int], str] = {}
    for (disk, j), value in _build_targets(kmax):
        if isinstance(value, str):
            failures[disk, j] = value
        elif value.alphabet is not QUAD:
            raise AlphabetMismatchError(
                "cannot evaluate a functional on an element over another alphabet"
            )
        else:
            for k, q in _psi(((w.syllables, q) for w, q in value.terms()), index).items():
                matrix[disk][k - 1][j - 1] = q
            _reduce(pivots[disk], _row(value, columns))
        del value  # dropped before the next target is built
    return failures, matrix, {disk: len(p) for disk, p in pivots.items()}


# The value of psi(k) on each disk's target at k.
_PSI_ON_TARGET = {Disk.D1: 1, Disk.D2: 3}


def _require_built(failures: dict[tuple[Disk, int], str], disk: Disk, k: int) -> None:
    """Fail the calling check if the disk's target at k failed to build."""
    reason = failures.get((disk, k))
    if reason is not None:
        raise CheckFailure(f"target construction failed for {disk.value} at k={k}: {reason}")


# ---------------------------------------------------------------------------
# Suites.

def verify_psi_targets(kmax: int = 10) -> Report:
    """psi(k) takes value 1 on disk-1 targets, 3 on disk-2 targets, 0 across."""
    _require_bounds(kmax)
    return _psi_targets(kmax, _target_family(kmax, _witnesses(kmax)))


def _psi_targets(kmax: int, family: _Family) -> Report:
    report = Report("psi-targets", {"kmax": kmax})
    failures, matrix, _ = family
    # A disk's first failed target fails each of its checks: row k reads
    # psi_k on all of the disk's targets.
    failed = {
        disk: next((j for j in range(1, kmax + 1) if (disk, j) in failures), None)
        for disk in Disk
    }
    for k in range(1, kmax + 1):
        for disk in Disk:
            value = _PSI_ON_TARGET[disk]

            def body(disk=disk, k=k, value=value) -> str:
                if failed[disk] is not None:
                    _require_built(failures, disk, failed[disk])  # raises
                row = matrix[disk][k - 1]
                diagonal = row.get(k - 1, 0)
                if diagonal != value:
                    raise CheckFailure(
                        f"psi_{k} on the {disk.value} target at k={k} is {diagonal}, "
                        f"expected {value}"
                    )
                off_diagonal = {
                    index + 1: q for index, q in sorted(row.items()) if index != k - 1
                }
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
    _require_bounds(kmax, max_syllables, max_exponent, random_trials)
    witnesses, [forced] = _psi_witnesses(kmax, HEXAGON_FORMULAS)
    return _hexagon_vanishing(
        witnesses, forced, kmax, max_syllables, max_exponent, random_trials, seed, workers
    )


def _hexagon_vanishing(
    witnesses: Witnesses,
    forced: Forced,
    kmax: int,
    max_syllables: int,
    max_exponent: int,
    random_trials: int,
    seed: int,
    workers: int,
) -> Report:
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
        rows = count_words(max_syllables, max_exponent) + 1
        checked = _sweep(_hexagon_chunk, (max_syllables, max_exponent, witnesses, *forced),
                         rows, workers)
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
        head = (random_syllables, random_exponent, witnesses, *forced, seed)
        # One worker: one task, in process; a split stream would draw other pairs.
        checked = _sweep(_hexagon_random_chunk, head, random_trials, 1)
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

    analysis_at = at_each_k(hexagon_case_analysis)
    for k in range(1, kmax + 1):

        def cases(k=k) -> str:
            pairings = sorted({(c.term_index, c.partner_index) for c in analysis_at(k)})
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
    _require_bounds(kmax, max_syllables, max_exponent)
    witnesses, [forced] = _psi_witnesses(kmax, T_POLY_FORMULAS)
    return _span_vanishing(witnesses, forced, kmax, max_syllables, max_exponent, workers)


def _span_vanishing(
    witnesses: Witnesses,
    forced: Forced,
    kmax: int,
    max_syllables: int,
    max_exponent: int,
    workers: int,
) -> Report:
    report = Report(
        "span-vanishing",
        {"kmax": kmax, "max_syllables": max_syllables, "max_exponent": max_exponent},
    )

    def generators() -> str:
        total_pairs = count_admissible(max_syllables, max_exponent)
        checked = _sweep(_span_chunk, (max_syllables, max_exponent, witnesses, *forced),
                         total_pairs, workers)
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

    table_at = at_each_k(compare_with_reference)
    for k in range(1, kmax + 1):

        def table(k=k) -> str:
            return (
                f"{len(table_at(k))} shapes, unique solutions per monomial, none "
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
) -> Report:
    """Assemble the non-membership certificate for both disks, k = 1..kmax:
    the last report of ``verify_all`` run with no random trials."""
    return verify_all(kmax, max_syllables, max_exponent, 0, 0, workers)[-1]


TargetChecks = tuple[Check, dict[tuple[Disk, int], Check], dict[Disk, Check]]


def _target_checks(kmax: int, family: _Family) -> TargetChecks:
    """Main-theorem's checks that read the target family: the expansion
    check, then the target checks by (disk, k) and the rank checks by
    disk, in report order.  They run before the sweeps, so the caller can
    release ``family``, which ``_target_family`` read at the same kmax,
    for the sweeps.
    """
    failures, matrix, ranks = family

    def expansions() -> str:
        if failures:
            raise CheckFailure(
                f"{len(failures)} of {len(Disk) * kmax} targets failed, "
                f"first: {next(iter(failures.values()))}"
            )
        return f"both disks, k = 1..{kmax}: formula and expansion constructions agree"

    agree = _run_check(
        "target_expansions_agree",
        "the polynomial construction of every target equals the hard-coded "
        f"expansion termwise for both disks, k = 1..{kmax}",
        "exact",
        expansions,
    )

    target_checks: dict[tuple[Disk, int], Check] = {}
    for k in range(1, kmax + 1):
        for disk in Disk:

            def nonvanishing(disk=disk, k=k) -> str:
                _require_built(failures, disk, k)
                value = matrix[disk][k - 1].get(k - 1, 0)
                if value != _PSI_ON_TARGET[disk]:
                    raise CheckFailure(
                        f"psi_{k} on the {disk.value} value is {value}, "
                        f"expected {_PSI_ON_TARGET[disk]}"
                    )
                return f"psi_{k} = {_PSI_ON_TARGET[disk]} != 0"

            target_checks[disk, k] = _run_check(
                f"target_psi_{disk.value}_k{k}",
                f"psi({k}) is nonzero (value {_PSI_ON_TARGET[disk]}) on the "
                f"{disk.value} value at k={k}",
                "exact",
                nonvanishing,
            )

    rank_checks: dict[Disk, Check] = {}
    for disk in Disk:

        def independent(disk=disk) -> str:
            for k in range(1, kmax + 1):
                _require_built(failures, disk, k)
            elimination_rank = ranks[disk]
            # _eliminate reduces the rows it is given in place.
            matrix_rank = _eliminate(dict(row) for row in matrix[disk])
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
            independent,
        )
    return agree, target_checks, rank_checks


def _main_theorem(hexagon: Report, span: Report, checked: TargetChecks) -> Report:
    """The main-theorem report, citing the checks of the hexagon and span
    reports, both built at one kmax and word bounds; their random trials
    are not cited.  The report's parameters are the span report's.

    ``checked`` holds the checks ``_target_checks`` ran on the targets
    at the same kmax; this adds the certificates.
    """
    kmax = span.parameters["kmax"]
    agree, target_checks, rank_checks = checked
    exhaustive, _random, *hexagon_cases = hexagon.checks
    span_generators, *solution_tables = span.checks
    report = Report(
        "main-theorem",
        dict(span.parameters),
        [agree, exhaustive, *hexagon_cases, span_generators, *solution_tables,
         *target_checks.values(), *rank_checks.values()],
    )
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
            report.checks.append(
                Check(
                    name=f"certificate_{disk.value}_k{k}",
                    claim=(
                        f"the {disk.value} value at k={k} is nonzero on psi({k}) "
                        f"while psi({k}) vanishes on all hexagon relators and span "
                        "generators verified within the bounds, certifying "
                        "non-membership up to those bounds"
                    ),
                    method="exhaustive-bounded",
                    status="fail" if failed else "pass",
                    details=(
                        "prerequisite checks failed: " + ", ".join(failed)
                        if failed
                        else "psi separates the value from every hexagon and "
                        "admissible generator checked within bounds"
                    ),
                )
            )
    return report


def verify_all(
    kmax: int = 10,
    max_syllables: int = 3,
    max_exponent: int = 3,
    random_trials: int = 10000,
    seed: int = 0,
    workers: int = 1,
) -> list[Report]:
    """Run the four suites in a fixed order, each check once.

    The 2 * kmax targets are built once, one at a time, and each is read
    as it is built and then dropped (``_target_family``): into the sparse
    kmax x kmax psi matrix of each disk, each disk's elimination rank and
    the failures.  The psi-targets checks and main-theorem's expansion,
    target and rank checks read that, all first, and it is then released,
    before the sweeps.  psi's witness words and both sweeps' forced sets
    are built first, once, for the matrix and the three sweeps, so a
    refused input stops the call before any work.  Main-theorem cites
    the hexagon and span checks run before it.
    """
    _require_bounds(kmax, max_syllables, max_exponent, random_trials)
    witnesses, [hexagon_forced, span_forced] = _psi_witnesses(
        kmax, HEXAGON_FORMULAS, T_POLY_FORMULAS
    )
    family = _target_family(kmax, witnesses)
    psi_targets = _psi_targets(kmax, family)
    checked = _target_checks(kmax, family)
    del family  # the sweeps read none of it
    bounds = (kmax, max_syllables, max_exponent)
    hexagon = _hexagon_vanishing(witnesses, hexagon_forced, *bounds, random_trials, seed, workers)
    span = _span_vanishing(witnesses, span_forced, *bounds, workers)
    return [psi_targets, hexagon, span, _main_theorem(hexagon, span, checked)]
