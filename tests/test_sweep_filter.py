"""The projection prefilter of the three sweeps.

A pair is scanned only when a value it takes is forced by some shape
and witness (``verify._forced``); every other pair is settled by
projection.  Each test here plants a witness or a formula and compares
the filtered sweep with ``oracles.brute_force_violations``, which
evaluates every pair letter by letter and skips none.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barbellw3.barbell as barbell
import barbellw3.verify as verify
from barbellw3.barbell import (
    HEXAGON_FORMULAS,
    HEXAGON_TERMS,
    T_FORMULAS,
    T_KINDS,
    T_POLY_FORMULAS,
    enumerate_admissible,
)
from barbellw3.patterns import CompiledFormulas, parse_pattern
from barbellw3.verify import verify_hexagon_vanishing, verify_span_vanishing
from barbellw3.words import BASE, bounded_words, parse_word

from oracles import brute_force_violations, naive_eval_pattern, random_word

HEXAGON_LABEL = "H({1}, {2})"
SPAN_LABEL = "t_poly({0}, {1}, {2})"


def plant(monkeypatch, word):
    """Make ``word`` the first witness monomial at k = 1."""
    real = barbell.monomials_m
    monkeypatch.setattr(
        barbell, "monomials_m", lambda k: (word, real(k)[1]) if k == 1 else real(k)
    )


def scanned(monkeypatch) -> list:
    """Record every item the sweeps hand to ``_scan``."""
    items = []
    original = verify._scan

    def recording(formulas, keys, label, chunk_items, witnesses):
        chunk_items = list(chunk_items)
        items.extend(chunk_items)
        return original(formulas, keys, label, chunk_items, witnesses)

    monkeypatch.setattr(verify, "_scan", recording)
    return items


def violations(report, name: str) -> list[str]:
    check = next(check for check in report.checks if check.name == name)
    return [] if check.passed else check.details.split("; ")


def exhaustive(kmax=2, max_syllables=2, max_exponent=1):
    report = verify_hexagon_vanishing(
        kmax=kmax, max_syllables=max_syllables, max_exponent=max_exponent,
        random_trials=0, workers=1,
    )
    return violations(report, "hexagon_exhaustive")


def hexagon_pairs(max_syllables=2, max_exponent=1):
    words = bounded_words(max_syllables, max_exponent, BASE, include_identity=True)
    return [(nu, mu) for nu in words for mu in words]


def randomized(trials=100, seed=0):
    report = verify_hexagon_vanishing(
        kmax=2, max_syllables=1, max_exponent=1, random_trials=trials, seed=seed, workers=1
    )
    return violations(report, "hexagon_random")


def drawn_pairs(trials=100, seed=0, bounds=(4, 4)):
    """The random sweep's pairs, redrawn chunk by chunk with the oracle's words."""
    pairs = []
    streams = verify._chunk_ranges(trials, verify._RANDOM_STREAMS)
    for index, (start, stop) in enumerate(streams):
        rng = random.Random(f"{seed}:{index}")
        for _ in range(stop - start):
            pairs.append((random_word(rng, *bounds), random_word(rng, *bounds)))
    return pairs


def span(kmax=2, max_syllables=2, max_exponent=1):
    report = verify_span_vanishing(
        kmax=kmax, max_syllables=max_syllables, max_exponent=max_exponent, workers=1
    )
    return violations(report, "span_generators")


def test_every_shape_has_a_single_factor_subscript():
    for formulas in (HEXAGON_FORMULAS, T_POLY_FORMULAS):
        assert all(verify._single_factor(shape) for shape in formulas.shapes)
    assert len(HEXAGON_FORMULAS.shapes) + len(T_POLY_FORMULAS.shapes) == 25
    unforced = "a_1 c_1 a_3 c_3"
    with pytest.raises(ValueError, match=f"^no subscript of shape {unforced} has a single factor$"):
        verify._single_factor(parse_pattern(unforced))
    assert verify._single_factor(parse_pattern("c_1^-1 a_1 a_3")) == ("a", 3, False)


def test_forced_values_are_the_projected_witnesses():
    nus, mus = verify._forced(HEXAGON_FORMULAS, verify._witnesses(1))
    # m1(1) = t_1^-1 t_3 u_3^-1 t_3^-2 and m2(1) = t_1^2 u_1 t_1^-1 t_3.
    runs = lambda *texts: {parse_word(text).syllables for text in texts}
    assert nus == runs("t", "t u^-1 t^-2", "t^-1", "t^2 u t^-1")
    assert mus == runs("t", "t u^-1 t^-2")
    assert verify._forced(HEXAGON_FORMULAS, ()) == (frozenset(), frozenset())


@pytest.mark.parametrize("shape", range(len(HEXAGON_FORMULAS.shapes)))
def test_each_hexagon_shape_planted_fails_the_exhaustive_sweep(monkeypatch, shape):
    nu, mu = parse_word("t u"), parse_word("u^-1 t")
    plant(monkeypatch, naive_eval_pattern(HEXAGON_FORMULAS.shapes[shape], {"nu": nu, "mu": mu}))
    found = exhaustive()
    assert any(v.startswith(f"psi_1(H({nu}, {mu})) = ") for v in found)
    assert found == brute_force_violations(
        HEXAGON_FORMULAS, ("H",), HEXAGON_LABEL, hexagon_pairs(), 2
    )


@pytest.mark.parametrize("shape", range(len(HEXAGON_FORMULAS.shapes)))
def test_each_hexagon_shape_planted_fails_the_random_sweep(monkeypatch, shape):
    pairs = drawn_pairs()
    nu, mu = pairs[0]
    plant(monkeypatch, naive_eval_pattern(HEXAGON_FORMULAS.shapes[shape], {"nu": nu, "mu": mu}))
    found = randomized()
    assert found[0].startswith(f"psi_1(H({nu}, {mu})) = ")
    assert found == brute_force_violations(HEXAGON_FORMULAS, ("H",), HEXAGON_LABEL, pairs, 2)


@pytest.mark.parametrize("shape", range(len(T_POLY_FORMULAS.shapes)))
def test_each_t_poly_shape_planted_fails_the_span_sweep(monkeypatch, shape):
    a, c = parse_word("t u"), parse_word("t^-1 u")
    plant(monkeypatch, naive_eval_pattern(T_POLY_FORMULAS.shapes[shape], {"a": a, "c": c}))
    found = span()
    assert any(f", {a}, {c})) = " in v for v in found)
    assert found == brute_force_violations(
        T_POLY_FORMULAS, T_KINDS, SPAN_LABEL, enumerate_admissible(2, 1), 2
    )


def test_unplanted_sweeps_match_the_brute_force_scan():
    assert exhaustive(kmax=3, max_syllables=3, max_exponent=1) == []
    assert brute_force_violations(
        HEXAGON_FORMULAS, ("H",), HEXAGON_LABEL, hexagon_pairs(3, 1), 3
    ) == []
    assert randomized() == []
    assert brute_force_violations(HEXAGON_FORMULAS, ("H",), HEXAGON_LABEL, drawn_pairs(), 2) == []


# A shape none of whose subscripts is a single factor: no projection
# forces a value, so the sweeps refuse it.
UNFORCED = parse_pattern("nu_1 mu_1 nu_3 mu_3")
REFUSAL = "ValueError: no subscript of shape {} has a single factor"


def test_an_unforced_hexagon_shape_is_refused(monkeypatch):
    formulas = CompiledFormulas(("nu", "mu"), {"H": HEXAGON_TERMS + ((1, UNFORCED),)})
    monkeypatch.setattr(verify, "HEXAGON_FORMULAS", formulas)
    items = scanned(monkeypatch)
    report = verify_hexagon_vanishing(
        kmax=2, max_syllables=2, max_exponent=1, random_trials=100, workers=1
    )
    checks = {check.name: check for check in report.checks}
    for name in ("hexagon_exhaustive", "hexagon_random"):
        assert checks[name].status == "fail"
        assert checks[name].details == REFUSAL.format(UNFORCED)
    assert checks["hexagon_cases_k1"].passed
    assert items == []


def test_an_unforced_t_poly_shape_is_refused(monkeypatch):
    unforced = parse_pattern("a_1 c_1 a_3 c_3")
    kinds = {**T_FORMULAS, 1: T_FORMULAS[1] + ((1, unforced),)}
    monkeypatch.setattr(verify, "T_POLY_FORMULAS", CompiledFormulas(("a", "c"), kinds))
    items = scanned(monkeypatch)
    assert span() == [REFUSAL.format(unforced)]
    assert items == []


def test_sweeps_scan_only_the_candidates_and_count_every_pair(monkeypatch):
    items = scanned(monkeypatch)
    report = verify_hexagon_vanishing(
        kmax=10, max_syllables=2, max_exponent=3, random_trials=0, workers=1
    )
    assert report.checks[0].details.startswith("7225 pairs ")
    assert len(items) == 253
    items.clear()
    report = verify_span_vanishing(kmax=10, max_syllables=2, max_exponent=3, workers=1)
    assert report.checks[0].details.startswith("3528 admissible pairs, 14112 generators ")
    assert len(items) == 168


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.frozensets(st.integers(0, n - 1)),
            st.frozensets(st.integers(0, n - 1)),
            st.integers(1, 12),
        )
    )
)
def test_hexagon_rows_are_the_filtered_flat_grid(case):
    # Word i stands for itself, and its pieces are (i,).
    n, rows, columns, parts = case
    items, counts = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_scan", lambda *args: items.extend(args[3]) or [])
        for start, stop in verify._chunk_ranges(n, parts):
            task = (tuple(range(n)), tuple((i,) for i in range(n)), rows,
                    tuple(sorted(columns)), (), start, stop)
            counts.append(verify._hexagon_chunk(task)[0])
    expected = [
        (i, j, (i, j)) for i, j in map(divmod, range(n * n), [n] * (n * n))
        if i in rows or j in columns
    ]
    assert items == expected
    assert sum(counts) == n * n


def test_random_words_are_the_randint_choice_draws():
    fast, slow = random.Random("7:3"), random.Random("7:3")
    bounds = ((4, 4), (1, 1), (6, 9))
    for n in range(10_000):
        drawn = verify._random_word(fast, *bounds[n % 3])
        assert drawn == random_word(slow, *bounds[n % 3]).syllables
    assert fast.random() == slow.random()
