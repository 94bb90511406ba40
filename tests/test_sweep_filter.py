"""The projection prefilter of the three sweeps.

A pair is scanned only when a value it takes is forced by some shape
and witness (``verify._forced``); every other pair is settled by
projection.  Each test here plants a witness or a formula and compares
the filtered sweep with ``oracles.brute_force_violations``, which
evaluates every pair letter by letter and skips none.
"""

from __future__ import annotations

import random
import re

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
    count_admissible,
    enumerate_admissible,
)
from barbellw3.patterns import CompiledFormulas, parse_pattern, word_pieces
from barbellw3.cli import main
from barbellw3.verify import (
    verify_hexagon_vanishing,
    verify_main_theorem,
    verify_span_vanishing,
)
from barbellw3.words import bounded_words, count_words, parse_word

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

    def recording(formulas, label, chunk_items, witnesses):
        chunk_items = list(chunk_items)
        items.extend(chunk_items)
        return original(formulas, label, chunk_items, witnesses)

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
    words = bounded_words(max_syllables, max_exponent, include_identity=True)
    return [(nu, mu) for nu in words for mu in words]


def randomized(trials=100, seed=0):
    report = verify_hexagon_vanishing(
        kmax=2, max_syllables=1, max_exponent=1, random_trials=trials, seed=seed, workers=1
    )
    return violations(report, "hexagon_random")


def drawn_pairs(trials=100, seed=0, bounds=(4, 4)):
    """The random sweep's pairs, redrawn from its one stream with the oracle's words."""
    rng = random.Random(f"{seed}:0")
    return [(random_word(rng, *bounds), random_word(rng, *bounds)) for _ in range(trials)]


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
    nus, mus = verify._forced(HEXAGON_FORMULAS, verify._images(verify._witnesses(1)))
    # m1(1) = t_1^-1 t_3 u_3^-1 t_3^-2 and m2(1) = t_1^2 u_1 t_1^-1 t_3.
    runs = lambda *texts: {parse_word(text).syllables for text in texts}
    assert nus == runs("t", "t u^-1 t^-2", "t^-1", "t^2 u t^-1")
    assert mus == runs("t", "t u^-1 t^-2")
    assert verify._forced(HEXAGON_FORMULAS, verify._images(())) == (frozenset(), frozenset())


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


@pytest.mark.parametrize("sign, expected", [(1, ["psi_1(H(1, u)) = 2"]), (-1, [])])
def test_two_shapes_at_one_witness_word_sum_their_signs(monkeypatch, sign, expected):
    # At nu = 1 both shapes are mu_3, so at (1, u) both take the planted
    # witness u_3: the pair weighs twice with one sign, and not at all with two.
    first, second = parse_pattern("nu_1 mu_3"), parse_pattern("mu_3 nu_1")
    formulas = CompiledFormulas(("nu", "mu"), {"H": ((1, first), (sign, second))})
    monkeypatch.setattr(verify, "HEXAGON_FORMULAS", formulas)
    plant(monkeypatch, parse_word("u_3"))
    items = scanned(monkeypatch)
    found = exhaustive()
    assert ("1", "u") in {(str(x), str(y)) for x, y, _ in items}
    assert found == expected
    assert found == brute_force_violations(formulas, ("H",), HEXAGON_LABEL, hexagon_pairs(), 2)


# A shape none of whose subscripts is a single factor: no projection
# forces a value, so the suite refuses it before any check runs.
UNFORCED = parse_pattern("nu_1 mu_1 nu_3 mu_3")
REFUSAL = "no subscript of shape {} has a single factor"


def refused(capsys, items, shape, suites, commands):
    """Each suite call, and each ``verify`` command, stops with the refusal
    before it scans an item or writes a check."""
    message = REFUSAL.format(shape)
    for suite in suites:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            suite()
    for suite in commands:
        code = main(["verify", suite, "--kmax", "2", "--max-syllables", "2",
                     "--max-exponent", "1", "--trials", "100", "--workers", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), suite
    assert items == []


def test_an_unforced_hexagon_shape_is_refused(monkeypatch, capsys):
    formulas = CompiledFormulas(("nu", "mu"), {"H": HEXAGON_TERMS + ((1, UNFORCED),)})
    monkeypatch.setattr(verify, "HEXAGON_FORMULAS", formulas)
    items = scanned(monkeypatch)
    refused(capsys, items, UNFORCED, (
        lambda: verify_hexagon_vanishing(
            kmax=2, max_syllables=2, max_exponent=1, random_trials=100, workers=1
        ),
        lambda: verify_main_theorem(kmax=2, max_syllables=2, max_exponent=1, workers=1),
    ), ("hexagon", "all", "main"))


def test_an_unforced_t_poly_shape_is_refused(monkeypatch, capsys):
    unforced = parse_pattern("a_1 c_1 a_3 c_3")
    kinds = {**T_FORMULAS, 1: T_FORMULAS[1] + ((1, unforced),)}
    monkeypatch.setattr(verify, "T_POLY_FORMULAS", CompiledFormulas(("a", "c"), kinds))
    items = scanned(monkeypatch)
    refused(capsys, items, unforced, (
        span,
        lambda: verify_main_theorem(kmax=2, max_syllables=2, max_exponent=1, workers=1),
    ), ("span", "all", "main"))


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


_FORCED_AT_2 = verify._psi_witnesses(2, HEXAGON_FORMULAS)[1][0]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(1, 1), (1, 3), (2, 1), (2, 2), (3, 1)]).flatmap(
        lambda bounds: st.tuples(
            st.just(bounds),
            st.frozensets(st.integers(0, count_words(*bounds))),
            st.frozensets(st.integers(0, count_words(*bounds))),
            st.integers(1, 12),
        )
    )
)
def test_hexagon_rows_are_the_filtered_flat_grid(case):
    # psi(1..2)'s forced sets, widened by random words, so rows of both kinds occur.
    bounds, rows, columns, parts = case
    words = bounded_words(*bounds, include_identity=True)
    nus, mus = _FORCED_AT_2
    nus = nus | {words[i].syllables for i in rows}
    mus = mus | {words[j].syllables for j in columns}
    items, counts = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_scan", lambda *args: items.extend(args[2]) or [])
        for start, stop in verify._chunk_ranges(len(words), parts):
            counts.append(verify._hexagon_chunk((*bounds, (), nus, mus, start, stop))[0])
    expected = [
        (x, y, word_pieces(x) + word_pieces(y))
        for x in words for y in words
        if x.syllables in nus or y.syllables in mus
    ]
    assert items == expected
    assert sum(counts) == len(words) ** 2


_SPAN_FORCED_AT_2 = verify._psi_witnesses(2, T_POLY_FORMULAS)[1][0]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(1, 1), (1, 3), (2, 1), (2, 2)]).flatmap(
        lambda bounds: st.tuples(
            st.just(bounds),
            st.frozensets(st.integers(0, count_words(*bounds) - 1)),
            st.frozensets(st.integers(0, count_words(*bounds) - 1)),
            st.integers(1, 12),
        )
    )
)
def test_span_candidates_are_the_filtered_admissible_pairs(case):
    # psi(1..2)'s forced sets, widened by random words, so pairs forced in a alone,
    # in c alone and in both occur.
    bounds, a_words, c_words, parts = case
    words = bounded_words(*bounds)
    forced_a, forced_c = _SPAN_FORCED_AT_2
    forced_a = forced_a | {words[i].syllables for i in a_words}
    forced_c = forced_c | {words[j].syllables for j in c_words}
    total = count_admissible(*bounds)
    items, counts = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_scan", lambda *args: items.extend(args[2]) or [])
        for start, stop in verify._chunk_ranges(total, parts):
            counts.append(verify._span_chunk((*bounds, (), forced_a, forced_c, start, stop))[0])
    expected = [
        (a, c, word_pieces(a) + word_pieces(c))
        for a, c in enumerate_admissible(*bounds)
        if a.syllables in forced_a or c.syllables in forced_c
    ]
    assert items == expected
    assert sum(counts) == len(T_KINDS) * total


@pytest.mark.parametrize("trials", [0, 1, 31, 32, 33, 1000])
def test_the_random_chunk_draws_its_pairs_from_one_stream(monkeypatch, trials):
    drawn = []

    def recorded(rng, *bounds, original=verify._random_word):
        drawn.append(original(rng, *bounds))
        return drawn[-1]

    monkeypatch.setattr(verify, "_random_word", recorded)
    checked, _ = verify._hexagon_random_chunk((4, 4, (), frozenset(), frozenset(), 7, 0, trials))
    expected = [(nu.syllables, mu.syllables) for nu, mu in drawn_pairs(trials, seed=7)]
    assert (checked, list(zip(drawn[::2], drawn[1::2]))) == (trials, expected)
    assert len(drawn) == 2 * trials


def test_random_words_are_the_randint_choice_draws():
    fast, slow = random.Random("7:3"), random.Random("7:3")
    bounds = ((4, 4), (1, 1), (6, 9))
    for n in range(10_000):
        drawn = verify._random_word(fast, *bounds[n % 3])
        assert drawn == random_word(slow, *bounds[n % 3]).syllables
    assert fast.random() == slow.random()
