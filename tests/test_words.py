"""Word arithmetic: parsing, printing, reduction, renaming, enumeration."""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import barbellw3
from barbellw3.words import (
    BASE,
    QUAD,
    K,
    Affine,
    AlphabetMismatchError,
    MixedAlphabetError,
    UnknownLetterError,
    Word,
    WordError,
    WordSyntaxError,
    ZeroExponentError,
    at_each_k,
    at_k,
    bounded_words,
    concat_words,
    identity,
    invert,
    parse_word,
    project,
    recorded_roots,
    rename,
)

from oracles import (
    all_base_words,
    naive_concat,
    naive_invert,
    naive_project,
    naive_rename,
    split_blocks,
)


def rand_word(rng, alphabet=BASE, max_syllables=5, max_exponent=4):
    letters = alphabet.letters
    n = rng.randint(0, max_syllables)
    syllables, last = [], None
    for _ in range(n):
        letter = rng.choice([l for l in letters if l != last])
        exp = rng.choice([e for e in range(-max_exponent, max_exponent + 1) if e])
        syllables.append((letter, exp))
        last = letter
    return Word(alphabet, syllables)


def test_parse_str_round_trip():
    texts = [
        "t",
        "u^-1",
        "t^3 u^-2 t",
        "t u t^-1 u^-1",
        "t_1^2 u_1 t_1^-1 t_3",
        "u_3^-5",
    ]
    for text in texts:
        w = parse_word(text)
        assert str(w) == text
        assert parse_word(str(w), w.alphabet) == w


def test_parse_identity_spellings():
    assert parse_word("1") == identity(BASE)
    assert parse_word("e") == identity(BASE)
    assert parse_word("1", QUAD) == identity(QUAD)
    assert str(identity(BASE)) == "1"
    assert identity(BASE).is_identity


def test_parse_reduces_input():
    assert str(parse_word("t^2 t^-2")) == "1"
    assert str(parse_word("t t")) == "t^2"
    assert str(parse_word("t u u^-1 t")) == "t^2"
    assert str(parse_word("t_1 t_3 t_3^-1 t_1^-1", QUAD)) == "1"


def test_parse_alphabet_inference():
    assert parse_word("t u").alphabet is BASE
    assert parse_word("t_1 u_3").alphabet is QUAD
    with pytest.raises(UnknownLetterError):
        parse_word("t", QUAD)


def test_parse_errors_carry_positions():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("v")
    assert err.value.position == 0

    with pytest.raises(ZeroExponentError) as err:
        parse_word("t^0")
    assert err.value.position == 2

    with pytest.raises(WordSyntaxError) as err:
        parse_word("t^")
    assert err.value.position == 2

    with pytest.raises(UnknownLetterError) as err:
        parse_word("t_1", BASE)
    assert err.value.position == 0

    with pytest.raises(WordSyntaxError):
        parse_word("")


def test_parse_rejects_mixed_alphabets():
    with pytest.raises(MixedAlphabetError):
        parse_word("t u_1")
    with pytest.raises(MixedAlphabetError):
        parse_word("t_3 u")


def test_word_constructor_validates():
    with pytest.raises(WordError):
        Word(BASE, [("t", 1), ("t", 2)])
    with pytest.raises(WordError):
        Word(BASE, [("t", 0)])
    with pytest.raises(WordError):
        Word(BASE, [("t_1", 1)])


def test_word_constructor_refuses_non_int_exponents():
    # Each of these used to be coerced by int(): 1.5 and "2" became
    # exponents 1 and 2, and 0.5 was reported as a zero exponent.
    for exp in (1.5, 0.5, "2", True, None, 2.0):
        with pytest.raises(WordError, match="must be an int or an affine exponent"):
            Word(BASE, [("t", exp)])
    assert str(Word(BASE, [("t", 2), ("u", K)])) == "t^2 u^k"


def test_affine_exponents():
    assert K + 1 - K == 1 and type(K - K) is int and K * 0 == 0
    assert 2 * K - 3 == Affine(-3, 2) and -(K + 1) == Affine(-1, -1)
    assert [str(e) for e in (K, -K, 2 * K - 1, 1 - K)] == ["k", "-k", "2k-1", "-k+1"]
    assert Affine(2, 1).at(3) == 5 and Affine(2, 1).at(2 * K) == 2 * K + 2
    with pytest.raises(TypeError):
        K < 2
    with pytest.raises(TypeError):
        abs(K)
    with pytest.raises(WordError):
        Affine(1, 0)
    w = parse_word("t^k u^2k-1 t^-k+3", k=True)
    assert w.syllables == (("t", K), ("u", 2 * K - 1), ("t", 3 - K)) and w.has_k
    assert parse_word(str(w), k=True) == w
    assert not parse_word("t^2").has_k
    with pytest.raises(WordSyntaxError, match="signed decimal integer"):
        parse_word("t^k")
    with pytest.raises(ZeroExponentError):
        parse_word("t^0k", k=True)


def test_truth_tests_on_affine_exponents_record_their_roots():
    u_k, u_minus_2 = parse_word("u^k", k=True), parse_word("u^-2")
    with recorded_roots() as roots:
        product = concat_words([u_k, u_minus_2])  # u^(k-2): the seam vanishes at k = 2
        assert u_k != parse_word("u^3")
        assert u_k == parse_word("u^k", k=True)
        assert u_k != parse_word("t^3")
        assert str(product) == "u^k-2" and str(u_k) == "u^k"  # printing records nothing
        with recorded_roots() as inner:
            Word(BASE, [("t", 2 * K - 8)])
            assert (u_k, u_k) != (u_k, parse_word("u^5"))
    assert roots == {2, 3, 4, 5} and inner == {4, 5}
    concat_words([parse_word("u^k", k=True), parse_word("u^-5")])  # outside any block
    assert roots == {2, 3, 4, 5}
    assert at_k(product, 2) == identity(BASE) and at_k(product, 5) == parse_word("u^3")
    assert at_k(parse_word("t u^k-1 t", k=True), 1) == parse_word("t^2")
    assert at_k(product, K + 2) == parse_word("u^k", k=True)
    for bad in (0, True, 1.0):
        with pytest.raises(WordError):
            at_k(product, bad)


def test_affine_equality_is_a_recorded_decision():
    with recorded_roots() as roots:
        assert K + 1 == 1 + K and not K + 1 != 1 + K and 2 * K == K + K
        assert K != 3 and 3 != K and K - 1 != -1 + 2 * K and K != 2 * K + 1
        assert K != "k" and K != 1.0
    # K = 3 and k - 1 = 2k - 1 at k = 0; k = 2k + 1 at no positive k.
    assert roots == {3}
    assert K.__eq__("k") is NotImplemented and K.__eq__(1.0) is NotImplemented
    assert len({K + 1, 1 + K, K}) == 2


def test_a_plain_equality_inside_an_analysis_is_replayed():
    # The analysis decides on an == between u^(k-2) and u, true at k = 3
    # only; at K it answers False, and k = 3 must be run again.
    def analysis(k):
        return Word(BASE, [("u", k - 2)]) == parse_word("u")

    at = at_each_k(analysis)
    assert at(3) is True
    assert at(1) is False and at(4) is False and at(30) is False


def test_equality_and_hash():
    v = parse_word("t u^2")
    w = parse_word("t u^2")
    assert v == w and hash(v) == hash(w)
    assert len({v, w}) == 1
    assert v != parse_word("t u")
    counts = {v: 1}
    counts[w] = counts.get(w, 0) + 1
    assert counts[v] == 2
    # The hash reads only the syllables, so the two identities collide,
    # but equality still tells their alphabets apart.
    one, one_quad = identity(BASE), identity(QUAD)
    assert one != one_quad and Word(QUAD) == one_quad
    assert {one: "BASE", one_quad: "QUAD"} == {Word(BASE): "BASE", Word(QUAD): "QUAD"}
    assert len({one, one_quad, Word(BASE), Word(QUAD)}) == 2


def test_group_laws_random():
    rng = random.Random(2024)
    e = identity(BASE)
    for _ in range(300):
        a, b, c = (rand_word(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * ~a == e and ~a * a == e
        assert a * e == a and e * a == a
        assert ~(a * b) == ~b * ~a
        assert a ** 3 == a * a * a
        assert a ** -2 == ~a * ~a
        assert a ** 0 == e


def test_concat_matches_letter_level_oracle():
    rng = random.Random(5)
    for _ in range(400):
        a, b = rand_word(rng), rand_word(rng)
        assert a * b == concat_words([a, b]) == naive_concat(a, b)
        assert invert(a) == naive_invert(a)


def test_insert_cancelling_pair_is_invisible():
    # splicing x x^-1 into the letter stream must not change the word
    rng = random.Random(99)
    for _ in range(300):
        w = rand_word(rng)
        letters = []
        for letter, exp in w.syllables:
            sign = 1 if exp > 0 else -1
            letters.extend([(letter, sign)] * abs(exp))
        pos = rng.randint(0, len(letters))
        x = rng.choice(BASE.letters)
        spliced = letters[:pos] + [(x, 1), (x, -1)] + letters[pos:]
        rebuilt = identity(BASE)
        for letter, sign in spliced:
            rebuilt = rebuilt * Word(BASE, [(letter, sign)])
        assert rebuilt == w


def test_word_measures():
    w = parse_word("t^3 u^-2 t")
    assert w.syllable_count == 3
    assert w.length == 6
    assert w.max_exponent() == 3
    assert identity(BASE).length == 0
    assert identity(BASE).max_exponent() == 0


def test_sort_key_orders_by_length_then_spelling():
    words = [parse_word(s) for s in ("u", "t^2", "t", "t u", "u^-1", "1")]
    ordered = sorted(words, key=lambda w: w.sort_key())
    assert [str(w) for w in ordered] == ["1", "t", "u^-1", "u", "t^2", "t u"]


def test_an_affine_word_has_no_measure_and_sorts_after_concrete_words():
    w = parse_word("t u^k", k=True)
    for measure in (lambda: w.length, w.max_exponent):
        with pytest.raises(WordError, match="depend on k"):
            measure()
    words = [parse_word(text, k=True) for text in ("t u^k", "t^9 u^9", "t u^-k", "t^2 u^k-1")]
    with recorded_roots() as roots:
        ordered = sorted(words, key=Word.sort_key)
    assert roots == set()
    assert [str(w) for w in ordered] == ["t^9 u^9", "t u^-k", "t u^k", "t^2 u^k-1"]


def test_rename_is_a_homomorphism():
    rng = random.Random(11)
    for tag in (1, 3):
        for _ in range(200):
            a, b = rand_word(rng), rand_word(rng)
            assert rename(a * b, tag) == rename(a, tag) * rename(b, tag)
            assert rename(~a, tag) == ~rename(a, tag)
            assert rename(a, tag) == naive_rename(a, tag)
    assert rename(identity(BASE), 1) == identity(QUAD)


def test_project_matches_letter_oracle():
    rng = random.Random(17)
    for tag in (1, 3):
        for _ in range(300):
            w = rand_word(rng, QUAD, max_syllables=7)
            assert project(w, tag) == naive_project(w, tag)
    w = parse_word("t_1^2 u_3 t_1^-2 u_1 t_3")
    assert str(project(w, 1)) == "u"
    assert str(project(w, 3)) == "u t"
    assert project(identity(QUAD), 3) == identity(BASE)


def test_project_rejects_bad_input():
    with pytest.raises(AlphabetMismatchError):
        project(parse_word("t u"), 1)
    with pytest.raises(WordError):
        project(parse_word("t_1"), 2)


def test_rename_rejects_quad_input():
    with pytest.raises(AlphabetMismatchError):
        rename(parse_word("t_1"), 1)


def test_split_blocks_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        w = rand_word(rng, QUAD, max_syllables=6)
        blocks = split_blocks(w)
        tags = [tag for tag, _ in blocks]
        assert all(tags[i] != tags[i + 1] for i in range(len(tags) - 1))
        rebuilt = identity(QUAD)
        for tag, base in blocks:
            assert base.alphabet is BASE and not base.is_identity
            rebuilt = rebuilt * rename(base, tag)
        assert rebuilt == w


def test_split_blocks_examples():
    w = parse_word("t_1^2 u_1 t_3^-1 u_3 t_1")
    blocks = [(tag, str(b)) for tag, b in split_blocks(w)]
    assert blocks == [(1, "t^2 u"), (3, "t^-1 u"), (1, "t")]
    assert split_blocks(identity(QUAD)) == []


def test_bounded_words_matches_recursive_oracle():
    for max_syllables, max_exponent in [(1, 1), (2, 2), (3, 2)]:
        produced = list(bounded_words(max_syllables, max_exponent))
        assert len(produced) == len(set(produced))
        assert set(produced) == set(all_base_words(max_syllables, max_exponent))
        keys = [w.sort_key() for w in produced]
        assert keys == sorted(keys)
        for w in produced:
            assert not w.is_identity
            assert w.syllable_count <= max_syllables
            assert w.max_exponent() <= max_exponent


def test_bounded_words_identity_flag_and_counts():
    with_e = list(bounded_words(2, 1, include_identity=True))
    without = list(bounded_words(2, 1))
    assert with_e[0].is_identity
    assert with_e[1:] == without
    # one syllable: 2 letters x 2 exponents; two syllables: 4 x 2
    assert len(without) == 4 + 8


def test_a_word_pickles_at_every_protocol():
    # Word and Affine define __slots__, which pickles at protocols 0 and 1
    # only through their __reduce__.
    words = (parse_word("t u^-2 t^3"), Word(QUAD, [("t_1", K), ("u_3", Affine(1, -2))]),
             identity(QUAD))
    for word in words:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(word, protocol))
            assert loaded == word and hash(loaded) == hash(word), protocol
            assert loaded.alphabet is word.alphabet


def test_a_pickled_word_hashes_afresh_where_it_is_loaded():
    # A process that loads a pickled word can have another string hash seed
    # (a spawned worker): the word loaded there must still equal, and find,
    # the same word built there.
    src = str(Path(barbellw3.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    dump = (
        "import pickle, sys\n"
        "from barbellw3.words import parse_word\n"
        "sys.stdout.buffer.write(pickle.dumps(parse_word('t u^-2 t^3')))\n"
    )
    load = (
        "import pickle, sys\n"
        "from barbellw3.words import parse_word\n"
        "loaded, fresh = pickle.loads(sys.stdin.buffer.read()), parse_word('t u^-2 t^3')\n"
        "assert loaded == fresh and {fresh: 1}[loaded] == 1\n"
    )
    dumped = subprocess.run(
        [sys.executable, "-c", dump], capture_output=True, check=True, timeout=60,
        env=dict(env, PYTHONHASHSEED="1"),
    )
    loaded = subprocess.run(
        [sys.executable, "-c", load], input=dumped.stdout, capture_output=True, timeout=60,
        env=dict(env, PYTHONHASHSEED="2"),
    )
    assert loaded.returncode == 0, loaded.stderr.decode()
