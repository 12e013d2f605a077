"""Affine symmetric group: words, lengths, transpositions, descents."""

import random

import pytest

from kschur.affine import (
    AffinePermutation,
    DegenerateTranspositionError,
    InvalidLetterError,
    cyclically_decreasing_of_length,
    from_word,
    is_cyclically_decreasing,
    is_word_cyclically_decreasing,
    reduced_word,
    transposition,
)

from oracles import bfs_lengths, bfs_reduced_words


def test_from_word_examples():
    assert from_word([], 4).window == (1, 2, 3, 4)
    assert from_word([0], 4).window == (0, 2, 3, 5)
    w = from_word([2, 1, 3, 0], 4)
    assert w.is_grassmannian()
    assert w.length() == 4


def test_from_word_rejects_bad_letter():
    with pytest.raises(InvalidLetterError):
        from_word([4], 4)
    with pytest.raises(InvalidLetterError):
        from_word([-1], 4)


def test_window_invariants_enforced():
    with pytest.raises(ValueError):
        AffinePermutation(3, (1, 2, 4))  # bad sum
    with pytest.raises(ValueError):
        AffinePermutation(3, (1, 4, 1))  # repeated residue


def test_unchecked_constructions_give_valid_windows():
    """Products, inverses, words and transpositions skip the window checks;
    every window they build must still pass them."""
    rng = random.Random(11)
    for n in range(2, 7):
        elems = [
            from_word([rng.randrange(n) for _ in range(rng.randrange(15))], n)
            for _ in range(40)
        ]
        for u, v in zip(elems, elems[1:]):
            i = rng.randrange(-2 * n, 2 * n)
            t = transposition(i, i + rng.choice([s for s in range(1, 3 * n) if s % n]), n)
            for w in (u, u * v, u.inverse(), t, t * u, u * t.inverse()):
                assert AffinePermutation(n, w.window) == w


def test_length_examples():
    assert AffinePermutation.identity(4).length() == 0
    assert from_word([0], 4).length() == 1
    assert from_word([2, 1, 3, 0], 4).length() == 4


@pytest.mark.parametrize("n,max_len", [(2, 6), (3, 6), (4, 6), (5, 6)])
def test_length_matches_bfs(n, max_len):
    for window, ell in bfs_lengths(n, max_len).items():
        assert AffinePermutation(n, window).length() == ell


def test_relations():
    for n in (3, 4, 5):
        s = [from_word((i,), n) for i in range(n)]
        e = AffinePermutation.identity(n)
        for i in range(n):
            assert s[i] * s[i] == e
            j = (i + 1) % n
            assert s[i] * s[j] * s[i] == s[j] * s[i] * s[j]
            for j in range(n):
                if (i - j) % n not in (1, n - 1) and i != j:
                    assert s[i] * s[j] == s[j] * s[i]


def test_reduced_words_all_give_same_window():
    # braid/commutation soundness over BFS reduced words
    for n, max_len in ((3, 6), (4, 6), (5, 5)):
        for window, words in bfs_reduced_words(n, max_len).items():
            results = {from_word(word, n).window for word in words}
            assert results == {window}


def test_reduced_word_roundtrip():
    for n in (3, 4):
        for window, ell in bfs_lengths(n, 5).items():
            w = AffinePermutation(n, window)
            word = reduced_word(w)
            assert len(word) == ell
            assert from_word(word, n) == w


def test_transposition_examples():
    assert transposition(0, 1, 4) == from_word((0,), 4)
    assert transposition(0, 2, 4) == from_word([0, 1, 0], 4)
    assert transposition(2, 0, 4) == transposition(0, 2, 4)
    # long translation-style transposition, factorization from the text
    assert transposition(0, 5, 4) == from_word([0, 1, 2, 3, 2, 1, 0], 4)


def test_transposition_degenerate():
    with pytest.raises(DegenerateTranspositionError):
        transposition(1, 5, 4)


def test_transposition_changes_length():
    for n in (3, 4):
        for window in bfs_lengths(n, 4):
            w = AffinePermutation(n, window)
            for i in range(n):
                for s in range(1, 2 * n):
                    if s % n == 0:
                        continue
                    u = transposition(i, i + s, n) * w
                    assert u.length() != w.length()


def test_cyclically_decreasing_examples():
    assert is_cyclically_decreasing(AffinePermutation.identity(4)) == ()
    assert is_cyclically_decreasing(from_word([1, 0], 4)) == (1, 0)
    assert is_cyclically_decreasing(from_word([0, 1], 4)) is None


def test_cyclically_decreasing_word_valid():
    # returned word is reduced, cyclically decreasing, and rebuilds w
    for n in (3, 4, 5):
        for m in range(0, n):
            for word, v in cyclically_decreasing_of_length(n, m):
                assert is_word_cyclically_decreasing(word, n)
                assert v.length() == m
                got = is_cyclically_decreasing(v)
                assert got is not None
                assert from_word(got, n) == v


def test_cyclically_decreasing_exhaustive_against_definition():
    # an element of small length is CD iff some reduced word is a CD word
    for n in (3, 4):
        for window, words in bfs_reduced_words(n, 4).items():
            w = AffinePermutation(n, window)
            expects = any(is_word_cyclically_decreasing(word, n) for word in words)
            assert (is_cyclically_decreasing(w) is not None) == expects


def test_grassmannian():
    assert AffinePermutation.identity(4).is_grassmannian()
    assert not from_word([1], 4).is_grassmannian()
    assert from_word([2, 1, 3, 0], 4).is_grassmannian()


def test_grassmannian_no_finite_right_descent():
    # w Grassmannian iff no reduced word ends in s_i with i != 0,
    # equivalently no right descent in {1, ..., n-1}: ell(w s_i) < ell(w)
    # iff w(i) > w(i+1)
    for n in (3, 4, 5):
        for window in bfs_lengths(n, 6):
            w = AffinePermutation(n, window)
            no_finite_descent = not any(w.act(i) > w.act(i + 1) for i in range(1, n))
            assert w.is_grassmannian() == no_finite_descent
