"""Affine Bruhat countertableaux: enumeration, Theta, extension, cocharge."""

import operator
from itertools import combinations

import pytest

from kschur import abctab
from kschur.abctab import (
    ABC,
    NonPartitionWeightError,
    _counterclockwise_choice,
    _ext_cells,
    count_abc,
    count_affine_factorizations,
    enumerate_abc,
    theta,
)
from kschur.affine import from_word, is_word_cyclically_decreasing
from kschur.cores import (
    NCore,
    c_map,
    cores_of_degree,
    dominance_leq,
    w_core,
)
from kschur.strips import horizontal_strong_strips_from, psi
from kschur.symfun import bounded_partitions_of, weak_kostka_foulkes
from kschur.tableaux import cocharge, semistandard_tableaux
from kschur.tpoly import TPoly

from oracles import (
    phi_strip_chains,
    quotient_words,
    skew_contents,
    skew_letter_cells,
    skew_off,
    step_ribbons,
    subword_scan_index_vectors,
)


def compositions(total, n):
    if total == 0:
        yield ()
        return
    for first in range(1, min(total, n - 1) + 1):
        for rest in compositions(total - first, n):
            yield (first,) + rest


def test_weight_331_countertableau():
    abcs = enumerate_abc(NCore(6, (4, 3)), (3, 3, 1))
    mu_chains = [tuple(tuple(m) for m in a.mu_chain()) for a in abcs]
    assert ((4, 3), (9, 4, 2), (9, 8, 3), (9, 8, 5)) in mu_chains


def test_weight_validation():
    with pytest.raises(ValueError):
        enumerate_abc(NCore(4, (2, 1)), (4,))  # part >= n
    assert enumerate_abc(NCore(4, (2, 1)), (1,)) == []  # degree mismatch
    with pytest.raises(ValueError):
        ABC(4, [NCore(4, ()), NCore(4, (2, 1))])  # not a horizontal strong strip


def _index_vectors_or_leftover(extract, abc):
    try:
        return extract(abc)
    except AssertionError as err:
        return str(err)


def test_stored_strips_match_the_group_and_skew_routes():
    # every ABC of composition weight, n = 3, 4, 5 up to degree 7, 7, 6;
    # the index vectors, letter by letter, against one whole subword at a
    # time, where most of these weights leave cells that no subword reaches
    checked = leftovers = partition_weights = 0
    for n, max_deg in ((3, 7), (4, 7), (5, 6)):
        for d in range(0, max_deg + 1):
            for lam in cores_of_degree(n, d):
                for alpha in compositions(d, n):
                    for abc in enumerate_abc(lam, alpha):
                        chains = phi_strip_chains(abc)
                        assert abc.words() == quotient_words(abc)
                        assert tuple(s.chain for s in abc.strips) == chains
                        assert abc.off() == skew_off(chains)
                        assert abc.letter_cells() == skew_letter_cells(chains)
                        for strip in abc.strips:
                            assert strip.ribbons == step_ribbons(strip.chain)
                            assert strip.contents == skew_contents(strip.chain)
                        got = _index_vectors_or_leftover(ABC.index_vectors, abc)
                        assert got == _index_vectors_or_leftover(subword_scan_index_vectors, abc)
                        leftovers += isinstance(got, str)
                        if list(alpha) == sorted(alpha, reverse=True):
                            # the letter table's n-cocharge against the skew off and the scan
                            scanned = sum(map(sum, subword_scan_index_vectors(abc)))
                            assert abc.n_cocharge() == skew_off(chains) + scanned
                            partition_weights += 1
                        checked += 1
    assert checked == 1137
    assert 0 < leftovers < checked
    assert 0 < partition_weights < checked


def test_enumerated_abcs_equal_checked_abcs():
    # the walk hands each step's strip to the ABC; the checked constructor finds the same
    checked = 0
    for n, max_deg in ((3, 7), (4, 7), (5, 6)):
        for d in range(0, max_deg + 1):
            for lam in cores_of_degree(n, d):
                for alpha in compositions(d, n):
                    for abc in enumerate_abc(lam, alpha):
                        again = ABC(n, abc.chain)
                        assert abc == again
                        assert abc.weight == again.weight == alpha
                        assert abc.strips == again.strips
                        assert all(map(operator.is_, abc.strips, again.strips))
                        checked += 1
    assert checked == 1137


def test_unique_abc_of_own_weight():
    for n in (3, 4, 5):
        for d in range(0, 7):
            for lam in bounded_partitions_of(d, n):
                assert count_abc(c_map(lam, n), lam) == 1
                assert len(enumerate_abc(c_map(lam, n), lam)) == 1


def test_abc_empty_unless_dominated():
    for n in (3, 4):
        for d in range(0, 7):
            for lam in bounded_partitions_of(d, n):
                for mu in bounded_partitions_of(d, n):
                    cnt = count_abc(c_map(lam, n), mu)
                    if not dominance_leq(mu, lam):
                        assert cnt == 0, (n, lam, mu)


def test_theta_single_part():
    # the one-part ABC factors as s_{a-1} ... s_1 s_0
    for n in (4, 5):
        for a in range(1, n):
            (abc,) = enumerate_abc(NCore(n, (a,)), (a,))
            (word,) = theta(abc)
            assert word == tuple(range(a - 1, -1, -1))


def test_theta_factorization_properties():
    for n in (3, 4):
        for d in range(0, 6):
            for lam in cores_of_degree(n, d):
                for alpha in compositions(d, n):
                    for abc in enumerate_abc(lam, alpha):
                        words = theta(abc)
                        assert tuple(len(w) for w in words) == alpha
                        prod = from_word(
                            [a for w in reversed(words) for a in w], n
                        )
                        assert prod == w_core(lam)
                        for w in words:
                            assert is_word_cyclically_decreasing(w, n)


def test_theta_injective_and_counts():
    for n in (3, 4):
        for d in range(0, 6):
            for lam in cores_of_degree(n, d):
                for alpha in compositions(d, n):
                    abcs = enumerate_abc(lam, alpha)
                    images = {theta(a) for a in abcs}
                    assert len(images) == len(abcs)
                    assert len(abcs) == count_affine_factorizations(w_core(lam), alpha)


def test_weight_331_theta_lengths():
    abcs = enumerate_abc(NCore(6, (4, 3)), (3, 3, 1))
    hit = [
        a
        for a in abcs
        if [tuple(m) for m in a.mu_chain()]
        == [(4, 3), (9, 4, 2), (9, 8, 3), (9, 8, 5)]
    ]
    words = theta(hit[0])
    assert tuple(len(w) for w in words) == (3, 3, 1)


def test_extension_weight_3331():
    chain = [NCore(6, p) for p in [(), (3,), (4, 2), (6, 3, 2), (6, 3, 2, 1)]]
    abc = ABC(6, chain)
    assert abc.weight == (3, 3, 3, 1)
    assert abc.extension() == {1: [7, 8, 9], 2: [6, 7, 10], 3: [8, 11, 12], 4: [10]}
    assert abc.off() == 1
    assert abc.index_vectors() == [[0, 1, 1, 2], [0, 1, 1], [0, 0, 1]]


def test_extension_single_row():
    for n in (4, 5):
        for m in range(1, n):
            (abc,) = enumerate_abc(NCore(n, (m,)), (m,))
            (cols,) = abc.extension().values()
            assert sorted((c - 1) % n for c in cols) == list(range(m))


def test_abcres_extension_residues_match_words():
    # the column residues of letter i in ext(A) are the letters of v^i
    for n in (3, 4):
        for d in range(0, 7):
            for lam in cores_of_degree(n, d):
                for alpha in compositions(d, n):
                    for abc in enumerate_abc(lam, alpha):
                        words = theta(abc)
                        ext = abc.extension()
                        for i, word in enumerate(words, start=1):
                            got = {(c - 1) % n for c in ext[i]}
                            assert got == set(word)
                            assert len(ext[i]) == len(word)


def test_ext_letter_has_one_cell_per_letter_of_its_strip():
    # the weak KF DP reads each subword's cocharge span off the weight:
    # a step of weight a puts exactly a cells, one per letter of psi, in ext(A)
    for n in (8, 9):
        for d in range(8):
            for lam in cores_of_degree(n, d):
                for a in range(1, n):
                    for strip in horizontal_strong_strips_from(lam, n - 1 - a):
                        cells = _ext_cells(strip)
                        assert len(cells) == a
                        assert sorted(res for res, _c in cells) == sorted(psi(strip))
                        assert all(res == (c - 1) % n for res, c in cells)
                        assert [c for _res, c in cells] == sorted(c for _res, c in cells)


def test_standard_abc_cocharge_example():
    chain = [
        NCore(4, p)
        for p in [(), (1,), (2,), (2, 1), (3, 1, 1), (3, 2, 1), (3, 3, 1, 1), (3, 3, 1, 1, 1)]
    ]
    abc = ABC(4, chain)
    assert abc.weight == (1,) * 7
    assert abc.index_vectors() == [[0, 0, 1, 1, 2, 2, 3]]
    assert abc.off() == 1
    assert abc.n_cocharge() == 10


def test_cocharge_requires_partition_weight():
    abcs = enumerate_abc(NCore(4, (2, 1)), (1, 2))
    if abcs:
        with pytest.raises(NonPartitionWeightError):
            abcs[0].n_cocharge()


def test_east_moving_standard_has_cocharge_off():
    # a one-row shape of weight (m): single letter, index [0], off 0
    for n in (4, 5):
        for m in range(1, n):
            (abc,) = enumerate_abc(NCore(n, (m,)), (m,))
            assert abc.off() == 0
            assert abc.n_cocharge() == 0


def test_chain_prefix_closure():
    for n in (3, 4):
        for d in range(0, 6):
            for lam in cores_of_degree(n, d):
                for alpha in compositions(d, n):
                    for abc in enumerate_abc(lam, alpha):
                        if abc.r <= 1:
                            continue
                        prefix = ABC(n, abc.chain[:-1])
                        assert prefix.weight == abc.weight[:-1]
                        assert prefix in enumerate_abc(
                            abc.chain[-2], abc.weight[:-1]
                        )


def test_deg_below_n_matches_ssyt():
    # |ABC(c(lam), mu)| = |SSYT(lam, mu)|, cocharges agree, off = 0
    for n in (4, 5):
        for d in range(1, min(n, 6)):
            for lam in bounded_partitions_of(d, n):
                core = c_map(lam, n)
                if core.degree() >= n:
                    continue
                for mu in bounded_partitions_of(d, n):
                    abcs = enumerate_abc(core, mu)
                    tabs = semistandard_tableaux(lam, mu)
                    assert len(abcs) == len(tabs)
                    assert all(a.off() == 0 for a in abcs)
                    assert sorted(a.n_cocharge() for a in abcs) == sorted(
                        cocharge(t) for t in tabs
                    )


def test_counterclockwise_choice_steps_back_from_res():
    # the first option met stepping res - 1, res - 2, ... round the circle,
    # res itself last; the counter goes up when res was passed over
    for n in range(2, 9):
        for res in range(n):
            for k in range(1, n + 1):
                for options in combinations(range(n), k):
                    want = next(o for o in ((res - j) % n for j in range(1, n + 1)) if o in options)
                    before = abctab.distance_zero_skips
                    assert _counterclockwise_choice(res, dict.fromkeys(options).keys(), n) == want
                    skipped = abctab.distance_zero_skips - before
                    assert skipped == (res in options and k > 1), (n, res, options)


def test_counterclockwise_rule_pins_two_weak_kf_entries():
    # the first weak KF entries that depend on passing over res: a rule that lets res win
    # gives 2t^5 for both.  Under this rule the Catalan-function formula
    # s^(k)_nu = H(Delta^k(nu); nu) of Blasiak-Morse-Seelinger-Zabrocki (JAMS 2019), read at
    # 1/t as in ROADMAP item 5, held for every k-Schur function of n = 3..7, d <= 11
    t4_t5 = TPoly.t(4) + TPoly.t(5)
    assert weak_kostka_foulkes((6, 2, 2), (3, 3, 3, 1), 7) == t4_t5
    assert weak_kostka_foulkes((7, 2, 2), (4, 3, 3, 1), 8) == t4_t5
