"""Tableaux, cocharge, Kostka-Foulkes polynomials."""

import pytest

from kschur.cores import conjugate, contains
from kschur.tableaux import (
    Tableau,
    _strips,
    cocharge,
    cocharge_index_vectors,
    kostka_foulkes,
    kostka_number,
    semistandard_tableaux,
)
from kschur.tpoly import TPoly
from kschur.symfun import kf_matrix, partitions_of

from oracles import (
    is_horizontal_strip,
    n_stat,
    pair_kostka_foulkes,
    pair_kostka_number,
    s_to_m,
    set_scan_cocharge_index_vectors,
    tableau_from_rows,
)


def test_cocharge_25_example():
    tab = tableau_from_rows([[1, 1, 1, 2, 3, 7], [2, 2, 3, 5], [3, 4], [4, 5], [6]])
    assert tab.shape == (6, 4, 2, 2, 1)
    assert cocharge_index_vectors(tab) == [
        [0, 1, 2, 3, 3, 4, 4],
        [0, 1, 1, 2, 3],
        [0, 0, 1],
    ]
    assert cocharge(tab) == 25


def test_single_row_cocharge_zero():
    assert cocharge(tableau_from_rows([[1, 1, 2, 3]])) == 0


def test_cocharge_rejects_non_partition_weight():
    with pytest.raises(ValueError):
        cocharge(tableau_from_rows([[1, 2, 2]]))


def test_kostka_foulkes_examples():
    assert kostka_foulkes((1, 1), (1, 1)) == TPoly.t(1)
    assert kostka_foulkes((2, 1), (1, 1, 1)) == TPoly({1: 1, 2: 1})
    assert kostka_foulkes((2,), (2,)) == TPoly.one()
    assert kostka_foulkes((2,), (3,)) == 0


def test_kostka_foulkes_diagonal():
    # cocharge normalization: the unique tableau has cocharge n(lam)
    for d in range(1, 6):
        for lam in partitions_of(d):
            assert kostka_foulkes(lam, lam) == TPoly.t(n_stat(lam))


def test_kostka_at_one_counts_tableaux():
    for d in range(1, 7):
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                k = kostka_number(lam, mu)
                assert k == len(semistandard_tableaux(lam, mu))
                assert kostka_foulkes(lam, mu)(1) == k


def test_kostka_triangularity():
    from kschur.cores import dominance_leq

    for d in range(1, 7):
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                if kostka_number(lam, mu):
                    assert dominance_leq(mu, lam)


def test_tableau_from_rows_validates():
    with pytest.raises(ValueError):
        tableau_from_rows([[1, 2], [1]])  # column not strict


def _column(p, j):
    return p[j - 1] if j <= len(p) else 0


def test_strip_table_matches_row_predicate_and_macdonald_j_set():
    # each hi of size |lo| + m over lo is in the table exactly when hi/lo is a horizontal strip,
    # once, and ks is m_j(lo) over Macdonald's J = {j >= 1: theta'_j = 0, theta'_{j+1} = 1},
    # theta' = hi' - lo' (III (5.8')); the Tableau check refuses every other hi
    pairs = 0
    for size in range(9):
        for lo in partitions_of(size):
            lc = conjugate(lo)
            for m in range(7):
                table = dict(_strips(lo, m))
                assert len(table) == len(_strips(lo, m))
                found = 0
                for hi in partitions_of(size + m):
                    if not contains(hi, lo):
                        continue
                    assert (hi in table) == is_horizontal_strip(hi, lo), (lo, m, hi)
                    if hi not in table:
                        with pytest.raises(ValueError):
                            Tableau([(), lo, hi])
                        continue
                    hc = conjugate(hi)
                    theta = [None] + [_column(hc, j) - _column(lc, j) for j in range(1, len(hc) + 1)]
                    J = [j for j in range(1, len(hc)) if theta[j] == 0 and theta[j + 1] == 1]
                    assert sorted(table[hi]) == sorted(_column(lc, j) - _column(lc, j + 1) for j in J)
                    found += 1
                assert found == len(table)
                pairs += found
    assert pairs == 2172


def test_kf_and_kostka_matrices_match_per_pair_oracles():
    # whole matrices from the weight fibers against one (lam, mu) at a time
    for d in range(0, 10):
        P = partitions_of(d)
        want = [[pair_kostka_foulkes(lam, mu) for mu in P] for lam in P]
        assert kf_matrix(d) == want
        assert [[kostka_foulkes(lam, mu) for mu in P] for lam in P] == want
        want = [[pair_kostka_number(lam, mu) for mu in P] for lam in P]
        assert s_to_m(d) == [[TPoly.const(k) for k in row] for row in want]
        assert [[kostka_number(lam, mu) for mu in P] for lam in P] == want
    assert kostka_foulkes((3,), (1, 1)) == 0
    assert kostka_number((3,), (1, 1)) == 0


def test_cocharge_matches_set_scan_oracle():
    # every SSYT of partition weight and size 1..9
    checked = 0
    for d in range(1, 10):
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                for tab in semistandard_tableaux(lam, mu):
                    assert cocharge_index_vectors(tab) == set_scan_cocharge_index_vectors(tab)
                    checked += 1
    assert checked == 9437
