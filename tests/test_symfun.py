"""Bases over ZZ[t, t^-1]: transitions, pairings, dual k-Schur, k-Schur."""

import pytest

from kschur.abctab import abc_counts
from kschur.cores import c_inverse, c_map, conjugate, dominance_leq
from kschur.symfun import (
    ONE,
    ZERO,
    SymF,
    _dualk_row,
    _inverse_column,
    _kn_column,
    _kschur_row,
    _ptilde_row,
    _s_row,
    bounded_partitions_of,
    dual_kschur,
    hall_pairing,
    h0t_in_m,
    kf_matrix,
    kn_matrix,
    kschur,
    m_sym,
    multiply,
    partitions_of,
    ptilde_in_m,
    schur,
    weak_kostka_foulkes,
)
from kschur.tableaux import _kf_fiber, _kostka_fiber, kostka_foulkes
from kschur.tpoly import TPoly

from oracles import (
    _matmul,
    _transpose,
    _unitriangular_inverse,
    dualk_to_m_by_product,
    expand_symf,
    h0t_to_m,
    h_to_m,
    k_conjugate,
    kn1_by_abc,
    kschur_rows_by_inverse,
    m_to_h,
    m_to_s,
    n_stat,
    pair_weak_kostka_foulkes,
    ptilde_oracle,
    ptilde_to_m,
    ptilde_to_m_bounded,
    ptilde_to_m_bounded_by_slice,
    ptilde_to_m_by_inverse,
    ptilde_to_s_by_inverse,
    s_to_m,
)


def test_schur_reconstruction_from_ptilde():
    for d in range(1, 6):
        for lam in partitions_of(d):
            acc = None
            for mu in partitions_of(d):
                kf = kostka_foulkes(lam, mu)
                if kf == 0:
                    continue
                term = ptilde_in_m(mu).map_coeffs(lambda v: v * kf)
                acc = term if acc is None else acc + term
            assert acc == schur(lam).in_m()


def test_ptilde_specializes_to_monomial():
    for d in range(1, 6):
        for mu in partitions_of(d):
            assert ptilde_in_m(mu).at_t(1) == m_sym(mu)


def test_ptilde_column_case():
    # P_{(1^r)} = e_r, so Ptilde_{(1^r)} = t^{-n(1^r)} m_{(1^r)}
    for r in range(1, 5):
        col = (1,) * r
        want = m_sym(col).map_coeffs(lambda v: v * TPoly.t(-n_stat(col)))
        assert ptilde_in_m(col) == want
        assert ptilde_oracle(col, 4) == expand_symf(ptilde_in_m(col), 4)


def test_ptilde_matches_symmetrization_oracle():
    for d in range(1, 5):
        for mu in partitions_of(d):
            assert ptilde_oracle(mu, 4) == expand_symf(ptilde_in_m(mu), 4)


def test_hall_pairing_examples():
    assert hall_pairing(SymF("h", 3, {(2, 1): 1}), m_sym((2, 1))) == TPoly.one()
    assert hall_pairing(SymF("h", 3, {(2, 1): 1}), m_sym((1, 1, 1))) == 0
    assert hall_pairing(SymF("h", 2, {(2,): 1}), m_sym((1,))) == 0  # degree mismatch
    for d in range(1, 6):
        for lam in partitions_of(d):
            assert hall_pairing(schur(lam), schur(lam)) == TPoly.one()


def test_h0t_ptilde_duality():
    for d in range(1, 6):
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                want = TPoly.one() if lam == mu else TPoly.zero()
                assert hall_pairing(h0t_in_m(lam), ptilde_in_m(mu)) == want


def test_weak_kostka_foulkes_examples():
    # diagonal is a single power of t (the unique ABC)
    for n in (2, 3, 4):
        for d in range(1, 6):
            for lam in bounded_partitions_of(d, n):
                diag = weak_kostka_foulkes(lam, lam, n)
                assert diag.is_unit() and diag(1) == 1
                for mu in bounded_partitions_of(d, n):
                    entry = weak_kostka_foulkes(lam, mu, n)
                    if not dominance_leq(mu, lam):
                        assert entry == 0
                    assert all(v >= 0 for v in entry.c.values())


def test_weak_kostka_reduces_to_classical():
    for n in (5, 6):
        for d in range(1, min(n, 6)):
            for lam in bounded_partitions_of(d, n):
                if c_map(lam, n).degree() >= n:
                    continue
                for mu in bounded_partitions_of(d, n):
                    assert weak_kostka_foulkes(lam, mu, n) == kostka_foulkes(lam, mu)


def test_weak_kostka_size_mismatch_zero():
    assert weak_kostka_foulkes((2,), (1,), 4) == 0


def test_kn_matrix_matches_per_pair_oracle():
    # whole matrices from the ABC weight fibers against one (lam, mu) at a time
    for n, max_deg in ((3, 8), (4, 7), (5, 7), (6, 6), (7, 8)):
        for d in range(0, max_deg + 1):
            P = bounded_partitions_of(d, n)
            want = [[pair_weak_kostka_foulkes(lam, mu, n) for mu in P] for lam in P]
            assert kn_matrix(n, d) == want
            assert [[weak_kostka_foulkes(lam, mu, n) for mu in P] for lam in P] == want
    with pytest.raises(ValueError):
        weak_kostka_foulkes((4,), (3, 1), 4)
    with pytest.raises(ValueError):
        weak_kostka_foulkes((3, 1), (4,), 4)


def test_fibers_at_t1_count_tableaux_and_abcs():
    # the cocharge DPs keep every chain: at t = 1 they are the plain counts
    for d in range(0, 12):
        for mu in partitions_of(d):
            assert {lam: kf(1) for lam, kf in _kf_fiber(mu).items()} == _kostka_fiber(mu)
    for n in range(3, 8):
        for d in range(0, 11):
            for mu in bounded_partitions_of(d, n):
                fiber = _kn_column(n, mu, True)
                counts = {c_inverse(core): v for core, v in abc_counts(n, mu).items()}
                assert {lam: kn(1) for lam, kn in fiber.items()} == counts


def test_ptilde_to_m_bounded_matches_whole_degree_slice():
    # the bounded block from the bounded weights' fibers alone
    for d in range(0, 12):
        for n in range(2, 8):
            assert ptilde_to_m_bounded(n, d) == ptilde_to_m_bounded_by_slice(n, d), (n, d)


def test_psi_tableaux_blocks_match_the_inverse_route():
    # Macdonald's psi-tableaux against K(t)^{-1} K, whole and bounded
    for d in range(0, 11):
        assert ptilde_to_m(d) == ptilde_to_m_by_inverse(d), d
        for n in range(3, 10):
            assert ptilde_to_m_bounded(n, d) == ptilde_to_m_bounded_by_slice(n, d), (n, d)


def test_kf_matrix_times_ptilde_is_schur():
    # s = K(t) Ptilde, with Ptilde from the psi-tableaux and K(t) from cocharge
    for d in range(0, 11):
        assert _matmul(kf_matrix(d), ptilde_to_m(d)) == s_to_m(d), d


def test_dualk_rows_match_the_whole_product():
    # one row of Kn(t) times the Ptilde block, or of Kn(1), per dual k-Schur function
    for n in range(3, 8):
        for d in range(0, 10):
            Pn = bounded_partitions_of(d, n)
            for t_on in (True, False):
                want = dualk_to_m_by_product(n, d, t_on)
                for lam, row in zip(Pn, want):
                    row = {mu: c for mu, c in zip(Pn, row) if c != 0}
                    assert _dualk_row(n, lam, t_on) == row, (n, lam, t_on)
                    assert dual_kschur(c_map(lam, n), t_on).terms == row


def test_dualk_symf_needs_n_and_bounded_labels():
    # both are refused when the SymF is built, before any expansion
    for basis in ("dualk", "dualkt1"):
        with pytest.raises(ValueError, match="needs an integer n"):
            SymF(basis, 3, {(2, 1): 1})
        with pytest.raises(ValueError, match="has a part >= n"):
            SymF(basis, 3, {(3,): 1}, n=3)
        with pytest.raises(ValueError, match="has a part >= n"):
            SymF(basis, 4, {(2, 2): 1, (3, 1): 1}, n=3)
        assert SymF(basis, 3, {(3,): 0}, n=3).terms == {}
        assert SymF(basis, 3, {(2, 1): 1}, n=3).in_m().terms


def test_dualk_sum_across_n_adds_in_m():
    # S_{c(2,1)} differs at n = 3 and n = 4, so a sum may not merge their labels
    a = SymF("dualk", 3, {(2, 1): 1}, n=3)
    b = SymF("dualk", 3, {(2, 1): 1}, n=4)
    assert (a + b).in_m().terms == (a.in_m() + b.in_m()).terms
    assert (a + a).terms == {(2, 1): TPoly.const(2)}


def test_kschur_rows_match_whole_inverse():
    # one back-substituted column of Kn^{-1} per k-Schur function
    for n in range(3, 7):
        for d in range(0, 9):
            Pn = bounded_partitions_of(d, n)
            for t_on, basis in ((True, "H0t"), (False, "h")):
                want = kschur_rows_by_inverse(n, d, t_on)
                for nu, row in zip(Pn, want):
                    f = kschur(c_map(nu, n), t_on)
                    assert f.basis == basis
                    assert f.terms == {mu: c for mu, c in zip(Pn, row) if c != 0}


def test_kn1_columns_from_weak_pieri_match_abc_counts():
    # column mu of Kn(1) is h_mu xi_empty by weak Pieri; the oracle counts ABCs by strips
    for n in range(3, 9):
        for d in range(0, 11):
            P = bounded_partitions_of(d, n)
            block = [[_kn_column(n, mu, False).get(lam, ZERO) for mu in P] for lam in P]
            assert block == kn1_by_abc(n, d), (n, d)


def test_t1_kschur_rows_match_inverse_of_abc_block():
    # the sparse integer solve at t = 1 is the oracle's whole-inverse row
    for n in range(3, 8):
        for d in range(0, 11):
            Pn = bounded_partitions_of(d, n)
            for nu, want in zip(Pn, kschur_rows_by_inverse(n, d, False)):
                row = _kschur_row(n, nu, False)
                assert row == {mu: c(1) for mu, c in zip(Pn, want) if c != 0}, (n, nu)
                assert all(type(c) is int for c in row.values()), (n, nu)
            for mu in Pn:
                assert all(type(c) is int for c in _kn_column(n, mu, False).values()), (n, mu)


def test_m_to_s_inverts_s_to_m_and_the_solve_divides_by_units():
    # m -> s solves K^T, whose columns are the Kostka rows, from the lex-largest end;
    # K(t) has diagonal t^{n(lam)}
    for d in range(0, 11):
        P = partitions_of(d)
        size = len(P)
        want = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
        solved = [_inverse_column(_s_row, {mu: 1}, False, max) for mu in P]
        sparse = [[TPoly.const(row.get(lam, 0)) for lam in P] for row in solved]
        assert sparse == m_to_s(d), d
        assert _matmul(sparse, s_to_m(d)) == want, d
        assert _matmul(s_to_m(d), sparse) == want, d
    for d in range(0, 10):
        P = partitions_of(d)
        dense = _unitriangular_inverse(kf_matrix(d))
        for j, mu in enumerate(P):
            col = _inverse_column(_kf_fiber, {mu: ONE}, True)
            assert col == {lam: row[j] for lam, row in zip(P, dense) if row[j] != 0}, mu
    with pytest.raises(ValueError, match="not a unit"):
        _inverse_column(lambda mu: {mu: 2}, {(1,): 1}, False)


def test_sparse_rows_match_the_whole_degree_route():
    # every basis change of one partition against the dense matrices of the reference
    def nonzero(P, row):
        return {mu: c for mu, c in zip(P, row) if c != 0}

    for d in range(0, 11):
        P = partitions_of(d)
        to_m = {"s": s_to_m(d), "h": h_to_m(d), "H0t": h0t_to_m(d), "ptilde": ptilde_to_m(d)}
        s_to_h = _transpose(m_to_s(d))
        for i, lam in enumerate(P):
            for basis, matrix in to_m.items():
                assert SymF(basis, d, {lam: 1}).in_m().terms == nonzero(P, matrix[i]), (basis, lam)
            assert _s_row(lam) == nonzero(P, s_to_m(d)[i]), lam
            assert SymF("m", d, {lam: 1}).in_s().terms == nonzero(P, m_to_s(d)[i]), lam
            assert SymF("m", d, {lam: 1}).in_h().terms == nonzero(P, m_to_h(d)[i]), lam
            assert SymF("s", d, {lam: 1}).in_h().terms == nonzero(P, s_to_h[i]), lam
        for n in range(2, 9):
            Pn = bounded_partitions_of(d, n)
            for lam, row in zip(Pn, ptilde_to_m_bounded(n, d)):
                assert _ptilde_row(lam, n - 1) == nonzero(Pn, row), (n, lam)


def test_omega_maps_t1_kschur_to_its_k_conjugate():
    # omega s^(k)_nu(x;1) = s^(k)_{nu^{omega_k}}(x;1) (Lapointe-Morse, JCTA 2005); omega is
    # applied in s: m -> s by the solve on K^T, each label conjugated, then s -> m
    checked = 0
    for n in range(3, 7):
        for d in range(0, 10):
            for nu in bounded_partitions_of(d, n):
                f = kschur(c_map(nu, n), False).in_m().in_s()
                omega_f = SymF("s", d, {conjugate(p): c for p, c in f.terms.items()}).in_m()
                want = kschur(c_map(k_conjugate(nu, n), n), False).in_m()
                assert omega_f.terms == want.terms, (n, nu)
                checked += 1
    assert checked == 237


def test_tpoly_constants_hash_as_their_ints():
    # a t = 1 row holds ints where a t row holds TPoly constants; equal values must hash alike
    for k in range(-2, 3):
        assert TPoly.const(k) == k and hash(TPoly.const(k)) == hash(k), k
        assert len({TPoly.const(k), k}) == 1, k
    assert len({TPoly.zero(), 0}) == 1


def test_first_kschur_and_last_dualk_build_one_kn_column():
    # a k-Schur row reads the columns up to it, a dual k-Schur row those from it on
    for n, d in ((3, 7), (4, 8), (5, 9)):
        P = bounded_partitions_of(d, n)
        for t_on in (True, False):
            for build, lam in ((kschur, P[0]), (dual_kschur, P[-1])):
                for cache in (_kn_column, _kschur_row, _dualk_row):
                    cache.cache_clear()
                build(c_map(lam, n), t_on)
                assert _kn_column.cache_info().currsize == 1, (n, d, t_on, build.__name__)


def test_k_basis_labels_are_unknown():
    # k-Schur functions live in H(x;0,t) or h (see kschur); no SymF carries a k label
    for basis in ("k", "kt1"):
        with pytest.raises(ValueError, match="unknown basis"):
            SymF(basis, 2, {(2,): ONE}, n=3).in_m()


def test_kf_matrix_times_its_inverse_is_identity():
    for d in range(0, 10):
        size = len(partitions_of(d))
        want = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
        assert _matmul(kf_matrix(d), ptilde_to_s_by_inverse(d)) == want
        assert _matmul(ptilde_to_s_by_inverse(d), kf_matrix(d)) == want


def test_dual_kschur_reduction():
    for n in (4, 5, 6):
        for d in range(1, min(n, 5)):
            for lam in bounded_partitions_of(d, n):
                core = c_map(lam, n)
                if core.degree() >= n:
                    continue
                assert dual_kschur(core, True) == schur(lam).in_m()
                assert dual_kschur(core, False) == schur(lam).in_m()
                assert kschur(core, True).in_m() == schur(lam).in_m()
                assert kschur(core, False).in_m() == schur(lam).in_m()


def test_dual_kschur_unitriangular():
    for n in (2, 3, 4):
        for d in range(1, 6):
            for lam in bounded_partitions_of(d, n):
                core = c_map(lam, n)
                f1 = dual_kschur(core, False)
                assert f1.coefficient(lam) == TPoly.one()
                ft = dual_kschur(core, True)
                lead = ft.coefficient(lam)
                assert lead.is_unit() and lead(1) == 1
                for mu in ft.terms:
                    assert dominance_leq(mu, lam)


def test_t1_specialization_commutes_with_basis_change():
    for n in (2, 3, 4):
        for d in range(1, 6):
            for lam in bounded_partitions_of(d, n):
                core = c_map(lam, n)
                assert dual_kschur(core, True).at_t(1) == dual_kschur(core, False)
                assert kschur(core, True).in_m().at_t(1) == kschur(core, False).in_m()


def test_duality_pairing():
    for n in (2, 3, 4):
        for d in range(1, 6):
            for lam in bounded_partitions_of(d, n):
                for nu in bounded_partitions_of(d, n):
                    v = hall_pairing(
                        dual_kschur(c_map(lam, n), True),
                        kschur(c_map(nu, n), True).in_m(),
                    )
                    want = TPoly.one() if lam == nu else TPoly.zero()
                    assert v == want


def test_h0t_expands_in_kschur_with_weak_kf_coefficients():
    for n in (2, 3):
        for d in range(1, 5):
            for mu in bounded_partitions_of(d, n):
                acc = None
                for lam in bounded_partitions_of(d, n):
                    c = weak_kostka_foulkes(lam, mu, n)
                    if c == 0:
                        continue
                    term = kschur(c_map(lam, n), True).in_m().map_coeffs(lambda v: v * c)
                    acc = term if acc is None else acc + term
                assert acc == h0t_in_m(mu)


def test_matrices_square_with_unit_diagonals():
    for d in range(1, 6):
        P = partitions_of(d)
        K = kf_matrix(d)
        assert len(K) == len(P) and all(len(row) == len(P) for row in K)
        for i, lam in enumerate(P):
            assert K[i][i] == TPoly.t(n_stat(lam))
    for n in (3, 4):
        for d in range(1, 6):
            Kn = kn_matrix(n, d)
            Pn = bounded_partitions_of(d, n)
            assert len(Kn) == len(Pn)
            for i in range(len(Pn)):
                assert Kn[i][i].is_unit()


def test_multiplication_matches_polynomial_expansion():
    cases = [((2, 1), (1, 1)), ((2,), (2,)), ((1, 1), (1,)), ((3,), (2, 1))]
    for a, b in cases:
        nvars = sum(a) + sum(b)
        lhs = expand_symf(multiply(m_sym(a), m_sym(b)), nvars)
        rhs = expand_symf(m_sym(a), nvars) * expand_symf(m_sym(b), nvars)
        assert lhs == rhs


def test_at_t1_commutes_with_in_m_for_every_basis():
    # at t = 1, H0t becomes h, ptilde becomes m and dualk becomes dualkt1
    assert SymF("ptilde", 3, {(2, 1): 1}).at_t(1).in_m().terms == {(2, 1): ONE}
    for d in range(0, 6):
        for basis in ("m", "s", "h", "ptilde", "H0t", "dualk", "dualkt1"):
            n = 4 if basis.startswith("dualk") else None
            P = bounded_partitions_of(d, n) if n else partitions_of(d)
            f = SymF(basis, d, {p: TPoly({-1: i, 0: 1, 2: -i}) for i, p in enumerate(P)}, n)
            assert f.at_t(1).in_m().terms == f.in_m().at_t(1).terms, (basis, d)


def test_at_t_commutes_with_in_m_off_one():
    # off t = 1 a t-dependent basis has no value, so at_t evaluates its
    # m-expansion; where that has a negative t-power, both orders raise
    def outcome(value):
        try:
            return value().terms
        except ValueError:
            return ValueError

    evaluated = 0
    for basis, n, values in (("H0t", None, (2, -1)), ("dualk", 4, (2, -1)), ("ptilde", None, (-1,))):
        for d in range(0, 6):
            P = bounded_partitions_of(d, n) if n else partitions_of(d)
            f = SymF(basis, d, {p: TPoly({0: 1, 1: i}) for i, p in enumerate(P)}, n)
            for v in values:
                got = outcome(lambda: f.at_t(v).in_m())
                assert got == outcome(lambda: f.in_m().at_t(v)), (basis, d, v)
                evaluated += got is not ValueError
                if got is not ValueError:
                    assert f.at_t(v).basis == "m"
    assert evaluated == 28  # all but dualk at t = 2 in degrees 4 and 5
    with pytest.raises(ValueError):
        SymF("ptilde", 3, {(2, 1): 1}).at_t(2)


def test_multiplication_commutes_with_t1():
    f = ptilde_in_m((2, 1))
    g = ptilde_in_m((1, 1))
    assert multiply(f, g).at_t(1) == multiply(f.at_t(1), g.at_t(1))


def test_symf_validation():
    with pytest.raises(ValueError):
        SymF("m", 3, {(2, 1): TPoly.one(), (1, 1): TPoly.one()})
