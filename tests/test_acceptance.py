"""Acceptance criteria: exact reproduction of the worked examples plus
the property sweeps, one test per criterion, one PASS line each."""

import time
from itertools import permutations

from kschur.abctab import ABC, count_affine_factorizations, enumerate_abc
from kschur.affine import cyclically_decreasing_of_length
from kschur.cores import (
    NCore,
    c_inverse,
    c_map,
    core_of,
    cores_of_degree,
    dominance_leq,
    w_core,
)
from kschur.schubert import (
    affine_monk_check,
    gw_invariant,
    horizontal_pieri,
    quantum_monk,
    rect_pieri_check,
    strong_pieri_cohomology,
    weak_pieri,
)
from kschur.strips import (
    horizontal_strong_strips_from,
    phi,
    psi,
    ribbon_strong_strips,
    strong_strips,
)
from kschur.symfun import (
    bounded_partitions_of,
    dual_kschur,
    hall_pairing,
    h0t_in_m,
    kschur,
    partitions_of,
    ptilde_in_m,
    schur,
    weak_kostka_foulkes,
)
from kschur.tableaux import cocharge, cocharge_index_vectors, kostka_foulkes
from kschur.tpoly import TPoly

from oracles import (
    expand_symf,
    is_horizontal_strong_strip,
    monk_covers,
    ptilde_oracle,
    saturated_chains,
    tableau_from_rows,
)
from test_schubert import strong_pieri_oracle


def _report(number, text, t0):
    print(f"\nACCEPTANCE {number:>2} PASS ({time.time() - t0:5.1f}s): {text}")


def compositions(total, n):
    if total == 0:
        yield ()
        return
    for first in range(1, min(total, n - 1) + 1):
        for rest in compositions(total - first, n):
            yield (first,) + rest


def test_criterion_01_chains_and_strip():
    t0 = time.time()
    nu, gamma = NCore(4, (3,)), NCore(4, (4, 1, 1))
    assert len(saturated_chains(nu, gamma)) == 2
    strips = strong_strips(nu, gamma, 2)
    assert len(strips) == 1 and strips[0].contents == (-1, 3)
    _report(1, "2 saturated chains (3)->(4,1,1), one strong 2-strip, c=(-1,3)", t0)


def test_criterion_02_horizontal_strips():
    t0 = time.time()
    lam = NCore(4, (3, 1, 1))
    got = {s.nu.parts: s.contents for s in horizontal_strong_strips_from(lam, 2)}
    assert got == {(3, 1, 1, 1): (3, 5), (4, 1, 1): (4, 5), (3, 2, 1): (4, 5)}
    assert not is_horizontal_strong_strip(NCore(4, (1, 1)), NCore(4, (3,)))
    _report(2, "horizontal strong 2-strips of (3,1,1) with content vectors", t0)


def test_criterion_03_prop_main_sweep():
    t0 = time.time()
    checked = 0
    for n in (2, 3, 4, 5):
        for d in range(0, 8):
            for lam in cores_of_degree(n, d):
                w = w_core(lam)
                for m in range(0, n):
                    strips = horizontal_strong_strips_from(lam, m)
                    hss = {s.nu.parts for s in strips}
                    weak = set()
                    for _word, v in cyclically_decreasing_of_length(n, n - 1 - m):
                        u = v * w
                        if u.length() == w.length() + n - 1 - m and u.is_grassmannian():
                            weak.add(core_of(u).parts)
                    assert hss == weak, (n, lam.parts, m)
                    for s in strips:
                        assert phi(psi(s), lam) == s
                        checked += 1
    _report(3, f"strip/word correspondence + psi/phi identity on {checked} strips", t0)


def test_criterion_04_theta_bijection_counts():
    t0 = time.time()
    pairs = 0
    for n in (2, 3, 4, 5):
        for d in range(0, 8):
            for lam in cores_of_degree(n, d):
                w = w_core(lam)
                for alpha in compositions(d, n):
                    na = len(enumerate_abc(lam, alpha))
                    nf = count_affine_factorizations(w, alpha)
                    assert na == nf, (n, lam.parts, alpha, na, nf)
                    pairs += 1
    _report(4, f"|ABC| equals affine factorization counts on {pairs} pairs", t0)


def test_criterion_05_countertableau_chain():
    t0 = time.time()
    abcs = enumerate_abc(NCore(6, (4, 3)), (3, 3, 1))
    mu_chains = [tuple(tuple(m) for m in a.mu_chain()) for a in abcs]
    assert ((4, 3), (9, 4, 2), (9, 8, 3), (9, 8, 5)) in mu_chains
    _report(5, "n=6 countertableau chain emitted by enumerate_abc((4,3),(3,3,1))", t0)


def test_criterion_06_cocharge_examples():
    t0 = time.time()
    tab = tableau_from_rows([[1, 1, 1, 2, 3, 7], [2, 2, 3, 5], [3, 4], [4, 5], [6]])
    assert cocharge(tab) == 25
    assert cocharge_index_vectors(tab) == [
        [0, 1, 2, 3, 3, 4, 4],
        [0, 1, 1, 2, 3],
        [0, 0, 1],
    ]
    standard = ABC(
        4,
        [
            NCore(4, p)
            for p in [
                (), (1,), (2,), (2, 1), (3, 1, 1), (3, 2, 1), (3, 3, 1, 1),
                (3, 3, 1, 1, 1),
            ]
        ],
    )
    assert standard.index_vectors() == [[0, 0, 1, 1, 2, 2, 3]]
    weighted = ABC(6, [NCore(6, p) for p in [(), (3,), (4, 2), (6, 3, 2), (6, 3, 2, 1)]])
    assert weighted.index_vectors() == [[0, 1, 1, 2], [0, 1, 1], [0, 0, 1]]
    _report(6, "cocharge-25 tableau and both ABC index-vector families", t0)


def test_criterion_07_symmetry_and_unitriangularity():
    t0 = time.time()
    for n in (2, 3, 4, 5):
        for d in range(1, 7):
            for lam in bounded_partitions_of(d, n):
                core = c_map(lam, n)
                # coefficient of x^alpha depends only on the sorted weight
                for mu in bounded_partitions_of(d, n):
                    base = len(enumerate_abc(core, mu))
                    for alpha in set(permutations(mu)):
                        assert len(enumerate_abc(core, alpha)) == base
                # leading coefficient one at t=1, and a unit generically
                assert dual_kschur(core, False).coefficient(lam) == TPoly.one()
                lead = dual_kschur(core, True).coefficient(lam)
                assert lead.is_unit() and lead(1) == 1
                for mu in bounded_partitions_of(d, n):
                    if not dominance_leq(mu, lam):
                        assert weak_kostka_foulkes(lam, mu, n) == 0
    _report(7, "weight-rearrangement symmetry, unitriangularity, Kn support", t0)


def test_criterion_08_reduction_below_n():
    t0 = time.time()
    for n in (2, 3, 4, 5, 6):
        for d in range(1, 6):
            for lam in bounded_partitions_of(d, n):
                core = c_map(lam, n)
                if core.degree() >= n:
                    continue
                want = schur(lam).in_m()
                assert dual_kschur(core, True) == want
                assert kschur(core, True).in_m() == want
                for mu in bounded_partitions_of(d, n):
                    assert weak_kostka_foulkes(lam, mu, n) == kostka_foulkes(lam, mu)
                    for abc in enumerate_abc(core, mu):
                        assert abc.off() == 0
    _report(8, "deg < n: both bases reduce to s_lam, Kn = K, off = 0", t0)


def test_criterion_09_duality_and_h_expansion():
    t0 = time.time()
    for n in (2, 3, 4):
        for d in range(1, 7):
            Pn = bounded_partitions_of(d, n)
            duals = {lam: dual_kschur(c_map(lam, n), True) for lam in Pn}
            ks = {nu: kschur(c_map(nu, n), True).in_m() for nu in Pn}
            for lam in Pn:
                for nu in Pn:
                    want = TPoly.one() if lam == nu else TPoly.zero()
                    assert hall_pairing(duals[lam], ks[nu]) == want
            for mu in Pn:
                h = h0t_in_m(mu)
                for lam in Pn:
                    assert hall_pairing(duals[lam], h) == weak_kostka_foulkes(
                        lam, mu, n
                    )
    _report(9, "Hall duality delta and H(x;0,t) coefficients exactly Kn(t)", t0)


def test_criterion_10_ptilde_oracle():
    t0 = time.time()
    for d in range(1, 5):
        for mu in partitions_of(d):
            assert ptilde_oracle(mu, 4) == expand_symf(ptilde_in_m(mu), 4), mu
    _report(10, "Ptilde from K(t) inversion matches exact symmetrization", t0)


def test_criterion_11_pieri_triple_agreement():
    t0 = time.time()
    for n in (2, 3, 4, 5):
        for d in range(0, 8):
            for lam in cores_of_degree(n, d):
                for m in range(1, n):
                    assert weak_pieri(m, lam) == horizontal_pieri(m, lam)
    for n in (2, 3, 4):
        for d in range(0, 7):
            for lam in cores_of_degree(n, d):
                for m in range(1, n):
                    got = {
                        c_inverse(c): v
                        for c, v in strong_pieri_cohomology(m, lam).items()
                    }
                    assert got == strong_pieri_oracle(m, lam), (n, lam.parts, m)
    _report(11, "weak = horizontal everywhere; strong = quotient products", t0)


def test_criterion_12_monk_suite():
    t0 = time.time()
    # the n=5 affine Monk instance, both sides
    rep = affine_monk_check(3, (3, 2, 1, 1), 5)
    assert rep["match"]
    assert rep["rhs"] == [[4, 2, 2, 2, 1, 1], [3, 3, 3, 1, 1, 1], [3, 3, 2, 2, 1, 1]]
    # quantum Monk: three terms with monomials 1, q3, q3 q4
    terms = quantum_monk(3, (4, 2, 5, 3, 1))
    assert sorted(terms) == sorted(
        [
            ((4, 3, 5, 2, 1), (0, 0, 0, 0)),
            ((4, 2, 3, 5, 1), (0, 0, 1, 0)),
            ((4, 2, 1, 3, 5), (0, 0, 1, 1)),
        ]
    )
    assert gw_invariant(
        (1, 2, 4, 3, 5), (4, 2, 5, 3, 1), (2, 4, 3, 1, 5), (0, 0, 1, 0)
    ) == 1
    # affine Monk sweep: all n <= 5, |lambda| <= 8, every r
    instances = 0
    for n in (2, 3, 4, 5):
        for size in range(0, 9):
            for lam in bounded_partitions_of(size, n):
                for r in range(1, n):
                    out = affine_monk_check(r, lam, n)
                    assert out["match"], (n, r, lam, out)
                    instances += 1
    # the n=5 rectangle instance, 3 terms both sides
    rep = rect_pieri_check(3, 2, (4, 2), 5)
    assert rep["match"] and len(rep["lhs"]) == 3
    # closing length-one proposition, both directions, against the one-cover scan
    for n in range(2, 9):
        for size in range(0, 11):
            for lam in bounded_partitions_of(size, n):
                for r in range(1, n):
                    core = c_map(lam, n)
                    got = sorted((c_inverse(s.nu) for s in ribbon_strong_strips(core, r, 1)), reverse=True)
                    assert got == monk_covers(r, lam, n), (n, r, lam)
    _report(12, f"Monk example suite + affine Monk sweep ({instances} instances)", t0)
