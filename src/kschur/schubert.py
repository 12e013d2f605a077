"""Pieri rules, homology structure constants, and the quantum Monk side.

The homology product is computed in the nilCoxeter model, where h_m
acts by the weak Pieri rule, read off the cyclic runs of each m-subset
of Z/n on the core window (`cores._weak_pieri_terms`).  With
s^(k)_mu(1) = sum_a c_a h_a for the lower-degree factor,
xi_mu xi_lam = sum_a c_a h_{a_1}...h_{a_l} xi_lam (Lam, JAMS 2008),
applied as one Horner walk over the signed row (`cores._h_times`).
The row c is an integer column of Kn(1)^{-1} (`symfun._kschur_row` at t = 1),
and column a of Kn(1) is h_a xi_empty, so weak Pieri gives both.
Every k-rectangle R_r = (r^{n-r}) is first peeled off both factors and
put back on each term's window by one shift, the `cores.rect_translation`
of every rectangle at once, by the k-rectangle property
s^(k)_{R_r union mu} = s_{R_r} s^(k)_mu.  Products are keyed on cores
from the Horner walk to the verdict: a conjecture's two sides are core
sets (`_affine_monk_sides`, `_rect_pieri_sides`), and only the public
checkers render them as bounded partitions.
The weak (cyclically decreasing) and horizontal strong strip Pieri
rules are implemented independently and must agree.

On the finite side, sh maps a permutation of S_n to a partition with
parts < n; the quantum Monk formula and the identification of
Gromov-Witten invariants with structure constants c^eta give the
cross-validation targets for the affine Monk and rectangle-Pieri
conjecture checkers.  sh is computed once per permutation and eta, with
its core and degree, once per (permutation, d); validation stays at the
public boundary.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import groupby, permutations
from math import comb

from .cores import (
    NCore,
    _core_of_bounded,
    _h_times,
    _rect_rows,
    _rect_shift,
    _shifted,
    _weak_pieri_terms,
    c_inverse,
    c_map,
    conjugate,
    normalize,
    rect_translation,
    strong_covers_down,
)
from .strips import (
    _marked_tail_levels,
    _marked_top,
    _ribbon_levels,
    horizontal_strong_strips_from,
    marked_strong_covers,
)
from .symfun import _kschur_row


# -- affine Pieri rules ---------------------------------------------------


def weak_pieri(m: int, lam: NCore) -> dict:
    """xi_{c_{0,m}} xi_lam via cyclically decreasing left factors."""
    if not 1 <= m < lam.n:
        raise ValueError(f"need 1 <= m < n, got m={m}")
    return dict.fromkeys(_weak_pieri_terms(m, lam), 1)


def horizontal_pieri(m: int, lam: NCore) -> dict:
    """The same product as a sum over horizontal strong (n-1-m)-strips."""
    n = lam.n
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}")
    return {s.nu: 1 for s in horizontal_strong_strips_from(lam, n - 1 - m)}


def strong_pieri_cohomology(m: int, lam: NCore) -> dict:
    """xi^{c_{0,m}} xi^lam: multiplicity = number of strong m-strips.

    Counted a step at a time, per (core, last content), so each core's
    marked covers are read once per step, not once per chain.
    """
    if not 1 <= m < lam.n:
        raise ValueError(f"need 1 <= m < n, got m={m}")
    layer = {lam: {float("-inf"): 1}}  # the first step may take any content
    for _ in range(m):
        nxt: dict = {}
        for cur, by_content in layer.items():
            for gamma, c in marked_strong_covers(cur):
                count = sum(k for last, k in by_content.items() if last < c)
                if count:
                    tally = nxt.setdefault(gamma, {})
                    tally[c] = tally.get(c, 0) + count
        layer = nxt
    return {core: sum(by_content.values()) for core, by_content in layer.items()}


# -- homology structure constants -----------------------------------------


def _peel(bounded, n: int):
    """Split every k-rectangle R_r = (r^{n-r}) off a bounded partition.

    Returns (peeled, rects): the parts left, which contain no R_r, and
    one r for each R_r removed; both descending.
    """
    peeled, rects = [], []
    for part, run in groupby(bounded):
        copies, keep = divmod(len(list(run)), n - part)
        peeled += [part] * keep
        rects += [part] * copies
    return tuple(peeled), tuple(rects)


@lru_cache(maxsize=None)
def _structure_constants(n: int, mu_b, lam_b) -> dict:
    """xi_mu xi_lam = sum_a [h_a]s^(k)_mu(1) h_a xi_lam as {core nu: c^nu}, mu the lower degree.

    By the k-rectangle property s^(k)_{R_r union mu} = s_{R_r} s^(k)_mu,
    c^{R union nu}_{R union mu, lam} = c^nu_{mu, lam}: the rectangles of
    both factors are peeled off first and put back on every nu by one
    window shift, their `rect_translation`s added up.  Callers must not
    change the cached dict.
    """
    mu_b, mu_rects = _peel(mu_b, n)
    lam_b, lam_rects = _peel(lam_b, n)
    rects = mu_rects + lam_rects
    mu_b, lam_b = sorted((mu_b, lam_b), key=sum)
    lam = _core_of_bounded(lam_b, n)  # the callers checked both factors
    prod = _h_times(_kschur_row(n, mu_b, False).items(), lam)
    if not rects:
        return prod
    shift = _rect_shift(n, rects)
    return {_shifted(nu, shift): c for nu, c in prod.items()}


def homology_structure_constants(mu: NCore, lam: NCore) -> dict:
    """Coefficients c^nu in xi_mu xi_lam = sum c^nu xi_nu, keyed on the cores nu.

    A copy of the cached product, so a caller may change it."""
    if mu.n != lam.n:
        raise ValueError("mismatched moduli")
    return dict(_structure_constants(mu.n, c_inverse(mu), c_inverse(lam)))


# -- finite permutations and the sh map ------------------------------------


def check_permutation(w):
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{w} is not a permutation of 1..{len(w)}")


def perm_length(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def perm_mult(u, v):
    """(u v)(i) = u(v(i))."""
    return tuple(u[v[i] - 1] for i in range(len(v)))


def w0(n: int):
    return tuple(range(n, 0, -1))


def tau_fin(a: int, b: int, n: int):
    """The transposition of S_n swapping a and b, one-line notation."""
    w = list(range(1, n + 1))
    w[a - 1], w[b - 1] = b, a
    return tuple(w)


def inv_vector(u):
    n = len(u)
    return [sum(1 for j in range(i + 1, n) if u[j] < u[i]) for i in range(n)]


def sh_map(w) -> tuple:
    """The partition of the Schubert index: columns C(n-i,2)+inv_i(w0 w)."""
    return _sh(tuple(w))


@lru_cache(maxsize=None)
def _sh(w: tuple) -> tuple:
    """sh_map, checking each permutation once: a raise is not cached."""
    check_permutation(w)
    n = len(w)
    u = perm_mult(w0(n), w)
    inv = inv_vector(u)
    cols = [comb(n - i, 2) + inv[i - 1] for i in range(1, n + 1)]
    return conjugate(normalize(cols))


def box_shape(n: int) -> tuple:
    """The staircase-union shape (n-1, (n-2)^2, ..., 1^{n-1})."""
    parts = []
    for r in range(n - 1, 0, -1):
        parts.extend([r] * (n - r))
    return tuple(parts)


def in_box_family(lam, n: int) -> bool:
    """lam lies in P^n_box: box/lam is a vertical strip."""
    box = box_shape(n)
    lam = tuple(lam) + (0,) * (len(box) - len(lam))
    if len(lam) > len(box):
        return False
    return all(0 <= b - a <= 1 for a, b in zip(lam, box))


# -- quantum Monk -----------------------------------------------------------


def quantum_monk(r: int, w):
    """Terms of sigma_{s_r} * sigma_w as (permutation, d-vector) pairs.

    Classical terms carry the zero vector; the quantum term for
    tau_{c,d} carries ones in slots c..d-1 (the monomial q_c...q_{d-1}).
    """
    check_permutation(w)
    n = len(w)
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}")
    lw = perm_length(w)
    terms = []
    for a in range(1, r + 1):
        for b in range(r + 1, n + 1):
            wt = perm_mult(w, tau_fin(a, b, n))
            if perm_length(wt) == lw + 1:
                terms.append((wt, (0,) * (n - 1)))
            if perm_length(wt) == lw - 2 * (b - a) + 1:
                d = tuple(1 if a <= i < b else 0 for i in range(1, n))
                terms.append((wt, d))
    return sorted(terms)


#: counts calls where the eta column data was not a partition and the
#: 0-convention applied (the identification presupposes validity)
eta_invalid_count = 0


def gw_invariant(u, v, w, d) -> int:
    """The 3-point Gromov-Witten invariant <u, v, w>_d of the flag manifold.

    Realized as the structure constant c^eta_{sh(u), sh(v)}, where eta
    is built from sh(w0 w) by adding
        C(n+1-i, 2) - (n-i+1) d_i + (n-i) d_{i-1}
    cells to column i.  Invalid column data returns 0 (and is counted
    in eta_invalid_count).
    """
    global eta_invalid_count
    n = len(u)
    if len(v) != n or len(w) != n:
        raise ValueError("permutations must share n")
    sh_u, sh_v = _sh(tuple(u)), _sh(tuple(v))
    eta = _gw_eta(tuple(w), tuple(d))
    if eta is None:
        eta_invalid_count += 1
        return 0
    core, degree = eta
    if degree != sum(sh_u) + sum(sh_v):
        return 0
    return _structure_constants(n, sh_u, sh_v).get(core, 0)


@lru_cache(maxsize=None)
def _gw_eta(w: tuple, d: tuple):
    """The core of eta of <., ., w>_d and its degree, or None for invalid column data; checks w, then d.

    eta has at most n - 1 columns, so its parts are below n; its core is
    read off its peeled parts and one window translation per rectangle,
    as the products put theirs back.  A raise is not cached, so a bad d
    raises on every call."""
    check_permutation(w)
    n = len(w)
    if len(d) != n - 1 or any(x < 0 for x in d):
        raise ValueError("d must have n-1 nonnegative entries")
    eta = _eta_of_monk_term(perm_mult(w0(n), w), d)
    if eta is None:
        return None
    peeled, rects = _peel(eta, n)
    return _shifted(_core_of_bounded(peeled, n), _rect_shift(n, rects)), sum(eta)


# -- conjecture checkers -----------------------------------------------------


def _monk_covers(r: int, lam, n: int) -> set:
    """The down covers of R(r, lam) with a ribbon cell in a row where lam union R_r has length r, as cores.

    lam is a checked bounded partition."""
    rows = _rect_rows(lam, r, n)
    top = rect_translation(_core_of_bounded(lam, n), r)
    return {mu for mu, ribbons, _tau in strong_covers_down(top)
            if any(i in rows for comp in ribbons for i, _j in comp)}


def monk_cover_terms(r: int, lam, n: int):
    """Covers of R(r, lam) dropping a row where lam union R_r has length r."""
    c_map(lam, n)  # checks lam
    return _bounded(_monk_covers(r, normalize(lam), n))


@lru_cache(maxsize=None)
def _sh_inverse(n: int) -> dict:
    """sh is injective on S_n: the table lam -> w with sh(w) = lam."""
    return {_sh(w): w for w in permutations(range(1, n + 1))}


def sh_preimage(lam, n: int):
    """The permutation with sh(w) = lam, or None outside the image."""
    return _sh_inverse(n).get(lam)


def _eta_of_monk_term(term_perm, d):
    """eta of the invariant attached to the quantum Monk term sigma_term q^d."""
    n = len(term_perm)
    base = conjugate(_sh(term_perm)) + (0,) * (n - 1)  # padded: cols reads columns 1..n-1
    cols = []
    for i in range(1, n):
        di = d[i - 1]
        dprev = d[i - 2] if i >= 2 else 0
        cols.append(base[i - 1] + comb(n + 1 - i, 2) - (n - i + 1) * di + (n - i) * dprev)
    if any(c < 0 for c in cols) or any(
        cols[i] < cols[i + 1] for i in range(len(cols) - 1)
    ):
        return None
    return conjugate(normalize(cols))


def q_monomials_via_sh(r: int, lam, n: int):
    """dict nu -> d-vectors of the quantum Monk terms matching xi_nu.

    Only defined when lam = sh(w) for some w in S_n; each quantum Monk
    term sigma_{w tau} q^d names eta = nu union (all rectangles except
    R_r), and peeling the rectangles recovers the affine term nu: the
    rest go back on the peeled core by one `_rect_shift`, as in `_gw_eta`.
    Multiple or missing d-vectors are reported as found.
    """
    lam = normalize(lam)
    w = sh_preimage(lam, n)
    if w is None:
        return None
    others = Counter(rr for rr in range(1, n) if rr != r)  # each R_rr, rr != r, once
    out: dict = {}
    for term, d in quantum_monk(r, w):
        eta = _eta_of_monk_term(term, d)
        if eta is None:
            continue
        peeled, rects = _peel(eta, n)
        rects = Counter(rects)
        if rects >= others:
            nu = _shifted(_core_of_bounded(peeled, n), _rect_shift(n, (rects - others).elements()))
            out.setdefault(c_inverse(nu), []).append(d)
    return out


def _bounded(cores) -> list:
    """The bounded partitions of cores, lex descending."""
    return sorted(map(c_inverse, cores), reverse=True)


def _verdict(lhs: dict, rhs) -> bool:
    """A conjecture holds on an instance iff every coefficient is 1 and the two core sets are equal."""
    return lhs.keys() == rhs and all(c == 1 for c in lhs.values())


def _terms_json(lhs: dict) -> list:
    """A product's [bounded nu, c] pairs, lex descending."""
    return [[list(p), c] for p, c in sorted(((c_inverse(nu), c) for nu, c in lhs.items()), reverse=True)]


def _affine_monk_sides(r: int, lam, n: int):
    """xi_{R'_r} xi_lam as {core: c} and the set of `_monk_covers`; r and lam checked by the caller."""
    rp = normalize((r,) * (n - r - 1) + (r - 1,))
    return _structure_constants(n, rp, lam), _monk_covers(r, lam, n)


def affine_monk_check(r: int, lam, n: int) -> dict:
    """Both sides of the affine Monk conjecture for xi_{R'_r} xi_lam."""
    lam = normalize(lam)
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}")
    c_map(lam, n)  # checks lam
    lhs, rhs = _affine_monk_sides(r, lam, n)
    return {
        "conjecture": "affine-monk",
        "n": n,
        "r": r,
        "lambda": list(lam),
        "match": _verdict(lhs, rhs),
        "lhs": _terms_json(lhs),
        "rhs": [list(p) for p in _bounded(rhs)],
    }


def _rect_pieri_sides(r: int, lam, n: int) -> list:
    """Per b = 1..r-1: xi_mu xi_lam as {core: c}, and the ribbon and marked-tail readings as core sets.

    mu = (r^{n-1-r}, r-b); r and lam are checked by the caller.
    R(r, lam) and col_r are built once, and each reading is walked once,
    to depth r - 1, for every b.
    """
    top, columns = _marked_top(_core_of_bounded(lam, n), r)
    ribbons = _ribbon_levels(top, columns, r - 1)
    tails = _marked_tail_levels(top, columns, r - 1)
    return [(_structure_constants(n, normalize((r,) * (n - 1 - r) + (r - b,)), lam),
             ribbons.get(b, {}).keys(), tails.get(b, set())) for b in range(1, r)]


def rect_pieri_check(r: int, b: int, lam, n: int) -> dict:
    """xi_{(r^{n-1-r}, r-b)} xi_lam against ribbon strong strips."""
    lam = normalize(lam)
    if not 1 <= b < r < n:
        raise ValueError(f"need 1 <= b < r < n, got r={r}, b={b}")
    c_map(lam, n)  # checks lam
    lhs, ribbons, tails = _rect_pieri_sides(r, lam, n)[b - 1]
    return {
        "conjecture": "rect-pieri",
        "n": n,
        "r": r,
        "b": b,
        "lambda": list(lam),
        "match": _verdict(lhs, ribbons),
        "lhs": _terms_json(lhs),
        "rhs": [list(p) for p in _bounded(ribbons)],
        "strong_strip_reading": [list(p) for p in _bounded(tails)],
        "readings_agree": ribbons == tails,
    }
