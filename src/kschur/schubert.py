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
put back on each term, by the k-rectangle property
s^(k)_{R_r union mu} = s_{R_r} s^(k)_mu.
The weak (cyclically decreasing) and horizontal strong strip Pieri
rules are implemented independently and must agree.

On the finite side, sh maps a permutation of S_n to a partition with
parts < n; the quantum Monk formula and the identification of
Gromov-Witten invariants with structure constants c^eta give the
cross-validation targets for the affine Monk and rectangle-Pieri
conjecture checkers.  sh is computed once per permutation and eta
once per (permutation, d); validation stays at the public boundary.
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
    _weak_pieri_terms,
    c_inverse,
    c_map,
    conjugate,
    normalize,
    rect,
    rect_translation,
    strong_covers_down,
    union,
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

    Returns (peeled, removed): the parts left, which contain no R_r, and
    the removed parts, a union of rectangles; both descending.
    """
    peeled, removed = [], []
    for part, run in groupby(bounded):
        count = len(list(run))
        keep = count % (n - part)
        peeled += [part] * keep
        removed += [part] * (count - keep)
    return tuple(peeled), tuple(removed)


@lru_cache(maxsize=None)
def _structure_constants(n: int, mu_b, lam_b) -> tuple:
    """xi_mu xi_lam = sum_a [h_a]s^(k)_mu(1) h_a xi_lam, mu the lower degree.

    By the k-rectangle property s^(k)_{R_r union mu} = s_{R_r} s^(k)_mu,
    c^{R union nu}_{R union mu, lam} = c^nu_{mu, lam}: the rectangles of
    both factors are peeled off first and put back on every nu.
    """
    mu_b, mu_rects = _peel(mu_b, n)
    lam_b, lam_rects = _peel(lam_b, n)
    rects = mu_rects + lam_rects
    mu_b, lam_b = sorted((mu_b, lam_b), key=sum)
    lam = _core_of_bounded(lam_b, n)  # the callers checked both factors
    prod = _h_times(_kschur_row(n, mu_b, False).items(), lam)
    return tuple(sorted(((union(c_inverse(nu), rects), c) for nu, c in prod.items()), reverse=True))


def homology_structure_constants(mu: NCore, lam: NCore) -> dict:
    """Coefficients c^nu in xi_mu xi_lam = sum c^nu xi_nu (cores as keys)."""
    if mu.n != lam.n:
        raise ValueError("mismatched moduli")
    n = mu.n
    return {
        c_map(nu, n): c
        for nu, c in _structure_constants(n, c_inverse(mu), c_inverse(lam))
    }


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
    if sum(eta) != sum(sh_u) + sum(sh_v):
        return 0
    return next((c for nu, c in _structure_constants(n, sh_u, sh_v) if nu == eta), 0)


@lru_cache(maxsize=None)
def _gw_eta(w: tuple, d: tuple):
    """eta of <., ., w>_d, or None for invalid column data; checks w, then d.

    A raise is not cached, so a bad d raises on every call."""
    check_permutation(w)
    n = len(w)
    if len(d) != n - 1 or any(x < 0 for x in d):
        raise ValueError("d must have n-1 nonnegative entries")
    return _eta_of_monk_term(perm_mult(w0(n), w), d)


# -- conjecture checkers -----------------------------------------------------


def _pad(parts, length):
    return tuple(parts) + (0,) * (length - len(parts))


def monk_cover_terms(r: int, lam, n: int):
    """Covers of R(r, lam) dropping a row where lam union R_r has length r."""
    core = c_map(lam, n)
    top = rect_translation(core, r)
    eta = union(lam, rect(r, n))
    rows = {i for i, p in enumerate(eta, start=1) if p == r}
    out = []
    for mu, _ribbons, _tau in strong_covers_down(top):
        mu_p = _pad(mu.parts, len(top.parts))
        if any(mu_p[i - 1] < top.parts[i - 1] for i in rows):
            out.append(c_inverse(mu))
    return sorted(out, reverse=True)


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
    base = _pad(conjugate(_sh(term_perm)), n - 1)
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
    R_r), and peeling the rectangles recovers the affine term nu.
    Multiple or missing d-vectors are reported as found.
    """
    lam = normalize(lam)
    w = sh_preimage(lam, n)
    if w is None:
        return None
    others = Counter(p for p in box_shape(n) if p != r)  # each R_rr, rr != r, once
    out: dict = {}
    for term, d in quantum_monk(r, w):
        eta = _eta_of_monk_term(term, d)
        if eta is None:
            continue
        peeled, removed = _peel(eta, n)
        rects = Counter(removed)
        if rects >= others:
            nu = union(peeled, tuple((rects - others).elements()))
            out.setdefault(nu, []).append(d)
    return out


def affine_monk_check(r: int, lam, n: int) -> dict:
    """Both sides of the affine Monk conjecture for xi_{R'_r} xi_lam."""
    lam = normalize(lam)
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}")
    rp = normalize((r,) * (n - r - 1) + (r - 1,))
    rhs = monk_cover_terms(r, lam, n)
    lhs = _structure_constants(n, rp, lam)
    match = [p for p, c in lhs if c == 1] == rhs and all(c == 1 for _, c in lhs)
    return {
        "conjecture": "affine-monk",
        "n": n,
        "r": r,
        "lambda": list(lam),
        "match": match,
        "lhs": [[list(p), c] for p, c in lhs],
        "rhs": [list(p) for p in rhs],
    }


def rect_pieri_check(r: int, b: int, lam, n: int) -> dict:
    """xi_{(r^{n-1-r}, r-b)} xi_lam against ribbon strong strips."""
    lam = normalize(lam)
    if not 1 <= b < r < n:
        raise ValueError(f"need 1 <= b < r < n, got r={r}, b={b}")
    mu = normalize((r,) * (n - 1 - r) + (r - b,))
    core = c_map(lam, n)
    lhs = _structure_constants(n, mu, lam)
    # R(r, core) and col_r built once for both readings; each walk serves every b < r
    top, columns = _marked_top(core, r)
    rhs = sorted(map(c_inverse, _ribbon_levels(top, columns, r - 1).get(b, ())), reverse=True)
    tails = _marked_tail_levels(top, columns, r - 1).get(b, ())
    tail_reading = sorted(map(c_inverse, tails), reverse=True)
    match = [p for p, c in lhs if c == 1] == rhs and all(c == 1 for _, c in lhs)
    return {
        "conjecture": "rect-pieri",
        "n": n,
        "r": r,
        "b": b,
        "lambda": list(lam),
        "match": match,
        "lhs": [[list(p), c] for p, c in lhs],
        "rhs": [list(p) for p in rhs],
        "strong_strip_reading": [list(p) for p in tail_reading],
        "readings_agree": rhs == tail_reading,
    }
