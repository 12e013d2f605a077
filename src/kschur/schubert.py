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
sets, and only the public checkers render them as bounded partitions.
Affine Monk and rect-Pieri are one family, mu_{r,b} = (r^{n-1-r}, r-b):
each product is built per (r, b) (`_pieri_product`), each strip reading
walked once per (lam, r) (`_pieri_readings`), and affine Monk is the
b = 1 slice, read at depth 1.
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
    _rect_shift,
    _shifted,
    _transposed,
    _weak_pieri_terms,
    c_inverse,
    c_map,
    conjugate,
    normalize,
)
from .strips import (
    _marked_covers,
    _marked_tail_levels,
    _marked_top,
    _ribbon_levels,
    horizontal_strong_strips_from,
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
    marked covers, sorted once per core (`strips._marked_covers`), are
    read once per step, not once per chain.
    """
    if not 1 <= m < lam.n:
        raise ValueError(f"need 1 <= m < n, got m={m}")
    layer = {lam: {float("-inf"): 1}}  # the first step may take any content
    for _ in range(m):
        nxt: dict = {}
        for cur, by_content in layer.items():
            for gamma, c in _marked_covers(cur):
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
    window shift, their `rect_translation`s added up.  omega is a ring
    automorphism with omega s^(k)_mu = s^(k)_{mu^omega}, the k-conjugate
    read off the transposed core (Lapointe-Morse, JCTA 2005), so
    c^nu_{mu, lam} = c^{nu^omega}_{mu^omega, lam^omega}: when mu^omega
    has fewer parts than mu, its shorter h-row walks lam^omega and each
    term is transposed back.  Callers must not change the cached dict.
    """
    mu_b, mu_rects = _peel(mu_b, n)
    lam_b, lam_rects = _peel(lam_b, n)
    rects = mu_rects + lam_rects
    mu_b, lam_b = sorted((mu_b, lam_b), key=sum)
    lam = _core_of_bounded(lam_b, n)  # the callers checked both factors
    mu_omega = c_inverse(_transposed(_core_of_bounded(mu_b, n)))
    if len(mu_omega) < len(mu_b):
        prod = _h_times(_kschur_row(n, mu_omega, False).items(), _transposed(lam))
        prod = {_transposed(nu): c for nu, c in prod.items()}
    else:
        prod = _h_times(_kschur_row(n, mu_b, False).items(), lam)
    if not rects:
        return prod
    shift = _rect_shift(n, rects)
    return {_shifted(nu, shift): c for nu, c in prod.items()}


def homology_structure_constants(mu: NCore, lam: NCore) -> dict:
    """Coefficients c^nu in xi_mu xi_lam = sum c^nu xi_nu, keyed on the cores nu.

    A copy of the cached product, so a caller may change it.  Its order
    is that of the route the product took (direct or k-conjugate), so a
    caller sorts before it renders."""
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


def _bounded_json(cores) -> list:
    """The bounded partitions of cores as lists, lex descending."""
    return [list(p) for p in sorted(map(c_inverse, cores), reverse=True)]


def _verdict(lhs: dict, rhs) -> bool:
    """A conjecture holds on an instance iff every coefficient is 1 and the two core sets are equal."""
    return lhs.keys() == rhs and all(c == 1 for c in lhs.values())


def _pieri_product(r: int, b: int, lam, n: int) -> dict:
    """xi_{mu_{r,b}} xi_lam as {core: c}, mu_{r,b} = (r^{n-1-r}, r-b); r, b and lam checked by the caller."""
    return _structure_constants(n, normalize((r,) * (n - 1 - r) + (r - b,)), lam)


def _pieri_readings(r: int, lam, n: int, depth: int, tails: bool) -> list:
    """Per b = 1..depth, the cores where the ribbon and marked-tail chains of length b below R(r, lam) end.

    R(r, lam) and col_r are built once and each reading walked once, as
    layer b is what a walk cut at b finds; without tails the marked-tail
    reading is not walked and its sets are empty.  lam is checked by the
    caller.
    """
    top, columns = _marked_top(_core_of_bounded(lam, n), r)
    ribbons = _ribbon_levels(top, columns, depth)
    marked = _marked_tail_levels(top, columns, depth) if tails else {}
    return [(ribbons.get(b, {}).keys(), marked.get(b, set())) for b in range(1, depth + 1)]


def _pieri_report(conjecture: str, r: int, b: int, lam, n: int, ribbons) -> dict:
    """xi_{mu_{r,b}} xi_lam against the ribbon strip ends of length b, bounded, lex descending."""
    lhs = _pieri_product(r, b, lam, n)
    terms = sorted(((c_inverse(nu), c) for nu, c in lhs.items()), reverse=True)
    return {
        "conjecture": conjecture,
        "n": n,
        "r": r,
        "lambda": list(lam),
        "match": _verdict(lhs, ribbons),
        "lhs": [[list(p), c] for p, c in terms],
        "rhs": _bounded_json(ribbons),
    }


def affine_monk_check(r: int, lam, n: int) -> dict:
    """Both sides of the affine Monk conjecture for xi_{R'_r} xi_lam, R'_r = mu_{r,1}.

    The b = 1 slice of the rect-Pieri sides: by the closing length-one
    proposition the ribbon strips of length 1 below R(r, lam) end at the
    covers of R(r, lam) that drop a row where lam union R_r has length r.
    """
    lam = normalize(lam)
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}")
    c_map(lam, n)  # checks lam
    ribbons, _tails = _pieri_readings(r, lam, n, 1, False)[0]
    return _pieri_report("affine-monk", r, 1, lam, n, ribbons)


def rect_pieri_check(r: int, b: int, lam, n: int) -> dict:
    """xi_{(r^{n-1-r}, r-b)} xi_lam against ribbon strong strips and marked tails, both walked to depth b."""
    lam = normalize(lam)
    if not 1 <= b < r < n:
        raise ValueError(f"need 1 <= b < r < n, got r={r}, b={b}")
    c_map(lam, n)  # checks lam
    ribbons, tails = _pieri_readings(r, lam, n, b, True)[-1]
    return {
        **_pieri_report("rect-pieri", r, b, lam, n, ribbons),
        "b": b,
        "strong_strip_reading": _bounded_json(tails),
        "readings_agree": ribbons == tails,
    }
