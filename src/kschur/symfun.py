"""Symmetric functions of bounded degree over ZZ[t, t^-1], exactly.

Every basis is expanded against the monomial basis, per degree d, with
partitions of d listed in lex-descending order (a linear extension of
dominance, so all the transition matrices below are triangular with
unit diagonal and invert exactly):

  * s_lam   = sum_mu K_{lam,mu} m_mu                  (Kostka numbers)
  * s_lam   = sum_mu K_{lam,mu}(t) Ptilde_mu          (cocharge KF)
  * Ptilde_lam in m, read off Macdonald's psi-tableaux one weight at a
    time (`tableaux._ptilde_fiber`), with no K(t) inverted
  * H_mu(x;0,t) = sum_lam K_{lam,mu}(t) s_lam
  * dual k-Schur: S_{c(lam)}(x;t) = sum_mu Kn_{lam,mu}(t) Ptilde_mu,
    with Kn(t) the weak Kostka-Foulkes matrix; one row of Kn(t) times
    the bounded Ptilde block, per function asked for
  * k-Schur: the Hall-dual basis, one column of Kn^{-1} each, solved
    lex-smallest first over the columns of Kn it needs (`_inverse_column`,
    which also gives m_to_s from the Kostka fibers).

Every read of Kn(t) or Kn(1) goes through one cached column,
`_kn_column(n, mu, t_on)`.  With t on it is the weak-KF cocharge DP;
at t = 1 it is h_mu xi_empty in the nilCoxeter model of homology (Lam,
JAMS 2008), the one-term row (mu, 1) walked by weak Pieri (`cores._h_times`),
with integer entries, so the t = 1 k-Schur rows are integer too.

Ptilde is the deformation t^{-n(lam)} P_lam(x; 1/t) of Macdonald's
P-function; its monomial expansion genuinely uses negative powers of t,
which is why TPoly is a Laurent type.  Products are computed through
the homogeneous basis, where multiplication is concatenation.
"""

from __future__ import annotations

from functools import lru_cache

from .abctab import _strip_letters, _subword_picks
from .cores import NCore, _h_times, c_inverse, dominance_leq, normalize, union
from .tableaux import _cocharge_fiber, _kf_fiber, _kostka_fiber, _ptilde_fiber
from .tpoly import TPoly

ZERO = TPoly.zero()
ONE = TPoly.one()


@lru_cache(maxsize=None)
def partitions_of(d: int):
    """All partitions of d, lex descending ((d) first)."""
    out = []

    def build(rest, maxpart, cur):
        if rest == 0:
            out.append(tuple(cur))
            return
        for p in range(min(rest, maxpart), 0, -1):
            build(rest - p, p, cur + [p])

    build(d, d, [])
    return tuple(out) if d else ((),)


@lru_cache(maxsize=None)
def bounded_partitions_of(d: int, n: int):
    """Partitions of d with all parts < n, lex descending."""
    return tuple(p for p in partitions_of(d) if not p or p[0] < n)


def _dot(pairs) -> TPoly:
    """sum of a * b over the (a, b) pairs, summed in one exponent -> coefficient dict."""
    acc: dict = {}
    for a, b in pairs:
        for e1, v1 in a.c.items():
            for e2, v2 in b.c.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + v1 * v2
    return TPoly(acc)


def _row_times(row, B):
    """The row vector times the matrix B, skipping the row's zero entries."""
    nz = [(a, Bk) for a, Bk in zip(row, B) if a != 0]
    return [_dot((a, Bk[j]) for a, Bk in nz) for j in range(len(B[0]) if B else 0)]


def _matmul(A, B):
    return [_row_times(Ai, B) for Ai in A]


def _inverse_column(column, nu, t_on: bool) -> dict:
    """Column nu of M^{-1}, M given by dict columns column(mu) = {lam: M_{lam,mu}}; zeros left out.

    M_{lam,mu} is zero unless lam is lex at or above mu, and M_{mu,mu} is a
    unit: +-t^k with t on, +-1 at t = 1, where the entries are ints.  The
    lex-smallest partition still owed is solved next: x_lam = (delta_{lam,nu}
    - sum_mu M_{lam,mu} x_mu) / M_{lam,lam}, one sum over the (x_mu, M_{lam,mu})
    pairs that the solved columns mu handed on.  Only columns of nonzero x are read.
    """
    one, dot = (ONE, _dot) if t_on else (1, lambda pairs: sum(a * b for a, b in pairs))
    x, owed = {}, {nu: []}
    while owed:
        lam = min(owed)
        pairs = owed.pop(lam)
        v = -dot(pairs) if lam != nu else one
        if v == 0:
            continue
        col = column(lam)
        unit = col[lam]
        if not t_on and unit not in (1, -1):
            raise ValueError(f"{unit} is not a unit of ZZ")
        x[lam] = v = v.divide_unit(unit) if t_on else v * unit
        for rho, entry in col.items():
            if rho != lam:
                owed.setdefault(rho, []).append((v, entry))
    return x


def _expand(terms, row_of, cols) -> dict:
    """sum_p c_p * row_of(p), as a dict over the column labels (zeros included)."""
    rows = [(c, row_of(p)) for p, c in terms.items()]
    return {mu: _dot((c, row[j]) for c, row in rows) for j, mu in enumerate(cols)}


def _transpose(M):
    return [list(col) for col in zip(*M)] if M else []


# -- full-degree transition matrices (coefficients of m) -----------------


def _block(P, fiber):
    """Row lam, column mu: fiber(mu) at lam, over the partitions P."""
    cols = [fiber(mu) for mu in P]
    return [[col.get(lam, ZERO) for col in cols] for lam in P]


def _ptilde_block(P):
    """[m_mu] Ptilde_lam over P, lex descending: psi fibers no wider than P's first partition."""
    width = P[0][0] if P and P[0] else 0
    return _block(P, lambda mu: _ptilde_fiber(mu, width))


def _const_block(P, fiber):
    """_block over integer columns fiber(mu), each entry wrapped as a constant."""
    return _block(P, lambda mu: {lam: TPoly.const(c) for lam, c in fiber(mu).items()})


@lru_cache(maxsize=None)
def s_to_m(d: int):
    return _const_block(partitions_of(d), _kostka_fiber)


@lru_cache(maxsize=None)
def m_to_s(d: int):
    """K^{-1}, one integer column per partition, solved over the Kostka fibers."""
    return _const_block(partitions_of(d), lambda mu: _inverse_column(_kostka_fiber, mu, False))


@lru_cache(maxsize=None)
def kf_matrix(d: int):
    """K(t): rows lam, columns mu; upper triangular, diagonal t^{n(lam)}."""
    return _block(partitions_of(d), _kf_fiber)


@lru_cache(maxsize=None)
def ptilde_to_m(d: int):
    """[m_mu] Ptilde_lam: rows lam, columns mu; upper triangular, diagonal t^{-n(lam)}."""
    return _ptilde_block(partitions_of(d))


@lru_cache(maxsize=None)
def h0t_to_m(d: int):
    """H_mu(x;0,t) = sum_lam K_{lam,mu}(t) s_lam, rows mu."""
    return _matmul(_transpose(kf_matrix(d)), s_to_m(d))


@lru_cache(maxsize=None)
def h_to_m(d: int):
    """h_mu = sum_lam K_{lam,mu} s_lam, rows mu."""
    return _matmul(_transpose(s_to_m(d)), s_to_m(d))


@lru_cache(maxsize=None)
def m_to_h(d: int):
    """m -> s -> h; with K the Kostka matrix this is K^{-1} (K^{-1})^T."""
    s_to_h = _transpose(m_to_s(d))
    return _matmul(m_to_s(d), s_to_h)


# -- weak Kostka-Foulkes and the n-restricted matrices --------------------


@lru_cache(maxsize=None)
def _kn_column(n: int, mu, t_on: bool) -> dict:
    """Column mu of Kn(t), or of Kn(1): bounded lam -> Kn_{lam,mu}, zeros left out.

    With t on, the entries come from the DP over the ABCs of weight mu.
    Letter i of ext(A) and step i's share of off(A) read only the i-th
    strip, so the ABCs are grown strip by strip off `_strip_letters`,
    through the cocharge DP of `tableaux._cocharge_fiber` with the core
    as the shape.  The DP needs letter i of ext(A) to have mu_i cells,
    one per letter of psi of the strip, and raises AssertionError if
    not; tests check this for every strip out of a core of degree < 8
    at n = 8, 9, and Kn against the oracle up to n = 7.  At t = 1 the
    column is h_mu xi_empty, read off weak Pieri with no ABC enumerated.
    Checked dominance-triangular: an entry is zero unless mu <= lam.
    """
    empty = NCore(n, ())
    if t_on:

        def grow(lam, a):
            return ((nu, *entry) for nu, entry in _strip_letters(lam, n - 1 - a).items())

        by_core = _cocharge_fiber(mu, empty, grow, _subword_picks)
    else:
        by_core = _h_times(((mu, 1),), empty)
    col = {}
    for core, entry in by_core.items():
        lam = c_inverse(core)
        if not dominance_leq(mu, lam):
            raise AssertionError(f"K^{n} nonzero off the dominance ideal at {lam},{mu}")
        col[lam] = entry
    return col


@lru_cache(maxsize=None)
def weak_kostka_foulkes(lam, mu, n: int) -> TPoly:
    """Kn_{lam,mu}(t) = sum over ABC(c(lam), mu) of t^{n-cocharge}."""
    lam, mu = normalize(lam), normalize(mu)
    if (lam and lam[0] >= n) or (mu and mu[0] >= n):
        raise ValueError(f"parts must be < {n}")
    if sum(lam) != sum(mu):
        return ZERO
    return _kn_column(n, mu, True).get(lam, ZERO)


@lru_cache(maxsize=None)
def kn_matrix(n: int, d: int):
    """Kn(t) over bounded partitions of d, by the weak-KF DP."""
    return _block(bounded_partitions_of(d, n), lambda mu: _kn_column(n, mu, True))


@lru_cache(maxsize=None)
def ptilde_to_m_bounded(n: int, d: int):
    """Rows/columns of ptilde_to_m restricted to bounded partitions, from their fibers alone."""
    return _ptilde_block(bounded_partitions_of(d, n))


@lru_cache(maxsize=None)
def _dualk_row(n: int, lam, t_on: bool):
    """Dual k-Schur row lam in m: row lam of Kn(t) times the bounded Ptilde block, or of Kn(1).

    Row lam is zero off the weights mu <= lam, so only the columns at or after
    lam in lex order are read.  At t = 1 its ints become TPolys, for SymF.in_m.
    """
    d = sum(lam)
    P = bounded_partitions_of(d, n)
    i = P.index(lam)
    row = [0] * i + [_kn_column(n, mu, t_on).get(lam, 0) for mu in P[i:]]
    return _row_times(row, ptilde_to_m_bounded(n, d)) if t_on else [TPoly.const(c) for c in row]


@lru_cache(maxsize=None)
def _kschur_row(n: int, nu, t_on: bool) -> dict:
    """Row nu of the k-Schur functions in H(x;0,t), or in h at t=1: column nu of Kn^{-1}.

    A dict mu -> coefficient, zeros left out; at t = 1 the coefficients
    are ints.  The solve reads only columns of Kn at or lex above nu.
    """
    return _inverse_column(lambda mu: _kn_column(n, mu, t_on), nu, t_on)


# -- symmetric function values -------------------------------------------

#: H_mu(x;0,1) = h_mu, Ptilde_lam(x;1) = m_lam, and the dual k-Schur basis at t = 1
_AT_T1 = {"H0t": "h", "ptilde": "m", "dualk": "dualkt1"}


class SymF:
    """A homogeneous symmetric function as a basis-tagged expansion."""

    __slots__ = ("basis", "degree", "terms", "n")

    def __init__(self, basis: str, degree: int, terms, n: int | None = None):
        self.basis = basis
        self.degree = degree
        self.n = n
        self.terms = {
            normalize(p): c if isinstance(c, TPoly) else TPoly.const(c)
            for p, c in terms.items()
            if c != 0
        }
        bounded = basis in ("dualk", "dualkt1")
        if bounded and not isinstance(n, int):
            raise ValueError(f"basis {basis} needs an integer n, not {n!r}")
        for p in self.terms:
            if sum(p) != degree:
                raise ValueError(f"{p} does not have degree {degree}")
            if bounded and p and p[0] >= n:
                raise ValueError(f"{p} has a part >= n = {n}, so it labels no {basis} function")

    def __eq__(self, other):
        return (
            isinstance(other, SymF)
            and self.degree == other.degree
            and self.in_m().terms == other.in_m().terms
        )

    def __repr__(self):
        inside = ", ".join(f"{list(p)}: {c}" for p, c in sorted(self.terms.items(), reverse=True))
        return f"SymF({self.basis}[{self.degree}], {{{inside}}})"

    def coefficient(self, p) -> TPoly:
        return self.terms.get(normalize(p), ZERO)

    def map_coeffs(self, f) -> "SymF":
        return SymF(self.basis, self.degree, {p: f(c) for p, c in self.terms.items()}, self.n)

    def at_t(self, value: int) -> "SymF":
        """Coefficients at t = value; a t-dependent basis is renamed at t = 1, else expanded in m."""
        f = self.in_m() if value != 1 and self.basis in _AT_T1 else self
        f = f.map_coeffs(lambda c: c(value))
        if value == 1:
            f.basis = _AT_T1.get(f.basis, f.basis)
        return f

    def __add__(self, other: "SymF") -> "SymF":
        a, b = self, other
        if a.basis != b.basis or a.degree != b.degree or a.n != b.n:
            a, b = a.in_m(), b.in_m()
        terms = dict(a.terms)
        for p, c in b.terms.items():
            terms[p] = terms.get(p, ZERO) + c
        return SymF(a.basis, self.degree, terms, a.n)

    def scale(self, c) -> "SymF":
        return self.map_coeffs(lambda v: v * c)

    def in_m(self) -> "SymF":
        if self.basis == "m":
            return self
        d, n = self.degree, self.n
        whole = {"s": s_to_m, "h": h_to_m, "ptilde": ptilde_to_m, "H0t": h0t_to_m}
        if self.basis in whole:
            P = partitions_of(d)
            row_of = dict(zip(P, whole[self.basis](d))).__getitem__
        elif self.basis in ("dualk", "dualkt1"):
            P, t_on = bounded_partitions_of(d, n), self.basis == "dualk"
            row_of = lambda p: _dualk_row(n, p, t_on)
        else:
            raise ValueError(f"unknown basis {self.basis}")
        return SymF("m", d, _expand(self.terms, row_of, P))

    def in_h(self) -> "SymF":
        d = self.degree
        P = partitions_of(d)
        return SymF("h", d, _expand(self.in_m().terms, dict(zip(P, m_to_h(d))).__getitem__, P))


def m_sym(p) -> SymF:
    p = normalize(p)
    return SymF("m", sum(p), {p: ONE})


def schur(p) -> SymF:
    p = normalize(p)
    return SymF("s", sum(p), {p: ONE})


def ptilde_in_m(p) -> SymF:
    """The deformed P-function as a monomial expansion."""
    p = normalize(p)
    return SymF("ptilde", sum(p), {p: ONE}).in_m()


def h0t_in_m(p) -> SymF:
    p = normalize(p)
    return SymF("H0t", sum(p), {p: ONE}).in_m()


def dual_kschur(core: NCore, t_on: bool = True) -> SymF:
    """The dual k-Schur function of the core, expanded in m."""
    lam = c_inverse(core)
    return SymF(
        "dualk" if t_on else "dualkt1", sum(lam), {lam: ONE}, n=core.n
    ).in_m()


def kschur(core: NCore, t_on: bool = True) -> SymF:
    """The k-Schur function of the core.

    With t on the expansion is in the H(x;0,t) basis; at t=1 it is in
    the homogeneous basis.  Convert with .in_m() as needed.
    """
    nu = c_inverse(core)
    return SymF("H0t" if t_on else "h", sum(nu), _kschur_row(core.n, nu, t_on))


def hall_pairing(f: SymF, g: SymF) -> TPoly:
    """<h_lam, m_mu> = delta: pair the h-expansion against the m-expansion."""
    if f.degree != g.degree:
        return ZERO
    gm = g.in_m().terms
    return _dot((c, gm[p]) for p, c in f.in_h().terms.items() if p in gm)


def multiply(f: SymF, g: SymF) -> SymF:
    """Product through the h basis (concatenation), back to m."""
    fh, gh = f.in_h(), g.in_h()
    terms: dict = {}
    for p, c in fh.terms.items():
        for q, e in gh.terms.items():
            key = union(p, q)
            terms[key] = terms.get(key, ZERO) + c * e
    return SymF("h", f.degree + g.degree, terms).in_m()
