"""Symmetric functions of bounded degree over ZZ[t, t^-1], exactly.

A symmetric function is a basis-tagged dict of coefficients.  Every
change of basis reads sparse dict rows, zeros left out, cached per
partition, and never a whole degree.  Partitions of d are listed in
lex-descending order, a linear extension of dominance, so each change
is triangular with unit diagonal:

  * s_lam = sum_mu K_{lam,mu} m_mu, the Kostka row of lam, read off the
    weight fibers `tableaux._kostka_fiber(mu)` at or after lam
  * h_mu = sum_lam K_{lam,mu} s_lam and H_mu(x;0,t) = sum_lam
    K_{lam,mu}(t) s_lam, the fibers of mu (cocharge KF for H), then s to m
  * Ptilde_lam in m, read off Macdonald's psi-tableaux one weight at a
    time (`tableaux._ptilde_fiber`), with no K(t) inverted
  * dual k-Schur: S_{c(lam)}(x;t) = sum_mu Kn_{lam,mu}(t) Ptilde_mu,
    with Kn(t) the weak Kostka-Foulkes matrix: row lam of Kn(t) times
    the Ptilde rows of its weights, per function asked for
  * k-Schur: the Hall-dual basis, one column of Kn^{-1} each.

The way back is one sparse solve, `_inverse_column`, which reads only
the columns of nonzero coefficients: m to s solves K^T from the
lex-largest partition, s to h solves K, and a k-Schur row solves Kn,
each from the lex-smallest.  The Hall pairing pairs Schur expansions,
and products go through the homogeneous basis, where multiplication
is concatenation.

Every read of Kn(t) or Kn(1) goes through one cached column,
`_kn_column(n, mu, t_on)`.  With t on it is the weak-KF cocharge DP;
at t = 1 it is h_mu xi_empty in the nilCoxeter model of homology (Lam,
JAMS 2008), the one-term row (mu, 1) walked by weak Pieri (`cores._h_times`),
with integer entries, so the t = 1 k-Schur rows are integer too.
`kf_matrix` and `kn_matrix` build the two tables that `kf-table` prints.

Ptilde is the deformation t^{-n(lam)} P_lam(x; 1/t) of Macdonald's
P-function; its monomial expansion genuinely uses negative powers of t,
which is why TPoly is a Laurent type.
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
    """sum of a * b over the (a, b) pairs, b a TPoly or an int, in one exponent -> count dict."""
    acc: dict = {}
    for a, b in pairs:
        for e2, v2 in b.c.items() if isinstance(b, TPoly) else ((0, b),):
            for e1, v1 in a.c.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + v1 * v2
    return TPoly(acc)


def _inverse_column(column, rhs: dict, t_on: bool, first=min) -> dict:
    """x with M x = rhs, M given by dict columns column(mu) = {lam: M_{lam,mu}}; zeros left out.

    With rhs = {nu: 1} this is column nu of M^{-1}.  The solve walks from
    the `first` end: M_{lam,mu} is zero unless lam is at or after mu in
    that walk (lex above mu for min, lex below for max), and M_{mu,mu} is
    a unit, +-t^k or +-1.  The first partition still owed is solved next:
    x_lam = (rhs_lam - sum_mu M_{lam,mu} x_mu) / M_{lam,lam}, one sum over
    the (x_mu, M_{lam,mu}) pairs that the solved columns mu handed on.
    Only columns of nonzero x are read.  With t on x is in TPoly and M in
    TPoly or ints; at t = 1 both are ints.
    """
    zero, dot = (ZERO, _dot) if t_on else (0, lambda pairs: sum(a * b for a, b in pairs))
    x, owed = {}, {lam: [] for lam in rhs}
    while owed:
        lam = first(owed)
        v = rhs.get(lam, zero) - dot(owed.pop(lam))
        if v == 0:
            continue
        col = column(lam)
        unit = col[lam]
        if isinstance(unit, TPoly):
            v = v.divide_unit(unit)
        elif unit in (1, -1):
            v = v * unit
        else:
            raise ValueError(f"{unit} is not a unit of ZZ")
        x[lam] = v
        for rho, entry in col.items():
            if rho != lam:
                owed.setdefault(rho, []).append((v, entry))
    return x


def _expand(terms, row_of) -> dict:
    """sum_p c_p * row_of(p) over the terms p -> c_p, each entry summed once; zeros left out."""
    pairs: dict = {}
    for p, c in terms.items():
        for mu, entry in row_of(p).items():
            pairs.setdefault(mu, []).append((c, entry))
    return {mu: v for mu, ps in pairs.items() if (v := _dot(ps)) != 0}


# -- sparse rows in m ------------------------------------------------------


@lru_cache(maxsize=None)
def _s_row(lam) -> dict:
    """s_lam in m: mu -> K_{lam,mu} over the mu at or after lam in lex order, zeros left out."""
    P = partitions_of(sum(lam))
    return {mu: k for mu in P[P.index(lam):] if (k := _kostka_fiber(mu).get(lam, 0))}


def _ptilde_row(lam, width: int) -> dict:
    """Ptilde_lam in m over the mu at or after lam in lex order, zeros left out.

    Read off the psi fibers no wider than width, which must be at least lam_1.
    """
    P = bounded_partitions_of(sum(lam), width + 1)
    return {mu: c for mu in P[P.index(lam):] if (c := _ptilde_fiber(mu, width).get(lam, 0)) != 0}


# -- weak Kostka-Foulkes, dual k-Schur and k-Schur rows -------------------


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
def _dualk_row(n: int, lam, t_on: bool) -> dict:
    """Dual k-Schur row lam in m: row lam of Kn(t) times the Ptilde rows, or row lam of Kn(1).

    Row lam is zero off the weights mu <= lam, so only the mu at or after
    lam in lex order are read.  Their Ptilde rows come from the psi fibers
    no wider than n - 1, which prunes the DP.  At t = 1 the entries are ints.
    """
    P = bounded_partitions_of(sum(lam), n)
    row = {mu: c for mu in P[P.index(lam):] if (c := _kn_column(n, mu, t_on).get(lam, 0)) != 0}
    return _expand(row, lambda mu: _ptilde_row(mu, n - 1)) if t_on else row


@lru_cache(maxsize=None)
def _kschur_row(n: int, nu, t_on: bool) -> dict:
    """Row nu of the k-Schur functions in H(x;0,t), or in h at t=1: column nu of Kn^{-1}.

    A dict mu -> coefficient, zeros left out; at t = 1 the coefficients
    are ints.  The solve reads only columns of Kn at or lex above nu.
    """
    return _inverse_column(lambda mu: _kn_column(n, mu, t_on), {nu: ONE if t_on else 1}, t_on)


# -- the two tables that kf-table prints -----------------------------------


def _block(P, fiber):
    """Row lam, column mu: fiber(mu) at lam, over the partitions P."""
    cols = [fiber(mu) for mu in P]
    return [[col.get(lam, ZERO) for col in cols] for lam in P]


@lru_cache(maxsize=None)
def kf_matrix(d: int):
    """K(t): rows lam, columns mu; upper triangular, diagonal t^{n(lam)}."""
    return _block(partitions_of(d), _kf_fiber)


@lru_cache(maxsize=None)
def kn_matrix(n: int, d: int):
    """Kn(t) over bounded partitions of d, by the weak-KF DP."""
    return _block(bounded_partitions_of(d, n), lambda mu: _kn_column(n, mu, True))


# -- symmetric function values -------------------------------------------

#: H_mu(x;0,1) = h_mu, Ptilde_lam(x;1) = m_lam, and the dual k-Schur basis at t = 1
_AT_T1 = {"H0t": "h", "ptilde": "m", "dualk": "dualkt1"}

#: the bases whose functions are one weight fiber in s: h_mu and H_mu(x;0,t)
_S_FIBERS = {"h": _kostka_fiber, "H0t": _kf_fiber}


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

    def in_m(self) -> "SymF":
        basis, n = self.basis, self.n
        if basis == "m":
            return self
        if basis == "s" or basis in _S_FIBERS:
            terms, row_of = self.in_s().terms, _s_row
        elif basis == "ptilde":
            terms, row_of = self.terms, lambda lam: _ptilde_row(lam, lam[0] if lam else 0)
        elif basis in ("dualk", "dualkt1"):
            terms, row_of = self.terms, lambda lam: _dualk_row(n, lam, basis == "dualk")
        else:
            raise ValueError(f"unknown basis {basis}")
        return SymF("m", self.degree, _expand(terms, row_of))

    def in_s(self) -> "SymF":
        """h_mu and H_mu(x;0,t) are the fibers of mu; any other basis is solved from m on K^T."""
        if self.basis == "s":
            return self
        if self.basis in _S_FIBERS:
            terms = _expand(self.terms, _S_FIBERS[self.basis])
        else:
            terms = _inverse_column(_s_row, self.in_m().terms, True, max)
        return SymF("s", self.degree, terms)

    def in_h(self) -> "SymF":
        """Solved from s on K, whose columns are the Kostka fibers."""
        if self.basis == "h":
            return self
        return SymF("h", self.degree, _inverse_column(_kostka_fiber, self.in_s().terms, True))


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
    """<s_lam, s_mu> = delta: pair the Schur expansions."""
    if f.degree != g.degree:
        return ZERO
    gs = g.in_s().terms
    return _dot((c, gs[p]) for p, c in f.in_s().terms.items() if p in gs)


def multiply(f: SymF, g: SymF) -> SymF:
    """Product through the h basis (concatenation), back to m."""
    fh, gh = f.in_h(), g.in_h()
    terms: dict = {}
    for p, c in fh.terms.items():
        for q, e in gh.terms.items():
            key = union(p, q)
            terms[key] = terms.get(key, ZERO) + c * e
    return SymF("h", f.degree + g.degree, terms).in_m()
