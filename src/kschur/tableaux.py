"""Semi-standard tableaux, cocharge, Kostka-Foulkes polynomials and P-tilde in m.

A tableau of shape lam and weight mu is a chain of partitions growing
by horizontal strips; the filling puts i on the i-th strip.  Every
strip comes from one cached table, `_strips(lo, m)`, which the tableaux,
the `Tableau` check and every weight fiber below read.  Cocharge
extracts standard sequences (rightmost 1 first, successors chosen
south-easternmost above the current cell, else south-easternmost
overall) and sums their index vectors, where the index stays flat
exactly when the content increases.

K_{lam,mu}(t) = sum over SSYT(lam, mu) of t^cocharge; at t = 1 it is
the Kostka number.  Note K_{lam,lam}(t) = t^{n(lam)} in this cocharge
normalization.  Both are read off the weight's fiber, grown once over
all shapes: Kostka numbers count its horizontal-strip chains by the
count DP `_count_fiber` (which also counts the ABCs of `abctab`), and
the KF polynomials come from a DP over the chain prefixes that runs the
extraction letter by letter, merging prefixes that agree on the shape
and on each open subword's last cell.

The deformed P-function Ptilde_lam = t^{-n(lam)} P_lam(x; 1/t) is read
off the same chains with no cocharge: P_lam(x; t) = sum over the SSYT T
of shape lam of psi_T(t) x^T, where psi_T is the product over its
letters of psi_{hi/lo}(t) = prod_{j in J} (1 - t^{m_j(lo)}), J being
the columns j >= 1 that hold no cell of hi/lo while column j + 1 holds
one (Macdonald, Symmetric Functions and Hall Polynomials, III (5.8'),
(5.11')).  So each weight's fiber of [m_mu] Ptilde is one DP that
carries a polynomial per shape.
"""

from __future__ import annotations

from functools import lru_cache

from .cores import contains, is_partition, normalize
from .tpoly import TPoly


class Tableau:
    """Semi-standard tableau as a chain of partitions."""

    __slots__ = ("chain",)

    def __init__(self, chain):
        chain = [normalize(p) for p in chain]
        if not chain or chain[0] != ():
            raise ValueError("chain must start empty")
        for lo, hi in zip(chain, chain[1:]):
            if all(hi != p for p, _ks in _strips(lo, sum(hi) - sum(lo))):
                raise ValueError(f"{hi}/{lo} is not a horizontal strip")
        self.chain = tuple(chain)

    @classmethod
    def _unchecked(cls, chain: tuple) -> "Tableau":
        """The tableau of a chain grown from the strip table `_strips`."""
        tab = object.__new__(cls)
        tab.chain = chain
        return tab

    @property
    def shape(self):
        return self.chain[-1]

    @property
    def weight(self):
        return tuple(
            sum(hi) - sum(lo) for lo, hi in zip(self.chain, self.chain[1:])
        )

    def __repr__(self):
        return f"Tableau(chain={list(self.chain)})"


@lru_cache(maxsize=None)
def _strips(lo, m: int) -> tuple:
    """(hi, ks) per horizontal m-strip hi/lo, with psi_{hi/lo}(u) = prod over ks of (1 - u^k).

    Rows are filled top row down, so the strip condition is row-local.
    The strip's cells fill the columns (lo_i, hi_i] of each row i.  Each
    column j >= 1 that holds no cell while column j + 1 holds one gives
    k = m_j(lo); the row of that cell ends at j in lo, so k >= 1.
    """
    low = lo + (0,)
    out = []

    def place(i, remaining, cur):
        # only the new top row can stay empty
        if i == 0:
            if remaining == 0:
                hi = tuple(cur) if cur[-1] else tuple(cur[:-1])
                cols = {c for p, q in zip(cur, low) for c in range(q + 1, p + 1)}
                out.append((hi, tuple(lo.count(c - 1) for c in cols if c > 1 and c - 1 not in cols)))
            return
        base = low[i - 1]
        top = lo[i - 2] if i >= 2 else base + remaining
        for new in range(base, min(top, base + remaining) + 1):
            cur[i - 1] = new
            place(i - 1, remaining - (new - base), cur)

    place(len(low), m, list(low))
    return tuple(out)


def semistandard_tableaux(shape, weight):
    """All SSYT of the given shape and weight, as Tableau objects."""
    shape = normalize(shape)
    weight = tuple(weight)
    if sum(shape) != sum(weight):
        return []
    chains = [((),)]
    for m in weight:
        nxt = []
        for chain in chains:
            for p, _ks in _strips(chain[-1], m):
                if contains(shape, p):
                    nxt.append(chain + (p,))
        chains = nxt
    return [Tableau._unchecked(chain) for chain in chains if chain[-1] == shape]


def cocharge(tab: Tableau) -> int:
    """Total cocharge of a tableau with partition weight."""
    return sum(map(sum, cocharge_index_vectors(tab)))


def cocharge_index_vectors(tab: Tableau):
    """The index vectors of the successive standard-subword extractions.

    The extraction runs letter by letter (`_letter_picks`), and a
    subword's index stays flat exactly when the content increases.
    """
    weight = tab.weight
    if not is_partition(weight):
        raise ValueError(f"weight {weight} is not a partition")
    return _index_vectors(zip(tab.chain, tab.chain[1:]), _letter_picks)


def _index_vectors(letters, pick):
    """Index vectors of the subwords that `pick` extracts letter by letter."""
    vectors, last = [], None
    for cells in letters:
        picks = pick(cells, last)
        if last is None:
            vectors = [[0] for _ in picks]
        for vec, flat in zip(vectors, _flat_steps(picks, last)):
            vec.append(vec[-1] if flat else vec[-1] + 1)
        last = picks
    return vectors


def _flat_steps(picks, last):
    """Per open subword, whether its index stays flat: its order key rose."""
    return [] if last is None else [cur[1] > prev[1] for cur, prev in zip(picks, last)]


def _letter_picks(step, last):
    """(row, content) of the cell of letter hi/lo, step = (lo, hi), that each open subword takes.

    Rows count from 0 at the bottom; `last` holds each open subword's
    previous pick, or is None for letter 1.  A subword takes the
    rightmost cell left in the lowest row above its previous cell that
    has one, else in the lowest row that has one; so the cells left in
    a row are always its leftmost ones.
    """
    lo, hi = step
    free = [p - (lo[i] if i < len(lo) else 0) for i, p in enumerate(hi)]
    picks = []
    for k in range(sum(free)):
        row = None
        if last is not None:
            row = next((i for i in range(last[k][0] + 1, len(free)) if free[i]), None)
        if row is None:
            row = next(i for i, f in enumerate(free) if f)
        picks.append((row, (lo[row] if row < len(lo) else 0) + free[row] - row))
        free[row] -= 1
    return picks


def _cocharge_fiber(mu, start, grow, pick) -> dict:
    """shape -> sum of t^cocharge over the chains of weight mu from start.

    A DP over the letters: `grow(shape, m)` yields (next shape, the
    letter's cells, an extra exponent) per step, and `pick` hands each
    open subword its cell, as in `_index_vectors`.  Subword s spans the
    letters x with mu_x > s, so a rise of its index at letter x + 1 adds
    span_s - x to the cocharge at once.  Prefixes that agree on the
    shape and on each open subword's last pick are then merged, with an
    exponent -> count tally each; one letter's layer is kept at a time.
    """
    span = [sum(1 for m in mu if m > s) for s in range(mu[0] if mu else 0)]
    layer = {start: {None: {0: 1}}}
    for x, m in enumerate(mu):
        final = x + 1 == len(mu)
        nxt: dict = {}
        for shape, states in layer.items():
            for new, cells, extra in grow(shape, m):
                into = nxt.setdefault(new, {})
                for last, exps in states.items():
                    picks = pick(cells, last)
                    if len(picks) != m:
                        raise AssertionError(f"letter {x + 1} has {len(picks)} cells, not {m}")
                    rises = enumerate(_flat_steps(picks, last))
                    shift = extra + sum(span[s] - x for s, flat in rises if not flat)
                    tally = into.setdefault(None if final else tuple(picks), {})
                    for e, c in exps.items():
                        tally[e + shift] = tally.get(e + shift, 0) + c
        layer = nxt
    return {shape: TPoly(states[None]) for shape, states in layer.items()}


@lru_cache(maxsize=None)
def _kf_fiber(mu) -> dict:
    """shape -> K_{shape,mu}(t) over every shape, by the cocharge DP over the SSYT of weight mu."""

    def grow(lo, m):
        return ((hi, (lo, hi), 0) for hi, _ks in _strips(lo, m))

    return _cocharge_fiber(mu, (), grow, _letter_picks)


@lru_cache(maxsize=None)
def _ptilde_fiber(mu, width: int) -> dict:
    """shape -> [m_mu] Ptilde_shape over the shapes with first row <= width.

    [m_mu] Ptilde_lam = t^{-n(lam)} sum over SSYT(lam, mu) of psi_T(1/t),
    so the DP grows the chains of weight mu strip by strip, keeping per
    shape the sum of psi over its prefixes as u = 1/t exponent -> count.
    A row never shrinks, so a shape wider than width is dropped at once.
    """
    layer = {(): {0: 1}}
    for m in mu:
        nxt: dict = {}
        for lo, poly in layer.items():
            for hi, ks in _strips(lo, m):
                if hi[0] > width:
                    continue
                p = poly
                for k in ks:
                    q = dict(p)
                    for e, c in p.items():
                        q[e + k] = q.get(e + k, 0) - c
                    p = q
                into = nxt.setdefault(hi, {})
                for e, c in p.items():
                    into[e] = into.get(e, 0) + c
        layer = nxt
    out = {}
    for lam, poly in layer.items():
        n_lam = sum(i * p for i, p in enumerate(lam))
        out[lam] = TPoly({-e - n_lam: c for e, c in poly.items()})
    return out


def _count_fiber(start, sizes, grow) -> dict:
    """shape -> number of chains from start whose step x goes to one of `grow(shape, sizes[x])`.

    One layer of shapes is kept at a time, each with its chain count.
    """
    counts = {start: 1}
    for m in sizes:
        nxt: dict = {}
        for shape, mult in counts.items():
            for new in grow(shape, m):
                nxt[new] = nxt.get(new, 0) + mult
        counts = nxt
    return counts


@lru_cache(maxsize=None)
def _kostka_fiber(mu) -> dict:
    """shape -> K_{shape,mu} over every shape, by counting horizontal-strip chains."""
    return _count_fiber((), mu, lambda lo, m: (hi for hi, _ks in _strips(lo, m)))


@lru_cache(maxsize=None)
def kostka_foulkes(lam, mu) -> TPoly:
    """K_{lam,mu}(t), the cocharge generating function over SSYT(lam, mu)."""
    lam, mu = normalize(lam), normalize(mu)
    if sum(lam) != sum(mu):
        return TPoly.zero()
    return _kf_fiber(mu).get(lam, TPoly.zero())


@lru_cache(maxsize=None)
def kostka_number(lam, mu) -> int:
    """|SSYT(lam, mu)|, read off the weight's horizontal-strip count."""
    lam, mu = normalize(lam), normalize(mu)
    if sum(lam) != sum(mu):
        return 0
    return _kostka_fiber(mu).get(lam, 0)
