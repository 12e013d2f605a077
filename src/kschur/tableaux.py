"""Semi-standard tableaux, cocharge, and Kostka-Foulkes polynomials.

A tableau of shape lam and weight mu is a chain of partitions growing
by horizontal strips; the filling puts i on the i-th strip.  Cocharge
extracts standard sequences (rightmost 1 first, successors chosen
south-easternmost above the current cell, else south-easternmost
overall) and sums their index vectors, where the index stays flat
exactly when the content increases.

K_{lam,mu}(t) = sum over SSYT(lam, mu) of t^cocharge; at t = 1 it is
the Kostka number.  Note K_{lam,lam}(t) = t^{n(lam)} in this cocharge
normalization.  Both are read off one walk of the weight's fiber: the
horizontal-strip chains of weight mu are grown once over all shapes,
and each (lam, mu) entry is looked up in the result.
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
            if not is_horizontal_strip(hi, lo):
                raise ValueError(f"{hi}/{lo} is not a horizontal strip")
        self.chain = tuple(chain)

    @staticmethod
    def from_rows(rows):
        """Build from a row filling, e.g. [[1,1,2],[2]] (bottom row first)."""
        rows = [list(r) for r in rows]
        letters = sorted({v for r in rows for v in r})
        if letters != list(range(1, len(letters) + 1)):
            raise ValueError("letters must be 1..r")
        chain = [()]
        for x in range(1, len(letters) + 1):
            chain.append(tuple(sum(1 for v in r if v <= x) for r in rows))
        return Tableau(chain)

    @property
    def shape(self):
        return self.chain[-1]

    @property
    def weight(self):
        return tuple(
            sum(hi) - sum(lo) for lo, hi in zip(self.chain, self.chain[1:])
        )

    def cells_with_letters(self):
        out = []
        for x, (lo, hi) in enumerate(zip(self.chain, self.chain[1:]), start=1):
            for i, p in enumerate(hi, start=1):
                q = lo[i - 1] if i <= len(lo) else 0
                out.extend((i, j, x) for j in range(q + 1, p + 1))
        return out

    def __repr__(self):
        return f"Tableau(chain={list(self.chain)})"


def is_horizontal_strip(outer, inner) -> bool:
    """At most one cell per column: outer_i <= inner_{i-1} row by row."""
    outer, inner = tuple(outer), tuple(inner)
    if not contains(outer, inner):
        return False
    for i in range(1, len(outer)):
        prev = inner[i - 1] if i - 1 < len(inner) else 0
        if outer[i] > prev:
            return False
    return True


def horizontal_strip_additions(parts, m: int):
    """All partitions obtained by adding a horizontal m-strip."""
    parts = tuple(parts)
    rows = len(parts) + 1
    out = []

    def place(i, remaining, cur):
        # fill top row down so the strip condition is row-local
        if i == 0:
            if remaining == 0:
                out.append(normalize(tuple(cur)))
            return
        lo = parts[i - 1] if i <= len(parts) else 0
        hi = parts[i - 2] if i >= 2 else lo + remaining
        for new in range(lo, hi + 1):
            if new - lo <= remaining:
                cur[i - 1] = new
                place(i - 1, remaining - (new - lo), cur)
        cur[i - 1] = lo

    place(rows, m, [0] * rows)
    return out


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
            for p in horizontal_strip_additions(chain[-1], m):
                if contains(shape, p):
                    nxt.append(chain + (p,))
        chains = nxt
    return [Tableau(chain) for chain in chains if chain[-1] == shape]


def cocharge(tab: Tableau) -> int:
    """Total cocharge of a tableau with partition weight."""
    return sum(map(sum, cocharge_index_vectors(tab)))


def cocharge_index_vectors(tab: Tableau):
    """The index vectors of the successive standard-subword extractions.

    Each letter keeps its remaining cells sorted by (row, -col), so the
    next pick is the first cell in a row above the current one, else
    the first cell; the rightmost 1 is the first cell of letter 1.
    """
    weight = tab.weight
    if not is_partition(weight):
        raise ValueError(f"weight {weight} is not a partition")
    cells = [[] for _ in weight]
    for (i, j, x) in tab.cells_with_letters():
        cells[x - 1].append((i, j))
    for letter in cells:
        letter.sort(key=lambda c: (c[0], -c[1]))
    vectors = []
    while cells and cells[0]:
        cur = cells[0].pop(0)
        seq = [cur]
        for letter in cells[1:]:
            if not letter:
                break
            k = next((k for k, c in enumerate(letter) if c[0] > cur[0]), 0)
            cur = letter.pop(k)
            seq.append(cur)
        index = [0]
        for (pi, pj), (ci, cj) in zip(seq, seq[1:]):
            index.append(index[-1] if cj - ci > pj - pi else index[-1] + 1)
        vectors.append(index)
    return vectors


def _tally(pairs) -> dict:
    """dict key -> sum of t^e over the (key, e) pairs."""
    exps: dict = {}
    for key, e in pairs:
        by = exps.setdefault(key, {})
        by[e] = by.get(e, 0) + 1
    return {key: TPoly(c) for key, c in exps.items()}


@lru_cache(maxsize=None)
def _kf_fiber(mu) -> dict:
    """shape -> K_{shape,mu}(t) over every shape, from one walk of the SSYT of weight mu."""

    def walk(chain):
        if len(chain) > len(mu):
            yield chain[-1], cocharge(Tableau(chain))
            return
        for p in horizontal_strip_additions(chain[-1], mu[len(chain) - 1]):
            yield from walk(chain + (p,))

    return _tally(walk(((),)))


@lru_cache(maxsize=None)
def _kostka_fiber(mu) -> dict:
    """shape -> K_{shape,mu} over every shape, by counting horizontal-strip chains."""
    counts = {(): 1}
    for m in mu:
        nxt: dict = {}
        for shape, mult in counts.items():
            for p in horizontal_strip_additions(shape, m):
                nxt[p] = nxt.get(p, 0) + mult
        counts = nxt
    return counts


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
