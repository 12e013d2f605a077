"""Affine Bruhat countertableaux (ABCs).

An ABC of shape lam (an n-core of degree |alpha|) and weight alpha is
canonically a chain of n-cores

    empty = lam^(0) subset lam^(1) subset ... subset lam^(r) = lam

where each (lam^(x-1), lam^(x)) is a horizontal strong
(n-1-alpha_x)-strip.  The nested shapes mu^(0) subset ... subset mu^(r)
of the countertableau picture are derived views: row i (counted from
the top) freezes at length lam^(i-1)_1 + n - 1 and carries the letter i
in the cells of R(n-1, lam^(i-1)) / lam^(i), plus ribbon copies above.

An ABC is stored as its chain together with the horizontal strong
strip of each step, ribbons included, exactly as the strip enumeration
built it; every view below reads those strips.

Theta sends an ABC to the affine factorization v^r ... v^1 of w_lam,
where v^i = psi of the i-th strip is the canonical cyclically
decreasing word of w_{lam^(i)} w_{lam^(i-1)}^{-1}.

The extension ext(A) appends a ribbon of length
lam^(i)_1 - lam^(i-1)_1 + 1 to row i, keeps only the letter-i cells,
and drops every ribbon tail; n-cocharge is the sum of the index
vectors of the standard sequences extracted from ext(A) plus off(A),
the count of non-tail cells in ribbon copies sitting outside their
home row.  Letter i of ext(A) and step i's share of off(A) read only
the i-th strip, so the letter table `_strip_letters(lam, m)`, cached
per (core, m) beside the strips, is the one source of both: the ABC
views and the weak Kostka-Foulkes DP read it.
"""

from __future__ import annotations

from functools import lru_cache

from .affine import AffinePermutation, cyclically_decreasing_of_length
from .cores import NCore, contains
from .strips import _hss_from, horizontal_strong_strips_from, psi
from .tableaux import _count_fiber, _index_vectors


class NonPartitionWeightError(ValueError):
    """n-cocharge needs a weakly decreasing weight."""


class ABC:
    """An affine Bruhat countertableau: its core chain and the strip of each step."""

    __slots__ = ("n", "chain", "weight", "strips")

    def __init__(self, n: int, chain):
        chain = tuple(chain)
        if not chain or chain[0].parts != ():
            raise ValueError("chain must start at the empty core")
        self.n = n
        self.chain = chain
        self.weight = tuple(
            hi.degree() - lo.degree() for lo, hi in zip(chain, chain[1:])
        )
        if any(not 0 <= a < n for a in self.weight):
            raise ValueError("weight parts must be smaller than n")
        self.strips = tuple(map(_strip_of, chain, chain[1:], self.weight))

    @classmethod
    def _unchecked(cls, n: int, chain: tuple, weight: tuple, strips: tuple) -> "ABC":
        """The ABC of a strip walk, which already holds the strip of each step."""
        abc = object.__new__(cls)
        abc.n, abc.chain, abc.weight, abc.strips = n, chain, weight, strips
        return abc

    @property
    def shape(self) -> NCore:
        return self.chain[-1]

    @property
    def r(self) -> int:
        return len(self.weight)

    def __eq__(self, other):
        return isinstance(other, ABC) and self.n == other.n and self.chain == other.chain

    def __hash__(self):
        return hash((self.n, self.chain))

    def __repr__(self):
        return f"ABC({self.n}, {[list(c.parts) for c in self.chain]})"

    # -- factorization words ---------------------------------------------

    def words(self):
        """The cyclically decreasing words v^1, ..., v^r of Theta."""
        return tuple(map(psi, self.strips))

    # -- countertableau views --------------------------------------------

    def mu_chain(self):
        """The nested shapes mu^(0) subset ... subset mu^(r)."""
        r, n = self.r, self.n
        out = [self.shape.parts]
        frozen = []
        for x in range(1, r + 1):
            rest = self.chain[r - x].parts
            row = (rest[0] if rest else 0) + n - 1
            mu = tuple(frozen) + (row,) + rest
            out.append(mu)
            frozen.append(row)
        return out

    def letter_cells(self):
        """dict letter -> list of (row, col) in the countertableau.

        Rows are counted from the top, so letter i sits in row i and its
        ribbon copies in rows above (smaller indices).
        """
        return {
            i: sorted((i - si + 1, sj) for step in strip.ribbons
                      for comp in step for si, sj in comp)
            for i, strip in enumerate(self.strips, start=1)
        }

    def pretty(self) -> str:
        """Text rendering of the countertableau (blank = the shape)."""
        grid = {}
        for letter, cc in self.letter_cells().items():
            for (row, col) in cc:
                grid[(row, col)] = letter
        mu_r = self.mu_chain()[-1]
        lines = []
        for row in range(1, self.r + 1):
            part = self.r - row  # row 1 is the top, the smallest part
            width = mu_r[part] if part < len(mu_r) else 0
            line = []
            for col in range(1, width + 1):
                v = grid.get((row, col))
                line.append("." if v is None else str(v))
            lines.append(" ".join(line))
        return "\n".join(lines)

    # -- offsets, extension, cocharge ------------------------------------

    def _letters(self):
        """Per step, its (n, ext cells) letter and off share, from the letter table."""
        n = self.n
        return [_strip_letters(s.lam, n - 1 - a)[s.nu] for s, a in zip(self.strips, self.weight)]

    def off(self) -> int:
        """Sum of (size - 1) over ribbon copies outside their home row."""
        return sum(off for _letter, off in self._letters())

    def extension(self):
        """dict letter -> sorted columns of the letter's cells in ext(A)."""
        letters = enumerate(self._letters(), start=1)
        return {i: [c for _res, c in cells] for i, ((_n, cells), _off) in letters}

    def n_cocharge(self) -> int:
        """off(A) plus the index sums over standard-sequence extractions."""
        if any(
            self.weight[k] < self.weight[k + 1] for k in range(self.r - 1)
        ):
            raise NonPartitionWeightError(
                f"weight {self.weight} is not a partition"
            )
        return self.off() + sum(sum(I) for I in self.index_vectors())

    def index_vectors(self):
        """Index vectors of the successive standard sequences of ext(A)."""
        return _index_vectors((letter for letter, _off in self._letters()), _subword_picks)


@lru_cache(maxsize=None)
def _strip_letters(lam: NCore, m: int) -> dict:
    """nu -> ((n, ext cells), off share) of each horizontal strong m-strip (lam, nu)."""
    return {s.nu: ((lam.n, _ext_cells(s)), _strip_off(s)) for s in _hss_from(lam, m)}


def _strip_off(strip) -> int:
    """The step's share of off(A): every ribbon copy but the last sits above the bottom row."""
    return sum(len(comp) - 1 for step in strip.ribbons for comp in step[:-1])


def _ext_cells(strip) -> tuple:
    """(residue, column) of the step's letter in ext(A), by column; they read only this strip."""
    n = strip.lam.n
    lo1 = strip.lam.parts[0] if strip.lam.parts else 0
    hi1 = strip.nu.parts[0] if strip.nu.parts else 0
    letters = set(psi(strip))
    cols = [c for c in range(hi1 + 1, lo1 + n) if (c - 1) % n in letters]
    cols.extend(range(lo1 + n + 1, hi1 + n + 1))
    return tuple(((c - 1) % n, c) for c in cols)


def _subword_picks(letter, last):
    """(residue, column) of the cell that each open subword takes from letter = (n, its cells).

    Letter 1 (`last` is None) opens one subword per cell, rightmost
    first; each open subword then takes the counter-clockwise choice
    from its last residue.  A cell that no open subword reaches would
    be left over, since only letter 1 opens subwords.
    """
    n, cells = letter
    if last is None:
        return cells[::-1]
    options = dict(cells)
    if len(options) > len(last):
        raise AssertionError("extraction left non-empty rows without 1s")
    picks = []
    for res, _col in last[:len(options)]:
        res = _counterclockwise_choice(res, options.keys(), n)
        picks.append((res, options.pop(res)))
    return picks


#: incremented whenever the counter-clockwise choice had to skip the
#: current residue itself while other residues were available; the
#: weak Kostka-Foulkes DP makes one choice per merged prefix state, so
#: there it counts states, not ABCs
distance_zero_skips = 0


def _counterclockwise_choice(res: int, options, n: int) -> int:
    """Closest residue counter-clockwise from res on the clockwise circle.

    The current residue itself only qualifies when it is the sole
    option; such occurrences are counted in `distance_zero_skips`.
    """
    global distance_zero_skips
    if res in options and len(options) > 1:
        distance_zero_skips += 1
    return min(options, key=lambda opt: (res - opt - 1) % n)


# -- enumeration ---------------------------------------------------------


def _strip_of(lo: NCore, hi: NCore, a: int):
    """The horizontal strong (n-1-a)-strip (lo, hi), or ValueError if none."""
    for strip in _hss_from(lo, lo.n - 1 - a):
        if strip.nu == hi:
            return strip
    raise ValueError(f"{list(lo.parts)} -> {list(hi.parts)} is not a horizontal strong strip")


def enumerate_abc(shape: NCore, weight):
    """All ABCs of the given shape and weight composition.

    Every step hands the strip it came from to the ABC, so no strip is
    looked up twice.
    """
    n = shape.n
    weight = tuple(weight)
    if any(not 0 <= a < n for a in weight):
        raise ValueError(f"weight parts must be in 0..{n - 1}")
    if sum(weight) != shape.degree():
        return []

    def walk(chain, strips):
        if len(strips) == len(weight):
            if chain[-1] == shape:
                yield ABC._unchecked(n, chain, weight, strips)
            return
        for strip in horizontal_strong_strips_from(chain[-1], n - 1 - weight[len(strips)]):
            if contains(shape.parts, strip.nu.parts):
                yield from walk(chain + (strip.nu,), strips + (strip,))

    return sorted(walk((NCore(n, ()),), ()), key=lambda a: tuple(c.parts for c in a.chain))


@lru_cache(maxsize=None)
def abc_counts(n: int, weight) -> dict:
    """dict shape -> |ABC(shape, weight)| for the full weight fiber, by counting strip chains."""
    grow = lambda lam, m: (strip.nu for strip in horizontal_strong_strips_from(lam, m))
    return _count_fiber(NCore(n, ()), [n - 1 - a for a in weight], grow)


def count_abc(shape: NCore, weight) -> int:
    return abc_counts(shape.n, tuple(weight)).get(shape, 0)


def theta(abc: ABC):
    """The affine factorization words (v^1, ..., v^r); see Theta."""
    return abc.words()


@lru_cache(maxsize=None)
def _count_factorizations(window, n: int, weight) -> int:
    """Affine factorizations of w into cyclically decreasing factors.

    Word-side enumerator, independent of the strip machinery: peel the
    leftmost factor v^r over all cyclically decreasing elements of
    length weight[-1] with ell(v^{-1} w) = ell(w) - weight[-1].
    """
    w = AffinePermutation(n, window)
    if not weight:
        return 1 if w.is_identity() else 0
    target = w.length() - weight[-1]
    if target < 0:
        return 0
    total = 0
    for _word, v in cyclically_decreasing_of_length(n, weight[-1]):
        u = v.inverse() * w
        if u.length() == target:
            total += _count_factorizations(u.window, n, weight[:-1])
    return total


def count_affine_factorizations(w: AffinePermutation, weight) -> int:
    return _count_factorizations(w.window, w.n, tuple(weight))
