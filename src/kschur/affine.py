"""The affine symmetric group in window notation.

An element w is the permutation of ZZ determined by its window
(w(1), ..., w(n)) together with w(i + rn) = w(i) + rn; the window
entries are pairwise incongruent mod n and sum to n(n+1)/2.  The
generator s_i (0 <= i < n) swaps the value classes i and i+1 mod n.

Length is the affine inversion count
    ell(w) = sum_{1 <= i < j <= n} |floor((w(j) - w(i)) / n)|,
which the tests validate against BFS over reduced words.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations


class InvalidLetterError(ValueError):
    """A word letter is outside {0, ..., n-1}."""


class DegenerateTranspositionError(ValueError):
    """tau_{i,j} needs i and j incongruent mod n."""


class AffinePermutation:
    """Element of the affine symmetric group ~S_n."""

    __slots__ = ("n", "window", "_len")

    def __init__(self, n: int, window):
        window = tuple(window)
        if n < 2:
            raise ValueError("modulus n must be at least 2")
        if len(window) != n:
            raise ValueError("window must have n entries")
        if len({v % n for v in window}) != n:
            raise ValueError("window entries must be incongruent mod n")
        if sum(window) != n * (n + 1) // 2:
            raise ValueError("window entries must sum to n(n+1)/2")
        self.n = n
        self.window = window
        self._len = None

    @classmethod
    def _unchecked(cls, n: int, window) -> "AffinePermutation":
        """An element from a window known to be valid; skips the checks."""
        w = object.__new__(cls)
        w.n, w.window, w._len = n, tuple(window), None
        return w

    # -- constructors --------------------------------------------------

    @staticmethod
    def identity(n: int) -> "AffinePermutation":
        return AffinePermutation(n, range(1, n + 1))

    # -- the permutation of ZZ ------------------------------------------

    def act(self, x: int) -> int:
        """The image w(x) for any integer x."""
        q, r = divmod(x - 1, self.n)
        return self.window[r] + q * self.n

    def position(self, v: int) -> int:
        """The preimage w^{-1}(v)."""
        n = self.n
        for j, wj in enumerate(self.window, start=1):
            if (wj - v) % n == 0:
                return j - (wj - v) // n * n
        raise AssertionError("window misses a residue class")

    # -- group structure -------------------------------------------------

    def __mul__(self, other: "AffinePermutation") -> "AffinePermutation":
        """Composition: (self * other)(x) = self(other(x))."""
        if self.n != other.n:
            raise ValueError("mismatched moduli")
        return AffinePermutation._unchecked(self.n, [self.act(v) for v in other.window])

    def inverse(self) -> "AffinePermutation":
        return AffinePermutation._unchecked(self.n, [self.position(j) for j in range(1, self.n + 1)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffinePermutation)
            and self.n == other.n
            and self.window == other.window
        )

    def __hash__(self):
        return hash((self.n, self.window))

    def __repr__(self):
        return f"AffinePermutation({self.n}, {list(self.window)})"

    def is_identity(self) -> bool:
        return self.window == tuple(range(1, self.n + 1))

    # -- length and descents ----------------------------------------------

    def length(self) -> int:
        if self._len is None:
            n, w = self.n, self.window
            total = 0
            for i in range(n):
                for j in range(i + 1, n):
                    total += abs((w[j] - w[i]) // n)
            self._len = total
        return self._len

    def left_descents(self):
        """Residues i with ell(s_i w) < ell(w)."""
        return [i for i in range(self.n) if self.position(i) > self.position(i + 1)]

    def is_grassmannian(self) -> bool:
        """Minimal-length coset representative of ~S_n / S_n."""
        w = self.window
        return all(w[i] < w[i + 1] for i in range(self.n - 1))


def check_letters(word, n: int) -> None:
    """Raise InvalidLetterError unless every letter is in 0..n-1."""
    for i in word:
        if not 0 <= i < n:
            raise InvalidLetterError(f"letter {i} not in 0..{n - 1}")


def from_word(word, n: int) -> AffinePermutation:
    """The product s_{i_1} ... s_{i_l} (rightmost letter acts first)."""
    check_letters(word, n)
    w = AffinePermutation.identity(n)
    for i in reversed(list(word)):
        w = _simple_times(n, i, w)
    return w


def _simple_times(n: int, i: int, w: AffinePermutation) -> AffinePermutation:
    """s_i * w without building s_i: swap value classes i, i+1 of w."""
    out = []
    for v in w.window:
        r = (v - i) % n
        if r == 0:
            out.append(v + 1)
        elif r == 1:
            out.append(v - 1)
        else:
            out.append(v)
    return AffinePermutation._unchecked(n, out)


def reduced_word(w: AffinePermutation):
    """A reduced word for w: repeatedly peel the largest left descent."""
    word = []
    cur = w
    while not cur.is_identity():
        i = max(cur.left_descents())
        word.append(i)
        cur = _simple_times(cur.n, i, cur)
    return tuple(word)


def transposition(i: int, j: int, n: int) -> AffinePermutation:
    """tau_{i,j}: i + rn <-> j + rn for all r, all else fixed."""
    if (i - j) % n == 0:
        raise DegenerateTranspositionError(f"tau_({i},{j}) is degenerate mod {n}")
    if i > j:
        i, j = j, i
    window = []
    for p in range(1, n + 1):
        if (p - i) % n == 0:
            window.append(p + (j - i))
        elif (p - j) % n == 0:
            window.append(p - (j - i))
        else:
            window.append(p)
    return AffinePermutation._unchecked(n, window)


def cyclic_anchor_key(anchor: int, n: int):
    """Sort key for the total order x+1 < x+2 < ... < x-1 with x = anchor."""
    def key(y: int) -> int:
        return (y - anchor - 1) % n
    return key


def cyclically_decreasing_word(letters, n: int, anchor: int | None = None):
    """Canonical cyclically decreasing word on a proper subset of residues.

    Letters are sorted decreasingly in the cyclic order anchored just
    after `anchor`; by default the anchor is the smallest missing residue.
    """
    letters = set(letters)
    if len(letters) >= n:
        raise ValueError("a cyclically decreasing word omits some residue")
    if anchor is None:
        anchor = min(set(range(n)) - letters)
    elif anchor in letters:
        raise ValueError("anchor residue must be missing from the letters")
    return tuple(sorted(letters, key=cyclic_anchor_key(anchor, n), reverse=True))


def is_word_cyclically_decreasing(word, n: int) -> bool:
    """Each letter at most once and i+1 occurs before i whenever both do."""
    word = list(word)
    if len(set(word)) != len(word):
        return False
    pos = {a: k for k, a in enumerate(word)}
    for a in word:
        b = (a + 1) % n
        if b in pos and pos[b] > pos[a]:
            return False
    return True


def is_cyclically_decreasing(w: AffinePermutation):
    """A canonical cyclically decreasing reduced word for w, else None."""
    m = w.length()
    if m == 0:
        return ()
    if m >= w.n:
        return None
    word = reduced_word(w)
    letters = set(word)
    if len(letters) != m:
        return None
    canonical = cyclically_decreasing_word(letters, w.n)
    if from_word(canonical, w.n) == w:
        return canonical
    return None


@lru_cache(maxsize=None)
def cyclically_decreasing_of_length(n: int, m: int):
    """All (letters, element) with |letters| = m, as canonical words."""
    if not 0 <= m < n:
        return ()
    out = []
    for subset in combinations(range(n), m):
        word = cyclically_decreasing_word(subset, n)
        out.append((word, from_word(word, n)))
    return tuple(out)

