"""Partitions and n-cores on the abacus.

Partitions are tuples of weakly decreasing positive integers.  Rows are
indexed 1..len bottom-to-top (row 1 is the longest, at the bottom), the
cell (i, j) sits in row i column j, its content is j - i and its
n-residue is (j - i) mod n.

A partition of length L is the bead set of its beta numbers
b_i = lam_i - i + 1, together with every position at or below the floor
-L; the other positions are gaps, and the hooks of row i are b_i - g
over the gaps g < b_i.  Wound onto n runners by residue, lam is an
n-core (no hook of length exactly n) iff every bead b has a bead at
b - n.  The top bead of each runner, plus n, sorted, is the core's
`window`: the window of its affine Grassmannian element w_core.

`NCore(n, parts)` checks its input; it is the constructor for callers.
There is one instance per window: `NCore` returns the one that the
cached `_core_of_window` holds, and every core the library builds itself
comes from a window through that same function, which reads the parts
off the beads and skips the checks.  It is the intern table and is never
cleared.  Equal cores are thus the same object and compare and hash by
identity, in C; a set of cores iterates in address order, so every one
is sorted before it reaches output.  The other views are read off the
beads:
  * degree is ell(w_core), the number of cells of hook length < n;
  * core_of winds a Grassmannian window back into beads and parts;
  * c_inverse / c_map: partitions with parts < n <-> n-cores, row i
    of the bounded partition counting the gaps in (b_i - n, b_i);
    c_map walks the cells' residues as weak covers (Lapointe-Morse 2005)
    and rect_translation translates the window (Lapointe-Morse 2008),
    by the one shift that adds any multiset of rectangles R_r, both
    checked through n = 10;
  * a_map: reduced words -> n-cores; core_to_word is a reduced word of
    w_core.

Strong (Bruhat) covers on cores are containment plus degree difference
one; tau_{i,i+s} w_core moves one window entry up by s and one down by s,
so covers are read off the window.  A candidate (i, s) is a cover iff the
window stays sorted and no residue i+1..i+s-1 sits strictly between the
two moved entries: an O(1) test per candidate, with no length computed.
Up covers raise the higher entry, down covers the lower one, and every
cover has s < n.  Its skew is made of s-cell ribbon copies n contents
apart, so each copy is a run of consecutive content, and its rows, read
from the last one down, list its cells in content order.
The weak cover s_i w_core is one degree up iff the entries a, b of residues
i, i+1 have b < a; then a, b become a + 1, b - 1 in place: no length.
Weak Pieri, h_m xi_core, takes such steps along the maximal cyclic runs
of each m-subset of Z/n at once (`_weak_pieri_terms`); `_h_times`
applies a signed row sum_a c_a h_a by Horner on the smallest part, so
the largest h acts on the core first, with no cache.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import add

from .affine import AffinePermutation, check_letters, reduced_word


class NonReducedWordError(ValueError):
    """A letter had no addable corner of its residue during a_map."""


class NoActionError(ValueError):
    """act_s was asked to add corners of a residue with none addable."""


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def normalize(parts) -> tuple:
    """Drop trailing zeros; validate weak decrease."""
    parts = tuple(p for p in parts if p != 0)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


def conjugate(parts) -> tuple:
    parts = tuple(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def contains(lam, mu) -> bool:
    lam, mu = tuple(lam), tuple(mu)
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


def union(lam, mu) -> tuple:
    """Multiset union of parts, sorted decreasingly."""
    return tuple(sorted(list(lam) + list(mu), reverse=True))


def dominance_leq(mu, lam) -> bool:
    """mu <= lam in dominance (equal sizes; padded partial sums)."""
    mu, lam = tuple(mu), tuple(lam)
    if sum(mu) != sum(lam):
        return False
    pm = pl = 0
    for k in range(max(len(mu), len(lam))):
        pm += mu[k] if k < len(mu) else 0
        pl += lam[k] if k < len(lam) else 0
        if pm > pl:
            return False
    return True


def _beads(parts) -> list:
    """Beta numbers lam_i - i + 1, row 1 (the highest bead) first."""
    return [p - i for i, p in enumerate(parts)]


def _window(n: int, beads) -> tuple:
    """Top bead of each runner, plus n, sorted; a floor at -len(beads) fills empty runners."""
    floor = -len(beads)
    top = {b % n: b + n for b in [*range(floor - n + 1, floor + 1), *sorted(beads)]}
    return tuple(sorted(top.values()))


def is_ncore(parts, n: int) -> bool:
    """No hook of length exactly n: every bead has a bead n below it."""
    beads = _beads(parts)
    have = set(beads)
    return all(b - n <= -len(beads) or b - n in have for b in beads)


class NCore:
    """An n-core partition, checked here: one instance per window, from `_core_of_window`.

    Equal cores are the same object, so equality and hashing are the
    default identity ones, run in C.
    """

    __slots__ = ("n", "parts", "window")

    def __new__(cls, n: int, parts):
        if n < 2:
            raise ValueError("modulus n must be at least 2")
        parts = normalize(parts)
        if not is_ncore(parts, n):
            raise ValueError(f"{parts} has a hook of length {n}")
        return _core_of_window(n, _window(n, _beads(parts)))

    def __reduce__(self):
        # copies and unpickled cores come back through the intern table
        return NCore, (self.n, self.parts)

    def degree(self) -> int:
        """Number of cells of hook length < n; equals ell(w_core)."""
        return sum(c_inverse(self))

    def __repr__(self):
        return f"NCore({self.n}, {list(self.parts)})"


def _slots(window, n: int) -> dict:
    """residue -> position of the window entry of that residue."""
    return {v % n: p for p, v in enumerate(window)}


def _weak_steps(n: int, window, slot, letters):
    """The window after s_i for each residue i in turn; None at the first that is no weak cover."""
    u, slot = list(window), dict(slot)
    for i in letters:
        p, q = slot[i], slot[(i + 1) % n]
        if u[q] > u[p]:
            return None
        u[p], u[q], slot[i], slot[(i + 1) % n] = u[p] + 1, u[q] - 1, q, p
    return tuple(u)


def _weak_cover(core: NCore, i: int):
    """The core of s_i w_core if it is one degree up, else None."""
    up = _weak_steps(core.n, core.window, _slots(core.window, core.n), (i % core.n,))
    return None if up is None else _core_of_window(core.n, up)


# -- weak Pieri ---------------------------------------------------------


@lru_cache(maxsize=None)
def _cyclic_runs(n: int, m: int) -> tuple:
    """The m-subsets of Z/n in combinations order, each as the set of its maximal cyclic runs.

    The run (a, k) is the residues a, a+1, ..., a+k-1 mod n; m < n, so
    every run has a first residue.
    """
    out = []
    for subset in combinations(range(n), m):
        members = set(subset)
        runs = []
        for a in subset:
            if (a - 1) % n not in members:
                k = 1
                while (a + k) % n in members:
                    k += 1
                runs.append((a, k))
        out.append(frozenset(runs))
    return tuple(out)


def _weak_runs(core: NCore) -> tuple:
    """The window position of each residue, and every run (a, k) that is a chain of weak covers.

    Those are the runs with k <= reach(a), the largest k < n with
    v(a+j) < v(a) + j - 1 for j = 1..k; one scan from each residue.
    """
    n = core.n
    slot, v = [0] * n, [0] * n
    for p, x in enumerate(core.window):
        slot[x % n], v[x % n] = p, x
    fits = set()
    for a in range(n):
        k = 1
        while k < n and v[(a + k) % n] < v[a] + k - 1:
            fits.add((a, k))
            k += 1
    return slot, fits


@lru_cache(maxsize=None)
def _weak_pieri_terms(m: int, core: NCore) -> tuple:
    """The cores gamma with xi_gamma in h_m xi_core, for 0 <= m < n, in combinations order.

    h_m is the sum of the cyclically decreasing elements of length m, one
    per m-subset S of Z/n; its word, read from the right, takes each
    maximal cyclic run [a, a+k-1] of S upwards from a, one weak cover a
    letter.  Write v(i) for the window entry of residue i.  Letter
    a+j-1 (j = 1..k) finds v(a) + j - 1 at residue a+j-1, carried up the
    run, and v(a+j) at residue a+j, untouched: it is a weak cover iff
    v(a+j) < v(a) + j - 1, and it carries v(a) + j on to residue a+j and
    leaves v(a+j) - 1 behind.  So the run is a chain of weak covers iff
    k <= reach(a), the longest run from a that meets this for every j
    (`_weak_runs`), and in place it adds k to v(a) and subtracts 1 from
    v(a+1..a+k).  A residue outside S separates two maximal runs, so
    they touch disjoint residues a..a+k and act independently; the
    window stays sorted, as in `_weak_steps`, so each S gives the tuple
    its word walk gives.
    """
    n, window = core.n, core.window
    if not 0 <= m < n:
        return ()
    slot, fits = _weak_runs(core)
    out = []
    for runs in _cyclic_runs(n, m):
        if runs <= fits:
            u = list(window)
            for a, k in runs:
                u[slot[a]] += k
                for i in range(a + 1, a + k + 1):
                    u[slot[i % n]] -= 1
            out.append(_core_of_window(n, tuple(u)))
    if len(set(out)) != len(out):
        raise AssertionError("weak Pieri term repeated")
    return tuple(out)


def _h_times(row, core: NCore) -> dict:
    """sum_a c_a h_a xi_core for a signed row of (a, c_a) pairs, as dict core -> coefficient.

    h_a xi = h_{a_1} ... h_{a_l} xi by weak Pieri, and Lambda is
    commutative, so the h's may act in any order.  Horner on the last
    (smallest) part: the row is sum_j h_j (sum_{a_l = j} c_a h_{a_1...a_{l-1}} xi_core),
    so the largest part acts on the core first, where the fewest terms
    are; terms cancel before each weak Pieri step, and zeros are left out.
    """
    out: dict = {}
    rests: dict = {}
    for a, c in row:
        if a:
            rests.setdefault(a[-1], []).append((a[:-1], c))
        else:
            out[core] = out.get(core, 0) + c
    for j, rest in rests.items():
        for gamma, c in _h_times(rest, core).items():
            for nu in _weak_pieri_terms(j, gamma):
                out[nu] = out.get(nu, 0) + c
    return {nu: c for nu, c in out.items() if c}


def act_s(core: NCore, residue: int) -> NCore:
    """Add every addable corner of the residue; degree goes up by one."""
    up = _weak_cover(core, residue)
    if up is None:
        raise NoActionError(f"no addable corner of residue {residue}")
    return up


def a_map(word, n: int) -> NCore:
    """The core s_{i_1} ... s_{i_l}(empty), innermost letter first."""
    word = list(word)
    check_letters(word, n)
    core = NCore(n, ())
    for i in reversed(word):
        core = _weak_cover(core, i)
        if core is None:
            raise NonReducedWordError(f"letter {i} adds no corner: not a reduced Grassmannian word")
    return core


def core_to_word(core: NCore):
    """Reduced word of w_core, peeling the largest left descent first.

    At each step that removes every removable corner of the largest
    residue that has one; a_map(core_to_word(c)) == c.
    """
    return reduced_word(w_core(core))


def w_core(core: NCore) -> AffinePermutation:
    """The affine Grassmannian element of the core (NCore checked its window)."""
    return AffinePermutation._unchecked(core.n, core.window)


@lru_cache(maxsize=None)
def _core_of_window(n: int, window: tuple) -> NCore:
    """The core of a Grassmannian window, unchecked: the intern table of every NCore.

    It builds the one instance of each window, and is never cleared: a
    core built after a clear would be a second object for the same
    core, equal to no core built before it.  The beads are the runner
    tops v - n and every position n, 2n, ... below them, down to a full
    row of n beads; row i is b_i + i.
    """
    low = min(window)
    beads = sorted((v - n - k for v in window for k in range(0, v - low + 1, n)), reverse=True)
    core = object.__new__(NCore)
    core.n, core.window = n, window
    core.parts = tuple(p for p in (b + i for i, b in enumerate(beads)) if p)
    return core


def core_of(w: AffinePermutation) -> NCore:
    """The core of an affine Grassmannian element."""
    if not w.is_grassmannian():
        raise ValueError("not an affine Grassmannian element")
    return _core_of_window(w.n, w.window)


@lru_cache(maxsize=None)
def c_inverse(core: NCore) -> tuple:
    """Row i counts the gaps in (b_i - n, b_i): its hooks shorter than n."""
    n, beads = core.n, _beads(core.parts)
    have = set(beads)
    floor = -len(beads)
    return tuple(sum(g not in have for g in range(max(b - n, floor) + 1, b)) for b in beads)


def c_map(bounded, n: int) -> NCore:
    """The unique n-core whose row i has bounded_i hooks shorter than n.

    w_core is s_{i_L} ... s_{i_1} for the residues (j - i) mod n of the
    cells (i, j) of bounded, read row 1 first, left to right: a reduced
    word, walked from the identity one weak cover a letter
    (Lapointe-Morse, JCTA 2005).  Checked through n = 10.
    """
    if n < 2:
        raise ValueError("modulus n must be at least 2")
    bounded = normalize(bounded)
    if any(p >= n for p in bounded):
        raise ValueError(f"parts must be < {n}")
    return _core_of_bounded(bounded, n)


@lru_cache(maxsize=None)
def _core_of_bounded(bounded, n: int) -> NCore:
    start = tuple(range(1, n + 1))
    word = ((j - i) % n for i, p in enumerate(bounded, start=1) for j in range(1, p + 1))
    return _core_of_window(n, _weak_steps(n, start, _slots(start, n), word))


def rect(r: int, n: int) -> tuple:
    """The rectangle R_r = (r^(n-r))."""
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}, n={n}")
    return (r,) * (n - r)


def _rect_rows(bounded, r: int, n: int) -> range:
    """The rows of bounded union R_r of length r: its parts equal to r, then the n - r of R_r."""
    return range(sum(p > r for p in bounded) + 1, sum(p >= r for p in bounded) + n - r + 1)


def rect_translation(core: NCore, r: int) -> NCore:
    """R(r, core) = c_map(c_inverse(core) union R_r), the window moved by `_rect_shift`."""
    rect(r, core.n)
    return _shifted(core, _rect_shift(core.n, (r,)))


def _rect_shift(n: int, rects) -> tuple:
    """The window shift that adds R_r for every r of rects, added up; r unchecked.

    Adding R_r translates w_core (Lapointe-Morse, Adv. Math. 2008): the
    first r window entries go down by n - r, the other n - r up by r.  The
    shift grows with the position, so the window stays sorted, and moves
    every residue by r, so residues stay distinct; a sum of such shifts
    does both too.
    """
    return tuple(map(sum, zip((0,) * n, *((r - n,) * r + (r,) * (n - r) for r in rects))))


def _shifted(core: NCore, shift) -> NCore:
    """The core of the window moved by a `_rect_shift`."""
    return _core_of_window(core.n, tuple(map(add, core.window, shift)))


# -- ribbons -----------------------------------------------------------


def _cover_ribbons(outer, inner) -> tuple:
    """The ribbon copies of a strong cover's skew: its runs of consecutive content.

    Each copy has s < n cells and the next sits n contents on (`_covers`),
    so no two skew cells share a content.  Then the skew has no 2 x 2
    block, whose diagonal cells would, so every cell is on the outer rim:
    row i + 1 ends at or before the column where row i starts, its last
    content below row i's first.  So the rows, read from the last one
    down, list the cells in content order, and a gap in the contents ends
    a copy.  Copies come back in content order, each sorted by content.
    """
    runs, last = [], None
    for i in range(len(outer), 0, -1):
        p, q = outer[i - 1], inner[i - 1] if i <= len(inner) else 0
        if p == q:
            continue
        row = [(i, j) for j in range(q + 1, p + 1)]
        if q - i == last:  # the row's first content, q + 1 - i, follows on
            runs[-1].extend(row)
        else:
            runs.append(row)
        last = p - i
    return tuple(map(tuple, runs))


def ribbon_head(comp):
    """Southeasternmost cell of a content-sorted ribbon: the one of maximal content."""
    return comp[-1]


def ribbon_tail(comp):
    return comp[0]


# -- strong covers ------------------------------------------------------


def _covers(core: NCore, step: int):
    """Strong covers one degree up (step 1) or down (step -1), in (i, s) order.

    tau_{i,i+s} w_core, 0 < s < n, raises v_p, the window entry of residue
    i at position p, by s and lowers v_q, that of residue i+s, by s.  It
    is Grassmannian iff the window stays sorted: only the raised entry's
    upper neighbour and the lowered entry's lower one can fall out of
    order.  A sorted window has length sum_{a<b} (v_b - v_a) // n (Shi;
    Bjorner-Brenti 8.3).  The moved entries swap residues and keep their
    sum, so an entry x below both or above both has the same two terms
    before and after: only the (p, q) pair and the entries strictly
    between them change.
      * Down step, q > p: v_q - v_p = s + kn, and the pair term goes from k
        to k - 1.  An entry x between them adds
        (x - v_p - s) // n - (x - v_p) // n + (v_q - s - x) // n - (v_q - x) // n,
        which is 0 iff (x - v_p) mod n > s, else -2.
      * Up step, q < p: v_p - v_q = n - s + kn, and the pair term goes from
        k to k + 1.  An entry x between them adds
        (x - v_q + s) // n - (x - v_q) // n + (v_p + s - x) // n - (v_p - x) // n,
        which is 0 iff (x - v_q) mod n < n - s, else +2.
    Both say that x has no residue in i+1..i+s-1 (x has neither residue i
    nor i+s).  So the length changes by -1 or +1 and then 2 for each such
    residue between p and q: a Grassmannian step is a cover iff there is
    none, up covers have q < p and down covers q > p.  For s >= n the pair
    term alone moves by at least 2s // n, so every cover has s < n; and a
    raised entry that reaches its upper neighbour stays out of order for
    every larger s, so the scan of residue i stops at min(that gap, n).
    Below that gap, a down step with q = p + 1 has v_q - v_p >= s + n, so
    the moved pair stays in order too.  While s grows the scan keeps
    `near`, the slot of residues i+1..i+s-1 nearest p on the cover's side,
    so the test is O(1), and it stops once that slot is next to p.  Only
    an accepted cover copies the window.
    """
    n, parts, window = core.n, core.parts, core.window
    slot = _slots(window, n)
    out = []
    for i in range(n):
        p = slot[i]
        near = -1 if step > 0 else n
        for s in range(1, min(window[p + 1] - window[p], n) if p < n - 1 else n):
            if near == p - step:
                break
            q = slot[(i + s) % n]
            if (near < q < p) if step > 0 else (p < q < near):
                near, low = q, window[q] - s
                if q == 0 or window[q - 1] < low:
                    u = list(window)
                    u[p], u[q] = window[p] + s, low
                    other = _core_of_window(n, tuple(u))
                    outer, inner = (other.parts, parts) if step > 0 else (parts, other.parts)
                    out.append((other, _cover_ribbons(outer, inner), (i, i + s)))
    return tuple(out)


@lru_cache(maxsize=None)
def _covers_up(core: NCore):
    return _covers(core, 1)


@lru_cache(maxsize=None)
def _covers_down(core: NCore):
    return _covers(core, -1)


def strong_covers_up(core: NCore):
    """All (gamma, ribbons, tau) with core <_B gamma a strong cover."""
    return _covers_up(core)


def strong_covers_down(core: NCore):
    """All (mu, ribbons, tau) with mu <_B core a strong cover."""
    return _covers_down(core)


#: n -> the cores of degree 0, 1, ... built so far
_cores_by_degree: dict = {}


def cores_of_degree(n: int, d: int):
    """All n-cores of the given degree: the weak covers of those one degree down, in a loop."""
    if d < 0:
        return ()
    levels = _cores_by_degree.setdefault(n, [(NCore(n, ()),)])
    while len(levels) <= d:
        out = {_weak_cover(core, i) for core in levels[-1] for i in range(n)}
        out.discard(None)
        levels.append(tuple(sorted(out, key=lambda c: c.parts, reverse=True)))
    return levels[d]
