"""Strong strips, horizontal strong strips, and ribbon strong strips.

A marked strong cover of rho is a strong cover (rho <_B gamma) together
with the content of the head of one ribbon copy in gamma/rho.  A strong
m-strip is a saturated chain with a strictly increasing content vector.

A horizontal strong m-strip (lam, nu) is a saturated chain from nu up
to the translation R(n-1, lam) = (lam_1 + n - 1, lam) whose bottom rows
grow strictly at every step, with m = n - 1 + deg(lam) - deg(nu); each
such pair carries a unique chain.  Each step keeps the ribbon copies of
its strong cover as the cover table returned them, so contents, psi
and the countertableau views read heads, tails and cells off them;
psi/phi convert a strip to and from the cyclically decreasing reduced
word of w_nu w_lam^{-1}.

Ribbon strong strips generalize to the translation R(r, lam): chains
whose per-step ribbon heads sit in the bottom row or directly above an
older cell, with a ribbon tail in the marked columns col_r(lam).  The
ribbon and marked-tail walks down from R(r, lam) go one layer per
length up to a depth, and their pruning does not read the length b, so
layer b holds what a walk cut at b finds: `schubert._rect_pieri_sides`
builds R(r, lam) and col_r once per (lam, r) and reads every b < r off
one walk of each to depth r - 1.  A layer merges the prefixes that
share their continuations, keyed by core and head rows (ribbon) or by
core and last head content (marked tail).  The
ribbon walk drops a cover once a head is in neither the bottom row nor
above a cell of the shape below it: every shape further down is
smaller, so no longer chain through it qualifies.  Both walks take the
down covers with a tail in the marked columns from `_tail_covers`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .affine import check_letters, cyclically_decreasing_word, is_word_cyclically_decreasing
from .cores import (
    NCore,
    _rect_rows,
    c_inverse,
    contains,
    rect_translation,
    ribbon_head,
    ribbon_tail,
    strong_covers_down,
    strong_covers_up,
)


class StrongStrip(NamedTuple):
    """Saturated chain of cores with its increasing content vector."""

    chain: tuple
    contents: tuple


class HorizontalStrongStrip(NamedTuple):
    """Pair (lam, nu) with the chain nu -> R(n-1, lam), its contents and ribbons.

    ribbons[k] is the ribbon tuple of the cover chain[k] <_B chain[k+1],
    shared with the cover table; its last copy is the one in the bottom
    row, because copies are translates along the diagonal and the
    bottom one has the largest head content.
    """

    lam: NCore
    nu: NCore
    chain: tuple
    contents: tuple
    ribbons: tuple


class RibbonStrongStrip(NamedTuple):
    """Pair (lam, nu) with a horizontal ribbon strip chain to R(r, lam)."""

    lam: NCore
    nu: NCore
    r: int
    chain: tuple


def marked_strong_covers(rho: NCore):
    """All (gamma, c): rho <_B gamma, c the content of a ribbon head."""
    out = [(gamma, j - i) for gamma, ribbons, _tau in strong_covers_up(rho)
           for i, j in map(ribbon_head, ribbons)]
    return sorted(out, key=lambda gc: (gc[0].parts, gc[1]))


def strong_strips(nu: NCore, gamma: NCore, m: int):
    """All strong m-strips from nu to gamma (degree mismatch: none)."""
    if nu.n != gamma.n:
        raise ValueError("mismatched moduli")
    if gamma.degree() != nu.degree() + m:
        return []
    strips = []

    def walk(cur, chain, contents):
        if len(contents) == m:
            if cur == gamma:
                strips.append(StrongStrip(tuple(chain), tuple(contents)))
            return
        for nxt, c in marked_strong_covers(cur):
            if contents and c <= contents[-1]:
                continue
            if contains(gamma.parts, nxt.parts):
                walk(nxt, chain + [nxt], contents + [c])

    walk(nu, [nu], [])
    return sorted(strips, key=lambda s: s.contents)


def _strip(lam: NCore, desc, ribbons) -> HorizontalStrongStrip:
    """The strip of an ascending chain; contents are its bottom-row head contents."""
    contents = tuple(j - i for i, j in (ribbon_head(step[-1]) for step in ribbons))
    return HorizontalStrongStrip(lam, desc[0], desc, contents, ribbons)


@lru_cache(maxsize=None)
def _hss_from(lam: NCore, m: int):
    if not 0 <= m <= lam.n - 1:
        return ()
    top = rect_translation(lam, lam.n - 1)
    strips = []

    def walk(cur, chain, steps):
        # chain is descending from R(n-1, lam); bottom rows shrink.
        if len(chain) == m + 1:
            strips.append(_strip(lam, tuple(reversed(chain)), tuple(reversed(steps))))
            return
        cur_bottom = cur.parts[0] if cur.parts else 0
        for mu, ribbons, _tau in strong_covers_down(cur):
            mu_bottom = mu.parts[0] if mu.parts else 0
            if mu_bottom < cur_bottom and contains(mu.parts, lam.parts):
                walk(mu, chain + [mu], steps + [ribbons])

    walk(top, [top], [])
    strips.sort(key=lambda s: s.nu.parts, reverse=True)
    return tuple(strips)


def horizontal_strong_strips_from(lam: NCore, m: int):
    """All horizontal strong m-strips (lam, nu); one chain per nu."""
    return list(_hss_from(lam, m))


def _anchor(lam: NCore) -> int:
    lam1 = lam.parts[0] if lam.parts else 0
    return (lam1 - 1) % lam.n


def psi(strip: HorizontalStrongStrip):
    """The cyclically decreasing word of w_nu w_lam^{-1} from the chain.

    The tail residues a_m < ... < a_1 of the bottom-row ribbons are read
    off the strip's ribbons; the word is the complement of {a_i} in the
    n-1 residues other than x = lam_1 - 1 mod n, sorted decreasingly in
    the cyclic order anchored at x.
    """
    n = strip.lam.n
    x = _anchor(strip.lam)
    tails = {(ribbon_tail(step[-1])[1] - 1) % n for step in strip.ribbons}
    return cyclically_decreasing_word(set(range(n)) - {x} - tails, n, x)


def phi(word, lam: NCore) -> HorizontalStrongStrip:
    """The chain of the horizontal strong strip named by a reduced word.

    The word must be a cyclically decreasing word avoiding the residue
    x = lam_1 - 1 mod n; ribbons with the complementary tail residues
    are deleted from R(n-1, lam), rightmost tail first.
    """
    n = lam.n
    x = _anchor(lam)
    word = tuple(word)
    check_letters(word, n)
    if x in word:
        raise ValueError(f"word may not contain the residue {x}")
    if not is_word_cyclically_decreasing(word, n):
        raise ValueError("word is not cyclically decreasing")
    a_list = cyclically_decreasing_word(set(range(n)) - {x} - set(word), n, x)
    chain = [rect_translation(lam, n - 1)]
    steps = []
    for before, a in zip((x,) + a_list, a_list):
        tau = (a, a + (before - a) % n)
        cover = next(((mu, ribbons) for mu, ribbons, t in strong_covers_down(chain[-1])
                      if t == tau), None)
        if cover is None:
            break
        chain.append(cover[0])
        steps.append(cover[1])
    else:
        desc = tuple(reversed(chain))
        if contains(desc[0].parts, lam.parts):
            return _strip(lam, desc, tuple(reversed(steps)))
    raise ValueError(f"word {word} names no horizontal strong strip of {lam.parts}")


# -- ribbon strong strips ------------------------------------------------


def _marked_top(lam: NCore, r: int):
    """R(r, lam) and col_r(lam, r), the top of every ribbon walk and its marked columns."""
    n = lam.n
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}")
    top = rect_translation(lam, r)
    row_len = top.parts[_rect_rows(c_inverse(lam), r, n)[-1] - 1]
    return top, tuple(range(row_len - r + 1, row_len + 1))


def col_r(lam: NCore, r: int):
    """The r marked columns used by ribbon strong strips.

    With eta = c_inverse(lam) union R_r and m the highest row of eta of
    length r, the last of `_rect_rows`, these are the columns of the
    last r cells in row m of c_map(eta) = R(r, lam).
    """
    return _marked_top(lam, r)[1]


def _head_rows(rows: tuple, ribbons) -> tuple:
    """rows with a cover's heads taken in: entry k is the largest head column in row k + 2.

    A head (i, j) is in row 1 or directly above a cell of a shape iff
    i == 1 or the shape's row i - 1 reaches column j.  So every head of a
    chain is iff row k + 1 of the shape reaches rows[k] for each k: the
    largest head column of a row stands for all its heads.  The last
    entry is never 0, so len(rows) is the highest such row needed.
    """
    out = list(rows)
    for i, j in map(ribbon_head, ribbons):
        if i > 1:
            out += [0] * (i - 1 - len(out))
            out[i - 2] = max(out[i - 2], j)
    return tuple(out)


def _step_tail_ok(ribbons, columns) -> bool:
    return any(ribbon_tail(comp)[1] in columns for comp in ribbons)


@lru_cache(maxsize=None)
def _tail_covers(core: NCore, columns) -> tuple:
    """The (mu, ribbons) down covers of core with a ribbon tail in the marked columns, in order."""
    return tuple(
        (mu, ribbons) for mu, ribbons, _tau in strong_covers_down(core)
        if _step_tail_ok(ribbons, columns)
    )


def _ribbon_levels(top: NCore, columns, depth: int) -> dict:
    """b <= depth -> {nu: its first ascending chain of length b down from top}; no key if none.

    A chain qualifies when every step has a ribbon tail in the marked
    columns and every ribbon head lies in the bottom row or directly
    above a cell of nu, its smallest shape.  A layer keeps each state
    (core, head rows) once, with the chain of its first prefix.  States
    are taken in layer order and covers in `_tail_covers` order, so by
    induction a layer's insertion order is the lexicographic order of
    first paths: a state's first path extends the first path of its
    earliest parent.  Each kept chain and each level's nu order are
    thus what a depth-first walk over every path finds first.
    """
    layer = {(top, ()): (top,)}
    levels = {0: {top: (top,)}}
    for b in range(1, depth + 1):
        nxt: dict = {}
        for (core, rows), chain in layer.items():
            for mu, ribbons in _tail_covers(core, columns):
                # a head off row 1 and above no cell of mu is so for every smaller shape: prune
                heads = _head_rows(rows, ribbons)
                if len(heads) <= len(mu.parts) and all(p >= j for p, j in zip(mu.parts, heads)):
                    nxt.setdefault((mu, heads), (mu,) + chain)
        if not nxt:
            break
        layer = nxt
        level = levels[b] = {}
        for (core, _rows), chain in layer.items():
            level.setdefault(core, chain)
    return levels


def ribbon_strong_strips(lam: NCore, r: int, b: int):
    """All ribbon strong strips (lam, nu) of length b with respect to r."""
    if b < 0:
        raise ValueError("strip length must be nonnegative")
    level = _ribbon_levels(*_marked_top(lam, r), b).get(b, {})
    strips = [RibbonStrongStrip(lam, nu, r, chain) for nu, chain in level.items()]
    return sorted(strips, key=lambda s: s.nu.parts, reverse=True)


def _marked_tail_levels(top: NCore, columns, depth: int) -> dict:
    """b <= depth -> the set of ends of the marked-tail chains of length b down from top.

    The strong-strip reading of the closing conjecture: saturated chains
    carrying a strictly increasing content vector, every step with a
    ribbon tail in the marked columns (no head condition).  A layer
    holds each (core, last head content) once, the state over which
    `strong_pieri_cohomology` counts strong strips upward.
    """
    layer = {(top, None)}
    levels = {0: {top}}
    for b in range(1, depth + 1):
        layer = {(mu, j - i) for core, floor in layer for mu, ribbons in _tail_covers(core, columns)
                 for i, j in map(ribbon_head, ribbons) if floor is None or j - i < floor}
        if not layer:
            break
        levels[b] = {core for core, _floor in layer}
    return levels
