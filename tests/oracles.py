"""Independent oracles used by the tests.

These deliberately avoid the production code paths: reduced words by
breadth-first search, the core test, degree and bounded-partition
bijection by hook lengths instead of the abacus, Bruhat covers by brute
force over subdiagrams and by the transposition action on w_core, the
length change of one transposition summed over the entries it passes, their
ribbon copies as rookwise components by breadth-first search over the
cells of the skew, the ribbon and marked-tail strip walks one length at
a time, the affine-Monk covers by scanning the down covers of R(r, lam)
for a ribbon cell in a row of length r, act_s by scanning the rows for
addable corners, R(r, core) by composing c_inverse, the union with R_r
and c_map,
the words, strip chains and offsets of an ABC through the quotients
w_core(hi) w_core(lo)^{-1} and skew shapes, the deformed P-functions by exact symmetrization in finitely many
variables and in m through the whole inverse K(t)^{-1} K (dual k-Schur
rows as the whole product of Kn(t) with its bounded slice), every basis
change as a dense whole-degree matrix and products of whole matrices,
k-conjugation by transposing the core, monomial products by expanding in as many variables as
the degree, and homology structure constants by multiplying k-Schur
functions in the h basis and reading the product back through the
dual basis at the product degree, or by weak Pieri without peeling
off the k-rectangles, each h_m applied by the group product v w_core
over the cyclically decreasing v and a full length, or by the lower
factor's own h-row alone, never its k-conjugate's.  The quantum
product of a Grassmannian comes from the Schur product by the rim-hook
rule, beside the homology product read by ribbons.  Horizontal strips
are tested row by row.  Kostka numbers,
Kostka-Foulkes and weak Kostka-Foulkes polynomials are computed one
(lam, mu) pair at a time, by counting horizontal-strip removals down
from lam or by enumerating the tableaux or ABCs of that one shape, with
cocharge picking each letter's cell by scanning the set of remaining
cells and n-cocharge extracting one whole standard subword of ext(A)
at a time.  The command line is parsed by the argparse parser that the
CLI's option table replaced.
"""

from __future__ import annotations

import argparse
from functools import lru_cache
from itertools import permutations

from kschur.abctab import abc_counts, enumerate_abc
from kschur.affine import (
    AffinePermutation,
    cyclic_anchor_key,
    cyclically_decreasing_of_length,
    from_word,
    is_cyclically_decreasing,
    transposition,
)
from kschur.cli import SWEEPS
from kschur.cores import (
    NCore,
    NoActionError,
    _h_times,
    _rect_shift,
    _shifted,
    c_inverse,
    c_map,
    conjugate,
    contains,
    core_of,
    is_partition,
    normalize,
    rect,
    ribbon_head,
    strong_covers_down,
    strong_covers_up,
    union,
    w_core,
)
from kschur.schubert import _peel, _structure_constants
from kschur.strips import _step_tail_ok, horizontal_strong_strips_from, phi
from kschur.symfun import (
    ONE,
    ZERO,
    _block,
    _dot,
    _kschur_row,
    bounded_partitions_of,
    kf_matrix,
    kn_matrix,
    multiply,
    partitions_of,
    schur,
)
from kschur.tableaux import Tableau, _kostka_fiber, _ptilde_fiber, semistandard_tableaux
from kschur.tpoly import TPoly


# -- word-side oracles ------------------------------------------------------


@lru_cache(maxsize=None)
def bfs_lengths(n: int, max_len: int):
    """dict window -> length for all elements of length <= max_len."""
    simple = [from_word((i,), n) for i in range(n)]
    frontier = [AffinePermutation.identity(n)]
    lengths = {frontier[0].window: 0}
    for ell in range(1, max_len + 1):
        nxt = []
        for w in frontier:
            for s in simple:
                u = s * w
                if u.window not in lengths:
                    lengths[u.window] = ell
                    nxt.append(u)
        frontier = nxt
    return lengths


@lru_cache(maxsize=None)
def bfs_reduced_words(n: int, max_len: int):
    """dict window -> sorted tuple of all reduced words, length <= max_len."""
    lengths = bfs_lengths(n, max_len + 1)
    words = {AffinePermutation.identity(n).window: {()}}
    frontier = [AffinePermutation.identity(n)]
    for ell in range(1, max_len + 1):
        nxt = {}
        for w in frontier:
            for i in range(n):
                u = from_word((i,), n) * w
                if lengths.get(u.window) == ell:
                    bucket = nxt.setdefault(u.window, set())
                    bucket.update((i,) + word for word in words[w.window])
        for window, ws in nxt.items():
            words.setdefault(window, set()).update(ws)
        frontier = [AffinePermutation(n, win) for win in nxt]
    return {win: tuple(sorted(ws)) for win, ws in words.items()}


# -- core-side oracles ------------------------------------------------------


def subpartitions(parts):
    """All partitions contained in parts."""
    parts = tuple(parts)
    out = []

    def build(i, cap, cur):
        if i == len(parts):
            out.append(normalize(tuple(cur)))
            return
        for p in range(0, min(parts[i], cap) + 1):
            cur.append(p)
            build(i + 1, p if p else 0, cur)
            cur.pop()

    build(0, parts[0] if parts else 0, [])
    return sorted(set(out), reverse=True)


def hook(parts, i: int, j: int) -> int:
    arm = parts[i - 1] - j
    leg = sum(1 for p in parts[i:] if p >= j)
    return arm + leg + 1


def hooks_of_row(parts, i: int):
    return [hook(parts, i, j) for j in range(1, parts[i - 1] + 1)]


def hook_is_ncore(parts, n: int) -> bool:
    """No cell has hook length exactly n (larger hooks are allowed)."""
    parts = tuple(parts)
    return all(n not in hooks_of_row(parts, i) for i in range(1, len(parts) + 1))


def hook_c_inverse(parts, n: int) -> tuple:
    """Row-wise count of cells of hook length < n."""
    parts = tuple(parts)
    return tuple(
        sum(1 for h in hooks_of_row(parts, i) if h < n) for i in range(1, len(parts) + 1)
    )


def hook_degree(parts, n: int) -> int:
    """Number of cells of hook length < n."""
    return sum(hook_c_inverse(parts, n))


def row_scan_c_map(bounded, n: int) -> tuple:
    """Parts of the n-core whose rows carry the given sub-n hook counts.

    Built top row down; each row takes the smallest length that is
    consistent with the rows above (right count, no hook equal to n).
    """
    rows_above: list[int] = []  # lengths, top row first
    for p in reversed(tuple(bounded)):
        start = rows_above[-1] if rows_above else p
        for length in range(max(start, p), start + p + 2 * n + 2):
            hooks = [
                length - j + 1 + sum(1 for q in rows_above if q >= j)
                for j in range(1, length + 1)
            ]
            if n not in hooks and sum(1 for h in hooks if h < n) == p:
                rows_above.append(length)
                break
        else:
            raise AssertionError("c_map row scan exhausted; bound too small")
    return tuple(reversed(rows_above))


def composed_rect_translation(core: NCore, r: int) -> NCore:
    """R(r, core) by its definition: c_map of c_inverse(core) union R_r."""
    n = core.n
    return c_map(union(c_inverse(core), rect(r, n)), n)


def k_conjugate(bounded, n: int) -> tuple:
    """bounded^{omega_k} = c^{-1}(c(bounded)'): the n-core transposed (Lapointe-Morse, JCTA 2005)."""
    return c_inverse(NCore(n, conjugate(c_map(bounded, n).parts)))


def brute_covers_down(core: NCore):
    """mu <_B core by the definition: containment plus degree drop one."""
    n, d = core.n, hook_degree(core.parts, core.n)
    return [
        NCore(n, mu)
        for mu in subpartitions(core.parts)
        if hook_is_ncore(mu, n) and hook_degree(mu, n) == d - 1
    ]


def addable_corners(core: NCore, residue: int):
    """Addable corners of the given n-residue, as (row, col) cells."""
    n, parts = core.n, core.parts
    rows = [1] + [i for i in range(2, len(parts) + 1) if parts[i - 2] > parts[i - 1]]
    if parts:
        rows.append(len(parts) + 1)
    out = []
    for i in rows:
        j = (parts[i - 1] + 1) if i <= len(parts) else 1
        if (j - i) % n == residue % n:
            out.append((i, j))
    return out


def corner_scan_act_s(core: NCore, residue: int) -> NCore:
    """act_s on the diagram: add every addable corner of the residue."""
    adds = addable_corners(core, residue)
    if not adds:
        raise NoActionError(f"no addable corner of residue {residue}")
    parts = list(core.parts) + [0]
    for (i, _) in adds:
        parts[i - 1] += 1
    return NCore(core.n, parts)


def _tau_bound(n: int, d: int) -> int:
    # ell(tau_{i,i+s}) = 2(s - floor(s/n)) - 1 <= 2d + 1
    return n * (d + 2) // (n - 1) + n


def skew_cells(outer, inner):
    """The cells of outer / inner, row by row, each row left to right."""
    outer, inner = tuple(outer), tuple(inner)
    out = []
    for i, p in enumerate(outer, start=1):
        q = inner[i - 1] if i <= len(inner) else 0
        out.extend((i, j) for j in range(q + 1, p + 1))
    return out


def ribbon_components(cells_list):
    """Rookwise connected components by breadth-first search, each sorted by content.

    Components come back sorted by the content of their head, so the
    decomposition of a skew shape is deterministic.
    """
    todo = set(cells_list)
    comps = []
    for seed in sorted(cells_list):
        if seed not in todo:
            continue
        todo.remove(seed)
        stack = [seed]
        comp = {seed}
        while stack:
            i, j = stack.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in todo:
                    todo.remove(nb)
                    comp.add(nb)
                    stack.append(nb)
        comps.append(tuple(sorted(comp, key=lambda c: c[1] - c[0])))
    return sorted(comps, key=lambda comp: comp[-1][1] - comp[-1][0])


def _tau_step(n: int, window, p: int, q: int, s: int):
    """The window of tau_{i,i+s} w and its length change, or None if not Grassmannian.

    w is Grassmannian with residues i, i+s at positions p, q, so window[p]
    goes up by s and window[q] down by s.  Only the raised entry's upper
    neighbour and the lowered entry's lower one can fall out of order.  A
    sorted window has length sum_{a<b} (v_b - v_a) // n (Shi; Bjorner-Brenti
    8.3), and only the (p, q) pair and the entries strictly between them
    change their terms: the length change is summed over them.  The
    O(1) cover test of `cores._covers` replaced this sum.
    """
    up, down = window[p] + s, window[q] - s
    above = down if q == p + 1 else window[p + 1] if p + 1 < n else up
    below = up if q == p + 1 else window[q - 1] if q > 0 else down
    if up > above or below > down:
        return None
    u = list(window)
    u[p], u[q] = up, down
    lo, hi = (p, q) if p < q else (q, p)
    bot, top = window[lo], window[hi]
    new_bot, new_top = u[lo], u[hi]
    change = (new_top - new_bot) // n - (top - bot) // n
    for x in window[lo + 1:hi]:
        change += (new_top - x) // n + (x - new_bot) // n - (top - x) // n - (x - bot) // n
    return tuple(u), change


def transposition_covers(n: int, parts, step: int):
    """Strong covers one degree up (step 1) or down (step -1), by the group action.

    Scans tau_{i,i+s} w_core in (i, s) order and keeps the products that
    are Grassmannian with length one more (or less) than the core's.
    """
    core = NCore(n, parts)
    w = w_core(core)
    d = core.degree()
    out = []
    for i in range(n):
        for s in range(1, _tau_bound(n, d) + 1):
            if s % n == 0:
                continue
            u = transposition(i, i + s, n) * w
            if u.length() == d + step and u.is_grassmannian():
                other = core_of(u)
                outer, inner = (other.parts, parts) if step > 0 else (parts, other.parts)
                ribbons = tuple(ribbon_components(skew_cells(outer, inner)))
                out.append((other, ribbons, (i, i + s)))
    return tuple(out)


def _step_heads_ok(ribbons, base_parts) -> bool:
    """Each ribbon head of a cover in row 1 or directly above a base cell."""
    heads = map(ribbon_head, ribbons)
    return all(i == 1 or (i - 1 <= len(base_parts) and base_parts[i - 2] >= j) for i, j in heads)


def ribbon_chains_of_length(top: NCore, columns, b: int) -> dict:
    """The ribbon strip chains of length b down from top, by a walk cut at depth b.

    nu -> its ascending chains, both in DFS order: the one-length walk
    that `strips._ribbon_levels` replaced.
    """
    found = {}

    def walk(cur, chain, steps):
        if len(chain) == b + 1:
            if all(_step_heads_ok(ribbons, cur.parts) for ribbons in steps):
                found.setdefault(cur, []).append(tuple(reversed(chain)))
            return
        for mu, ribbons, _tau in strong_covers_down(cur):
            if _step_tail_ok(ribbons, columns) and _step_heads_ok(ribbons, mu.parts):
                walk(mu, chain + [mu], steps + [ribbons])

    walk(top, [top], [])
    return found


def marked_tails_of_length(top: NCore, columns, b: int) -> set:
    """The ends of the marked-tail chains of length b down from top, by a walk cut at depth b."""
    out = set()

    def walk(cur, floor_content, steps):
        if steps == b:
            out.add(cur)
            return
        for mu, ribbons, _tau in strong_covers_down(cur):
            if not _step_tail_ok(ribbons, columns):
                continue
            for c in {j - i for i, j in map(ribbon_head, ribbons)}:
                if floor_content is None or c < floor_content:
                    walk(mu, c, steps + 1)

    walk(top, None, 0)
    return out


def monk_covers(r: int, lam, n: int) -> list:
    """The down covers of R(r, lam) with a ribbon cell in a row where lam union R_r has length r.

    Bounded, lex descending: the one-cover scan that the depth-1 ribbon level replaced."""
    eta = union(lam, rect(r, n))
    rows = {i for i, part in enumerate(eta, start=1) if part == r}
    top = composed_rect_translation(c_map(lam, n), r)
    covers = {mu for mu, ribbons, _tau in strong_covers_down(top)
              if any(i in rows for comp in ribbons for i, _j in comp)}
    return sorted(map(c_inverse, covers), reverse=True)


# -- ABC views through the group and skew shapes -----------------------------


def saturated_chains(nu: NCore, gamma: NCore):
    """All saturated strong chains from nu up to gamma (no marking)."""
    if nu.n != gamma.n:
        raise ValueError("mismatched moduli")
    chains = []

    def walk(cur, chain):
        if cur == gamma:
            chains.append(tuple(chain))
            return
        if cur.degree() >= gamma.degree():
            return
        for nxt, _ribbons, _tau in strong_covers_up(cur):
            if contains(gamma.parts, nxt.parts):
                walk(nxt, chain + [nxt])

    walk(nu, [nu])
    return chains


def is_horizontal_strong_strip(lam: NCore, nu: NCore) -> bool:
    m = lam.n - 1 + lam.degree() - nu.degree()
    return any(s.nu == nu for s in horizontal_strong_strips_from(lam, m))


def quotient_words(abc) -> tuple:
    """Theta by the group: the CD word of w_core(hi) w_core(lo)^{-1}, anchored."""
    out = []
    for lo, hi in zip(abc.chain, abc.chain[1:]):
        word = is_cyclically_decreasing(w_core(hi) * w_core(lo).inverse())
        if word is None:
            raise AssertionError("strip quotient is not cyclically decreasing")
        x = ((lo.parts[0] if lo.parts else 0) - 1) % abc.n
        out.append(tuple(sorted(word, key=cyclic_anchor_key(x, abc.n), reverse=True)))
    return tuple(out)


def phi_strip_chains(abc) -> tuple:
    """The strip chain of each step, rebuilt by phi from its quotient word."""
    return tuple(phi(word, lo).chain for word, lo in zip(quotient_words(abc), abc.chain))


def step_ribbons(chain) -> tuple:
    """The ribbon copies of each step of an ascending chain, from its skew shape."""
    return tuple(
        tuple(ribbon_components(skew_cells(hi.parts, lo.parts)))
        for lo, hi in zip(chain, chain[1:])
    )


def skew_contents(chain) -> tuple:
    """Head contents of the lowest ribbon of each step of an ascending chain."""
    contents = []
    for comps in step_ribbons(chain):
        i, j = ribbon_head(min(comps, key=lambda comp: min(i for i, _ in comp)))
        contents.append(j - i)
    return tuple(contents)


def skew_off(chains) -> int:
    """off(A): (size - 1) summed over the ribbon copies above the bottom row."""
    return sum(
        len(comp) - 1
        for chain in chains
        for comps in step_ribbons(chain)
        for comp in comps
        if min(i for i, _ in comp) > 1
    )


def skew_letter_cells(chains) -> dict:
    """letter -> sorted countertableau cells of its strip's skew shapes."""
    return {
        i: sorted(
            (i - si + 1, sj)
            for lo, hi in zip(chain, chain[1:])
            for si, sj in skew_cells(hi.parts, lo.parts)
        )
        for i, chain in enumerate(chains, start=1)
    }


# -- exact multivariate polynomials over ZZ[t, t^-1] ------------------------


class MPoly:
    """Polynomial in x_1..x_N with TPoly coefficients: {exponents: TPoly}."""

    __slots__ = ("nvars", "c")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        self.c = {}
        if coeffs:
            for e, v in coeffs.items():
                if v != 0:
                    self.c[tuple(e)] = v

    @staticmethod
    def monomial(nvars, exps, coeff=None):
        return MPoly(nvars, {tuple(exps): coeff if coeff is not None else TPoly.one()})

    @staticmethod
    def zero(nvars):
        return MPoly(nvars)

    def __add__(self, other):
        c = dict(self.c)
        for e, v in other.c.items():
            s = c.get(e, TPoly.zero()) + v
            if s == 0:
                c.pop(e, None)
            else:
                c[e] = s
        return MPoly(self.nvars, c)

    def __sub__(self, other):
        return self + other.scale(TPoly.const(-1))

    def scale(self, t: TPoly):
        return MPoly(self.nvars, {e: v * t for e, v in self.c.items()})

    def __mul__(self, other):
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = c.get(e, TPoly.zero()) + v1 * v2
                c[e] = s
        return MPoly(self.nvars, c)

    def permute(self, perm):
        """Apply x_i -> x_{perm(i)} (perm is a tuple, 1-based values)."""
        inv = [0] * self.nvars
        for i, p in enumerate(perm):
            inv[p - 1] = i
        return MPoly(
            self.nvars,
            {tuple(e[inv[k]] for k in range(self.nvars)): v for e, v in self.c.items()},
        )

    def divide_linear(self, i: int, j: int):
        """Exact division by (x_i - x_j), 0-based variables.

        Uses P = Q (x_i - x_j) with Q = sum_k c_k sum_{a+b=k-1} x_i^a x_j^b
        after collecting P as a polynomial in x_i over x_j-free rests;
        raises if the remainder (P at x_i = x_j) is nonzero.
        """
        rem = MPoly(self.nvars)
        for e, v in self.c.items():
            merged = list(e)
            merged[j] += merged[i]
            merged[i] = 0
            rem = rem + MPoly.monomial(self.nvars, merged, v)
        if rem.c:
            raise ArithmeticError("division by (x_i - x_j) is not exact")
        out = MPoly(self.nvars)
        for e, v in self.c.items():
            k = e[i]
            if k == 0:
                continue
            base = list(e)
            base[i] = 0
            for a in range(k):
                mono = list(base)
                mono[i] = a
                mono[j] += k - 1 - a
                out = out + MPoly.monomial(self.nvars, mono, v)
        return out

    def subs_t_inverse(self):
        flip = lambda v: TPoly({-k: c for k, c in v.c.items()})  # t -> 1/t
        return MPoly(self.nvars, {e: flip(v) for e, v in self.c.items()})

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.c == other.c

    def __repr__(self):
        return f"MPoly({self.nvars}, {self.c})"


def tpoly_exact_div(a: TPoly, b: TPoly) -> TPoly:
    """Exact division in ZZ[t, t^-1]; the divisor must have unit lead."""
    if b == 0:
        raise ZeroDivisionError
    quot = TPoly.zero()
    rem = a
    lead_e = b.degree()
    lead_c = b.coeff(lead_e)
    while rem != 0:
        e = rem.degree()
        c = rem.coeff(e)
        if c % lead_c != 0:
            raise ArithmeticError("division not exact")
        term = TPoly.t(e - lead_e, c // lead_c)
        quot = quot + term
        rem = rem - term * b
    return quot


def n_stat(lam) -> int:
    """n(lam) = sum (i-1) lam_i."""
    return sum(i * p for i, p in enumerate(lam))


def t_factorial(m: int) -> TPoly:
    """[m]_t! = prod_{i<=m} (1 + t + ... + t^{i-1})."""
    out = TPoly.one()
    for i in range(1, m + 1):
        out = out * TPoly(dict.fromkeys(range(i), 1))
    return out


def v_lambda(lam, nvars: int) -> TPoly:
    """The P-function normalizer, with m_0 counting the padding zeros."""
    lam = tuple(p for p in lam if p)
    mults = {}
    for p in lam:
        mults[p] = mults.get(p, 0) + 1
    mults[0] = nvars - len(lam)
    out = TPoly.one()
    for m in mults.values():
        out = out * t_factorial(m)
    return out


def hall_littlewood_p(lam, nvars: int) -> MPoly:
    """P_lam(x_1..x_N; t) by exact symmetrization of the defining sum."""
    lam = tuple(lam) + (0,) * (nvars - len(lam))
    if len(lam) > nvars:
        raise ValueError("need at least len(lam) variables")
    t = TPoly.t(1)
    base = MPoly.monomial(nvars, lam)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            ei = [0] * nvars
            ei[i] = 1
            ej = [0] * nvars
            ej[j] = 1
            factor = MPoly.monomial(nvars, ei) + MPoly.monomial(nvars, ej, TPoly.const(-1) * t)
            base = base * factor
    total = MPoly.zero(nvars)
    for w in permutations(range(1, nvars + 1)):
        # w moves the Vandermonde denominator by sign(w)
        inv = sum(1 for a in range(nvars) for b in range(a + 1, nvars) if w[a] > w[b])
        term = base.permute(w)
        if inv % 2:
            term = term.scale(TPoly.const(-1))
        total = total + term
    for i in range(nvars):
        for j in range(i + 1, nvars):
            total = total.divide_linear(i, j)
    v = v_lambda(lam, nvars)
    return MPoly(nvars, {e: tpoly_exact_div(c, v) for e, c in total.c.items()})


def ptilde_oracle(lam, nvars: int) -> MPoly:
    """Ptilde_lam(x;t) = t^{-n(lam)} P_lam(x; 1/t), exactly."""
    n_lam = sum(i * p for i, p in enumerate(lam))
    return hall_littlewood_p(lam, nvars).subs_t_inverse().scale(TPoly.t(-n_lam))


def expand_symf(f, nvars: int) -> MPoly:
    """Expand a SymF (via its m-expansion) in nvars variables."""
    fm = f.in_m()
    out = MPoly.zero(nvars)
    for p, c in fm.terms.items():
        if len(p) > nvars:
            continue  # m_p vanishes in too few variables
        padded = tuple(p) + (0,) * (nvars - len(p))
        for alpha in set(permutations(padded)):
            out = out + MPoly.monomial(nvars, alpha, c)
    return out


# -- whole-degree matrix routes -----------------------------------------------
#
# Every basis change as a dense list of TPoly lists over all partitions of
# d, lex descending, and products of whole matrices: the reference for the
# sparse rows of `symfun`.


def _row_times(row, B):
    """The row vector times the matrix B, skipping the row's zero entries."""
    nz = [(a, Bk) for a, Bk in zip(row, B) if a != 0]
    return [_dot((a, Bk[j]) for a, Bk in nz) for j in range(len(B[0]) if B else 0)]


def _matmul(A, B):
    return [_row_times(Ai, B) for Ai in A]


def _transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def _ptilde_block(P):
    """[m_mu] Ptilde_lam over P, lex descending: psi fibers no wider than P's first partition."""
    width = P[0][0] if P and P[0] else 0
    return _block(P, lambda mu: _ptilde_fiber(mu, width))


@lru_cache(maxsize=None)
def s_to_m(d: int):
    """K: rows lam, columns mu, each Kostka fiber wrapped as TPoly constants."""
    const = lambda mu: {lam: TPoly.const(c) for lam, c in _kostka_fiber(mu).items()}
    return _block(partitions_of(d), const)


@lru_cache(maxsize=None)
def m_to_s(d: int):
    """K^{-1}, by dense back substitution."""
    return _unitriangular_inverse(s_to_m(d))


@lru_cache(maxsize=None)
def ptilde_to_m(d: int):
    """[m_mu] Ptilde_lam: rows lam, columns mu; upper triangular, diagonal t^{-n(lam)}."""
    return _ptilde_block(partitions_of(d))


@lru_cache(maxsize=None)
def ptilde_to_m_bounded(n: int, d: int):
    """The rows and columns of ptilde_to_m at bounded partitions, from their fibers alone."""
    return _ptilde_block(bounded_partitions_of(d, n))


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
    return _matmul(m_to_s(d), _transpose(m_to_s(d)))


def _unitriangular_inverse(M):
    """Inverse of an upper-triangular matrix with unit diagonal, by dense back substitution."""
    return _transpose([_unitriangular_column(M, j) for j in range(len(M))])


def _unitriangular_column(M, j: int):
    """Column j of that inverse; it reads M[:j+1][:j+1] only."""
    x = [ZERO] * len(M)
    x[j] = ONE.divide_unit(M[j][j])
    for i in range(j - 1, -1, -1):
        Mi = M[i]
        x[i] = _dot(zip(Mi[i + 1 : j + 1], x[i + 1 : j + 1])).divide_unit(-Mi[i])
    return x


@lru_cache(maxsize=None)
def ptilde_to_s_by_inverse(d: int):
    """Ptilde in s, rows lam: the whole inverse of K(t), since s = K(t) Ptilde."""
    return _unitriangular_inverse(kf_matrix(d))


@lru_cache(maxsize=None)
def ptilde_to_m_by_inverse(d: int):
    """Ptilde in m through s, the whole K(t)^{-1} K."""
    return _matmul(ptilde_to_s_by_inverse(d), s_to_m(d))


def ptilde_to_m_bounded_by_slice(n: int, d: int):
    """The bounded rows and columns of the whole K(t)^{-1} K."""
    idx = {p: i for i, p in enumerate(partitions_of(d))}
    full = ptilde_to_m_by_inverse(d)
    Pn = bounded_partitions_of(d, n)
    return [[full[idx[lam]][idx[mu]] for mu in Pn] for lam in Pn]


@lru_cache(maxsize=None)
def kn1_by_abc(n: int, d: int):
    """Kn(1) over the bounded partitions of d: row lam, column mu, |ABC(c(lam), mu)|.

    Each column is the `abc_counts` strip DP, not the weak Pieri rule that
    `symfun._kn_column` reads its t = 1 columns off.
    """
    P = bounded_partitions_of(d, n)
    cols = [abc_counts(n, mu) for mu in P]
    return [[TPoly.const(col.get(c_map(lam, n), 0)) for col in cols] for lam in P]


def dualk_to_m_by_product(n: int, d: int, t_on: bool = True):
    """Dual k-Schur rows in m over the bounded partitions of d, as whole products.

    Kn(t) times the bounded slice of K(t)^{-1} K, or at t=1 Kn(1) from
    the ABC counts.
    """
    if t_on:
        return _matmul(kn_matrix(n, d), ptilde_to_m_bounded_by_slice(n, d))
    return kn1_by_abc(n, d)


def kschur_rows_by_inverse(n: int, d: int, t_on: bool = True):
    """k-Schur rows in H(x;0,t), or in h at t=1: the transposed whole inverse of Kn."""
    return _transpose(_unitriangular_inverse(kn_matrix(n, d) if t_on else kn1_by_abc(n, d)))


# -- homology structure constants through the degree-D k-Kostka matrix -------


def _kschur_h_row(n: int, bounded) -> dict:
    d = sum(bounded)
    Pn = bounded_partitions_of(d, n)
    row = kschur_rows_by_inverse(n, d, False)[Pn.index(bounded)]
    return {mu: c for mu, c in zip(Pn, row) if c != 0}


def matrix_structure_constants(n: int, mu_b, lam_b) -> tuple:
    """(nu, c^nu) of xi_mu xi_lam over bounded nu, lex descending.

    Both factors are expanded in h at t=1 and multiplied by
    concatenation; the coefficient of s^(k)_nu is the Hall pairing of
    that product with the dual k-Schur function, row nu of Kn(1) at the
    product degree D.
    """
    D = sum(mu_b) + sum(lam_b)
    prod: dict = {}
    for a, ca in _kschur_h_row(n, mu_b).items():
        for b, cb in _kschur_h_row(n, lam_b).items():
            key = union(a, b)
            prod[key] = prod.get(key, 0) + ca(1) * cb(1)
    PnD = bounded_partitions_of(D, n)
    idx = {p: i for i, p in enumerate(PnD)}
    kn1 = kn1_by_abc(n, D)
    out = []
    for nu in PnD:
        row = kn1[idx[nu]]
        c = sum(row[idx[alpha]](1) * v for alpha, v in prod.items())
        if c:
            out.append((nu, c))
    return tuple(out)


@lru_cache(maxsize=None)
def weak_pieri_terms_by_group(m: int, lam: NCore) -> tuple:
    """The cores gamma of h_m xi_lam: v w_core Grassmannian of length ell(w_core) + m."""
    w = w_core(lam)
    out = []
    for _word, v in cyclically_decreasing_of_length(lam.n, m):
        u = v * w
        if u.is_grassmannian() and u.length() == w.length() + m:
            out.append(core_of(u))
    if len(set(out)) != len(out):
        raise AssertionError("weak Pieri term repeated")
    return tuple(out)


def h_times_by_group(a: tuple, core: NCore) -> dict:
    """h_{a_1}(h_{a_2}(... xi_core)) as dict core -> coefficient, by the group route."""
    cur = {core: 1}
    for m in reversed(a):
        nxt: dict = {}
        for gamma, c in cur.items():
            for nu in weak_pieri_terms_by_group(m, gamma):
                nxt[nu] = nxt.get(nu, 0) + c
        cur = nxt
    return cur


def direct_structure_constants(n: int, mu_b, lam_b) -> dict:
    """`schubert._structure_constants` by the lower-degree factor's own h-row, never its k-conjugate's."""
    mu_b, mu_rects = _peel(mu_b, n)
    lam_b, lam_rects = _peel(lam_b, n)
    mu_b, lam_b = sorted((mu_b, lam_b), key=sum)
    prod = _h_times(_kschur_row(n, mu_b, False).items(), c_map(lam_b, n))
    shift = _rect_shift(n, mu_rects + lam_rects)
    return {_shifted(nu, shift): c for nu, c in prod.items()}


def unpeeled_structure_constants(n: int, mu_b, lam_b) -> tuple:
    """xi_mu xi_lam = sum_a [h_a]s^(k)_mu(1) h_a xi_lam, mu the lower degree."""
    mu_b, lam_b = sorted((mu_b, lam_b), key=sum)
    lam = c_map(lam_b, n)
    prod: dict = {}
    for a, ca in _kschur_row(n, mu_b, False).items():
        for nu, c in h_times_by_group(a, lam).items():
            prod[nu] = prod.get(nu, 0) + ca * c
    return tuple(sorted(((c_inverse(nu), c) for nu, c in prod.items() if c), reverse=True))


# -- quantum cohomology of Grassmannians by rim hooks ---------------------------


def _rim_hooks(parts, length: int, N: int):
    """(head row, height, rest) per N-rim hook removable from parts, read on `length` beta-numbers.

    With beta_i = parts_i + length - 1 - i (rows from 0), lowering beta_i
    by N onto a free bead >= 0 removes the N-rim hook headed in row i;
    its height is one more than the beads it passes.
    """
    beta = [p + length - 1 - i for i, p in enumerate(parts + (0,) * (length - len(parts)))]
    for i, b in enumerate(beta):
        if b >= N and b - N not in beta:
            rest = sorted(beta[:i] + beta[i + 1:] + [b - N], reverse=True)
            nu = tuple(x - (length - 1 - j) for j, x in enumerate(rest))
            yield i, 1 + sum(b - N < x < b for x in beta), normalize(nu)


def bcf_quantum_product(lam, mu, a: int, N: int) -> dict:
    """(nu, d) -> [q^d sigma_nu] sigma_lam * sigma_mu in QH*(Gr(a, N)), zeros left out.

    The rim-hook rule of Bertram-Ciocan-Fontanine-Fulton (J. Algebra
    1999): expand s_lam s_mu, keep the nu with at most a rows, and while
    nu_1 > N - a remove the N-rim hook headed in row 1, that is lower the
    first of the a beta-numbers by N, with sign (-1)^{a - height} and one
    power of q; a collision or a negative bead gives 0.
    """
    out: dict = {}
    for nu, c in multiply(schur(lam), schur(mu)).in_s().terms.items():
        c, d = c(1) if len(nu) <= a else 0, 0
        while c and nu and nu[0] > N - a:
            heads = [(h, rest) for i, h, rest in _rim_hooks(nu, a, N) if i == 0]
            if not heads:
                c = 0
                continue
            (height, nu), d = heads[0], d + 1
            c *= (-1) ** (a - height)
        if c:
            out[nu, d] = out.get((nu, d), 0) + c
    return {key: c for key, c in out.items() if c}


def ribbon_quantum_product(lam, mu, a: int, N: int) -> dict:
    """(nu, d) -> coefficient, read off xi_lam xi_mu at k = N - 1 by N-ribbons; zeros left out.

    A term rho with rho_1 > N - a is dropped.  While rho has more than a
    rows, its N-ribbon of height exactly a + 1 is removed, with one power
    of q and no sign; rho is dropped if there is none, and two such
    ribbons raise AssertionError.
    """
    out: dict = {}
    for core, c in _structure_constants(N, lam, mu).items():
        rho = c_inverse(core)
        if rho[0] > N - a:
            continue
        d = 0
        while rho is not None and len(rho) > a:
            hooks = [rest for _i, h, rest in _rim_hooks(rho, len(rho), N) if h == a + 1]
            if len(hooks) > 1:
                raise AssertionError(f"{rho} has {len(hooks)} {N}-ribbons of height {a + 1}")
            rho, d = (hooks[0] if hooks else None), d + 1
        if rho is not None:
            out[rho, d] = out.get((rho, d), 0) + c
    return {key: c for key, c in out.items() if c}


# -- Kostka, Kostka-Foulkes and weak Kostka-Foulkes, one (lam, mu) at a time --


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


def tableau_from_rows(rows) -> Tableau:
    """Build from a row filling, e.g. [[1,1,2],[2]] (bottom row first)."""
    rows = [list(r) for r in rows]
    letters = sorted({v for r in rows for v in r})
    if letters != list(range(1, len(letters) + 1)):
        raise ValueError("letters must be 1..r")
    chain = [()]
    for x in range(1, len(letters) + 1):
        chain.append(tuple(sum(1 for v in r if v <= x) for r in rows))
    return Tableau(chain)


def cells_with_letters(tab: Tableau):
    """(row, column, letter) of every cell, letter by letter, rows from the bottom."""
    out = []
    for x, (lo, hi) in enumerate(zip(tab.chain, tab.chain[1:]), start=1):
        for i, p in enumerate(hi, start=1):
            q = lo[i - 1] if i <= len(lo) else 0
            out.extend((i, j, x) for j in range(q + 1, p + 1))
    return out


def set_scan_cocharge_index_vectors(tab: Tableau):
    """The index vectors of the successive standard-subword extractions."""
    weight = tab.weight
    if not is_partition(weight):
        raise ValueError(f"weight {weight} is not a partition")
    remaining = {}
    for (i, j, x) in cells_with_letters(tab):
        remaining.setdefault(x, set()).add((i, j))
    vectors = []
    while remaining.get(1):
        cur = max(remaining[1], key=lambda c: c[1])
        remaining[1].remove(cur)
        seq = [cur]
        x = 1
        while remaining.get(x + 1):
            options = remaining[x + 1]
            above = [c for c in options if c[0] > cur[0]]
            cur = min(above or options, key=lambda c: (c[0], -c[1]))
            options.remove(cur)
            seq.append(cur)
            x += 1
        index = [0]
        for (pi, pj), (ci, cj) in zip(seq, seq[1:]):
            index.append(index[-1] if cj - ci > pj - pi else index[-1] + 1)
        vectors.append(index)
    return vectors


@lru_cache(maxsize=None)
def pair_kostka_foulkes(lam, mu) -> TPoly:
    """K_{lam,mu}(t), the cocharge generating function over SSYT(lam, mu)."""
    lam, mu = normalize(lam), normalize(mu)
    if sum(lam) != sum(mu):
        return TPoly.zero()
    out = TPoly.zero()
    for tab in semistandard_tableaux(lam, mu):
        out = out + TPoly.t(sum(map(sum, set_scan_cocharge_index_vectors(tab))))
    return out


@lru_cache(maxsize=None)
def pair_kostka_number(lam, mu) -> int:
    """|SSYT(lam, mu)| by horizontal-strip counting."""
    lam, mu = normalize(lam), normalize(mu)
    if sum(lam) != sum(mu):
        return 0

    @lru_cache(maxsize=None)
    def count(shape, k):
        if k == 0:
            return 1 if shape == () else 0
        return sum(
            count(lo, k - 1)
            for lo in horizontal_strip_removals(shape, mu[k - 1])
        )

    return count(lam, len(mu))


def horizontal_strip_removals(parts, m: int):
    """All partitions obtained by removing a horizontal m-strip."""
    parts = tuple(parts)
    out = []

    def place(i, remaining, cur):
        if i > len(parts):
            if remaining == 0:
                out.append(normalize(tuple(cur)))
            return
        hi = parts[i - 1]
        lo = parts[i] if i < len(parts) else 0
        for new in range(lo, hi + 1):
            drop = hi - new
            if drop <= remaining:
                cur[i - 1] = new
                place(i + 1, remaining - drop, cur)

    # removal strip condition: inner_i >= outer_{i+1} (cells above gaps)
    def valid(inner):
        for i in range(len(parts) - 1):
            if (inner[i] if i < len(inner) else 0) < parts[i + 1]:
                return False
        return True

    place(1, m, [0] * len(parts))
    return [p for p in out if valid(p)]


@lru_cache(maxsize=None)
def pair_weak_kostka_foulkes(lam, mu, n: int) -> TPoly:
    """Kn_{lam,mu}(t) = sum over ABC(c(lam), mu) of t^{n-cocharge}."""
    lam, mu = normalize(lam), normalize(mu)
    if (lam and lam[0] >= n) or (mu and mu[0] >= n):
        raise ValueError(f"parts must be < {n}")
    if sum(lam) != sum(mu):
        return TPoly.zero()
    out = TPoly.zero()
    for abc in enumerate_abc(c_map(lam, n), mu):
        out = out + TPoly.t(abc.off() + sum(map(sum, subword_scan_index_vectors(abc))))
    return out


def subword_scan_index_vectors(abc):
    """Index vectors of ext(A), extracting one whole standard subword at a time."""
    n = abc.n
    remaining = {
        letter: {(c - 1) % n: c for c in cols}
        for letter, cols in abc.extension().items()
        if cols
    }
    vectors = []
    while remaining.get(1):
        col = max(remaining[1].values())
        res = (col - 1) % n
        del remaining[1][res]
        seq_cols = [col]
        letter = 1
        while remaining.get(letter + 1):
            options = remaining[letter + 1]
            # counter-clockwise from res; res itself only as the sole option
            res = min(options.keys() - {res} or options, key=lambda opt: (res - opt) % n)
            seq_cols.append(options.pop(res))
            letter += 1
        index = [0]
        for prev, cur in zip(seq_cols, seq_cols[1:]):
            index.append(index[-1] if cur > prev else index[-1] + 1)
        vectors.append(index)
    if any(v for v in remaining.values()):
        raise AssertionError("extraction left non-empty rows without 1s")
    return vectors


# -- command line oracle ------------------------------------------------------


class OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> OracleParser:
    """The argparse parser of the CLI; a usage error raises ValueError, -h exits 0."""
    parser = OracleParser(prog="kschur")
    sub = parser.add_subparsers(dest="command", required=True)

    count, modulus = _int_at_least(0), _int_at_least(2)

    def common(p):
        p.add_argument("--n", type=modulus, required=True)
        p.add_argument("--json", action="store_true")

    def core_or_bounded(p):
        shape = p.add_mutually_exclusive_group()
        shape.add_argument("--core", default=None)
        shape.add_argument("--bounded", default=None)

    p = sub.add_parser("cores")
    common(p)
    degree = p.add_mutually_exclusive_group()
    degree.add_argument("--deg", type=count, default=None)
    degree.add_argument("--max-deg", type=count, default=None)

    p = sub.add_parser("strips")
    common(p)
    core_or_bounded(p)
    p.add_argument("--kind", choices=("horizontal", "strong", "ribbon"), default="horizontal")
    p.add_argument("--m", type=count, default=None)
    p.add_argument("--to", default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--b", type=int, default=None)

    p = sub.add_parser("abc")
    common(p)
    core_or_bounded(p)
    p.add_argument("--weight", default=None)

    p = sub.add_parser("kf-table")
    common(p)
    p.add_argument("--deg", type=count, required=True)
    p.add_argument("--weak", action="store_true")
    p.add_argument("--at-t", type=int, default=None)

    p = sub.add_parser("expand")
    common(p)
    p.add_argument("--basis", choices=("dualk", "k", "ptilde", "h0t"), required=True)
    core_or_bounded(p)
    specialize = p.add_mutually_exclusive_group()
    specialize.add_argument("--t1", dest="at_t", action="store_const", const=1)
    specialize.add_argument("--at-t", type=int, default=None)

    p = sub.add_parser("pieri")
    common(p)
    core_or_bounded(p)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("verify")
    p.add_argument("sweep", choices=tuple(SWEEPS))
    p.add_argument("--n", type=modulus, default=4)
    p.add_argument("--max-deg", type=count, default=None)
    p.add_argument("--max-size", type=count, default=None)
    p.add_argument("--json", action="store_true")

    return parser
