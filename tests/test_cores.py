"""n-cores: the a and c bijections, covers, ribbons, translations."""

import copy
import pickle

import pytest

from kschur.affine import InvalidLetterError, from_word, reduced_word, transposition
from kschur.cores import (
    NCore,
    NonReducedWordError,
    NoActionError,
    _core_of_window,
    _cover_ribbons,
    _rect_rows,
    _transposed,
    _weak_cover,
    a_map,
    act_s,
    c_inverse,
    c_map,
    conjugate,
    core_of,
    core_to_word,
    cores_of_degree,
    is_ncore,
    rect,
    rect_translation,
    ribbon_head,
    ribbon_tail,
    strong_covers_down,
    strong_covers_up,
    union,
    w_core,
)

from kschur.symfun import bounded_partitions_of, partitions_of, weak_kostka_foulkes

from oracles import (
    _tau_step,
    brute_covers_down,
    composed_rect_translation,
    corner_scan_act_s,
    hook_c_inverse,
    hook_degree,
    hook_is_ncore,
    ribbon_components,
    row_scan_c_map,
    skew_cells,
    transposition_covers,
)


def test_is_ncore_examples():
    assert is_ncore((3,), 4)
    assert is_ncore((4, 1, 1), 4)
    assert is_ncore((2, 2), 4)  # hooks are {3,2,2,1}
    assert not is_ncore((4,), 4)  # hook of (1,1) is 4


def test_abacus_matches_hook_oracles():
    for n in range(2, 7):
        for size in range(16):
            for parts in partitions_of(size):
                assert is_ncore(parts, n) == hook_is_ncore(parts, n), (parts, n)
        for d in range(10):
            for core in cores_of_degree(n, d):
                assert core.degree() == hook_degree(core.parts, n) == d
                assert c_inverse(core) == hook_c_inverse(core.parts, n)
                w = w_core(core)
                assert core_of(w) == a_map(reduced_word(w), n)
                assert w == from_word(core_to_word(core), n)
    for n in range(2, 10):
        for d in range(11):
            for bounded in bounded_partitions_of(d, n):
                assert c_map(bounded, n).parts == row_scan_c_map(bounded, n), (bounded, n)


def test_a_map_examples():
    assert a_map([0], 4).parts == (1,)
    assert a_map([2, 1, 3, 0], 4).parts == (3, 1, 1)
    with pytest.raises(NonReducedWordError):
        a_map([0, 0], 4)
    with pytest.raises(NonReducedWordError):
        a_map([1], 4)  # no addable corner of residue 1 on the empty core
    for letter in (4, -1):
        with pytest.raises(InvalidLetterError):
            a_map([letter], 4)  # not read mod n: from_word refuses it too


def test_core_to_word_examples():
    assert core_to_word(NCore(4, ())) == ()
    assert core_to_word(NCore(4, (1,))) == (0,)
    word = core_to_word(NCore(4, (3, 1, 1)))
    assert len(word) == 4
    assert a_map(word, 4).parts == (3, 1, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bijection_roundtrip(n):
    for d in range(0, 8):
        for core in cores_of_degree(n, d):
            word = core_to_word(core)
            assert len(word) == d == core.degree()
            assert a_map(word, n) == core
            # degree equals the Coxeter length of the Grassmannian element
            assert w_core(core).length() == d
            assert core_of(w_core(core)) == core


def test_degree_examples():
    assert NCore(4, (3, 1, 1)).degree() == 4
    assert NCore(4, (4, 1, 1)).degree() == 5
    assert NCore(4, ()).degree() == 0


def test_c_inverse_examples():
    assert c_inverse(NCore(4, (4, 1, 1))) == (3, 1, 1)
    assert c_map((3, 1, 1), 4).parts == (4, 1, 1)


def test_c_map_small_partitions_fixed():
    # |lam| < n: the core is the partition itself
    for n in (4, 5):
        for parts in [(1,), (2,), (2, 1), (1, 1, 1)]:
            if sum(parts) < n:
                assert c_map(parts, n).parts == parts


def test_modulus_below_two_is_refused():
    # checked where a core is built from the caller's n, as AffinePermutation does
    for n in (-1, 0, 1):
        with pytest.raises(ValueError, match="modulus n must be at least 2"):
            NCore(n, ())
        with pytest.raises(ValueError, match="modulus n must be at least 2"):
            c_map((), n)
        with pytest.raises(ValueError, match="modulus n must be at least 2"):
            cores_of_degree(n, 2)
        with pytest.raises(ValueError, match="modulus n must be at least 2"):
            weak_kostka_foulkes((), (), n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_c_roundtrip(n):
    for d in range(0, 8):
        for core in cores_of_degree(n, d):
            bounded = c_inverse(core)
            assert all(p < n for p in bounded)
            assert sum(bounded) == d
            assert c_map(bounded, n) == core


def test_act_s_examples():
    assert act_s(NCore(4, (1,)), 3).parts == (1, 1)
    assert act_s(NCore(4, (2, 1)), 2).parts == (3, 1, 1)
    assert act_s(NCore(4, ()), 0).parts == (1,)
    with pytest.raises(NoActionError):
        act_s(NCore(4, ()), 1)


def _act_or_none(act, core, i):
    try:
        return act(core, i)
    except NoActionError:
        return None


def test_act_s_degree_step():
    for n in (3, 4):
        for d in range(0, 6):
            for core in cores_of_degree(n, d):
                for i in range(n):
                    up = _act_or_none(act_s, core, i)
                    if up is not None:
                        assert up.degree() == hook_degree(up.parts, n) == d + 1


def test_act_s_matches_corner_scan_oracle():
    # the window step (b < a on the entries of residues i, i+1, the wrap
    # n-1 -> 0 included) adds exactly the addable corners of residue i
    pairs = 0
    for n in range(2, 10):
        for d in range(11):
            for core in cores_of_degree(n, d):
                for i in range(n):
                    assert _weak_cover(core, i) == _act_or_none(corner_scan_act_s, core, i), (core, i)
                    pairs += 1
    assert pairs == 4701  # n times the bounded partitions of d with parts < n


def test_library_cores_are_checked_cores():
    # every core built from a window is the very instance the checked NCore returns
    def same(core):
        return core is NCore(core.n, core.parts)

    for n in range(2, 8):
        for d in range(11):
            for core in cores_of_degree(n, d):
                built = [core, core_of(w_core(core)), c_map(c_inverse(core), n)]
                built += [c for c, _, _ in strong_covers_up(core) + strong_covers_down(core)]
                built += [up for i in range(n) if (up := _act_or_none(act_s, core, i)) is not None]
                assert all(map(same, built)), core


def test_interned_cores_survive_copy_and_pickle():
    # a copy is the same instance, so it still compares equal to every other
    core = NCore(5, (4, 2, 1))
    assert copy.copy(core) is core
    assert copy.deepcopy(core) is core
    assert copy.deepcopy({core: [core]}) == {core: [core]}
    assert pickle.loads(pickle.dumps(core)) is core
    assert pickle.loads(pickle.dumps(core, protocol=0)) is core


def test_core_equality_is_identity():
    # test_library_cores_are_checked_cores checks NCore(n, p) is c_map(c_inverse(...), n)
    core = NCore(4, (2,))
    assert NCore(4, [2, 0]) is core
    assert core != (2,) and core != (4, (2,)) and core != [2]
    assert core != NCore(5, (2,)) and core.parts == NCore(5, (2,)).parts
    assert NCore(4, ()) != NCore(3, ())
    # hashing and equality are object's own, run in C
    assert NCore.__hash__ is object.__hash__
    assert NCore.__eq__ is object.__eq__
    assert hash(core) == object.__hash__(core)


def test_checked_core_raises_on_every_call_and_interns_any_sequence():
    # NCore checks each input once; a raise is not cached, so a bad input raises every time
    for _ in range(3):
        with pytest.raises(ValueError, match="has a hook of length 3"):
            NCore(3, (3,))
        with pytest.raises(ValueError, match="not a partition"):
            NCore(4, [1, 2])
        with pytest.raises(ValueError, match="modulus n must be at least 2"):
            NCore(1, [1])
    core = NCore(4, (3, 1, 1))
    assert NCore(4, [3, 1, 1]) is core and NCore(4, (3, 1, 1, 0)) is core
    assert NCore(4, iter([3, 1, 1])) is core
    assert core is _core_of_window(4, core.window)


def test_transposed_core_is_the_interned_conjugate():
    for n in range(2, 7):
        for d in range(9):
            for core in cores_of_degree(n, d):
                flipped = _transposed(core)
                assert flipped is NCore(n, conjugate(core.parts)), core
                assert _transposed(flipped) is core


def test_strong_covers_examples():
    downs = {m.parts for m, _, _ in strong_covers_down(NCore(4, (4, 1, 1)))}
    assert (3, 1, 1) in downs
    assert [m.parts for m, _, _ in strong_covers_down(NCore(4, (1,)))] == [()]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_strong_covers_match_brute_force(n):
    for d in range(0, 7):
        for core in cores_of_degree(n, d):
            got = sorted(m.parts for m, _, _ in strong_covers_down(core))
            want = sorted(m.parts for m in brute_covers_down(core))
            assert got == want


def test_tau_step_is_the_transposition_action():
    # None exactly when tau_{i,i+s} w_core is not Grassmannian; the exact
    # length change for every s, not only for covers
    for n in range(2, 8):
        for d in range(8):
            for core in cores_of_degree(n, d):
                w, slot = w_core(core), [v % n for v in core.window]
                for i in range(n):
                    for s in range(1, 3 * n):
                        if s % n:
                            u = transposition(i, i + s, n) * w
                            want = (u.window, u.length() - d) if u.is_grassmannian() else None
                            got = _tau_step(n, core.window, slot.index(i), slot.index((i + s) % n), s)
                            assert got == want, (core, i, s)


def test_cover_criterion_matches_tau_step_oracle():
    # the O(1) test keeps a candidate (i, s < n) exactly when the summed
    # length change of the oracle is +-1, on every candidate
    candidates = 0
    for n in range(2, 9):
        for d in range(11):
            for core in cores_of_degree(n, d):
                slot = [v % n for v in core.window]
                got = {(i, j - i, 1) for _, _, (i, j) in strong_covers_up(core)}
                got |= {(i, j - i, -1) for _, _, (i, j) in strong_covers_down(core)}
                want = set()
                for i in range(n):
                    for s in range(1, n):
                        moved = _tau_step(n, core.window, slot.index(i), slot.index((i + s) % n), s)
                        if moved is not None and moved[1] in (1, -1):
                            want.add((i, s, moved[1]))
                        candidates += 1
                assert got == want, core
    assert candidates == 18954


def test_covers_raise_on_their_side_by_less_than_n():
    # up covers raise the higher entry (q < p), down covers the lower one
    # (q > p); every cover has 0 < s < n and s cells in each ribbon copy
    seen = 0
    for n in range(2, 11):
        for d in range(13 if n <= 6 else 11):
            for core in cores_of_degree(n, d):
                slot = {v % n: p for p, v in enumerate(core.window)}
                for step, covers in ((1, strong_covers_up(core)), (-1, strong_covers_down(core))):
                    for _, ribbons, (i, j) in covers:
                        s, p, q = j - i, slot[i], slot[j % n]
                        assert 0 < s < n, (core, i, j)
                        assert (q < p) == (step > 0), (core, i, j)
                        assert {len(comp) for comp in ribbons} == {s}, (core, i, j)
                        seen += 1
    assert seen == 5940


def test_cover_ribbons_are_the_connected_components():
    # content runs against the breadth-first search, on every up and down
    # cover; at n = 8, 9 past the degrees of the transposition oracle tests
    for n in range(2, 10):
        for d in range(13 if n <= 7 else 11):
            for core in cores_of_degree(n, d):
                for step, covers in ((1, strong_covers_up(core)), (-1, strong_covers_down(core))):
                    for other, _, _ in covers:
                        outer, inner = (other, core) if step > 0 else (core, other)
                        cells = skew_cells(outer.parts, inner.parts)
                        assert _cover_ribbons(outer.parts, inner.parts) == tuple(ribbon_components(cells))


def test_strong_covers_match_transposition_oracle():
    # whole tuples: cores, ribbons, taus and their (i, s) order
    for n in range(2, 8):
        for d in range(13):
            for core in cores_of_degree(n, d):
                assert strong_covers_up(core) == transposition_covers(n, core.parts, 1), core
                assert strong_covers_down(core) == transposition_covers(n, core.parts, -1), core


def test_strong_covers_match_transposition_oracle_at_n8_n9():
    # the scan's stops at the upper neighbour, at the top entry and for q = p + 1
    for n in (8, 9):
        for d in range(9):
            for core in cores_of_degree(n, d):
                assert strong_covers_up(core) == transposition_covers(n, core.parts, 1), core
                assert strong_covers_down(core) == transposition_covers(n, core.parts, -1), core


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cover_ribbons_are_congruent_copies(n):
    # Lemma: the skew of a strong cover is made of copies of one ribbon,
    # heads sharing one residue (s-1) and tails another (r) for tau_{r,s}
    for d in range(0, 8):
        for core in cores_of_degree(n, d):
            for mu, ribbons, (i, j) in strong_covers_down(core):
                sizes = {len(comp) for comp in ribbons}
                assert len(sizes) == 1
                heads = {(jj - ii) % n for comp in ribbons for ii, jj in [ribbon_head(comp)]}
                tails = {(jj - ii) % n for comp in ribbons for ii, jj in [ribbon_tail(comp)]}
                assert heads == {(j - 1) % n}
                assert tails == {i % n}
                assert sizes == {(j - i)}


def test_covers_up_down_duality():
    for n in (3, 4):
        for d in range(0, 6):
            for core in cores_of_degree(n, d):
                ups = {g.parts for g, _, _ in strong_covers_up(core)}
                for g in ups:
                    assert core.parts in {
                        m.parts for m, _, _ in strong_covers_down(NCore(n, g))
                    }


def test_rect_rows_are_the_rows_of_length_r_in_the_union():
    # counted off the parts, the rows a scan of lam union R_r finds
    for n in range(2, 9):
        for size in range(11):
            for lam in bounded_partitions_of(size, n):
                for r in range(1, n):
                    want = [i for i, p in enumerate(union(lam, rect(r, n)), start=1) if p == r]
                    assert list(_rect_rows(lam, r, n)) == want, (n, lam, r)


def test_rect_translation_examples():
    assert rect_translation(NCore(4, (3, 1, 1)), 3).parts == (6, 3, 1, 1)
    for n in (3, 4, 5):
        assert rect_translation(NCore(n, ()), n - 1).parts == (n - 1,)


def test_rect_translation_matches_composition():
    for n in range(2, 10):
        for d in range(13 if n <= 7 else 11):
            for core in cores_of_degree(n, d):
                for r in range(1, n):
                    want = composed_rect_translation(core, r)
                    assert rect_translation(core, r) == want, (core, r)


def test_rect_translation_top_row_form():
    # R(n-1, core) = (core_1 + n - 1, core)
    for n in (3, 4):
        for d in range(0, 7):
            for core in cores_of_degree(n, d):
                top = rect_translation(core, n - 1)
                first = (core.parts[0] if core.parts else 0) + n - 1
                assert top.parts == (first,) + core.parts


def test_rect_translation_degree():
    for n in (3, 4, 5):
        for d in range(0, 6):
            for core in cores_of_degree(n, d):
                for r in range(1, n):
                    assert rect_translation(core, r).degree() == d + r * (n - r)


def test_w_of_rect_translation_word():
    # w_{R(n-1,lam)} = s_{x-1} s_{x-2} ... s_{x+1} w_lam, x = lam_1 - 1 mod n
    for n in (3, 4, 5):
        for d in range(0, 8):
            for core in cores_of_degree(n, d):
                x = ((core.parts[0] if core.parts else 0) - 1) % n
                word = [(x - k) % n for k in range(1, n)]
                lhs = w_core(rect_translation(core, n - 1))
                assert lhs == from_word(word, n) * w_core(core)


def test_extremal_cell_property():
    # Same-residue extremal cells: end-of-row and cell-above conditions
    # propagate from the south-eastern cell (weakly lower row, weakly
    # larger column in bottom-to-top indexing) to the north-western one.
    # In particular the last cell of the bottom row forces every extremal
    # cell of its residue to close its row, which is what makes the
    # cyclically decreasing factors of Grassmannian quotients avoid it.
    for n in (2, 3, 4, 5):
        for d in range(0, 9):
            for core in cores_of_degree(n, d):
                parts = core.parts
                extremal = []
                for i, p in enumerate(parts, start=1):
                    for j in range(1, p + 1):
                        above_j = i < len(parts) and parts[i] >= j
                        diag = i < len(parts) and parts[i] >= j + 1
                        if not diag:
                            extremal.append((i, j, j == p, above_j))
                for (i1, j1, end1, ab1) in extremal:
                    for (i2, j2, end2, ab2) in extremal:
                        if (j1 - i1) % n != (j2 - i2) % n:
                            continue
                        if (i1, j1) != (i2, j2) and i1 <= i2 and j1 >= j2:
                            if end1:
                                assert end2, (n, parts, (i1, j1), (i2, j2))
                            if ab1:
                                assert ab2, (n, parts, (i1, j1), (i2, j2))


def test_tau_realizes_cover():
    # applying the reported tau to w_mu climbs back to the cover
    for n in (3, 4):
        for d in range(1, 6):
            for core in cores_of_degree(n, d):
                for mu, _ribbons, (i, j) in strong_covers_down(core):
                    assert transposition(i, j, n) * w_core(mu) == w_core(core)


def test_rect_union_helper():
    assert rect(3, 4) == (3,)
    assert rect(2, 5) == (2, 2, 2)
    assert union((3, 1), (2, 2)) == (3, 2, 2, 1)
