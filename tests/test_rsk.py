"""RSK, its inverse, and the column-reading recording tableaux.

The worked 8-element insertion display is the convention anchor: if row
insertion were replaced by column insertion, or the recording tableau
swapped with the insertion tableau, these frozen values would not
reproduce.
"""

import pytest
from hypothesis import given, strategies as st

from klspecht import hecke
from klspecht.rsk import column_word, css, css_i, inverse_rsk, rsk
from klspecht.symgroup import (
    all_perms,
    bruhat_leq,
    left_descents,
    left_mult_s,
)
from klspecht.tableaux import (
    descent_set,
    enumerate_syt,
    partitions,
    removable_boxes,
    shape_of,
    tableau_index,
)


def test_insertion_display():
    p, q = rsk((8, 5, 1, 6, 2, 7, 3, 4))
    assert p == ((1, 2, 3, 4), (5, 6, 7), (8,))
    assert q == ((1, 4, 6, 8), (2, 5, 7), (3,))


def test_identity_inserts_to_single_rows():
    w = tuple(range(1, 7))
    p, q = rsk(w)
    assert p == q == (tuple(range(1, 7)),)


def test_small_example():
    assert rsk((2, 4, 1, 3)) == (((1, 3), (2, 4)), ((1, 2), (3, 4)))


def test_inverse_recovers_the_display():
    p = ((1, 2, 3, 4), (5, 6, 7), (8,))
    q = ((1, 4, 6, 8), (2, 5, 7), (3,))
    assert inverse_rsk(p, q) == (8, 5, 1, 6, 2, 7, 3, 4)


def test_round_trip_over_s4_and_s5():
    for n in (4, 5):
        for w in all_perms(n):
            p, q = rsk(w)
            assert shape_of(p) == shape_of(q)
            assert inverse_rsk(p, q) == w


@pytest.mark.parametrize('word', [(1, 1), (0, 1), (2, 3), (1, 3, 4), (2, 1, 2)])
def test_non_permutation_word_rejected(word):
    with pytest.raises(ValueError, match='not a permutation'):
        rsk(word)


def test_inverse_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        inverse_rsk(((1, 2),), ((1,), (2,)))


def test_css_known_values():
    assert css((4, 3, 1)) == ((1, 4, 6, 8), (2, 5, 7), (3,))
    assert css((5,)) == ((1, 2, 3, 4, 5),)
    assert css((1, 1, 1)) == ((1,), (2,), (3,))


def test_css_i_known_values():
    assert css_i((4, 3, 1), 2) == ((1, 4, 6, 7), (2, 5, 8), (3,))
    assert css_i((4,), 1) == ((1, 2, 3, 4),)


def test_css_i_has_the_requested_index():
    for n in range(1, 7):
        for shape in partitions(n):
            for i in range(1, len(removable_boxes(shape)) + 1):
                t = css_i(shape, i)
                assert shape_of(t) == shape
                assert tableau_index(t) == i


def test_css_i_out_of_range_rejected():
    with pytest.raises(ValueError):
        css_i((3, 1), 3)
    with pytest.raises(ValueError):
        css_i((3, 1), 0)


def test_column_word_known_value():
    assert column_word(((1, 2, 3, 4), (5, 6, 7), (8,))) == (
        8, 5, 1, 6, 2, 7, 3, 4,
    )
    assert column_word(((1, 2, 3),)) == (1, 2, 3)


def test_column_word_records_css():
    for n in range(1, 7):
        for shape in partitions(n):
            for p in enumerate_syt(shape):
                w = column_word(p)
                assert rsk(w) == (p, css(shape))


def test_css_i_preimages_round_trip_with_index():
    for n in range(2, 7):
        for shape in partitions(n):
            for i in range(1, len(removable_boxes(shape)) + 1):
                rec = css_i(shape, i)
                for p in enumerate_syt(shape):
                    if tableau_index(p) != i:
                        continue
                    w = inverse_rsk(p, rec)
                    back_p, back_q = rsk(w)
                    assert back_q == rec
                    assert tableau_index(back_p) == i


def test_special_recorder_preimages_are_one_letter_insertions():
    # with recorder css_i, the preimage of an index-i tableau is the
    # preimage of its truncation with the letter n spliced in after the
    # first n-k letters, where k is the row of removable box i
    from klspecht.tableaux import delete_largest

    for n in range(2, 8):
        for shape in partitions(n):
            boxes = removable_boxes(shape)
            for i in range(1, len(boxes) + 1):
                k = boxes[i - 1][0]
                rec = css_i(shape, i)
                small_rec, _ = delete_largest(rec)
                for t in enumerate_syt(shape):
                    if tableau_index(t) != i:
                        continue
                    small_t, _ = delete_largest(t)
                    u = inverse_rsk(t, rec)
                    ut = inverse_rsk(small_t, small_rec)
                    assert u == ut[: n - k] + (n,) + ut[n - k:]


def test_descent_transfer():
    # left descents of the word match descents of the insertion tableau
    for n in range(2, 7):
        for w in all_perms(n):
            p, _ = rsk(w)
            assert left_descents(w) == descent_set(p)


def _left_cells_from_the_action(n):
    """Partition S_n into cells by closing the basis action graph.

    For j outside the descent set, s_j C_w expands over C_w, C_{s_j w},
    and the mu-linked elements below w carrying j as a descent.  Mutual
    reachability under those moves is the cell relation.
    """
    perms = all_perms(n)
    pos = {w: k for k, w in enumerate(perms)}
    succ = [set() for _ in perms]
    for w in perms:
        for j in range(1, n):
            if j in left_descents(w):
                continue
            succ[pos[w]].add(pos[left_mult_s(w, j)])
            for z in perms:
                if z == w or not bruhat_leq(z, w):
                    continue
                if j in left_descents(z) and hecke.mu(z, w):
                    succ[pos[w]].add(pos[z])
    reach = []
    for start in range(len(perms)):
        seen = {start}
        stack = [start]
        while stack:
            k = stack.pop()
            for m in succ[k]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        reach.append(seen)
    cells = {}
    for a, w in enumerate(perms):
        klass = frozenset(
            perms[b] for b in reach[a] if a in reach[b]
        )
        cells[w] = klass
    return cells


def test_cells_are_graded_by_the_recording_tableau():
    for n in range(1, 5):
        cells = _left_cells_from_the_action(n)
        for v in all_perms(n):
            for w in all_perms(n):
                same_cell = cells[v] is cells[w] or cells[v] == cells[w]
                same_q = rsk(v)[1] == rsk(w)[1]
                assert same_cell == same_q, (v, w)


@given(st.permutations(tuple(range(1, 8))))
def test_random_words_round_trip(w):
    w = tuple(w)
    p, q = rsk(w)
    assert shape_of(p) == shape_of(q)
    assert inverse_rsk(p, q) == w
