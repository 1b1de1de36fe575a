from math import factorial

import pytest
from hypothesis import given, strategies as st

from klspecht.tableaux import (
    _delete_largest,
    _remove_box,
    check_partition,
    check_standard,
    conjugate,
    count_syt,
    delete_largest,
    descent_set,
    enumerate_syt,
    format_partition,
    format_tableau,
    parse_partition,
    parse_tableau,
    partitions,
    position_of,
    removable_boxes,
    shape_of,
    tableau_index,
    total_index_cmp,
    total_index_key,
)


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    shape = []
    cap = n
    while n > 0:
        part = draw(st.integers(min_value=1, max_value=min(cap, n)))
        shape.append(part)
        cap = part
        n -= part
    return tuple(shape)


def test_parse_format_partition_round_trip():
    assert parse_partition('3,1,1') == (3, 1, 1)
    assert parse_partition('6') == (6,)
    assert format_partition((4, 3, 1)) == '4,3,1'
    assert parse_partition(format_partition((2, 2, 1))) == (2, 2, 1)


def test_bad_partitions_rejected():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((3, 0))
    with pytest.raises(ValueError):
        parse_partition('2,3')
    with pytest.raises(ValueError):
        parse_partition('')


def test_parse_tableau_round_trip():
    t = parse_tableau('1,2,5/3,4/6')
    assert t == ((1, 2, 5), (3, 4), (6,))
    assert format_tableau(t) == '1,2,5/3,4/6'
    check_standard(t)


def test_nonstandard_fillings_rejected():
    with pytest.raises(ValueError):
        check_standard(((1, 3), (2, 2)))
    with pytest.raises(ValueError):
        check_standard(((2, 1), (3,)))
    # column must increase
    with pytest.raises(ValueError):
        check_standard(((1, 4), (2,), (3, 5)))


def test_removable_boxes_known_values():
    assert removable_boxes((6, 6, 3, 1)) == [(2, 6), (3, 3), (4, 1)]
    assert removable_boxes((3, 1, 1)) == [(1, 3), (3, 1)]
    assert removable_boxes((4,)) == [(1, 4)]
    assert removable_boxes((1, 1, 1)) == [(3, 1)]


def test_index_points_at_largest_entry():
    for n in range(1, 8):
        for shape in partitions(n):
            boxes = removable_boxes(shape)
            for t in enumerate_syt(shape):
                i = tableau_index(t)
                assert 1 <= i <= len(boxes)
                assert position_of(t, n) == boxes[i - 1]


def test_count_syt_hook_values():
    assert count_syt((1,)) == 1
    assert count_syt((2, 1)) == 2
    assert count_syt((2, 2)) == 2
    assert count_syt((3, 1, 1)) == 6
    assert count_syt((4, 3, 1)) == 70


def test_count_matches_enumeration():
    for n in range(1, 8):
        for shape in partitions(n):
            tabs = enumerate_syt(shape)
            assert len(tabs) == count_syt(shape)
            assert len(set(tabs)) == len(tabs)
            for t in tabs:
                check_standard(t)
                assert shape_of(t) == shape


def test_dimension_mass():
    # sum of squared dimensions recovers the group order
    for n in range(1, 9):
        assert sum(count_syt(s) ** 2 for s in partitions(n)) == factorial(n)


def test_total_index_key_separates_tableaux():
    for n in range(1, 9):
        for shape in partitions(n):
            keys = [total_index_key(t) for t in enumerate_syt(shape)]
            assert len(set(keys)) == len(keys)


def test_total_index_cmp_is_a_strict_total_order():
    for n in range(1, 6):
        for shape in partitions(n):
            tabs = enumerate_syt(shape)
            for a in tabs:
                assert total_index_cmp(a, a) == 0
                for b in tabs:
                    if a == b:
                        continue
                    assert total_index_cmp(a, b) == -total_index_cmp(b, a)
                    assert total_index_cmp(a, b) != 0
            # enumeration comes out sorted, which pins transitivity
            for a, b in zip(tabs, tabs[1:]):
                assert total_index_cmp(a, b) < 0
                assert total_index_key(a) < total_index_key(b)


def test_delete_largest_restricts_to_a_bijection():
    for n in range(2, 8):
        for shape in partitions(n):
            boxes = removable_boxes(shape)
            for i in range(1, len(boxes) + 1):
                r, c = boxes[i - 1]
                small_shape = tuple(
                    p - 1 if k == r - 1 else p
                    for k, p in enumerate(shape)
                    if not (k == r - 1 and p == 1)
                )
                members = [
                    t for t in enumerate_syt(shape) if tableau_index(t) == i
                ]
                images = set()
                for t in members:
                    small, idx = delete_largest(t)
                    assert idx == i
                    assert shape_of(small) == small_shape
                    images.add(small)
                assert len(images) == len(members)
                assert images == set(enumerate_syt(small_shape))


def test_remove_box_and_delete_largest_agree():
    """The box removal and the largest-entry deletion each written once:
    the shape `delete_largest` leaves is the shape less the box holding
    n, and the worker agrees with the checked function and with the row
    of n shortened by hand."""
    for n in range(1, 8):
        for shape in partitions(n):
            for t in enumerate_syt(shape):
                r, _ = position_of(t, n)
                rows = [row[:-1] if k == r else row for k, row in enumerate(t, 1)]
                want = (tuple(row for row in rows if row), tableau_index(t))
                assert _delete_largest(t) == delete_largest(t) == want
                assert _remove_box(shape, r) == shape_of(want[0])


def test_three_one_one_total_index_listing():
    want = [
        '1,4,5/2/3',
        '1,3,5/2/4',
        '1,2,5/3/4',
        '1,3,4/2/5',
        '1,2,4/3/5',
        '1,2,3/4/5',
    ]
    got = [format_tableau(t) for t in enumerate_syt((3, 1, 1))]
    assert got == want


def test_descent_set_known_value():
    assert descent_set(((1, 3, 4), (2, 5))) == {1, 4}
    assert descent_set(((1, 2, 3),)) == set()
    assert descent_set(((1,), (2,), (3,))) == {1, 2}


def test_conjugate():
    assert conjugate((4, 3, 1)) == (3, 2, 2, 1)
    for n in range(1, 9):
        for shape in partitions(n):
            assert conjugate(conjugate(shape)) == shape


def test_partitions_listing():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    for n in range(1, 9):
        for shape in partitions(n):
            check_partition(shape)
            assert sum(shape) == n


@given(partition_strategy())
def test_random_shapes_enumerate_cleanly(shape):
    check_partition(shape)
    tabs = enumerate_syt(shape)
    assert len(tabs) == count_syt(shape)


@given(partition_strategy(max_n=7), st.data())
def test_random_tableau_index_consistency(shape, data):
    t = data.draw(st.sampled_from(enumerate_syt(shape)))
    n = sum(shape)
    if n == 1:
        return
    small, idx = delete_largest(t)
    assert idx == tableau_index(t)
    assert sum(shape_of(small)) == n - 1
    key = total_index_key(t)
    assert key[0] == idx
    assert key[1:] == total_index_key(small)
