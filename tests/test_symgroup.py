from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from klspecht.symgroup import (
    all_perms,
    bruhat_leq,
    check_perm,
    descending_decomposition,
    format_perm,
    format_subset,
    identity,
    inverse,
    is_separable,
    left_descents,
    left_mult_s,
    length,
    long_cycle,
    longest_element,
    multiply,
    parse_perm,
    reduced_word,
    right_descents,
    right_mult_s,
    schroeder_number,
    separable_tree,
    simple,
    tree_to_perm,
)


def test_parse_perm_forms():
    assert parse_perm('8,5,1,6,2,7,3,4') == (8, 5, 1, 6, 2, 7, 3, 4)
    assert parse_perm('85162734') == (8, 5, 1, 6, 2, 7, 3, 4)
    assert parse_perm('c', 4) == (2, 3, 4, 1)
    assert format_perm((2, 3, 1)) == '2,3,1'


def test_parse_perm_rejects_garbage():
    with pytest.raises(ValueError):
        parse_perm('1,1,2')
    with pytest.raises(ValueError):
        parse_perm('1,3')
    with pytest.raises(ValueError):
        parse_perm('c')  # no size to infer
    with pytest.raises(ValueError):
        check_perm((0, 1))


def test_length_counts_inversions():
    assert length((1, 2, 3)) == 0
    assert length((3, 2, 1)) == 3
    assert length((2, 4, 1, 3)) == 3
    n = 6
    assert length(tuple(range(n, 0, -1))) == n * (n - 1) // 2


def test_multiplication_convention():
    # multiply(u, v) applies v first: (u v)(i) = u(v(i))
    u = (2, 1, 3)
    v = (1, 3, 2)
    assert multiply(u, v) == (2, 3, 1)
    assert multiply(v, u) == (3, 1, 2)
    w = (3, 1, 4, 2)
    assert multiply(w, identity(4)) == w
    assert multiply(w, inverse(w)) == identity(4)
    assert multiply(inverse(w), w) == identity(4)


def test_simple_multiplications_swap_as_stated():
    w = (3, 1, 4, 2)
    # left multiplication swaps the values j, j+1
    assert left_mult_s(w, 1) == (3, 2, 4, 1)
    assert left_mult_s(w, 3) == (4, 1, 3, 2)
    # right multiplication swaps the positions j, j+1
    assert right_mult_s(w, 1) == (1, 3, 4, 2)
    assert right_mult_s(w, 3) == (3, 1, 2, 4)
    for j in range(1, 4):
        assert left_mult_s(w, j) == multiply(simple(j, 4), w)
        assert right_mult_s(w, j) == multiply(w, simple(j, 4))


def test_descent_sets():
    w = (3, 1, 4, 2)
    assert right_descents(w) == {1, 3}
    assert left_descents(w) == right_descents(inverse(w))
    assert left_descents(identity(5)) == set()
    assert left_descents((2, 1)) == {1}


def _bruhat_by_swaps(n):
    """Transitive closure of all length-increasing transposition moves."""
    perms = all_perms(n)
    pos = {w: k for k, w in enumerate(perms)}
    below = [set() for _ in perms]
    for w in sorted(perms, key=length):
        acc = {pos[w]}
        lw = length(w)
        for a, b in combinations(range(n), 2):
            if w[a] > w[b]:
                v = list(w)
                v[a], v[b] = v[b], v[a]
                v = tuple(v)
                assert length(v) < lw
                acc |= below[pos[v]]
        below[pos[w]] = acc
    return {
        (v, w)
        for w in perms
        for v in perms
        if pos[v] in below[pos[w]]
    }


def test_bruhat_against_swap_chains():
    wanted = _bruhat_by_swaps(4)
    for v in all_perms(4):
        for w in all_perms(4):
            assert bruhat_leq(v, w) == ((v, w) in wanted)


def test_bruhat_known_value():
    assert bruhat_leq((1, 3, 2, 4), (3, 4, 1, 2))
    assert not bruhat_leq((3, 4, 1, 2), (1, 3, 2, 4))


def test_bruhat_respects_length():
    for v in all_perms(4):
        for w in all_perms(4):
            if v != w and bruhat_leq(v, w):
                assert length(v) < length(w)


def test_reduced_word_rebuilds_the_permutation():
    assert reduced_word((3, 2, 1)) == [1, 2, 1]
    # the word multiplies out left to right: w = s_{j1} s_{j2} ... s_{jk}
    for n in range(1, 6):
        for w in all_perms(n):
            word = reduced_word(w)
            assert len(word) == length(w)
            rebuilt = identity(n)
            for j in word:
                rebuilt = multiply(rebuilt, simple(j, n))
            assert rebuilt == w


def test_reduced_word_rejects_non_permutations():
    for w in ((1, 1), (3, 1)):
        with pytest.raises(ValueError):
            reduced_word(w)


def test_longest_element():
    assert longest_element({1, 2, 3}, 4) == (4, 3, 2, 1)
    assert longest_element({1}, 4) == (2, 1, 3, 4)
    assert longest_element({1, 3}, 4) == (2, 1, 4, 3)
    with pytest.raises(ValueError):
        longest_element(set(), 4)
    w = longest_element({2, 3}, 5)
    assert w == (1, 4, 3, 2, 5)
    assert length(w) == 3


def test_longest_element_rejects_disconnected_queries_silently():
    # disconnected sets are fine here, each block reverses independently
    assert longest_element({1, 4}, 5) == (2, 1, 3, 5, 4)


def test_long_cycle():
    assert long_cycle(4) == (2, 3, 4, 1)
    assert long_cycle(1) == (1,)
    c = long_cycle(5)
    assert multiply(longest_element({1, 2, 3, 4}, 5),
                    longest_element({1, 2, 3}, 5)) == c


def test_separable_known_patterns():
    assert is_separable((1,))
    assert is_separable((2, 1, 4, 3))
    assert is_separable((4, 3, 2, 1))
    assert not is_separable((2, 4, 1, 3))
    assert not is_separable((3, 1, 4, 2))
    # containing the pattern is enough
    assert not is_separable((2, 5, 1, 4, 3))


def test_separable_tree_round_trip():
    for n in range(1, 7):
        for w in all_perms(n):
            tree = separable_tree(w)
            if tree is None:
                assert not is_separable(w)
            else:
                assert is_separable(w)
                assert tree_to_perm(tree) == w


def test_descending_decomposition_multiplies_back():
    for n in range(1, 7):
        for w in all_perms(n):
            chain = descending_decomposition(w)
            if chain is None:
                continue
            rebuilt = identity(n)
            for j_set in chain:
                rebuilt = multiply(longest_element(j_set, n), rebuilt)
            assert rebuilt == w
            for small, big in zip(chain, chain[1:]):
                assert small < big  # chains come out strictly ascending


def test_descending_iff_separable():
    for n in range(1, 7):
        for w in all_perms(n):
            present = descending_decomposition(w) is not None
            assert present == is_separable(w)


def test_separable_counts_are_schroeder():
    for n, expected in enumerate((1, 2, 6, 22, 90, 394), start=1):
        found = sum(1 for w in all_perms(n) if is_separable(w))
        assert found == expected
        assert schroeder_number(n - 1) == expected


def test_format_subset():
    assert format_subset({3, 1, 2}) == '{1,2,3}'
    assert format_subset(frozenset()) == '{}'


@settings(max_examples=60)
@given(st.permutations(tuple(range(1, 8))))
def test_random_reduced_words(w):
    w = tuple(w)
    word = reduced_word(w)
    assert len(word) == length(w)
    rebuilt = identity(7)
    for j in word:
        rebuilt = multiply(rebuilt, simple(j, 7))
    assert rebuilt == w


@given(st.permutations(tuple(range(1, 7))), st.permutations(tuple(range(1, 7))))
def test_length_is_subadditive(u, v):
    u, v = tuple(u), tuple(v)
    assert length(multiply(u, v)) <= length(u) + length(v)
    assert (length(multiply(u, v)) - length(u) - length(v)) % 2 == 0
