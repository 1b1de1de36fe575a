"""Matrices of the symmetric group action on the canonical tableau basis."""

import random
from collections import Counter
from functools import lru_cache

import pytest

from klspecht import specht
from klspecht.hecke import mu_tableaux
from klspecht.jdt import evacuate
from klspecht.specht import (
    check_branching,
    check_filtration_invariance,
    generator_matrix,
    identity_matrix,
    mat_eq,
    mat_mul,
    matrix_entries,
    matrix_from_generator_word,
    matrix_of,
    quotient_matrices,
    total_index_order,
)
from klspecht.symgroup import (
    all_perms,
    identity,
    inverse,
    length,
    multiply,
    reduced_word,
)
from klspecht.tableaux import (
    count_syt,
    descent_set,
    enumerate_syt,
    partitions,
    removable_boxes,
    tableau_index,
)


def test_one_row_and_one_column_generators():
    for j in (1, 2, 3):
        assert generator_matrix((4,), j) == [[1]]
        assert generator_matrix((1, 1, 1, 1), j) == [[-1]]


def test_standard_representation_generators():
    assert generator_matrix((2, 1), 1) == [[-1, 1], [0, 1]]
    assert generator_matrix((2, 1), 2) == [[1, 0], [1, -1]]


def test_generator_out_of_range():
    with pytest.raises(ValueError):
        generator_matrix((2, 1), 3)
    with pytest.raises(ValueError):
        generator_matrix((2, 1), 0)


@pytest.mark.parametrize('n', range(2, 6))
def test_generators_follow_the_w_graph_rule(n):
    """Column T of s_j is -C_T for j in D(T), and otherwise C_T plus
    mu(T, R) C_R for each R with j in D(R), read one j at a time with
    the public `mu_tableaux`."""
    for shape in partitions(n):
        tabs = enumerate_syt(shape)
        d = len(tabs)
        for j in range(1, n):
            want = [[0] * d for _ in range(d)]
            for c, t in enumerate(tabs):
                if j in descent_set(t):
                    want[c][c] = -1
                    continue
                want[c][c] = 1
                for r, other in enumerate(tabs):
                    if j in descent_set(other):
                        want[r][c] = mu_tableaux(t, other)
            assert generator_matrix(shape, j) == want


def test_generators_look_up_mu_once_per_pair(monkeypatch):
    """Building every generator of a shape asks `_Cell.mu` at most once
    per unordered pair of tableaux, and never for a pair whose descent
    sets are equal (such a pair has no entry in any s_j)."""
    seen = Counter()
    real = specht._Cell.mu

    def spy(cl, i, j):
        seen[cl.shape, frozenset((i, j))] += 1
        return real(cl, i, j)

    monkeypatch.setattr(specht._Cell, 'mu', spy)
    monkeypatch.setattr(specht, 'cell', lru_cache(maxsize=None)(specht._Cell))
    for n in range(1, 8):
        for shape in partitions(n):
            for j in range(1, n):
                generator_matrix(shape, j)
    assert seen and max(seen.values()) == 1
    for shape, pair in seen:
        a, b = pair
        descents = specht.cell(shape).descents
        assert descents[a] != descents[b]


def test_coxeter_relations():
    for n in range(2, 6):
        for shape in partitions(n):
            gens = {j: generator_matrix(shape, j) for j in range(1, n)}
            d = count_syt(shape)
            eye = identity_matrix(d)
            for j, g in gens.items():
                assert mat_eq(mat_mul(g, g), eye)
            for j in range(1, n - 1):
                a, b = gens[j], gens[j + 1]
                assert mat_eq(
                    mat_mul(a, mat_mul(b, a)),
                    mat_mul(b, mat_mul(a, b)),
                )
            for j in range(1, n):
                for k in range(j + 2, n):
                    assert mat_eq(
                        mat_mul(gens[j], gens[k]),
                        mat_mul(gens[k], gens[j]),
                    )


def test_long_cycle_matrix_on_three_one_one():
    want = [
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [1, 0, 0, -1, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 1, 0, -1, 0, 1],
        [0, 0, 1, 0, -1, 1],
    ]
    assert matrix_of((3, 1, 1), (2, 3, 4, 5, 1)) == want


def test_identity_matrix_and_trace():
    for n in range(2, 6):
        for shape in partitions(n):
            m = matrix_of(shape, identity(n))
            d = count_syt(shape)
            assert m == identity_matrix(d)
            assert sum(m[i][i] for i in range(d)) == d


def test_inverse_matrices_multiply_to_identity():
    rng = random.Random(11)
    for n in range(2, 6):
        perms = all_perms(n)
        for shape in partitions(n):
            d = count_syt(shape)
            for w in rng.sample(perms, min(6, len(perms))):
                m = matrix_of(shape, w)
                minv = matrix_of(shape, inverse(w))
                assert mat_eq(mat_mul(m, minv), identity_matrix(d))


def test_matrix_of_is_a_homomorphism():
    rng = random.Random(23)
    shape = (2, 2, 1)
    perms = all_perms(5)
    for _ in range(8):
        u = rng.choice(perms)
        v = rng.choice(perms)
        assert mat_eq(
            matrix_of(shape, multiply(u, v)),
            mat_mul(matrix_of(shape, u), matrix_of(shape, v)),
        )


def test_long_element_acts_by_signed_evacuation():
    assert matrix_of((2, 1), (3, 2, 1)) == [[0, -1], [-1, 0]]
    for n in range(2, 6):
        w0 = tuple(range(n, 0, -1))
        for shape in partitions(n):
            order = total_index_order(shape)
            pos = {t: k for k, t in enumerate(order)}
            m = matrix_of(shape, w0)
            for col, t in enumerate(order):
                target = pos[evacuate(t)]
                for row, entry in enumerate(x[col] for x in m):
                    if row == target:
                        assert entry in (1, -1)
                    else:
                        assert entry == 0


def test_two_reduced_words_same_matrix():
    w0 = (4, 3, 2, 1)
    word_a = [1, 2, 1, 3, 2, 1]
    word_b = [3, 2, 3, 1, 2, 3]
    for word in (word_a, word_b):
        built = identity(4)
        from klspecht.symgroup import simple

        for j in word:
            built = multiply(built, simple(j, 4))
        assert built == w0
    assert word_a != word_b
    assert len(word_a) == len(word_b) == length(w0)
    for shape in partitions(4):
        assert mat_eq(
            matrix_from_generator_word(shape, word_a),
            matrix_from_generator_word(shape, word_b),
        )
        assert mat_eq(
            matrix_from_generator_word(shape, word_a),
            matrix_of(shape, w0),
        )


def test_reduced_word_route_matches_direct_products():
    for w in all_perms(4):
        for shape in partitions(4):
            assert mat_eq(
                matrix_of(shape, w),
                matrix_from_generator_word(shape, reduced_word(w)),
            )


def test_entries_are_integers():
    for n in range(2, 6):
        for shape in partitions(n):
            for j in range(1, n):
                for row in generator_matrix(shape, j):
                    for entry in row:
                        assert isinstance(entry, int)


def test_custom_order_permutes_rows_and_columns():
    shape = (3, 1, 1)
    base = total_index_order(shape)
    rng = random.Random(7)
    w = (2, 4, 1, 3, 5)
    m = matrix_of(shape, w)
    for _ in range(5):
        sigma = list(range(len(base)))
        rng.shuffle(sigma)
        order = [base[k] for k in sigma]
        m2 = matrix_of(shape, w, order)
        for a in range(len(base)):
            for b in range(len(base)):
                assert m2[a][b] == m[sigma[a]][sigma[b]]
        # the same as multiplying the generator matrices in that order
        product = identity_matrix(len(base))
        for j in reduced_word(w):
            product = mat_mul(product, generator_matrix(shape, j, order))
        assert product == m2


def test_returned_matrices_are_the_callers_to_change():
    # the cell caches each generator; what callers get must be a copy
    shape = (3, 2)
    order = list(reversed(total_index_order(shape)))
    calls = [
        lambda: generator_matrix(shape, 2),
        lambda: generator_matrix(shape, 2, order),
        lambda: matrix_of(shape, (1, 3, 2, 4, 5)),  # one letter: s_2
        lambda: matrix_of(shape, (2, 3, 4, 5, 1)),
        lambda: matrix_of(shape, (2, 3, 4, 5, 1), order),
        lambda: matrix_of(shape, identity(5)),
        lambda: matrix_from_generator_word(shape, [], order),
    ]
    for call in calls:
        first = call()
        expect = [list(row) for row in first]
        first[0][0] += 7
        first[-1].append(1)
        first.append([0])
        assert call() == expect


def test_filtration_blocks_are_lower_triangular_by_index():
    for n in range(2, 6):
        for shape in partitions(n):
            report = check_filtration_invariance(shape)
            assert report.passed, report.failures
            assert report.theorem == 'filtration'
    # and the raw statement, directly
    shape = (3, 1, 1)
    order = total_index_order(shape)
    for j in (1, 2, 3):
        g = generator_matrix(shape, j)
        for col, t in enumerate(order):
            for row, r in enumerate(order):
                if tableau_index(r) > tableau_index(t):
                    assert g[row][col] == 0


def test_quotient_dimensions():
    for n in range(2, 7):
        for shape in partitions(n):
            boxes = removable_boxes(shape)
            for i in range(1, len(boxes) + 1):
                mats = quotient_matrices(shape, i)
                assert len(mats) == max(n - 2, 0)
                members = [
                    t for t in enumerate_syt(shape)
                    if tableau_index(t) == i
                ]
                for m in mats:
                    assert len(m) == len(members)


def test_branching_reports():
    for n in range(2, 6):
        for shape in partitions(n):
            report = check_branching(shape)
            assert report.passed, report.failures
            assert report.theorem == 'branching'


def test_branching_quotients_match_smaller_modules_exactly():
    shape = (3, 1, 1)
    # quotient at index 1 drops the box at the end of row 1
    mats = quotient_matrices(shape, 1)
    for j, m in enumerate(mats, start=1):
        assert mat_eq(m, generator_matrix((2, 1, 1), j))
    mats = quotient_matrices(shape, 2)
    for j, m in enumerate(mats, start=1):
        assert mat_eq(m, generator_matrix((3, 1), j))


def test_matrix_entries_serialization():
    assert matrix_entries([[1, -2], [0, 3]]) == [[1, -2], [0, 3]]
    from fractions import Fraction

    got = matrix_entries([[Fraction(1, 2), Fraction(3, 1)]])
    assert got == [['1/2', 3]]
