"""Matrices of the symmetric group action on the canonical tableau basis."""

import random
from collections import Counter
from functools import lru_cache

import pytest

from klspecht import specht
from klspecht.hecke import mu_tableaux
from klspecht.jdt import evacuate
from klspecht.rsk import column_word
from klspecht.specht import (
    check_branching,
    check_filtration_invariance,
    generator_matrix,
    mat_reindex,
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
    long_cycle,
    longest_element,
    multiply,
    reduced_word,
)
from klspecht.tableaux import (
    count_syt,
    descent_set,
    enumerate_syt,
    format_tableau,
    partitions,
    removable_boxes,
    tableau_index,
)

from dense_reference import (
    identity_matrix,
    mat_eq,
    mat_mul,
    pack_rows,
    unpack_rows,
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
    sets are equal (such a pair has no entry in any s_j) or whose column
    words have lengths of equal parity (mu is 0 there): 1442 lookups for
    every shape of n <= 7."""
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
    assert len(seen) == 1442
    for shape, pair in seen:
        a, b = pair
        cl = specht.cell(shape)
        assert cl.descents[a] != cl.descents[b]
        ta, tb = cl.tableaux[a], cl.tableaux[b]
        assert (length(column_word(ta)) - length(column_word(tb))) % 2 == 1



def _decoded(terms):
    """The matrix a `_Terms` stands for, read pick by pick."""
    d = len(terms.picks)
    m = [[0] * d for _ in range(d)]
    for row, pick in zip(m, terms.picks):
        for p in pick:
            k, x = (p % d, 1 - 2 * (p // d)) if p < 2 * d else terms.scaled[p - 2 * d]
            row[k] += x
    return m


def test_generators_with_an_entry_above_one(monkeypatch):
    """No generator entry has |x| > 1 for n <= 7, so a `_Cell.mu` that
    answers 2 on the first pair it is asked about drives the scaled
    branch of the generator pass.  Its terms, its dense generators and
    `matrix_of` must then match the W-graph rule with that mu, folded by
    the dense reference."""
    shape, n = (3, 2, 1), 6
    real = specht._Cell.mu
    bumped = []

    def mu(cl, i, j):
        if not bumped:
            bumped.append((cl.tableaux[i], cl.tableaux[j]))
        return 2 if (cl.tableaux[i], cl.tableaux[j]) == bumped[0] else real(cl, i, j)

    monkeypatch.setattr(specht._Cell, 'mu', mu)
    monkeypatch.setattr(specht, 'cell', lru_cache(maxsize=None)(specht._Cell))
    cl = specht.cell(shape)
    cl.generator_terms(1)
    tabs = enumerate_syt(shape)
    gens = {}
    for j in range(1, n):
        want = [[0] * len(tabs) for _ in tabs]
        for c, t in enumerate(tabs):
            want[c][c] = -1 if j in descent_set(t) else 1
            for r, other in enumerate(tabs):
                if j in descent_set(other) and j not in descent_set(t):
                    pair = (t, other) if c < r else (other, t)
                    want[r][c] = 2 if pair == bumped[0] else mu_tableaux(t, other)
        gens[j] = want
        terms = cl.generator_terms(j)
        assert _decoded(terms) == want
        assert terms.rowabs == max(sum(map(abs, row)) for row in want)
        assert terms.maxabs == max(abs(x) for row in want for x in row)
        assert specht.generator_matrix(shape, j) == want
    assert any(cl.generator_terms(j).scaled for j in gens)
    for w in (long_cycle(n), tuple(range(n, 0, -1)), (2, 4, 1, 3, 6, 5)):
        want = identity_matrix(len(tabs))
        for j in reversed(reduced_word(w)):
            want = mat_mul(gens[j], want)
        assert matrix_of(shape, w) == want


@pytest.mark.parametrize('width', [32, 64, 96, 17])
def test_reindexed_reads_every_slot_width(width):
    """`_reindexed`, the one read-out of packed rows, agrees with a plain
    shift loop on slots of any width, a multiple of 32 or not, in the
    identity order and a shuffled one, on random entries and on 0 and
    +-(2**(width - 1) - 1)."""
    rng = random.Random(width)
    edge = (1 << (width - 1)) - 1
    for d in (1, 2, 5, 17):
        m = [[rng.choice((0, edge, -edge, rng.randint(-edge, edge)))
              for _ in range(d)] for _ in range(d)]
        m[0][0], m[-1][-1] = edge, -edge
        packed = pack_rows(m, width)
        assert unpack_rows(packed) == m
        shuffled = list(range(d))
        rng.shuffle(shuffled)
        for ids in (list(range(d)), shuffled):
            assert specht._reindexed(packed, ids) == mat_reindex(m, ids)

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


def test_matrix_of_rejects_what_does_not_act_on_the_shape():
    """w is checked once: its length against the shape first, then, by
    `reduced_word`, that it is a permutation."""
    with pytest.raises(ValueError) as err:
        matrix_of((2, 1), (1, 1))
    assert str(err.value) == '(1, 1) does not act on shape (2, 1)'
    with pytest.raises(ValueError) as err:
        matrix_of((2, 1), (1, 1, 2))
    assert str(err.value) == 'not a permutation of 1..3: (1, 1, 2)'


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


def _dense_fold(shape, word, order):
    """The product of the generator matrices in `order` along word,
    rightmost first, by the dense reference."""
    out = identity_matrix(count_syt(shape))
    for j in reversed(word):
        out = mat_mul(generator_matrix(shape, j, order), out)
    return out


def test_packed_products_equal_the_dense_fold(monkeypatch):
    """`matrix_of` of the long cycle and every w_J (w0 among them), and
    the products of the empty word and a one-letter word, in the total
    index order and one seeded shuffled order, for every shape of
    n <= 7.  The slot widths come from the words' bounds, and some of
    these products need slots wider than 32 bits."""
    widths = []
    reindexed = specht._reindexed

    def spy(p, ids):
        widths.append(p.width)
        return reindexed(p, ids)

    monkeypatch.setattr(specht, '_reindexed', spy)
    rng = random.Random('dense fold')
    for n in range(2, 8):
        ws = [long_cycle(n)] + [longest_element(set(range(p, q)), n)
                                for p in range(1, n) for q in range(p + 1, n + 1)]
        for shape in partitions(n):
            shuffled = list(total_index_order(shape))
            rng.shuffle(shuffled)
            for order in (None, shuffled):
                for w in ws:
                    assert matrix_of(shape, w, order) \
                        == _dense_fold(shape, reduced_word(w), order), (shape, w)
                for word in ([], [n - 1]):
                    assert matrix_from_generator_word(shape, word, order) \
                        == _dense_fold(shape, word, order), (shape, word)
    assert max(widths) > 32


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
    """Each quotient block, read from the generators' picks, is the block
    of the dense generator on the index-i rows and columns."""
    for n in range(2, 7):
        for shape in partitions(n):
            boxes = removable_boxes(shape)
            for i in range(1, len(boxes) + 1):
                mats = quotient_matrices(shape, i)
                assert len(mats) == max(n - 2, 0)
                members = [
                    k for k, t in enumerate(enumerate_syt(shape))
                    if tableau_index(t) == i
                ]
                for j, m in enumerate(mats, start=1):
                    assert len(m) == len(members)
                    dense = generator_matrix(shape, j)
                    assert m == [[dense[r][c] for c in members] for r in members]


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


def test_failing_filtration_and_branching_reports(monkeypatch):
    """Under two faults in `_Cell.generator_terms`, where every reader
    takes s_j, the filtration report names each entry of the dense
    generator that lies below the index order, column by column, and the
    branching report each quotient that differs from the smaller module.
    The twist s_j -> s_{n-j} is still a representation but not filtered
    by index.  No generator has two failing entries whose rows run against
    their columns, so a second fault fills s_j with entries from -2 to 2,
    which takes every kind of pick and pins the column-major order.  Each
    fault fails both checks on some shape."""
    real = specht._Cell.generator_terms

    def filled(cl, j):
        d = len(cl.tableaux)
        return specht._read_terms(pack_rows(
            [[(j + r + 2 * c) % 5 - 2 for c in range(d)] for r in range(d)],
            specht._width(2)))

    faults = {'twist': lambda cl, j: real(cl, sum(cl.shape) - j), 'filled': filled}
    failed = Counter()
    for name, fault in faults.items():
        monkeypatch.setattr(specht._Cell, 'generator_terms', fault)
        monkeypatch.setattr(specht, 'cell', lru_cache(maxsize=None)(specht._Cell))
        for n in range(1, 7):
            for shape in partitions(n):
                tabs = enumerate_syt(shape)
                idx = [tableau_index(t) for t in tabs]
                gens = [generator_matrix(shape, j) for j in range(1, n - 1)]
                want = [f's_{j} moves {format_tableau(tabs[c])} (index {idx[c]}) '
                        f'onto index {idx[r]}'
                        for j, g in enumerate(gens, start=1)
                        for c in range(len(tabs)) for r in range(len(tabs))
                        if g[r][c] and idx[r] > idx[c]]
                report = check_filtration_invariance(shape)
                assert (report.passed, report.failures) == (not want, want), shape
                failed[name, 'filtration'] += not report.passed
                want = []
                for i, (row, _) in enumerate(removable_boxes(shape), start=1):
                    small = tuple(p - (k == row) for k, p in enumerate(shape, 1)
                                  if p - (k == row))
                    members = [k for k in range(len(tabs)) if idx[k] == i]
                    want += [f'index-{i} quotient of s_{j} differs from S^{small}'
                             for j, g in enumerate(gens, start=1)
                             if [[g[r][c] for c in members] for r in members]
                             != generator_matrix(small, j)]
                report = check_branching(shape)
                assert (report.passed, report.failures) == (not want, want), shape
                failed[name, 'branching'] += not report.passed
    assert len(failed) == 4 and all(failed.values()), failed


def test_matrix_entries_serialization():
    assert matrix_entries([[1, -2], [0, 3]]) == [[1, -2], [0, 3]]
    from fractions import Fraction

    got = matrix_entries([[Fraction(1, 2), Fraction(3, 1)]])
    assert got == [['1/2', 3]]
