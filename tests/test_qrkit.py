import hashlib
import json
import os
import pickle
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations
from math import isqrt
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import klspecht
from klspecht import cli, qrkit, specht
from klspecht.jdt import evacuate, promote
from klspecht.qrkit import (
    IrrationalNormError,
    QRInvariantError,
    SignedPermutation,
    SingularMatrixError,
    all_connected_chains,
    as_signed_permutation,
    exact_qr,
    phi_connected,
    preorder_connected,
    random_index_monotone_order,
    search_ordering,
    thm1_shape_reports,
    verify_counterexample,
    verify_thm1,
    verify_thm4_chain,
)
from klspecht.reports import CheckReport
from klspecht.specht import (
    mat_reindex,
    matrix_of,
)
from klspecht.symgroup import long_cycle, longest_element, reduced_word
from klspecht.tableaux import (
    count_syt,
    enumerate_syt,
    parse_tableau,
    partitions,
    tableau_index,
)

from conftest import clear_caches
from dense_reference import (
    identity_matrix,
    mat_eq,
    mat_mul,
    pack_rows,
    pick_rank_signs,
    unpack_rows,
)


def is_index_monotone(order):
    idx = [tableau_index(t) for t in order]
    return all(a <= b for a, b in zip(idx, idx[1:]))


def test_exact_qr_of_a_permutation_matrix():
    fact = exact_qr([[0, 1], [1, 0]])
    assert fact.q == [[0, 1], [1, 0]]
    assert fact.r == [[1, 0], [0, 1]]


def test_exact_qr_defining_identities():
    m = [
        [Fraction(3, 5), Fraction(1, 2)],
        [Fraction(4, 5), Fraction(7, 3)],
    ]
    fact = exact_qr(m)
    assert mat_eq(mat_mul(fact.q, fact.r), m)
    q_t = [list(col) for col in zip(*fact.q)]
    assert mat_eq(mat_mul(q_t, fact.q), identity_matrix(2))
    for i in range(2):
        assert fact.r[i][i] > 0
        for j in range(i):
            assert fact.r[i][j] == 0


def test_singular_input_rejected():
    with pytest.raises(SingularMatrixError):
        exact_qr([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        exact_qr([[0, 0], [0, 0]])


def test_exact_qr_refuses_inexact_entries():
    """An entry that is neither an int nor a Fraction raises TypeError
    naming it, not the AttributeError of its missing denominator."""
    for bad in (0.5, 1.0, '1'):
        with pytest.raises(TypeError, match=f'matrix entry {bad!r} is not'):
            exact_qr([[1, 0], [0, bad]])
    assert exact_qr([[1, 0], [0, Fraction(1, 2)]]).r[1][1] == Fraction(1, 2)


def test_irrational_norm_reported_with_position():
    with pytest.raises(IrrationalNormError) as info:
        exact_qr([[1, 0], [1, 1]])
    assert info.value.column == 0
    assert info.value.norm2 == 2


# exact_qr(25 I) reads its factorization off the integer rows
# [D_k u_k^T M | D_k u_k^T] of `_bareiss`, [[625, 0, 25, 0], [0, 390625, 0,
# 15625]], with s_k = sqrt(D_k D_{k+1}) = 25, 15625.  Each replacement
# below breaks exactly one invariant.  The last one is the rotation Q with
# columns (3, 4)/5 and (-4, 3)/5 and R = Q^T M, which is not triangular.
_M25 = [[25, 0], [0, 25]]
_BROKEN_ROWS = {
    'Q is not orthonormal': [[625, 0, 25, 1], [0, 390625, 0, 15625]],
    'QR != M': [[625, 1, 25, 0], [0, 390625, 0, 15625]],
    'R diagonal must be positive': [[0, 0, 0, 0], [0, 0, 0, 0]],
    'R must be triangular': [[225, 300, 9, 12],
                             [-67500, 50625, -2700, 2025]],
}


def test_exact_qr_reads_the_elimination_rows():
    assert qrkit._bareiss(list(zip(*_M25))) == [[625, 0, 25, 0],
                                                [0, 390625, 0, 15625]]
    fact = exact_qr(_M25)
    assert fact.q == [[1, 0], [0, 1]] and fact.r == _M25


@pytest.mark.parametrize('message', sorted(_BROKEN_ROWS))
def test_exact_qr_invariants_raise(monkeypatch, message):
    monkeypatch.setattr(qrkit, '_bareiss', lambda cols: _BROKEN_ROWS[message])
    with pytest.raises(QRInvariantError, match=message):
        exact_qr(_M25)


def test_exact_qr_checks_columns_of_q_pairwise(monkeypatch):
    """Column 1 of Q tilted onto column 0, every squared norm D_k D_{k+1}
    kept: only the pairwise check sees it (R would not be triangular)."""
    tilted = [[625, 0, 25, 0], [187500, 250000, 7500, 10000]]
    monkeypatch.setattr(qrkit, '_bareiss', lambda cols: tilted)
    with pytest.raises(QRInvariantError, match='Q is not orthonormal'):
        exact_qr(_M25)


def test_exact_qr_invariants_survive_optimize_flag():
    script = '''
import sys
from klspecht import qrkit
qrkit._bareiss = lambda cols: [[625, 0, 25, 1], [0, 390625, 0, 15625]]
try:
    qrkit.exact_qr([[25, 0], [0, 25]])
except qrkit.QRInvariantError as err:
    print(sys.flags.optimize, err)
'''
    src = str(Path(klspecht.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, '-O', '-c', script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == '1 Q is not orthonormal'


def test_as_signed_permutation():
    assert as_signed_permutation([[1, 1], [0, 1]]) is None
    assert as_signed_permutation([[1, 0], [0, 1]]) == \
        SignedPermutation((0, 1), (1, 1))
    sp = as_signed_permutation([[0, -1], [1, 0]])
    assert sp is not None
    assert sp.target == (1, 0)
    assert sp.signs == (1, -1)
    assert as_signed_permutation([[2, 0], [0, 1]]) is None
    assert as_signed_permutation([[1, 0], [1, 0]]) is None
    assert as_signed_permutation([]) == SignedPermutation((), ())
    for m in ([[1, 0]], [[1], [0, 1]]):
        with pytest.raises(ValueError, match='square'):
            as_signed_permutation(m)


def test_index_monotone_orders():
    shape = (3, 1, 1)
    base = list(enumerate_syt(shape))
    assert is_index_monotone(base)
    assert not is_index_monotone(list(reversed(base)))
    rng = Random(5)
    for _ in range(10):
        order = random_index_monotone_order(shape, rng)
        assert sorted(order) == sorted(base)
        assert is_index_monotone(order)
        indices = [tableau_index(t) for t in order]
        assert indices == sorted(indices)


def test_thm1_on_the_worked_shape():
    report = verify_thm1((3, 1, 1))
    assert report.passed, report.failures
    assert report.theorem == 'thm1'
    assert report.signs == {'1': 1, '2': 1}
    # the witness records where each basis column lands under promotion
    mapping = report.witness['promotion']
    tabs = enumerate_syt((3, 1, 1))
    for col, t in enumerate(tabs):
        assert tabs[mapping[col]] == promote(t)


def test_thm1_small_sweep():
    for n in range(2, 6):
        for shape in partitions(n):
            report = verify_thm1(shape)
            assert report.passed, (shape, report.failures)


def test_thm1_rejects_non_monotone_orders():
    shape = (3, 1, 1)
    base = list(enumerate_syt(shape))
    with pytest.raises(ValueError):
        verify_thm1(shape, list(reversed(base)))


def test_thm1_shape_reports_are_seeded_and_counted():
    reports_a = thm1_shape_reports((2, 2, 1), seed=3)
    reports_b = thm1_shape_reports((2, 2, 1), seed=3)
    assert len(reports_a) == 11
    assert [r.ordering for r in reports_a] == [r.ordering for r in reports_b]
    for r in reports_a:
        assert r.passed
    reports_c = thm1_shape_reports((2, 2, 1), seed=4)
    assert [r.ordering for r in reports_c] != [r.ordering for r in reports_a]


def test_phi_of_the_full_generator_set_is_evacuation():
    for n in range(2, 7):
        full = frozenset(range(1, n))
        for shape in partitions(n):
            for t in enumerate_syt(shape):
                assert phi_connected(full, t) == evacuate(t)


def test_phi_composite_along_the_two_step_chain_is_promotion():
    for n in range(3, 7):
        lower = frozenset(range(1, n - 1))
        full = frozenset(range(1, n))
        for shape in partitions(n):
            for t in enumerate_syt(shape):
                assert phi_connected(full, phi_connected(lower, t)) \
                    == promote(t)


def test_preorder_keys_cover_the_shape():
    for n in range(2, 6):
        for shape in partitions(n):
            for chain in all_connected_chains(n):
                j_set = chain[-1]
                keys = preorder_connected(j_set, shape)
                assert set(keys) == set(enumerate_syt(shape))


def test_connected_chain_counts():
    assert len(all_connected_chains(2)) == 1
    assert len(all_connected_chains(3)) == 5
    assert len(all_connected_chains(4)) == 19
    assert len(all_connected_chains(5)) == 67
    for chain in all_connected_chains(5):
        for small, big in zip(chain, chain[1:]):
            assert small < big
        for j_set in chain:
            lo, hi = min(j_set), max(j_set)
            assert j_set == frozenset(range(lo, hi + 1))


def test_thm4_two_step_chain_on_the_triangle():
    report = verify_thm4_chain((2, 1), [{2}, {1, 2}])
    assert report.passed, report.failures
    assert report.theorem == 'thm4'


def test_thm4_single_full_chain_realizes_evacuation():
    for n in range(2, 6):
        full = frozenset(range(1, n))
        for shape in partitions(n):
            report = verify_thm4_chain(shape, [full])
            assert report.passed, (shape, report.failures)
            sym = report.witness['symmetry']
            from klspecht.tableaux import format_tableau

            for t in enumerate_syt(shape):
                assert sym[format_tableau(t)] \
                    == format_tableau(evacuate(t))


def test_thm4_small_sweep():
    for n in range(2, 5):
        for shape in partitions(n):
            for chain in all_connected_chains(n):
                report = verify_thm4_chain(shape, chain)
                assert report.passed, (shape, chain, report.failures)


BAD_CHAINS = [
    [{1, 3}],                     # not contiguous
    [{1}, {1, 3}],                # a later member not contiguous
    [{1}, {1, 3}, {1, 2, 3}],     # a middle member not contiguous
    [{1, 2}, {2}],                # not increasing
    [{1}, {1, 2}, {2, 3}],        # a later pair not increasing
    [{2}, {1, 2}, {1, 2}],        # a later pair equal
    [{0}, {0, 1}],                # outside 1..n-1
    [{1}, {1, 2, 3, 4}],          # a later member outside 1..n-1
    [{1}, {1, 2}, {1, 2, 3}, {3}],  # bad extensions of cached prefixes
    [{1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}],
    [{1}, {1, 2}, {4}],
    [],
]


def test_thm4_rejects_bad_chains(cold_caches):
    """Each chain extends the validated data of its prefix, so a bad
    member or pair anywhere must raise, on cold caches and once every
    valid prefix is cached.  The record is cached on the chain as given:
    every form of a chain (`_chain_forms`, and a tuple of sets, which the
    cache cannot hash) raises the same ValueError, or passes.  A chain of
    non-sets raises the TypeError of its conversion, and a list shape
    gets the boundary's ValueError with a chain the cache can hash too."""
    shape = (2, 1, 1)
    for _ in range(2):  # cold, then with every valid chain of n = 4 cached
        for chain in BAD_CHAINS:
            with pytest.raises(ValueError) as want:
                qrkit._chain_data(tuple(map(frozenset, chain)), 4)
            for form in [*_chain_forms(chain), tuple(map(set, chain))]:
                with pytest.raises(ValueError) as got:
                    verify_thm4_chain(shape, form)
                assert str(got.value) == str(want.value)
        for chain in all_connected_chains(4):
            for form in [*_chain_forms(chain), tuple(map(set, chain))]:
                assert verify_thm4_chain(shape, form).passed
    with pytest.raises(ValueError):
        verify_thm4_chain((2, 1), [{1, 2}, {2}])
    for chain in ((1, 2), [1, 2]):
        with pytest.raises(TypeError, match='not iterable'):
            verify_thm4_chain(shape, chain)
    for chain in ((frozenset({1}),), ((1,), (1, 2))):
        with pytest.raises(ValueError, match='not a nonempty partition tuple'):
            verify_thm4_chain([2, 1, 1], chain)


def test_thm4_refuses_an_unordered_chain(cold_caches):
    """A set or a dict of members has no order the caller chose: it
    raises at the boundary, whether its iteration order happens to
    increase or not, and the same members as a list pass."""
    for chain in ([frozenset({1, 2}), frozenset({1, 2, 3})],
                  [frozenset({1}), frozenset({1, 2})]):
        for unordered in (set(chain), frozenset(chain), dict.fromkeys(chain)):
            with pytest.raises(ValueError,
                               match=f'chain must be a sequence, not a '
                                     f'{type(unordered).__name__}$'):
                verify_thm4_chain((3, 1), unordered)
        assert verify_thm4_chain((3, 1), chain).passed


def _chain_forms(chain):
    """One chain as a tuple of frozensets, a tuple of tuples, a list of
    sets and a list of lists."""
    return [tuple(map(frozenset, chain)), tuple(tuple(sorted(j)) for j in chain),
            [set(j) for j in chain], [sorted(j) for j in chain]]


def _checked_matrices(monkeypatch):
    """Record every check the verifiers decide: the packed input of
    `_decide`, unpacked and reindexed to the checked basis order (None for
    a passing thm4 check, which builds no matrix), the row each column is
    sent to in that order, and the pivots it decides on, which `_decide`
    reads by position, in that order."""
    seen = []
    real = qrkit._decide

    def spy(shape, packed, ids, image, keys, pivots, *rest):
        pos = qrkit._inverse(ids)
        m = None if packed is None else mat_reindex(unpack_rows(packed), ids)
        seen.append((m, [pos[image[i]] for i in ids],
                     None if pivots is None else [pivots[i] for i in ids]))
        return real(shape, packed, ids, image, keys, pivots, *rest)

    monkeypatch.setattr(qrkit, '_decide', spy)
    return seen


def _basis(report):
    return [parse_tableau(label) for label in report.ordering]


def test_thm4_chain_matrix_from_cached_factors(monkeypatch):
    """Every thm4 chain's state holds the pivots of `matrix_of` of its w
    in its basis order, read off the cached block structure of its members
    (`_j_signs`) and its prefix's pivots, with no matrix of its own.  No
    chain up to n = 5 is decided on them: each passes from its members'
    verdicts, and its report reads its state when it renders."""
    seen = _checked_matrices(monkeypatch)
    chains = 0
    for n in range(2, 6):
        for shape in partitions(n):
            for chain in all_connected_chains(n):
                report = verify_thm4_chain(shape, chain)
                assert report.passed and not seen
                want = matrix_of(shape, tuple(report.witness['w']),
                                 _basis(report))
                state = qrkit._thm4_state(shape, qrkit._chain_data(chain, n)[0])
                pos = qrkit._inverse(state.perm)
                target = [pos[state.phi[i]] for i in state.perm]
                pivots = [state.pivots[i] for i in state.perm]
                assert pivots == list_pivots(want, target)
                chains += 1
    assert chains == 581


def test_thm1_long_cycle_matrix_from_cached_factor(monkeypatch, cold_caches):
    """thm1 is decided once per shape, on `matrix_of` of the long cycle in
    the total index order (`_thm1_pivots`), however many orders are
    checked, and with no `_decide`; each report's pivots, which it renders
    from, are the pivots of `matrix_of` in its own order, and the
    per-shape pivots those of the total index order."""
    seen = _checked_matrices(monkeypatch)
    shapes = 0
    for n in range(2, 6):
        for shape in partitions(n):
            rng = Random(f'factor:{shape}')
            orders = [None] + [random_index_monotone_order(shape, rng)
                               for _ in range(5)]
            table = qrkit._promotion_table(shape)
            for order in orders:
                report = verify_thm1(shape, order)
                _, _, ids, pivots = report._render
                want = matrix_of(shape, long_cycle(n), _basis(report))
                pos = qrkit._inverse(ids)
                assert [pivots[i] for i in ids] \
                    == list_pivots(want, [pos[table[i]] for i in ids])
            assert not seen
            m = matrix_of(shape, long_cycle(n))
            assert unpack_rows(qrkit._long_cycle(shape)) == m
            assert qrkit._thm1_pivots(shape) == list_pivots(m, table)
            shapes += 1
    assert shapes == 17


def _thm1_decided(checks):
    """The verdicts (passed, failures) of these thm1 checks, read before
    any record renders, and then their records."""
    reports = [verify_thm1(*check) for check in checks]
    verdicts = [(r.passed, r.failures) for r in reports]
    return verdicts, [r.record() for r in reports]


def test_thm1_per_shape_verdict_keeps_every_record(monkeypatch, cold_caches):
    """Every thm1 verdict and record for n <= 6 (the total index order and
    10 seeded reorders per shape), and for a seeded sample at n = 7,
    equals the one decided order by order, with `_thm1_pivots` patched to
    None.  The per-shape verdict holds on every shape with n <= 7, so
    every check there passes on it."""
    rng = Random(33)
    checks = [(shape, order) for n in range(1, 7) for shape in partitions(n)
              for order in [None] + [random_index_monotone_order(shape, rng)
                                     for _ in range(10)]]
    checks += rng.sample([(shape, random_index_monotone_order(shape, rng))
                          for shape in partitions(7) for _ in range(10)], 40)
    fast = _thm1_decided(checks)
    with monkeypatch.context() as patch:
        patch.setattr(qrkit, '_thm1_pivots', lambda shape: None)
        assert _thm1_decided(checks) == fast
    assert all(passed for passed, _ in fast[0])
    assert all(qrkit._thm1_pivots(shape) is not None
               for n in range(1, 8) for shape in partitions(n))


def test_a_classmate_entry_takes_the_per_order_route(monkeypatch,
                                                     cold_caches):
    """M(c) of (3, 2) with a 1 added in row pr(T) at column T', T and T'
    at positions 2 and 3, both of index 2.  The total index order still
    passes, so only the order with each class reversed shows the fault:
    the per-shape verdict refuses the shape, exactly the 6 of the 12
    index-monotone orders that put T' before T fail, each with the line
    naming the column QR cannot normalize over Q, and every verdict
    and record equals the per-order route's."""
    shape, t, t2 = (3, 2), 2, 3
    cl = specht.cell(shape)
    assert cl.indexes[t] == cl.indexes[t2] == 2
    real = qrkit._long_cycle
    m = unpack_rows(real(shape))
    row = qrkit._promotion_table(shape)[t]
    assert m[row][t2] == 0
    m[row][t2] = 1
    faulty = pack_rows(m, real(shape).width)
    orders = [tuple(cl.tableaux[k] for k in (*a, *b))
              for a in permutations(cl.classes[1])
              for b in permutations(cl.classes[2])]
    checks = [(shape, order) for order in orders]
    with monkeypatch.context() as patch:
        patch.setattr(qrkit, '_long_cycle',
                      lambda s: faulty if s == shape else real(s))
        clear_caches(qrkit)
        assert qrkit._thm1_pivots(shape) is None
        fast = _thm1_decided(checks)
        patch.setattr(qrkit, '_thm1_pivots', lambda shape: None)
        assert _thm1_decided(checks) == fast
    clear_caches(qrkit)
    before = [order.index(cl.tableaux[t2]) < order.index(cl.tableaux[t])
              for order in orders]
    assert sum(before) == 6
    assert [not passed for passed, _ in fast[0]] == before
    assert {tuple(failures) for passed, failures in fast[0]
            if not passed} == {
        (f'no rational QR: column {c}: squared norm 2 is not a rational '
         'square',) for c in (2, 3)}


def _connected_sets(n):
    return [frozenset(range(a, b + 1)) for a in range(1, n) for b in range(a, n)]


@pytest.mark.parametrize('n', range(1, 8))
def test_w_j_factors_equal_the_fold_of_a_reduced_word(n):
    """Each w_J factor, folded on the factor of J minus its largest
    generator, has the nonzero entries, the largest row sum of |entry| and
    the largest |entry| of the packed fold of a reduced word of w_J; the
    factor of a single generator has those of that generator's terms."""
    for shape in partitions(n):
        cl = specht.cell(shape)
        for j_set in _connected_sets(n):
            p, q = min(j_set), max(j_set) + 1
            w = longest_element(j_set, n)
            terms = specht._read_terms(qrkit._block_factor(shape, p, q))
            assert terms == specht._read_terms(cl.fold(reduced_word(w)))
            if q == p + 1:
                assert terms == cl.generator_terms(p)


def test_w_j_factors_take_one_product_per_generator(monkeypatch, cold_caches):
    """On cold caches, the w_J that an n = 6 shape builds, those of
    J = {p, ..., 5}, cost n(n - 1)/2 = 15 products in all: each J costs |J|
    products on the factor of J minus its smallest member (the identity
    for |J| = 1), not the 35 of every J, each on the factor of J minus its
    largest member.  Only the 3 factors that a larger J's fold starts from
    and that are not s_5 are read into picks, those of p = 2, 3, 4: the
    fold of J = {4, 5} starts from the terms of s_5, and the factor of
    J = {1, ..., 5} starts no fold."""
    shape, n = (3, 2, 1), 6
    specht.cell(shape).generator_terms(1)
    calls, read = [], []
    real, real_read = specht._times, qrkit._read_terms

    def counting(terms, b):
        calls.append(b.width)
        return real(terms, b)

    def reading(p):
        read.append(p)
        return real_read(p)

    monkeypatch.setattr(specht, '_times', counting)
    monkeypatch.setattr(qrkit, '_read_terms', reading)
    for p in range(1, n):
        qrkit._block_factor(shape, p, n)
    assert len(calls) == n * (n - 1) // 2 == 15
    assert read == [qrkit._block_factor(shape, p, n) for p in (4, 3, 2)]


@pytest.mark.parametrize('n', range(2, 8))
def test_long_element_acts_as_signed_evacuation(n):
    """The theorem the paper opens with (Berenstein-Zelevinsky;
    Stembridge, Duke Math. J. 82, 1996): M(w0) is (-1)^{n(lambda)},
    n(lambda) = sum of (i - 1) lambda_i, times the permutation matrix of
    evacuation, column T sent to row ev(T).  So row ev(T) of the w_J
    factor for J = {1, ..., n-1} has the one entry T, with that sign, and
    `_j_signs` reads that sign in every column."""
    for shape in partitions(n):
        cl = specht.cell(shape)
        d = len(cl.tableaux)
        sign = (-1) ** sum(i * part for i, part in enumerate(shape))
        ev = [cl.position[evacuate(t)] for t in cl.tableaux]
        want = [[sign if k == ev[r] else 0 for k in range(d)] for r in range(d)]
        assert unpack_rows(qrkit._block_factor(shape, 1, n)) == want, shape
        assert qrkit._j_signs(shape, 1, n) == (sign,) * d, shape


def test_thm1_decides_at_any_slot_width(monkeypatch, cold_caches):
    """`_long_cycle` keeps the slot width its fold picks, and the pivot
    test reads any width: with `_Cell.fold` rounding widths up to 64
    bits, every thm1 record for n <= 5 is unchanged."""
    checks = []
    for n in range(2, 6):
        for shape in partitions(n):
            rng = Random(f'width:{shape}')
            checks += [(shape, order) for order in
                       [None] + [random_index_monotone_order(shape, rng)
                                 for _ in range(3)]]
    want = [verify_thm1(*check).record() for check in checks]
    assert {qrkit._long_cycle(shape).width for shape, _ in checks} == {32}
    monkeypatch.setattr(specht, '_SLOT_WIDTH', 64)
    qrkit._long_cycle.cache_clear()
    qrkit._thm1_pivots.cache_clear()
    assert [verify_thm1(*check).record() for check in checks] == want
    assert {qrkit._long_cycle(shape).width for shape, _ in checks} == {64}


# ---------------------------------------------------------------------------
# thm4 state shared between checks: chain data and chain states

def _thm4_checks(max_n):
    return [(shape, chain) for n in range(2, max_n + 1)
            for shape in partitions(n) for chain in all_connected_chains(n)]


def test_thm4_prefix_eviction_keeps_the_records(cold_caches):
    """A state the store no longer holds is rebuilt from its own prefix's:
    with the store emptied before every third check of a shuffled order,
    later checks rebuild the states they extend, and every record for
    n <= 5 equals the one of the DFS order on a full store."""
    checks = _thm4_checks(5)
    want = [verify_thm4_chain(shape, chain).record() for shape, chain in checks]
    order = list(range(len(checks)))
    Random(6).shuffle(order)
    got, built = {}, 0
    for k, i in enumerate(order):
        if k % 3 == 0:
            built += qrkit._chain_state.cache_info().misses
            qrkit._chain_state.cache_clear()
        got[i] = verify_thm4_chain(*checks[i]).record()
    assert [got[i] for i in range(len(checks))] == want
    assert built > 2 * _stored_states(5)  # states were rebuilt, often


def _is_full(chain, n):
    """A chain ending in J = {1, ..., n-1}: a prefix of no other chain, so
    its state is built uncached."""
    return chain[-1] == frozenset(range(1, n))


def _stored_states(max_n):
    """The chains up to max_n, on every shape, whose states the store
    holds: the empty chain, and those not ending in J = {1, ..., n-1}."""
    return sum(len(partitions(n)) * (1 + sum(not _is_full(c, n)
                                             for c in all_connected_chains(n)))
               for n in range(2, max_n + 1))


def _prefix_reads(max_n):
    """The checks up to max_n, less one per shape: each builds its state,
    when its record renders, from its prefix's, read from the store once,
    and only a shape's first read of the empty chain's state builds it."""
    return sum(len(partitions(n)) * (len(all_connected_chains(n)) - 1)
               for n in range(2, max_n + 1))


def test_shuffled_thm4_sweep_never_empties_the_store(cold_caches):
    """A sweep shuffled within each n, as the benchmark runs it, decides
    every chain from its members' verdicts: reading no record, it builds
    no state.  Its records then build them: the store holds the 1575
    states up to n = 6 of the chains that extend further, the empty chain
    of each shape among them, within its 2048 entries, builds each once,
    evicts none, and reads every prefix from the store."""
    rng = Random(24)
    reports = []
    for n in range(2, 7):
        checks = [(shape, chain) for shape in partitions(n)
                  for chain in all_connected_chains(n)]
        rng.shuffle(checks)
        reports += [verify_thm4_chain(*check) for check in checks]
    assert all(r.passed for r in reports)
    info = qrkit._chain_state.cache_info()
    assert info.misses == info.currsize == info.hits == 0
    for r in reports:
        r.record()
    info = qrkit._chain_state.cache_info()
    assert info.maxsize == 2048
    assert info.misses == info.currsize == _stored_states(6) == 1575
    assert info.hits == _prefix_reads(6) == 3094


def test_dfs_thm4_sweep_builds_each_state_once(cold_caches):
    """A text sweep shape by shape in DFS order, as `cli` runs it, builds
    no state up to n = 7.  A structured sweep renders each record as it
    goes and builds 7515 states, the empty chain's of each shape among
    them, more than the store's 2048 entries, but one shape's states fit
    (at most 396 at n = 7, and 1352 at n = 8): it evicts only states of
    shapes it has finished, and builds each state once."""
    for structured, misses, size, hits in (
            (False, 0, 0, 0), (True, 7515, 2048, _prefix_reads(7))):
        qrkit._chain_state.cache_clear()
        for n in range(2, 8):
            for shape in partitions(n):
                passes, texts = cli._encoded(cli._thm4_job, structured, shape)
                assert passes == len(texts)
        info = qrkit._chain_state.cache_info()
        assert info.misses == misses
        assert info.currsize == size
        assert info.hits == hits
    assert _stored_states(7) == 7515
    assert _prefix_reads(7) == 14944


def test_one_member_states_grow_from_the_identity(cold_caches):
    """The empty chain's state is the identity, and every one-member chain
    grown from it has J's rank order, J's rank as its key, phi_J and J's
    signs as its pivots, for every shape and J with n <= 6."""
    for n in range(2, 7):
        for shape in partitions(n):
            ids = list(range(len(specht.cell(shape).tableaux)))
            assert qrkit._chain_state(shape, ()) == (
                ids, [0] * len(ids), ids, [1] * len(ids))
            for p in range(1, n):
                for q in range(p + 1, n + 1):
                    phi, rank = qrkit._j_table(shape, p, q)
                    signs = qrkit._j_signs(shape, p, q)
                    assert signs is not None
                    assert qrkit._chain_state(shape, ((p, q),)) == (
                        sorted(ids, key=rank.__getitem__), list(rank),
                        list(phi), list(signs))


def _records_both_ways(monkeypatch, checks):
    """The records of these thm4 checks decided from the block structure
    of their members, and by the long route for every chain (`_j_signs`
    None), each on an empty store."""
    qrkit._chain_state.cache_clear()
    structured = [verify_thm4_chain(*check).record() for check in checks]
    qrkit._chain_state.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(qrkit, '_j_signs', lambda *args: None)
        long = [verify_thm4_chain(*check).record() for check in checks]
    qrkit._chain_state.cache_clear()
    return structured, long


def test_states_read_off_the_prefix_keep_every_record(monkeypatch,
                                                      cold_caches):
    """Every thm4 record for n <= 6, and for a seeded sample at n = 7,
    equals the one of the long route, which folds and pivot-tests M(w) for
    every chain; and with the block structure, no check builds or
    pivot-tests a chain matrix: the only pivot tests are those of
    `_block_signs` on the block factors."""
    checks = _thm4_checks(6) + Random(30).sample(
        [(shape, chain) for shape in partitions(7)
         for chain in all_connected_chains(7)], 400)
    real = qrkit._pivot_test

    def refuse(*args):
        raise AssertionError('a passing thm4 check built a chain matrix')

    def block_signs_only(*args):
        if sys._getframe(1).f_code is not qrkit._block_signs.__code__:
            refuse()
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(qrkit, '_pivot_test', block_signs_only)
        patch.setattr(qrkit, '_chain_matrix', refuse)
        structured = [verify_thm4_chain(*check).record() for check in checks]
    qrkit._chain_state.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(qrkit, '_j_signs', lambda *args: None)
        long = [verify_thm4_chain(*check).record() for check in checks]
    assert structured == long
    assert all(r['passed'] for r in structured)


def _decided_on_states(checks):
    """The verdicts (passed, failures) of these thm4 checks, read before
    any record renders, and then their records, each on an empty store;
    each chain is decided from its members' verdicts unless `_j_verdict`
    is patched to False on empty verdict tables (`_Verdicts`)."""
    qrkit._chain_state.cache_clear()
    reports = [verify_thm4_chain(*check) for check in checks]
    verdicts = [(r.passed, r.failures) for r in reports]
    records = [r.record() for r in reports]
    qrkit._chain_state.cache_clear()
    return verdicts, records


def test_chains_passed_from_their_members_keep_every_record(monkeypatch,
                                                            cold_caches):
    """Every thm4 verdict and record for n <= 6, and for a seeded sample
    at n = 7, equals the one decided on the chain's state, with
    `_j_verdict` patched to False on empty verdict tables, where every
    check is decided on its state.  It holds on every (shape, J) with
    n <= 7, so every chain there, of one member or more, passes from its
    members' verdicts."""
    checks = _thm4_checks(6) + Random(32).sample(
        [(shape, chain) for shape in partitions(7)
         for chain in all_connected_chains(7)], 400)
    fast = _decided_on_states(checks)
    qrkit._Verdicts.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(qrkit, '_j_verdict', lambda *args: False)
        decided = _checked_matrices(patch)
        assert _decided_on_states(checks) == fast
    qrkit._Verdicts.cache_clear()
    assert len(decided) == len(checks)
    assert all(passed for passed, _ in fast[0])
    assert all(qrkit._j_verdict(shape, min(j), max(j) + 1)
               for n in range(2, 8) for shape in partitions(n)
               for j in _connected_sets(n))


@pytest.mark.parametrize('n', range(2, 8))
def test_the_one_member_sign_is_constant_on_classes(n):
    """The one-member rule (-1)**n(mu) depends only on the class key of J
    (mu is lambda less the boxes that key peels): on every (shape, J)
    with n <= 7 it is constant on each class of `_j_table`'s rank.  So
    `_j_verdict`, which evaluates it once per class, checks its value at
    every position, and a value check implies constancy."""
    for shape in partitions(n):
        for j in _connected_sets(n):
            p, q = min(j), max(j) + 1
            sign = qrkit._one_member_sign(shape, p, q)
            rank = qrkit._j_table(shape, p, q)[1]
            assert len(set(zip(rank, map(sign, range(len(rank)))))) \
                == len(set(rank)), (shape, j)


def test_a_sign_flip_inside_a_class_takes_the_full_route(monkeypatch,
                                                         cold_caches):
    """J = {2, 3, 4} on (3, 2) with its sign flipped at position 3, whose
    class of J holds position 4 too: (a)-(c) still hold, but `_j_verdict`
    refuses J.  J ends at n, so it is decided on (3, 2) itself, not on the
    shapes one box smaller.  Every chain with J as a member is then
    decided on its state, and only those; the six where positions 3 and 4
    share a class fail (J alone, J after {2, 3} or {3, 4}, each also with
    {1, 2, 3, 4} last), each naming a class where the sign flips; and
    every verdict and record equals the one decided on the state for
    every chain, with `_j_verdict` patched to False on empty verdict
    tables."""
    shape, (p, q) = (3, 2), (2, 5)
    real = qrkit._j_signs
    assert qrkit._j_table(shape, p, q)[1][3:] == (0, 0)

    def flipped(*args):
        signs = real(*args)
        return signs[:3] + (-signs[3],) + signs[4:] if args == (shape, p, q) \
            else signs

    chains = all_connected_chains(5)
    checks = [(shape, chain) for chain in chains]
    with monkeypatch.context() as patch:
        patch.setattr(qrkit, '_j_signs', flipped)
        decided = _checked_matrices(patch)
        fast = _decided_on_states(checks)
        assert not qrkit._inherits(shape, p, q)
        assert not qrkit._j_verdict(shape, p, q)
        assert len(decided) == sum(frozenset({2, 3, 4}) in chain
                                   for chain in chains) == 20
        qrkit._Verdicts.cache_clear()
        patch.setattr(qrkit, '_j_verdict', lambda *args: False)
        assert _decided_on_states(checks) == fast
        assert len(decided) == 20 + len(checks)
    failing = {tuple(tuple(sorted(j)) for j in chain): failures
               for chain, (passed, failures) in zip(chains, fast[0])
               if not passed}
    assert failing == {
        ((2, 3, 4),): ['sign flips inside class ((1,),)',
                       'class ((1,),) has sign -1, expected +1'],
        ((2, 3, 4), (1, 2, 3, 4)): ['sign flips inside class ((), (1,))'],
        ((2, 3), (2, 3, 4)): ['sign flips inside class ((1,), (2, 1))'],
        ((2, 3), (2, 3, 4), (1, 2, 3, 4)): [
            'sign flips inside class ((), (1,), (2, 1))'],
        ((3, 4), (2, 3, 4)): ['sign flips inside class ((1,), (1, 1))'],
        ((3, 4), (2, 3, 4), (1, 2, 3, 4)): [
            'sign flips inside class ((), (1,), (1, 1))']}


def _pick_below_its_block(shape, patch):
    """s_1's pick of column 3 in row 2 moved to column 1, which lies below
    row 2's diagonal block for J = {1, 2, 3}: (b) fails."""
    cl = specht.cell(shape)
    s1 = cl.generator_terms(1)
    assert s1.picks[2] == (7, 3)
    faulty = s1._replace(picks=(*s1.picks[:2], (7, 1), *s1.picks[3:]))
    patch.setattr(specht._Cell, 'generator_terms', lambda self, j: faulty
                  if (self.shape, j) == (shape, 1) else _generator_terms(self, j))
    return 1, 4


def _rows_swapped(shape, patch):
    """Rows 0 and 3 of the factor of J = {2, 3, 4}, whose classes are
    {0, 1, 2} and {3, 4}, swapped: row 3 has no entry in its diagonal
    block, so (a) fails.  The factor of {1, 2, 3, 4}, which folds on it,
    is built first."""
    real = qrkit._block_factor
    real(shape, 1, 5)
    rows = list(real(shape, 2, 5).rows)
    rows[0], rows[3] = rows[3], rows[0]
    faulty = real(shape, 2, 5)._replace(rows=rows)
    patch.setattr(qrkit, '_block_factor', lambda *args: faulty
                  if args == (shape, 2, 5) else real(*args))
    return 2, 5


def _phi_across_a_class(shape, patch):
    """phi_{3, 4} with the images of positions 2 and 3 exchanged, so that
    it sends 2 to 4, which lie in different classes of J = {2, 3, 4}:
    (c) fails."""
    real = qrkit._phi_table
    phi = real(shape, 3, 5)
    assert phi[2:4] == (0, 4)
    faulty = phi[:2] + (4, 0) + phi[4:]
    patch.setattr(qrkit, '_phi_table', lambda *args: faulty
                  if args == (shape, 3, 5) else real(*args))
    return 2, 5


@pytest.mark.parametrize(
    'fault', [_pick_below_its_block, _rows_swapped, _phi_across_a_class])
def test_a_faulty_module_takes_the_long_route(monkeypatch, cold_caches, fault):
    """A fault on (3, 2) that breaks (a), (b) or (c) for some J makes
    `_j_signs` refuse that J, so its chains take the long route, and every
    record equals the one of the long route for every chain.  The swapped
    rows sit in a factor that the long route never reads: every check
    passes.  The other two faults fail some checks."""
    shape = (3, 2)
    with monkeypatch.context() as patch:
        p, q = fault(shape, patch)
        assert qrkit._j_signs(shape, p, q) is None
        structured, long = _records_both_ways(
            patch, [(shape, chain) for chain in all_connected_chains(5)])
    assert structured == long
    assert all(r['passed'] for r in structured) == (fault is _rows_swapped)


def _factor_pick_added(column, row=2):
    """A row of the factor of J = {1, 2, 3} on (3, 2), whose classes are
    {0, 1} and {2, 3, 4}, given one more entry (+1) in this column.  Row 2
    holds one entry, -1 in column 4: column 0 lies below its block, and
    column 3 inside it before column 4, which the pivot test in rank order
    sees.  Row 4 holds one entry, -1 in column 2: column 3 lies inside its
    block after column 2, which only the test with each class reversed
    sees."""
    def fault(shape, patch):
        real = qrkit._block_factor
        factor = real(shape, 1, 4)
        m = unpack_rows(factor)
        assert m[row] == [0, 0, 0, 0, -1] if row == 2 else [0, 0, -1, 0, 0]
        m[row][column] = 1
        faulty = pack_rows(m, factor.width)
        patch.setattr(qrkit, '_block_factor', lambda *args: faulty
                      if args == (shape, 1, 4) else real(*args))
        return 1, 4
    fault.__name__ = (f'_factor_pick_added_in_column_{column}' if row == 2
                      else f'_factor_pick_added_in_row_{row}_column_{column}')
    return fault


_FACTOR_PICK_ADDED = [_factor_pick_added(0), _factor_pick_added(3),
                      _factor_pick_added(3, row=4)]


def _generator_pick_below_its_block(shape, patch):
    """The fault of `_pick_below_its_block` with every factor built first,
    so that only (b) sees it."""
    for p, q in [(1, 2), (1, 3), (1, 4), (1, 5)]:
        qrkit._block_factor(shape, p, q)
    return _pick_below_its_block(shape, patch)


@pytest.mark.parametrize('fault', [
    *_FACTOR_PICK_ADDED,
    _generator_pick_below_its_block, _phi_across_a_class])
def test_j_signs_refuses_each_broken_condition(monkeypatch, cold_caches,
                                               fault):
    """Each fault breaks one condition of `_j_signs` for a J on (3, 2)
    and keeps the others: a second pick in a row of the factor of
    J = {1, 2, 3}, below or inside its diagonal block (a), an s_1 pick
    below its block of {1, 2, 3} (b), or phi_{3, 4} across a class of
    {2, 3, 4} (c).  `_j_signs` refuses J on the route that checks (a)-(c)
    on (3, 2) itself, which J = {2, 3, 4} takes as it ends at n, and
    J = {1, 2, 3} in a module that fails B (here `_direct`)."""
    shape = (3, 2)
    with monkeypatch.context() as patch:
        _direct(patch)
        assert all(qrkit._j_signs(shape, min(j), max(j) + 1) is not None
                   for j in _connected_sets(5))
        qrkit._j_signs.cache_clear()
        assert qrkit._j_signs(shape, *fault(shape, patch)) is None


def _block_signs_both_ways(shape, p, q):
    """`_block_signs` on the factor of J = {p, ..., q-1}, and the reference
    reading of the same condition off the factor's picks."""
    factor = qrkit._block_factor(shape, p, q)
    phi, rank = qrkit._j_table(shape, p, q)
    return (qrkit._block_signs(factor, phi, rank),
            pick_rank_signs(specht._read_terms(factor), phi, rank))


@pytest.mark.parametrize('n', range(1, 8))
def test_block_signs_equal_the_pick_rank_reading(n):
    """On every (shape, J) with n <= 7, `_block_signs` finds the signs
    that the reference reads off the factor's picks, and they are never
    None there."""
    for shape in partitions(n):
        for j in _connected_sets(n):
            fast, reference = _block_signs_both_ways(shape, min(j),
                                                     max(j) + 1)
            assert fast == reference is not None, (shape, j)


@pytest.mark.parametrize('fault', [
    _pick_below_its_block, _rows_swapped, _phi_across_a_class,
    *_FACTOR_PICK_ADDED,
    _generator_pick_below_its_block])
def test_block_signs_equal_the_pick_rank_reading_under_faults(
        monkeypatch, cold_caches, fault):
    """Under each fault above, on every J of (3, 2), `_block_signs` and the
    reference agree; on the J whose (a) the fault breaks, both refuse."""
    shape = (3, 2)
    with monkeypatch.context() as patch:
        p, q = fault(shape, patch)
        for j in _connected_sets(5):
            fast, reference = _block_signs_both_ways(shape, min(j),
                                                     max(j) + 1)
            assert fast == reference, j
        broken = _block_signs_both_ways(shape, p, q)
    if fault in (_rows_swapped, *_FACTOR_PICK_ADDED):
        assert broken == (None, None)


def _direct(patch):
    """Every J decided on its own shape: the specht result qrkit reads for
    B (`_b_failures`) names class 1 as differing on every (shape, j)."""
    patch.setattr(qrkit, '_b_failures', lambda shape, j: ((), (1,)))


@pytest.mark.parametrize('n', range(2, 8))
def test_inherited_verdicts_equal_the_direct_route(monkeypatch, cold_caches,
                                                   n):
    """On every (shape, J) with n <= 7, B holds for every j in J that is at
    most n - 2, and the verdict and signs of J read off the shapes one box
    smaller (for J up to n - 1) equal those of (a)-(c) checked on the
    shape itself."""
    js = [(min(j), max(j) + 1) for j in _connected_sets(n)]
    assert all(specht._b_failures(shape, j) == ((), ())
               for shape in partitions(n) for j in range(1, n - 1))
    inherited = [(qrkit._j_verdict(shape, *j), qrkit._j_signs(shape, *j))
                 for shape in partitions(n) for j in js]
    assert sum(qrkit._inherits(shape, *j) for shape in partitions(n)
               for j in js) == len(partitions(n)) * (n - 1) * (n - 2) // 2
    clear_caches(qrkit)
    with monkeypatch.context() as patch:
        _direct(patch)
        assert [(qrkit._j_verdict(shape, *j), qrkit._j_signs(shape, *j))
                for shape in partitions(n) for j in js] == inherited
    assert all(verdict for verdict, _ in inherited)


def test_branching_then_thm4_computes_b_once_per_shape_and_j(cold_caches):
    """A branching sweep, then thm4 on the same shapes (2 <= n <= 6),
    computes what fails B once per (shape, j) with j <= n - 2: both specht
    reports and thm4's `_inherits` read one cache (`_b_failures`)."""
    shapes = [shape for n in range(2, 7) for shape in partitions(n)]
    for shape in shapes:
        assert specht.check_filtration_invariance(shape).passed
        assert specht.check_branching(shape).passed
    swept = specht._b_failures.cache_info()
    for shape in shapes:
        assert all(verify_thm4_chain(shape, chain).passed
                   for chain in all_connected_chains(sum(shape)))
    info = specht._b_failures.cache_info()
    pairs = sum(sum(shape) - 2 for shape in shapes)
    assert swept.misses == info.misses == info.currsize == pairs == 78
    assert swept.hits == pairs and info.hits > swept.hits


def test_verdict_tables_fill_each_entry_once(monkeypatch, cold_caches):
    """From cold caches, read from n = 6 down: each shape's verdict table
    (`_Verdicts`) runs `_j_verdict` on the first read of an entry only,
    and an inherited J fills the tables of the shapes one box smaller.
    Every entry for n <= 6 equals the verdict body's value, and an
    inherited one the AND of the smaller shapes' entries."""
    real, calls = qrkit._j_verdict, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qrkit, '_j_verdict', counted)
    got = {}
    for n in range(6, 1, -1):
        for shape in partitions(n):
            table = qrkit._Verdicts(shape)
            for j in _connected_sets(n):
                block = min(j), max(j) + 1
                got[shape, block] = table[block]
                if qrkit._inherits(shape, *block):
                    assert all(block in qrkit._Verdicts(small)
                               for _, small in specht.cell(shape).smaller)
    assert sorted(calls) == sorted((shape, *block) for shape, block in got)
    for (shape, block), verdict in got.items():
        assert qrkit._Verdicts(shape)[block] is verdict
        assert verdict == real(shape, *block)
        if qrkit._inherits(shape, *block):
            assert verdict == all(qrkit._Verdicts(small)[block]
                                  for _, small in specht.cell(shape).smaller)
    assert len(calls) == len(got) == 276 and all(got.values())


def _thm4_records(shape):
    """The records of every thm4 chain of the shape."""
    return [verify_thm4_chain(shape, chain).record()
            for chain in all_connected_chains(sum(shape))]


def _s1_row_changed(row, want, picks):
    """s_1 on (3, 2, 1) with the picks of one row replaced."""
    def fault(shape, patch):
        s1 = _generator_terms(specht.cell(shape), 1)
        assert s1.picks[row] == want
        faulty = s1._replace(picks=(*s1.picks[:row], picks,
                                    *s1.picks[row + 1:]))
        patch.setattr(specht._Cell, 'generator_terms', lambda self, j: faulty
                      if (self.shape, j) == (shape, 1)
                      else _generator_terms(self, j))
    return fault


# (3, 2, 1) has index classes at positions 0-4, 5-10 and 11-15, the SYT of
# (2, 2, 1), (3, 1, 1) and (3, 2).  Row 3 of s_1 holds -1 at 3 and +1 at
# 4 and 10; row 5 holds -1 at 5 and +1 at 12.
_SAME_INDEX_PICK_NEGATED = _s1_row_changed(3, (19, 4, 10), (19, 20, 10))
_PICK_BELOW_THE_FILTRATION = _s1_row_changed(5, (21, 12), (21, 4, 12))


@pytest.mark.parametrize('fault, failing', [
    (_SAME_INDEX_PICK_NEGATED, 89), (_PICK_BELOW_THE_FILTRATION, 164)])
def test_a_generator_that_fails_b_takes_the_direct_route(
        monkeypatch, cold_caches, fault, failing):
    """s_1 on (3, 2, 1) with the entry in row 3, column 4 (both of index 1)
    negated, so that its index-1 block is no longer s_1 on (2, 2, 1), or
    with a pick in row 5 at column 4, of a smaller index: B refuses j = 1
    and holds for j = 2, 3, 4.  Every J with 1 in it is then decided on
    (3, 2, 1) itself, and every record of (3, 2, 1) equals the one with
    every J decided there; the fault fails some checks."""
    shape = (3, 2, 1)
    with monkeypatch.context() as patch:
        fault(shape, patch)
        assert [not any(specht._b_failures(shape, j)) for j in range(1, 5)] \
            == [False, True, True, True]
        # the negated entry differs inside class 1; the added pick sits
        # below the filtration at (column 4, row 5), outside class 2's block
        assert specht._b_failures(shape, 1) \
            == {89: ((), (1,)), 164: (((4, 5),), ())}[failing]
        inherited = _thm4_records(shape)
        clear_caches(qrkit)
        _direct(patch)
        assert _thm4_records(shape) == inherited
    assert sum(not r['passed'] for r in inherited) == failing


def _sign_flipped(shape, p, q, x):
    """`_j_signs` with the sign of J = {p, ..., q-1} on this shape negated
    at position x."""
    real = qrkit._j_signs

    def flipped(*args):
        signs = real(*args)
        return (signs[:x] + (-signs[x],) + signs[x + 1:]
                if args == (shape, p, q) else signs)
    return flipped


def test_a_sign_flip_one_box_smaller_reaches_the_inherited_verdict(
        monkeypatch, cold_caches):
    """J = {2, 3, 4} on (3, 2) with its sign flipped at position 3, inside
    its class {3, 4} (see the test above): `_j_verdict` refuses J there,
    and so on (3, 2, 1), whose index-3 class, from position 11 on, is
    SYT(3, 2), and which reads J off the shapes one box smaller.  Every
    record of (3, 2, 1) equals the one with J decided on (3, 2, 1) itself
    and its sign flipped at the same tableau, position 14."""
    shape, small, (p, q) = (3, 2, 1), (3, 2), (2, 5)
    assert specht.cell(shape).smaller[2] == (11, small)
    with monkeypatch.context() as patch:
        patch.setattr(qrkit, '_j_signs', _sign_flipped(small, p, q, 3))
        assert qrkit._inherits(shape, p, q)
        assert not qrkit._j_verdict(small, p, q)
        assert not qrkit._j_verdict(shape, p, q)
        inherited = _thm4_records(shape)
    cold_caches()
    with monkeypatch.context() as patch:
        _direct(patch)
        patch.setattr(qrkit, '_j_signs', _sign_flipped(shape, p, q, 14))
        assert _thm4_records(shape) == inherited
    failures = [r['failures'] for r in inherited if not r['passed']]
    assert failures and all(line.startswith('sign flips inside class')
                            or line.endswith('expected +1')
                            for lines in failures for line in lines)


def test_thm4_checks_the_sign_value_of_w0(cold_caches):
    """Negating every generator (the module twisted by the sign
    character) negates M(w0), a product of n(n - 1)/2 generators, exactly
    when n is 2, 3 or 6 here, and leaves its pivot positions.  The check
    of the chain J = {1, ..., n-1} then fails on every such shape, with
    one line naming both signs, and keeps its record at n = 4 and 5.  The
    generators are restored after each shape."""
    for n in range(2, 7):
        chain = [set(range(1, n))]
        for shape in partitions(n):
            want = verify_thm4_chain(shape, chain).record()
            assert want['passed']
            with _negated_generators(shape):
                report = verify_thm4_chain(shape, chain)
            if n * (n - 1) // 2 % 2 == 0:
                assert report.record() == want
                continue
            assert not report.passed
            (label, s), = want['signs'].items()
            assert s == (-1) ** sum(i * part for i, part in enumerate(shape))
            assert report.failures == [
                f'class {label} has sign {-s:+d}, expected {s:+d}']
            assert verify_thm4_chain(shape, chain).record() == want


def test_thm4_checks_the_sign_value_of_every_one_member_chain(cold_caches):
    """Negating every generator negates M(s_1), so the one-member chain
    {1} flips the sign of every class, each of which the check of its sign
    value names.  thm4 then fails on all 28 shapes with 2 <= n <= 6; with
    sign constancy alone it passed on the 12 of n = 4 and 5."""
    failing = []
    for n in range(2, 7):
        for shape in partitions(n):
            want = verify_thm4_chain(shape, [{1}]).record()
            with _negated_generators(shape):
                reports = [verify_thm4_chain(shape, chain)
                           for chain in all_connected_chains(n)]
            assert reports[0].witness['chain'] == [[1]]
            assert reports[0].failures == [
                f'class {label} has sign {-s:+d}, expected {s:+d}'
                for label, s in want['signs'].items()]
            failing += [shape] * (not all(r.passed for r in reports))
    assert len(failing) == sum(len(partitions(n)) for n in range(2, 7)) == 28


def _factor_terms(shape, p, q):
    return specht._read_terms(qrkit._block_factor(shape, p, q))


def test_narrow_slots_raise_instead_of_truncating():
    """`_times`, which every packed fold runs, refuses a product whose
    entry bound does not fit its slots rather than truncating it: each
    chain of (3, 2, 1) multiplied out on 5-bit slots from the factors of
    its members either raises or equals `matrix_of` of its w."""
    shape = (3, 2, 1)
    width = 5
    raised = 0
    for chain in all_connected_chains(6):
        blocks, w, _ = qrkit._chain_data(chain, 6)
        try:
            m = specht._pack(_factor_terms(shape, *blocks[0]), width)
            for p, q in blocks[1:]:
                m = specht._times(_factor_terms(shape, p, q), m)
        except QRInvariantError as err:
            assert str(err).endswith('overflow 5-bit slots')
            raised += 1
        else:
            assert unpack_rows(m) == matrix_of(shape, w)
    assert 0 < raised < len(all_connected_chains(6))


def test_narrow_slots_raise_under_optimize_flag():
    script = '''
import sys
from klspecht import specht
cl = specht.cell((3, 2, 1))
identity = specht._Packed(specht._words(16, 2).units, 2, 1)
try:
    specht._times(cl.generator_terms(1), identity)
except specht.QRInvariantError as err:
    print(sys.flags.optimize, err)
'''
    src = str(Path(klspecht.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, '-O', '-c', script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith('1 entries up to ')
    assert proc.stdout.strip().endswith('overflow 2-bit slots')


def test_thm4_reports_get_fresh_witness_lists():
    """The chain data is cached per chain; a caller changing one report's
    witness must not change the next report for the same chain."""
    import copy

    shape, chain = (3, 2), [{2}, {1, 2, 3}]
    first = verify_thm4_chain(shape, chain)
    want = copy.deepcopy(first.record())
    first.witness['chain'][0].append(9)
    first.witness['chain'].append([7])
    first.witness['w'].reverse()
    first.witness['w'].append(0)
    assert verify_thm4_chain(shape, chain).record() == want


def _text(report):
    """The report's text line, untimed."""
    report.timing = None  # a plain field: setting it renders nothing
    return cli._report_text(report)


def test_thm4_chain_forms_give_one_record_and_one_text_line(cold_caches):
    """The chain record is cached on the chain as given.  Each form of a
    chain gives an equal record and an equal text line, whichever form is
    checked first."""
    shape = (3, 2, 1)
    for first in range(4):
        cold_caches()
        for chain in all_connected_chains(6):
            forms = _chain_forms(chain)
            reports = [verify_thm4_chain(shape, form)
                       for form in forms[first:] + forms[:first]]
            assert len({_text(r) for r in reports}) == 1  # before any renders
            assert all(r.record() == reports[0].record() for r in reports)
    line = _text(verify_thm4_chain(shape, [[2], [1, 2, 3]]))
    assert line == 'PASS thm4 shape=3,2,1 chain={2}<{1,2,3}\n'


def test_an_unread_thm4_report_holds_its_records_tuple():
    """A passing report holds its record's tuple of member tuples, and no
    list, until it renders; reading its witness gives fresh lists."""
    shape = (3, 2, 1)
    for chain in ((frozenset({2}), frozenset({1, 2, 3})), [{2}, {1, 2, 3}]):
        report = verify_thm4_chain(shape, chain)
        members = qrkit._chain_data(tuple(map(frozenset, chain)), 6)[2]
        assert report.passed and report._witness == {'chain': members}
        assert report._witness['chain'] is members
        assert members == ((2,), (1, 2, 3))
        assert report.witness['chain'] == [[2], [1, 2, 3]]
        assert list(report._witness) == ['chain', 'w', 'symmetry']
        assert report._witness['chain'] is not verify_thm4_chain(
            shape, chain).witness['chain']


def test_a_read_thm4_report_prints_its_unread_text_line():
    """A report whose witness was read, which holds the chain as lists,
    prints the same text line as one never read."""
    for shape in partitions(4) + partitions(5):
        for chain in all_connected_chains(sum(shape)):
            unread, read = (verify_thm4_chain(shape, chain) for _ in range(2))
            assert isinstance(read.witness['chain'], list)
            assert isinstance(unread._witness['chain'], tuple)
            assert _text(read) == _text(unread)


def _block_answers(j):
    """What every entry point that validates J answers for J on n = 5."""
    t, shape = parse_tableau('1,2,4/3,5'), (3, 2)
    return [
        lambda: phi_connected(j, t),
        lambda: preorder_connected(j, shape),
        lambda: verify_thm4_chain(shape, [j]).record(),
        lambda: verify_thm4_chain(shape, [{2}, j]).record(),
    ]


@pytest.mark.parametrize('first', range(4))
def test_integral_members_are_read_by_value_in_any_call_order(
        cold_caches, first):
    """`_block` and the chain records are cached on J's members, and
    1.0 == 1 == True as keys.  Read by value, {1.0, 2}, {True, 2} and
    {1, 2} get one answer through every entry point, whichever form and
    entry point come first: a float never reaches a later answer."""
    want = [call() for call in _block_answers({1, 2})]
    for forms in ([{1.0, 2}, {True, 2}, {1, 2}], [{1, 2}, {2, 1.0}, {True, 2.0}]):
        cold_caches()
        for j in forms:
            calls = _block_answers(j)
            got = [call() for call in calls[first:] + calls[:first]]
            assert got == want[first:] + want[:first]
    cold_caches()
    verify_thm4_chain((3, 2), [{2, 1.0}])
    assert [call() for call in _block_answers({1, 2})] == want


def test_non_integral_members_name_j(cold_caches):
    """A member that is no integer's value gets a ValueError naming J,
    through every entry point, and is cached nowhere."""
    want = [call() for call in _block_answers({1, 2})]
    for j in ({1.5}, {'a'}, {1, 2.5}, {'1'}, {None}, {float('nan')},
              {float('inf')}):
        for call in _block_answers(j)[:3]:  # {2} < J fails first otherwise
            with pytest.raises(ValueError, match='J must be a set of integers'
                               ) as err:
                call()
            assert all(repr(x) in str(err.value) for x in j)
    assert [call() for call in _block_answers({1, 2})] == want


# ---------------------------------------------------------------------------
# labels rendered from positions on first read

_FIELDS = ('theorem', 'passed', 'shape', 'ordering', 'witness', 'signs',
           'failures', 'timing')


def test_unread_reports_compare_print_and_pickle_as_eager_ones():
    """thm1 and thm4 reports render their ordering, signs and the
    label-bearing witness entries on first read.  A report no one has
    read must ==, repr and pickle exactly as one built with all its
    fields at once."""
    shape = (3, 2, 1)
    checks = [(verify_thm4_chain, [{2}, {1, 2, 3}, {1, 2, 3, 4, 5}]),
              (verify_thm1, random_index_monotone_order(shape, Random(1)))]
    for verify, arg in checks:
        def unread():
            report = verify(shape, arg)
            report.timing = 0.25  # a plain field: setting it renders nothing
            return report

        source = unread()
        eager = CheckReport(*(getattr(source, name) for name in _FIELDS))
        assert eager.ordering and eager.signs and len(eager.witness) >= 2
        assert unread() == eager and eager == unread()
        assert repr(unread()) == repr(eager)
        assert pickle.dumps(unread()) == pickle.dumps(eager)
        assert pickle.loads(pickle.dumps(unread())) == eager
        assert unread().record() == eager.record()
        written = unread()
        written.signs = {'x': 1}  # renders first, so the write sticks
        assert written.signs == {'x': 1} and written.ordering == eager.ordering


_generator_terms = specht._Cell.generator_terms


def _twisted(self, j):
    return _generator_terms(self, sum(self.shape) - j)


def test_failing_chains_keep_their_records(monkeypatch, cold_caches):
    """Every thm4 record of n = 4 and 5 under two faults keeps its sha256:
    the sign of the last position negated in every block's `_j_signs`
    (a sign flips inside a class, or its value is wrong), and s_j replaced
    by s_{n-j} (the pivot test fails, and `exact_qr` names why).  The
    records of the second fault have the sha256 they had when each check
    built its labels and class strings at once, and each thm4 chain its
    own matrix.  Under the first fault every J is decided on its own
    shape (`_direct`): a J read off the shapes one box smaller
    would concatenate their negated signs, a different fault."""
    real = qrkit._j_signs

    def last_negated(shape, p, q):
        signs = real(shape, p, q)
        return signs if signs is None else signs[:-1] + (-signs[-1],)

    digests = []
    for obj, name, fault in ((qrkit, '_j_signs', last_negated),
                             (specht._Cell, 'generator_terms', _twisted)):
        with monkeypatch.context() as patch:
            patch.setattr(obj, name, fault)
            if fault is last_negated:
                _direct(patch)
            records = [verify_thm4_chain(shape, chain).record()
                       for n in (4, 5) for shape in partitions(n)
                       for chain in all_connected_chains(n)]
        cold_caches()
        assert len(records) == 564
        digests.append((
            sum(not r['passed'] for r in records),
            sorted({f.split(' ')[0] for r in records for f in r['failures']}),
            hashlib.sha256(json.dumps(records, sort_keys=True).encode()
                           ).hexdigest()))
    assert digests == [
        (116, ['class', 'sign'],
         '9924aad63f682bdc5ab0891cca975624da4b0bd7e10a497756d7b5c228ccfced'),
        (352, ['Q', 'no'],
         'd0b447fc7616859bc230e453d6188210a0ba5f0e1a40a8de2cad328ae6d5a0a4')]


def _negated(terms):
    """The `_Terms` of -A: operand k of a row and its negative d + k trade
    places, and each scaled entry changes sign."""
    d = len(terms.picks)
    flip = [*range(d, 2 * d), *range(d)]
    return specht._Terms(
        tuple(tuple(flip[p] if p < 2 * d else p for p in row)
              for row in terms.picks),
        tuple((k, -x) for k, x in terms.scaled), terms.rowabs, terms.maxabs)


@contextmanager
def _negated_generators(shape):
    """Every generator of the shape negated, and every cache of qrkit and
    specht's B results (`_b_failures`) emptied on entry and on exit, so
    none keeps what it read off the module it no longer acts on.  The
    cells stay: this one holds the negated generators."""
    cl = specht.cell(shape)
    cl.generator_terms(1)
    real = cl._generator_terms
    cl._generator_terms = tuple(map(_negated, real))
    clear_caches(qrkit)
    specht._b_failures.cache_clear()
    try:
        yield
    finally:
        cl._generator_terms = real
        clear_caches(qrkit)
        specht._b_failures.cache_clear()


def test_thm1_checks_the_value_of_each_class_sign(cold_caches):
    """Negating every generator (the module twisted by the sign
    character) negates M(c), a product of n - 1 generators, exactly when
    n is even, and leaves every pivot position.  thm1 then fails on every
    shape of even n, with one line per index class naming both signs,
    and passes at odd n.  The generators are restored after each shape."""
    for n in range(2, 7):
        for shape in partitions(n):
            want = verify_thm1(shape).record()
            assert want['passed']
            with _negated_generators(shape):
                report = verify_thm1(shape)
            if n % 2:
                assert report.record() == want
                continue
            assert not report.passed
            assert report.failures == [
                f'index class {i} has sign {-s:+d}, expected {s:+d}'
                for i, s in ((int(k), s) for k, s in want['signs'].items())]
            assert verify_thm1(shape).record() == want


def test_counterexample_report():
    report = verify_counterexample()
    assert report.passed, report.failures
    outcomes = report.witness['orderings']
    assert len(outcomes) == 6
    assert all(v != 'unexpected signed permutation' for v in outcomes.values())
    assert report.witness['long_cycle_ordering'] is not None


def test_search_finds_the_index_order_for_the_long_cycle():
    found = search_ordering((3, 1, 1), (2, 3, 4, 5, 1))
    assert found == enumerate_syt((3, 1, 1))


def test_search_fails_on_the_nonseparable_pattern():
    assert search_ordering((3, 1), (2, 4, 1, 3)) is None


def test_search_succeeds_for_long_elements():
    for n in range(2, 5):
        w0 = tuple(range(n, 0, -1))
        for shape in partitions(n):
            assert search_ordering(shape, w0) is not None


def test_search_bound_enforced():
    assert count_syt((4, 2)) == 9
    with pytest.raises(ValueError):
        search_ordering((4, 2), tuple(range(6, 0, -1)))


@st.composite
def signed_upper_products(draw, d=3):
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    upper = [
        [
            Fraction(
                draw(st.integers(min_value=-4, max_value=4)),
                draw(st.integers(min_value=1, max_value=3)),
            )
            if j > i else 0
            for j in range(d)
        ]
        for i in range(d)
    ]
    for i in range(d):
        upper[i][i] = Fraction(
            draw(st.integers(min_value=1, max_value=5)),
            draw(st.integers(min_value=1, max_value=3)),
        )
    s = [[0] * d for _ in range(d)]
    for c in range(d):
        s[perm[c]][c] = signs[c]
    m = mat_mul(s, upper)
    return s, upper, m


@settings(max_examples=60, deadline=None)
@given(signed_upper_products())
def test_qr_recovers_signed_permutation_factors(parts):
    s, upper, m = parts
    # uniqueness: Q must be exactly the orthogonal factor we multiplied in
    fact = exact_qr(m)
    assert mat_eq(fact.q, s)
    assert mat_eq(fact.r, upper)
    assert as_signed_permutation(fact.q) is not None


# ---------------------------------------------------------------------------
# exact_qr against Fraction Gram-Schmidt

def gram_schmidt_qr(m):
    """Gram-Schmidt in Fractions, the independent reference for
    `exact_qr`: ('qr', Q, R) with R = Q^T m, ('irrational', column,
    squared norm) for the first column whose squared norm is no rational
    square, or ('singular', message) for the first column that depends
    on earlier ones."""
    d = len(m)
    cols = [[Fraction(m[r][c]) for r in range(d)] for c in range(d)]
    us, norms2 = [], []
    for k, col in enumerate(cols):
        u = list(col)
        for prev, n2 in zip(us, norms2):
            coeff = sum(a * b for a, b in zip(u, prev)) / n2
            u = [a - coeff * b for a, b in zip(u, prev)]
        n2 = sum(a * a for a in u)
        if n2 == 0:
            return 'singular', f'column {k} depends linearly on earlier columns'
        us.append(u)
        norms2.append(n2)
    q_cols = []
    for k, (u, n2) in enumerate(zip(us, norms2)):
        num, den = isqrt(n2.numerator), isqrt(n2.denominator)
        if num * num != n2.numerator or den * den != n2.denominator:
            return 'irrational', k, n2
        q_cols.append([a * den / num for a in u])
    r = [[sum(a * m[i][j] for i, a in enumerate(q_col)) for j in range(d)]
         for q_col in q_cols]
    return 'qr', [list(row) for row in zip(*q_cols)], r


def qr_outcome(m):
    """exact_qr(m) in the shape of `gram_schmidt_qr`."""
    try:
        fact = exact_qr(m)
    except SingularMatrixError as err:
        return 'singular', str(err)
    except IrrationalNormError as err:
        return 'irrational', err.column, err.norm2
    return 'qr', fact.q, fact.r


_ROTATIONS = ((3, 4, 5), (5, 12, 13), (8, 15, 17))


@st.composite
def square_matrices(draw, max_d=5):
    """Small integer or rational matrices, some of them Q R with Q a
    signed permutation times a Pythagorean rotation in one plane and R
    upper triangular with a positive diagonal, so that QR is rational."""
    d = draw(st.integers(min_value=1, max_value=max_d))
    entries = st.integers(-3, 3)
    if draw(st.booleans()):
        entries = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    m = [[draw(entries) for _ in range(d)] for _ in range(d)]
    if d == 1 or draw(st.booleans()):
        return m
    for i in range(d):
        m[i][:i] = [0] * i
        m[i][i] = draw(st.sampled_from((1, 2, 3, Fraction(1, 2))))
    x, y, h = draw(st.sampled_from(_ROTATIONS))
    i, j = draw(st.permutations(range(d)))[:2]
    rot = identity_matrix(d)
    rot[i][i] = rot[j][j] = Fraction(x, h)
    rot[i][j], rot[j][i] = Fraction(-y, h), Fraction(y, h)
    perm = draw(st.permutations(range(d)))
    signed = [[draw(st.sampled_from((1, -1))) if perm[c] == r else 0
               for c in range(d)] for r in range(d)]
    return mat_mul(mat_mul(signed, rot), m)


@settings(max_examples=250, deadline=None)
@given(square_matrices())
def test_exact_qr_equals_gram_schmidt(m):
    assert qr_outcome(m) == gram_schmidt_qr(m)


def n6_chain_matrices(count=40, seed=13):
    """M(w_{J_k} ... w_{J_1}) for a seeded sample of n = 6 shapes and
    chains, in the chain's basis order and in the total index order."""
    rng = Random(seed)
    pairs = [(shape, chain) for shape in partitions(6)
             for chain in all_connected_chains(6)]
    for shape, chain in rng.sample(pairs, count):
        blocks, w, _ = qrkit._chain_data(chain, 6)
        tableaux = specht.cell(shape).tableaux
        perm = qrkit._chain_state(shape, blocks).perm
        yield matrix_of(shape, w, [tableaux[i] for i in perm])
        yield matrix_of(shape, w)


def test_exact_qr_equals_gram_schmidt_on_chain_matrices():
    kinds = set()
    for m in n6_chain_matrices():
        outcome = qr_outcome(m)
        assert outcome == gram_schmidt_qr(m)
        kinds.add(outcome[0])
    assert kinds == {'qr', 'irrational'}


# ---------------------------------------------------------------------------
# packed rows against the list routines they replace

def list_pivots(m, target):
    """The pivot test as a loop over lists: the pivots m[target[c]][c],
    or None when some row target[c] does not vanish left of column c or
    vanishes at c."""
    pivots = []
    for c, r in enumerate(target):
        row = m[r]
        if any(row[:c]) or not row[c]:
            return None
        pivots.append(row[c])
    return pivots


def _max_abs(m):
    return max(abs(x) for row in m for x in row)


def _read(m):
    """The `_Terms` of m, read off its rows packed by plain shifts."""
    return specht._read_terms(pack_rows(m, specht._width(_max_abs(m))))


def assert_terms_of(terms, m):
    """terms holds the entries of m, its largest row sum of |entry| and
    its largest |entry|."""
    assert specht._dense(terms, range(len(m))) == m
    assert terms.rowabs == max(sum(map(abs, row)) for row in m)
    assert terms.maxabs == _max_abs(m)


@st.composite
def square_pairs(draw, max_d=6):
    d = draw(st.integers(min_value=1, max_value=max_d))
    entries = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    return ([[draw(entries) for _ in range(d)] for _ in range(d)],
            [[draw(entries) for _ in range(d)] for _ in range(d)])


@settings(max_examples=200, deadline=None)
@given(square_pairs())
def test_packed_product_equals_mat_mul(pair):
    a, b = pair
    bound = max(sum(map(abs, row)) for row in a) * _max_abs(b)
    width = specht._width(max(bound, _max_abs(b)))
    packed_b = pack_rows(b, width)
    assert unpack_rows(packed_b) == b
    assert specht._pack(_read(b), width) == packed_b
    product = specht._times(_read(a), packed_b)
    assert unpack_rows(product) == mat_mul(a, b)
    # the nonzero entries read off the slots, without unpacking
    assert_terms_of(specht._read_terms(packed_b), b)
    assert_terms_of(specht._read_terms(product), mat_mul(a, b))


@st.composite
def pivot_cases(draw, max_d=6):
    """A matrix, a basis order ids and a symmetry image, as `_decide`
    receives them.  Half the matrices are a signed permutation times an
    upper-triangular matrix in the order ids, some perturbed in one entry,
    so that both verdicts occur."""
    d = draw(st.integers(min_value=1, max_value=max_d))
    small = st.integers(min_value=-3, max_value=3)
    ids = draw(st.permutations(range(d)))
    image = draw(st.permutations(range(d)))
    if draw(st.booleans()):
        m = [[0] * d for _ in range(d)]
        for c, i in enumerate(ids):
            # row image[i] vanishes on the columns ids[:c]
            row = m[image[i]]
            for k in ids[c + 1:]:
                row[k] = draw(small)
            row[i] = draw(st.sampled_from((-2, -1, 1, 2)))
        if draw(st.booleans()):
            r, k = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
            m[r][k] += draw(st.sampled_from((-1, 1)))
    else:
        m = [[draw(small) for _ in range(d)] for _ in range(d)]
    return m, ids, image


@settings(max_examples=300, deadline=None)
@given(pivot_cases())
def test_packed_pivot_test_equals_the_list_loop(case):
    m, ids, image = case
    pos = [0] * len(ids)
    for c, i in enumerate(ids):
        pos[i] = c
    target = [pos[image[i]] for i in ids]
    packed = pack_rows(m, specht._width(_max_abs(m)))
    pivots = qrkit._pivot_test(packed, ids, image)  # by position
    assert (pivots if pivots is None else [pivots[i] for i in ids]) \
        == list_pivots(mat_reindex(m, ids), target)
    canonical = range(len(m))
    assert qrkit._pivot_test(packed, canonical, canonical) \
        == list_pivots(m, canonical)
    assert qrkit._pivot_test(packed, canonical, image) == list_pivots(m, image)


def test_pack_refuses_entries_beyond_the_slots():
    def pack(m, width):
        return specht._pack(_read(m), width)

    assert pack([[7, -7], [0, 1]], 4).rows == [7 - (7 << 4), 1 << 4]
    assert pack([[0, -1], [1, 0]], 4).rows == [-(1 << 4), 1]
    assert pack([[7, -7], [0, 1]], 4).bound == 7
    with pytest.raises(QRInvariantError):
        pack([[8, 0], [0, 1]], 4)
    with pytest.raises(QRInvariantError):
        pack([[1, 0], [-8, 1]], 4)
