import hashlib
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
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

from dense_reference import (
    identity_matrix,
    mat_eq,
    mat_mul,
    pack_rows,
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
    valid prefix is cached."""
    shape = (2, 1, 1)
    for _ in range(2):  # cold, then with every valid chain of n = 4 cached
        for chain in BAD_CHAINS:
            with pytest.raises(ValueError):
                qrkit._chain_data(tuple(map(frozenset, chain)), 4)
            with pytest.raises(ValueError):
                verify_thm4_chain(shape, chain)
        for chain in all_connected_chains(4):
            assert verify_thm4_chain(shape, chain).passed
    with pytest.raises(ValueError):
        verify_thm4_chain((2, 1), [{1, 2}, {2}])


def _checked_matrices(monkeypatch):
    """Record every check the verifiers decide: the packed input of
    `_decide`, unpacked and reindexed to the checked basis order (None for
    a thm4 state read off its prefix's, which builds no matrix), the row
    each column is sent to in that order, and the pivots it decides on."""
    seen = []
    real = qrkit._decide

    def spy(shape, packed, ids, image, keys, pivots, *rest):
        pos = qrkit._inverse(ids)
        m = None if packed is None else mat_reindex(unpack_rows(packed), ids)
        seen.append((m, [pos[image[i]] for i in ids], pivots))
        return real(shape, packed, ids, image, keys, pivots, *rest)

    monkeypatch.setattr(qrkit, '_decide', spy)
    return seen


def _basis(report):
    return [parse_tableau(label) for label in report.ordering]


def test_thm4_chain_matrix_from_cached_factors(monkeypatch):
    """Every thm4 check decides on the pivots of `matrix_of` of its w in
    its basis order: on that matrix itself, built from the cached
    factors, or, for a chain of two or more members ending in
    J = {1, ..., n-1}, on pivots read off its prefix's, with no matrix."""
    seen = _checked_matrices(monkeypatch)
    derived = 0
    for n in range(2, 6):
        for shape in partitions(n):
            for chain in all_connected_chains(n):
                report = verify_thm4_chain(shape, chain)
                want = matrix_of(shape, tuple(report.witness['w']),
                                 _basis(report))
                m, target, pivots = seen.pop()
                if m is None:
                    assert _is_twin(chain, n)
                    derived += 1
                else:
                    assert m == want
                assert pivots == list_pivots(want, target)
    assert not seen
    assert derived == sum(len(partitions(n)) * _twins(n) for n in range(3, 6))


def test_thm1_long_cycle_matrix_from_cached_factor(monkeypatch):
    seen = _checked_matrices(monkeypatch)
    for n in range(2, 6):
        for shape in partitions(n):
            rng = Random(f'factor:{shape}')
            orders = [None] + [random_index_monotone_order(shape, rng)
                               for _ in range(5)]
            for order in orders:
                report = verify_thm1(shape, order)
                want = matrix_of(shape, long_cycle(n), _basis(report))
                m, target, pivots = seen.pop()
                assert m == want
                assert pivots == list_pivots(want, target)
    assert not seen


def _connected_sets(n):
    return [frozenset(range(a, b + 1)) for a in range(1, n) for b in range(a, n)]


@pytest.mark.parametrize('n', range(1, 8))
def test_w_j_factors_equal_the_fold_of_a_reduced_word(n):
    """Each w_J factor, built from the factor of J minus its largest
    generator, equals the packed fold of a reduced word of w_J; the
    factor of a single generator is that generator's own terms."""
    for shape in partitions(n):
        cl = specht.cell(shape)
        for j_set in _connected_sets(n):
            p, q = min(j_set), max(j_set) + 1
            w = longest_element(j_set, n)
            assert qrkit._block_factor(shape, p, q) \
                == specht._read_terms(cl.fold(reduced_word(w)))
            if q == p + 1:
                assert qrkit._block_factor(shape, p, q) is cl.generator_terms(p)


def test_w_j_factors_take_one_product_per_generator(monkeypatch, cold_caches):
    """On cold caches, the w_J of an n = 6 shape cost 30 products in all:
    a single generator is its own factor, and each larger J costs |J|
    products on the factor of J minus its largest member, not the 70 of
    folding each reduced word."""
    shape = (3, 2, 1)
    specht.cell(shape).generator_terms(1)
    calls = []
    real = specht._times

    def counting(terms, b):
        calls.append(b.width)
        return real(terms, b)

    monkeypatch.setattr(specht, '_times', counting)
    monkeypatch.setattr(qrkit, '_times', counting)
    for j_set in _connected_sets(6):
        qrkit._block_factor(shape, min(j_set), max(j_set) + 1)
    assert len(calls) == sum(len(j) for j in _connected_sets(6) if len(j) > 1) == 30


@pytest.mark.parametrize('n', range(2, 8))
def test_long_element_acts_as_signed_evacuation(n):
    """The theorem the paper opens with (Berenstein-Zelevinsky;
    Stembridge, Duke Math. J. 82, 1996): M(w0) is (-1)^{n(lambda)},
    n(lambda) = sum of (i - 1) lambda_i, times the permutation matrix of
    evacuation, column T sent to row ev(T).  So row ev(T) of the w_J
    factor for J = {1, ..., n-1} has the one pick T, with that sign."""
    for shape in partitions(n):
        cl = specht.cell(shape)
        d = len(cl.tableaux)
        sign = (-1) ** sum(i * part for i, part in enumerate(shape))
        ev = [cl.position[evacuate(t)] for t in cl.tableaux]
        picks = tuple((k if sign == 1 else d + k,) for k in ev)
        want = specht._Terms(picks, (), 1, 1)
        assert qrkit._block_factor(shape, 1, n) == want, shape
        assert qrkit._w0_sign(shape) == sign, shape


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
    assert [verify_thm1(*check).record() for check in checks] == want
    assert {qrkit._long_cycle(shape).width for shape, _ in checks} == {64}


# ---------------------------------------------------------------------------
# thm4 state shared between checks: chain data and chain states

def _thm4_checks(max_n):
    return [(shape, chain) for n in range(2, max_n + 1)
            for shape in partitions(n) for chain in all_connected_chains(n)]


def test_thm4_prefix_eviction_keeps_the_records(monkeypatch, cold_caches):
    """A budget of a few hundred slots holds only a handful of chain
    states, so a shuffled order keeps emptying the store of states that
    later checks extend.  Every record must still equal the one of the
    DFS order at the full budget, and the store must never hold more
    slots than its budget."""
    checks = _thm4_checks(5)
    want = [verify_thm4_chain(shape, chain).record() for shape, chain in checks]

    budget = 300
    cache = qrkit._chain_states
    monkeypatch.setattr(cache, 'budget', budget)
    stored = []

    def put(key, state):
        type(cache).put(cache, key, state)
        stored.append(len(state.m.rows) ** 2)
        assert cache.slots <= budget
        assert cache.slots == sum(len(s.m.rows) ** 2 for s in cache.values())

    monkeypatch.setattr(cache, 'put', put)
    cache.clear()
    order = list(range(len(checks)))
    Random(6).shuffle(order)
    got = {i: verify_thm4_chain(*checks[i]).record() for i in order}
    assert [got[i] for i in range(len(checks))] == want
    assert sum(stored) > 10 * budget  # the emptying path ran, often


def _count_store_traffic(monkeypatch):
    """Per-n counters of the chain products (`_times` calls in qrkit) and
    of the times the chain-state store is emptied while it holds states."""
    products, emptyings = Counter(), Counter()
    current = [0]
    real_times = qrkit._times
    cache = qrkit._chain_states

    def times(*args):
        products[current[0]] += 1
        return real_times(*args)

    def clear():
        emptyings[current[0]] += bool(cache)
        type(cache).clear(cache)

    monkeypatch.setattr(qrkit, '_times', times)
    monkeypatch.setattr(cache, 'clear', clear)
    return current, products, emptyings


def _is_twin(chain, n):
    """A chain of two or more members ending in J = {1, ..., n-1}: its
    state is read off its prefix's, with no product."""
    return len(chain) >= 2 and chain[-1] == frozenset(range(1, n))


def _twins(n):
    return sum(_is_twin(c, n) for c in all_connected_chains(n))


def _product_checks(n):
    """The checks at n that cost one chain product each: those of a chain
    of two or more members that does not end in J = {1, ..., n-1}."""
    multi = sum(len(c) >= 2 for c in all_connected_chains(n))
    return len(partitions(n)) * (multi - _twins(n))


def test_shuffled_thm4_sweep_never_empties_the_store(monkeypatch, cold_caches):
    """The states of the chains that extend further take 86988 slots up to
    n = 6, far below the 2**20 budget: a sweep shuffled within each n, as
    the benchmark runs it, never empties the store and makes exactly one
    chain product per check of a chain with two or more members that does
    not end in J = {1, ..., n-1}."""
    current, products, emptyings = _count_store_traffic(monkeypatch)
    rng = Random(24)
    for n in range(2, 7):
        current[0] = n
        checks = [(shape, chain) for shape in partitions(n)
                  for chain in all_connected_chains(n)]
        rng.shuffle(checks)
        for check in checks:
            verify_thm4_chain(*check)
        assert products[n] == _product_checks(n)
    assert products[6] == 1111
    assert not emptyings
    assert qrkit._chain_states.slots == 86988


def test_dfs_thm4_sweep_rebuilds_only_the_current_path(monkeypatch, cold_caches):
    """Under a budget of a few states, a DFS sweep empties the store often,
    and each emptying costs at most n - 2 extra chain products: only the
    prefixes of the chain being checked are rebuilt.  At n = 6 the 497
    emptyings cost 186 extra products."""
    current, products, emptyings = _count_store_traffic(monkeypatch)
    monkeypatch.setattr(qrkit._chain_states, 'budget', 400)
    for n in range(2, 7):
        current[0] = n
        for shape in partitions(n):
            for r in cli._thm4_job(shape):
                assert r.passed
        extra = products[n] - _product_checks(n)
        assert 0 <= extra <= (n - 2) * emptyings[n]
    assert (emptyings[6], products[6] - _product_checks(6)) == (497, 186)


def _records_both_ways(monkeypatch, checks):
    """The records of these thm4 checks with each chain ending in
    J = {1, ..., n-1} read off its prefix's state where `_w0_sign` allows,
    and with every state built by its own product (`_w0_sign` None)."""
    derived = [verify_thm4_chain(*check).record() for check in checks]
    with monkeypatch.context() as patch:
        patch.setattr(qrkit, '_w0_sign', lambda shape: None)
        built = [verify_thm4_chain(*check).record() for check in checks]
    return derived, built


def test_states_read_off_the_prefix_keep_every_record(monkeypatch,
                                                      cold_caches):
    """Every thm4 record for n <= 6, and for a seeded sample at n = 7,
    equals the one built with a product for every chain; and every chain
    of two or more members ending in J = {1, ..., n-1} is read off its
    prefix's state there, with no matrix."""
    checks = _thm4_checks(6) + Random(30).sample(
        [(shape, chain) for shape in partitions(7)
         for chain in all_connected_chains(7)], 400)
    derived, built = _records_both_ways(monkeypatch, checks)
    assert derived == built
    assert all(r['passed'] for r in derived)
    twins = 0
    for shape, chain in checks:
        n = sum(shape)
        if _is_twin(chain, n):
            blocks, _ = qrkit._chain_data(chain, n)
            assert qrkit._chain_state(shape, blocks).m is None
            twins += 1
    assert twins == 1768  # 1547 for n <= 6 and 221 of the sample


def _swap_picks(picks, ev):
    picks[0], picks[1] = picks[1], picks[0]


def _negate_pick(picks, ev):
    picks[0] = tuple((x + len(picks)) % (2 * len(picks)) for x in picks[0])


def _add_pick(picks, ev):
    picks[0] += picks[1]


def _rotate_rows(picks, ev):
    """M(w0) and ev with rows 0, 1, 2 rotated alike: M(w0) = +-P_ev
    still, but ev is no longer an involution."""
    picks[:3] = picks[1:3] + picks[:1]
    ev[:3] = ev[1:3] + ev[:1]


@pytest.mark.parametrize(
    'fault', [_swap_picks, _negate_pick, _add_pick, _rotate_rows])
def test_a_faulty_w0_takes_the_long_route(monkeypatch, cold_caches, fault):
    """With two rows of M(w0) on (3, 2) swapped, one row negated, one row
    given a second entry, or three rows rotated together with ev, M(w0)
    is not +-(the permutation matrix of an involution ev): `_w0_sign`
    refuses it, so every state is built by its product and every record
    equals the one built so on purpose.  Some chains ending in
    J = {1, ..., 4} fail, and only those (all of them for the swap)."""
    shape = (3, 2)
    real_factor, real_table = qrkit._block_factor, qrkit._j_table
    picks = list(real_factor(shape, 1, 5).picks)
    ev = list(real_table(shape, 1, 5)[0])
    fault(picks, ev)
    factor = real_factor(shape, 1, 5)._replace(picks=tuple(picks))
    table = (tuple(ev),) + real_table(shape, 1, 5)[1:]
    monkeypatch.setattr(qrkit, '_block_factor', lambda *args: factor
                        if args == (shape, 1, 5) else real_factor(*args))
    monkeypatch.setattr(qrkit, '_j_table', lambda *args: table
                        if args == (shape, 1, 5) else real_table(*args))
    assert qrkit._w0_sign(shape) is None
    chains = all_connected_chains(5)
    derived, built = _records_both_ways(
        monkeypatch, [(shape, chain) for chain in chains])
    assert derived == built
    ends_in_w0 = [chain[-1] == frozenset(range(1, 5)) for chain in chains]
    failed = [not r['passed'] for r in derived]
    assert any(failed)
    assert all(e for e, f in zip(ends_in_w0, failed) if f)
    if fault is _swap_picks:
        assert failed == ends_in_w0


def test_thm4_checks_the_sign_value_of_w0(cold_caches):
    """Negating every generator (the module twisted by the sign
    character) negates M(w0), a product of n(n - 1)/2 generators, exactly
    when n is 2, 3 or 6 here, and leaves its pivot positions.  The check
    of the chain J = {1, ..., n-1} then fails on every such shape, with
    one line naming both signs, and keeps its record at n = 4 and 5.  The
    generators are restored after each shape."""
    def uncached():
        qrkit._block_factor.cache_clear()
        qrkit._w0_sign.cache_clear()
        qrkit._chain_states.clear()

    for n in range(2, 7):
        chain = [set(range(1, n))]
        for shape in partitions(n):
            cl = specht.cell(shape)
            want = verify_thm4_chain(shape, chain).record()
            assert want['passed']
            real = cl._generator_terms
            cl._generator_terms = tuple(map(_negated, real))
            uncached()
            try:
                report = verify_thm4_chain(shape, chain)
            finally:
                cl._generator_terms = real
                uncached()
            if n * (n - 1) // 2 % 2 == 0:
                assert report.record() == want
                continue
            assert not report.passed
            (label, s), = want['signs'].items()
            assert s == (-1) ** sum(i * part for i, part in enumerate(shape))
            assert report.failures == [
                f'class {label} has sign {-s:+d}, expected {s:+d}']
            assert verify_thm4_chain(shape, chain).record() == want


def test_narrow_slots_raise_instead_of_truncating(monkeypatch, cold_caches):
    """With slots too narrow for the entry bounds of (3, 2, 1), which
    reach 360 along its chains, a check raises rather than deciding on
    truncated entries; a check whose bound fits keeps its record."""
    shape = (3, 2, 1)
    chains = all_connected_chains(6)
    want = [verify_thm4_chain(shape, chain).record() for chain in chains]
    monkeypatch.setattr(qrkit, '_SLOT_WIDTH', 5)
    cold_caches()
    raised = 0
    for chain, record in zip(chains, want):
        try:
            got = verify_thm4_chain(shape, chain).record()
        except QRInvariantError as err:
            assert '5-bit slots' in str(err)
            raised += 1
        else:
            assert got == record
    assert 0 < raised < len(chains)


def test_narrow_verifier_slots_leave_matrix_of_unchanged(monkeypatch):
    """`matrix_of` sizes its slots from the word, not from the verifiers'
    width: at 5-bit verifier slots it still returns every matrix of
    (3, 2, 1), whose w0 needs 25-bit slots."""
    shape = (3, 2, 1)
    ws = [long_cycle(6), tuple(range(6, 0, -1))]
    want = [matrix_of(shape, w) for w in ws]
    monkeypatch.setattr(qrkit, '_SLOT_WIDTH', 5)
    assert [matrix_of(shape, w) for w in ws] == want


def test_narrow_slots_raise_under_optimize_flag():
    script = '''
import sys
from klspecht import qrkit
qrkit._SLOT_WIDTH = 5
try:
    for chain in qrkit.all_connected_chains(6):
        qrkit.verify_thm4_chain((3, 2, 1), chain)
except qrkit.QRInvariantError as err:
    print(sys.flags.optimize, err)
'''
    src = str(Path(klspecht.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, '-O', '-c', script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith('1 entries up to ')
    assert proc.stdout.strip().endswith('overflow 5-bit slots')


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
    """Every thm4 record of n = 4 and 5 under two faults has the sha256
    it had when each check built its labels and class strings at once:
    the last pivot of every passing pivot test negated (a sign flips
    inside a class, or not), and s_j replaced by s_{n-j} (the pivot test
    fails, and `exact_qr` names why).  The one exception: the first fault
    also negates the one pivot of w0 on (n) and (1^n), which the check of
    w0's sign value then fails; without that line, the sha256 is the
    same."""
    real = qrkit._pivot_test

    def last_negated(p, ids, image):
        pivots = real(p, ids, image)
        return pivots if pivots is None else pivots[:-1] + [-pivots[-1]]

    records = []
    for obj, name, fault in ((qrkit, '_pivot_test', last_negated),
                             (specht._Cell, 'generator_terms', _twisted)):
        with monkeypatch.context() as patch:
            patch.setattr(obj, name, fault)
            for n in (4, 5):
                for shape in partitions(n):
                    records += [verify_thm4_chain(shape, chain).record()
                                for chain in all_connected_chains(n)]
        cold_caches()
    assert (len(records), sum(not r['passed'] for r in records)) == (1128, 416)
    assert {f.split(' ')[0] for r in records for f in r['failures']} \
        == {'sign', 'Q', 'no', 'class'}
    valued = [r for r in records if r['failures'][:1] == [
        'class ((),) has sign -1, expected +1']]
    assert [(r['shape'], r['witness']['chain'], len(r['failures']))
            for r in valued] == [
        ([4], [[1, 2, 3]], 1), ([1, 1, 1, 1], [[1, 2, 3]], 1),
        ([5], [[1, 2, 3, 4]], 1), ([1, 1, 1, 1, 1], [[1, 2, 3, 4]], 1)]
    for r in valued:
        r['failures'], r['passed'] = [], True
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode())
    assert digest.hexdigest() == (
        'ab6fd09280609c3230431c06b1b209857417b544ea89791937a84eead46eabb0')


def _negated(terms):
    """The `_Terms` of -A: operand k of a row and its negative d + k trade
    places, and each scaled entry changes sign."""
    d = len(terms.picks)
    flip = [*range(d, 2 * d), *range(d)]
    return specht._Terms(
        tuple(tuple(flip[p] if p < 2 * d else p for p in row)
              for row in terms.picks),
        tuple((k, -x) for k, x in terms.scaled), terms.rowabs, terms.maxabs)


def test_thm1_checks_the_value_of_each_class_sign(cold_caches):
    """Negating every generator (the module twisted by the sign
    character) negates M(c), a product of n - 1 generators, exactly when
    n is even, and leaves every pivot position.  thm1 then fails on every
    shape of even n, with one line per index class naming both signs,
    and passes at odd n.  The generators are restored after each shape."""
    for n in range(2, 7):
        for shape in partitions(n):
            cl = specht.cell(shape)
            want = verify_thm1(shape).record()
            assert want['passed']
            real = cl._generator_terms
            cl._generator_terms = tuple(map(_negated, real))
            qrkit._long_cycle.cache_clear()
            try:
                report = verify_thm1(shape)
            finally:
                cl._generator_terms = real
                qrkit._long_cycle.cache_clear()
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
    chains, in the chain's basis order (through `matrix_of` for a state
    read off its prefix's) and in the total index order."""
    rng = Random(seed)
    pairs = [(shape, chain) for shape in partitions(6)
             for chain in all_connected_chains(6)]
    for shape, chain in rng.sample(pairs, count):
        blocks, w = qrkit._chain_data(chain, 6)
        state = qrkit._chain_state(shape, blocks)
        if state.m is None:  # read off its prefix's state: no matrix
            tableaux = specht.cell(shape).tableaux
            yield matrix_of(shape, w, [tableaux[i] for i in state.perm])
        else:
            yield qrkit._reindexed(state.m, state.perm)
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
    assert qrkit._pivot_test(packed, ids, image) \
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
