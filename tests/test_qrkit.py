import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import klspecht
from klspecht import qrkit
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
from klspecht.specht import (
    identity_matrix,
    mat_eq,
    mat_mul,
    mat_reindex,
    mat_transpose,
    matrix_of,
)
from klspecht.symgroup import long_cycle
from klspecht.tableaux import (
    count_syt,
    enumerate_syt,
    parse_tableau,
    partitions,
    tableau_index,
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
    assert mat_eq(mat_mul(mat_transpose(fact.q), fact.q), identity_matrix(2))
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


# exact_qr([[0, 1], [1, 0]]) calls mat_mul three times: R = Q^T M, then
# Q^T Q and Q R for its self-check.  Replacing some of those products
# breaks exactly one invariant.
_SWAP = [[0, 1], [1, 0]]
_BROKEN_PRODUCTS = {
    'Q is not orthonormal': {2: [[2, 0], [0, 1]]},
    'QR != M': {3: [[1, 1], [1, 0]]},
    'R diagonal must be positive': {1: [[-1, 0], [0, 1]], 3: _SWAP},
    'R must be triangular': {1: [[1, 0], [1, 1]], 3: _SWAP},
}


@pytest.mark.parametrize('message', sorted(_BROKEN_PRODUCTS))
def test_exact_qr_invariants_raise(monkeypatch, message):
    replaced = _BROKEN_PRODUCTS[message]
    real = qrkit.mat_mul
    calls = []

    def mat_mul(a, b):
        calls.append(None)
        return replaced.get(len(calls)) or real(a, b)

    monkeypatch.setattr(qrkit, 'mat_mul', mat_mul)
    with pytest.raises(QRInvariantError, match=message):
        exact_qr(_SWAP)


def test_exact_qr_invariants_survive_optimize_flag():
    script = '''
import sys
from klspecht import qrkit
real = qrkit.mat_mul
calls = []
def mat_mul(a, b):
    calls.append(None)
    return [[2, 0], [0, 1]] if len(calls) == 2 else real(a, b)
qrkit.mat_mul = mat_mul
try:
    qrkit.exact_qr([[0, 1], [1, 0]])
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
    reports_a = thm1_shape_reports((2, 2, 1), seed=3, shuffles=4)
    reports_b = thm1_shape_reports((2, 2, 1), seed=3, shuffles=4)
    assert len(reports_a) == 5
    assert [r.ordering for r in reports_a] == [r.ordering for r in reports_b]
    for r in reports_a:
        assert r.passed
    reports_c = thm1_shape_reports((2, 2, 1), seed=4, shuffles=4)
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


def test_thm4_rejects_bad_chains():
    with pytest.raises(ValueError):
        verify_thm4_chain((2, 1, 1), [{1, 3}])  # not contiguous
    with pytest.raises(ValueError):
        verify_thm4_chain((2, 1), [{1, 2}, {2}])  # not increasing
    with pytest.raises(ValueError):
        verify_thm4_chain((2, 1), [])


def _checked_matrices(monkeypatch):
    """Record every matrix the verifiers decide on: the packed input of
    `_decide`, unpacked and reindexed to the checked basis order."""
    seen = []
    real = qrkit._decide

    def spy(shape, packed, ids, *rest):
        seen.append(mat_reindex(qrkit._unpack(packed), ids))
        return real(shape, packed, ids, *rest)

    monkeypatch.setattr(qrkit, '_decide', spy)
    return seen


def _basis(report):
    return [parse_tableau(label) for label in report.ordering]


def test_thm4_chain_matrix_from_cached_factors(monkeypatch):
    seen = _checked_matrices(monkeypatch)
    for n in range(2, 6):
        for shape in partitions(n):
            for chain in all_connected_chains(n):
                report = verify_thm4_chain(shape, chain)
                w = tuple(report.witness['w'])
                assert seen.pop() == matrix_of(shape, w, _basis(report))
    assert not seen


def test_thm1_long_cycle_matrix_from_cached_factor(monkeypatch):
    seen = _checked_matrices(monkeypatch)
    for n in range(2, 6):
        for shape in partitions(n):
            rng = Random(f'factor:{shape}')
            orders = [None] + [random_index_monotone_order(shape, rng)
                               for _ in range(5)]
            for order in orders:
                report = verify_thm1(shape, order)
                assert seen.pop() == matrix_of(shape, long_cycle(n), _basis(report))
    assert not seen


# ---------------------------------------------------------------------------
# thm4 state shared between checks: chain data and chain states

def _thm4_checks(max_n):
    return [(shape, chain) for n in range(2, max_n + 1)
            for shape in partitions(n) for chain in all_connected_chains(n)]


def test_thm4_prefix_eviction_keeps_the_records(monkeypatch):
    """A budget of a few hundred slots holds only a handful of chain
    states, so a shuffled order keeps evicting states that later checks
    extend.  Every record must still equal the one of the DFS order at the
    full budget, and the cache must never hold more slots than its
    budget."""
    checks = _thm4_checks(5)
    qrkit._chain_states.clear()
    want = [verify_thm4_chain(shape, chain).record() for shape, chain in checks]

    budget = 300
    cache = qrkit._chain_states
    monkeypatch.setattr(cache, 'budget', budget)
    stored = []

    def put(key, state):
        type(cache).put(cache, key, state)
        stored.append(len(state.m.rows) ** 2)
        assert cache.slots <= budget
        assert cache.slots == sum(len(s.m.rows) ** 2
                                  for s in cache._states.values())

    monkeypatch.setattr(cache, 'put', put)
    cache.clear()
    order = list(range(len(checks)))
    Random(6).shuffle(order)
    got = {}
    try:
        for i in order:
            got[i] = verify_thm4_chain(*checks[i]).record()
    finally:
        cache.clear()
    assert [got[i] for i in range(len(checks))] == want
    assert sum(stored) > 10 * budget  # the eviction path ran, often


def test_narrow_slots_raise_instead_of_truncating(monkeypatch):
    """With slots too narrow for the entry bounds of (3, 2, 1), which
    reach 360 along its chains, a check raises rather than deciding on
    truncated entries; a check whose bound fits keeps its record."""
    shape = (3, 2, 1)
    chains = all_connected_chains(6)
    want = [verify_thm4_chain(shape, chain).record() for chain in chains]
    monkeypatch.setattr(qrkit, '_SLOT_WIDTH', 5)
    qrkit._packed.cache_clear()
    qrkit._chain_states.clear()
    raised = 0
    try:
        for chain, record in zip(chains, want):
            try:
                got = verify_thm4_chain(shape, chain).record()
            except QRInvariantError as err:
                assert '5-bit slots' in str(err)
                raised += 1
            else:
                assert got == record
    finally:
        qrkit._packed.cache_clear()
        qrkit._chain_states.clear()
    assert 0 < raised < len(chains)


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
# packed rows against the list routines they replace

def list_pivots(m, target):
    """The list loop `pivot_signs` ran before it read packed rows, keeping
    the pivots m[target[c]][c] instead of their signs."""
    pivots = []
    for c, r in enumerate(target):
        row = m[r]
        if any(row[:c]) or not row[c]:
            return None
        pivots.append(row[c])
    return pivots


def list_pivot_signs(m, target):
    pivots = list_pivots(m, target)
    return None if pivots is None else tuple(1 if v > 0 else -1 for v in pivots)


def _max_abs(m):
    return max(abs(x) for row in m for x in row)


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
    width = qrkit._width(max(bound, _max_abs(b)))
    packed_b = qrkit._pack(qrkit._terms(b), width)
    assert qrkit._unpack(packed_b) == b
    assert qrkit._unpack(qrkit._times(qrkit._terms(a), packed_b)) == mat_mul(a, b)


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
    packed = qrkit._pack(qrkit._terms(m), qrkit._width(_max_abs(m)))
    assert qrkit._pivot_test(packed, ids, image) \
        == list_pivots(mat_reindex(m, ids), target)
    assert qrkit.pivot_signs(m, list(range(len(m)))) \
        == list_pivot_signs(m, list(range(len(m))))
    assert qrkit.pivot_signs(m, image) == list_pivot_signs(m, image)


def test_pack_refuses_entries_beyond_the_slots():
    def pack(m, width):
        return qrkit._pack(qrkit._terms(m), width)

    assert pack([[7, -7], [0, 1]], 4).rows == [7 - (7 << 4), 1 << 4]
    assert pack([[0, -1], [1, 0]], 4).rows == [-(1 << 4), 1]
    assert pack([[7, -7], [0, 1]], 4).bound == 7
    with pytest.raises(QRInvariantError):
        pack([[8, 0], [0, 1]], 4)
    with pytest.raises(QRInvariantError):
        pack([[1, 0], [-8, 1]], 4)
