"""Per-shape tableau tables against the public functions, and the
validation boundary.

The `specht` cell and the `qrkit` per-shape tables turn the tableaux of a
shape into numbers once, with unchecked `_` workers.  Every table must
agree with the public, validated function it replaces; the public
functions must still reject a non-standard tableau; and the verifiers
must validate a caller's basis order once, by cell position.
"""

from random import Random

import pytest

from klspecht import cli, hecke, jdt, qrkit, rsk, specht, tableaux
from klspecht.hecke import mu_tableaux
from klspecht.jdt import inverse_promote, partial_evacuate, promote
from klspecht.qrkit import (
    all_connected_chains,
    phi_connected,
    preorder_connected,
    random_index_monotone_order,
    thm1_shape_reports,
    verify_thm1,
    verify_thm4_chain,
)
from klspecht.rsk import column_word
from klspecht.tableaux import (
    delete_largest,
    descent_set,
    enumerate_syt,
    partitions,
    tableau_index,
    total_index_key,
)

SHAPES = [shape for n in range(1, 7) for shape in partitions(n)]


def connected_sets(n):
    return [frozenset(range(a, b + 1))
            for a in range(1, n) for b in range(a, n)]


# ---------------------------------------------------------------------------
# every table against the public function

@pytest.mark.parametrize('shape', SHAPES)
def test_cell_tables_match_the_public_functions(shape):
    cl = specht.cell(shape)
    assert cl.tableaux == enumerate_syt(shape)
    assert cl.descents == [descent_set(t) for t in cl.tableaux]
    assert cl.indexes == [tableau_index(t) for t in cl.tableaux]
    classes: dict[int, list[int]] = {}
    for k, t in enumerate(cl.tableaux):
        classes.setdefault(tableau_index(t), []).append(k)
    assert list(cl.classes.items()) == sorted(classes.items())
    tab, ids = cl.kl_ids()
    assert tab is hecke.tables(sum(shape))
    assert ids == [tab.index[column_word(t)] for t in cl.tableaux]
    d = len(cl.tableaux)
    for i in range(d):
        for j in range(d):
            assert cl.mu(i, j) == mu_tableaux(cl.tableaux[i], cl.tableaux[j])


@pytest.mark.parametrize('shape', SHAPES)
def test_promotion_table_matches_promote(shape):
    tabs = specht.cell(shape).tableaux
    table = qrkit._position_map(shape, jdt._promote)
    assert [tabs[i] for i in table] == [promote(t) for t in tabs]


@pytest.mark.parametrize('shape', SHAPES + list(partitions(7)))
def test_thm4_tables_match_phi_and_preorder(shape):
    """The per-J table, composed from the evacuation and peel tables,
    against `phi_connected`/`preorder_connected`, which evacuate and peel
    each tableau themselves: phi, and the ranks and strings of the keys
    (the strings pin the keys themselves)."""
    tabs = specht.cell(shape).tableaux
    for j_set in connected_sets(sum(shape)):
        phi, ranks, strs = qrkit._j_table(j_set, shape)
        assert [tabs[i] for i in phi] == [phi_connected(j_set, t) for t in tabs]
        keys = preorder_connected(j_set, shape)
        want = tuple(keys[t] for t in tabs)
        assert strs == tuple(str(key) for key in want)
        for a in range(len(tabs)):
            for b in range(len(tabs)):
                assert (ranks[a] < ranks[b]) == (want[a] < want[b])
                assert (ranks[a] == ranks[b]) == (want[a] == want[b])
        assert sorted(set(ranks)) == list(range(len(set(want))))


@pytest.mark.parametrize('shape', SHAPES)
def test_evacuation_and_peel_tables(shape):
    tabs = specht.cell(shape).tableaux
    n = sum(shape)
    for k in range(1, n + 1):
        table = qrkit._position_map(shape, jdt._partial_evacuate, k)
        assert [tabs[i] for i in table] == [partial_evacuate(t, k) for t in tabs]
    # the peel to one box is the total index key without its last label
    assert qrkit._peel_table(shape) == tuple(total_index_key(t)[:-1] for t in tabs)


def test_random_orders_read_the_cell_indexes():
    """The shuffle consumes the generator as it did when it read the index
    of each tableau itself: one shuffle per index class, in order."""
    for shape in SHAPES:
        rng_a = Random(f'orders:{shape}')
        rng_b = Random(f'orders:{shape}')
        got = random_index_monotone_order(shape, rng_a)
        classes: dict[int, list] = {}
        for t in enumerate_syt(shape):
            classes.setdefault(tableau_index(t), []).append(t)
        want = []
        for _, block in sorted(classes.items()):
            rng_b.shuffle(block)
            want.extend(block)
        assert got == tuple(want)
        assert rng_a.random() == rng_b.random()


# ---------------------------------------------------------------------------
# the public functions keep validating

NOT_STANDARD = [
    ((2, 1),),           # row decreases
    ((2, 3), (1,)),      # column decreases
    ((1, 3), (4,)),      # entries skip 2
    ((1, 2), (2,)),      # repeated entry
    ((1,), (2, 3)),      # rows do not form a partition
]


@pytest.mark.parametrize('bad', NOT_STANDARD)
@pytest.mark.parametrize('call', [
    promote,
    inverse_promote,
    lambda t: partial_evacuate(t, 1),
    column_word,
    tableau_index,
    delete_largest,
    descent_set,
    total_index_key,
    lambda t: mu_tableaux(t, t),
    lambda t: phi_connected({1}, t),
], ids=['promote', 'inverse_promote', 'partial_evacuate', 'column_word',
        'tableau_index', 'delete_largest', 'descent_set', 'total_index_key',
        'mu_tableaux', 'phi_connected'])
def test_public_primitives_reject_non_standard_tableaux(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize('bad', [(1, 2), (), (2, 0)])
def test_preorder_connected_rejects_a_non_partition(bad):
    with pytest.raises(ValueError):
        preorder_connected({1}, bad)


def test_hot_paths_call_no_validation(monkeypatch):
    """Once a caller's order is accepted, the verifiers, the cell and the
    per-shape tables work on positions and never re-check a tableau; nor
    do the prop-dmu and lemma-pr sweep workers, which read cell tableaux."""
    calls = []
    real = tableaux.check_standard

    def counting(t):
        calls.append(t)
        real(t)

    for mod in (tableaux, jdt, rsk):
        monkeypatch.setattr(mod, 'check_standard', counting)
    specht.cell.cache_clear()
    for cache in (qrkit._position_map, qrkit._peel_table, qrkit._j_table):
        cache.cache_clear()
    try:
        for shape in partitions(5):
            assert all(r.passed for r in thm1_shape_reports(shape, seed=1))
            for chain in all_connected_chains(5)[::7]:
                assert verify_thm4_chain(shape, chain).passed
            for job in (cli._dmu_job, cli._lemma_pr_job):
                assert all(r.passed for r in job(shape))
    finally:
        specht.cell.cache_clear()
    assert calls == []


# ---------------------------------------------------------------------------
# verify_thm1 validates the caller's order once, by cell position

def test_thm1_rejects_orders_that_are_not_a_basis():
    shape = (3, 1, 1)
    base = list(enumerate_syt(shape))
    duplicate = base[:-1] + [base[0]]
    other_shape = base[:-1] + [enumerate_syt((3, 2))[0]]
    missing = base[:-1]
    extra = base + [base[-1]]
    for order in (duplicate, other_shape, missing, extra):
        with pytest.raises(ValueError, match='not a basis order'):
            verify_thm1(shape, order)
    assert verify_thm1(shape, base).passed
