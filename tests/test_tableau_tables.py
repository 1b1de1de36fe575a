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
    count_syt,
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


@pytest.mark.parametrize('shape', [shape for n in range(1, 9)
                                   for shape in partitions(n)])
def test_cells_grown_from_smaller_cells_match_the_direct_routes(shape):
    """A cell is assembled from the cells one box smaller (`specht._Cell`);
    every field it derives that way equals the direct, independent route
    on each tableau: the listing `enumerate_syt`, the descent sets, the
    indexes, the column words, the peel keys and the hook length count."""
    cl = specht.cell(shape)
    assert cl.tableaux == enumerate_syt(shape)
    assert len(cl.tableaux) == count_syt(shape)
    assert cl.descents == [tableaux._descent_set(t) for t in cl.tableaux]
    assert all(type(dt) is frozenset for dt in cl.descents)
    assert cl.indexes == [tableaux._tableau_index(t) for t in cl.tableaux]
    assert cl.words == [rsk._column_word(t) for t in cl.tableaux]
    assert cl.peels == [total_index_key(t)[:-1] for t in cl.tableaux]


def test_passing_checks_format_no_tableau(monkeypatch, cold_caches):
    """The cell renders its labels on first read, and a passing thm1 or
    thm4 check reads none: no `format_tableau` call happens until a
    report is rendered."""
    def refuse(*args):
        raise AssertionError('a passing check formatted a tableau')

    for mod in (tableaux, specht, qrkit):
        monkeypatch.setattr(mod, 'format_tableau', refuse)
    shape = (3, 2, 1)
    order = random_index_monotone_order(shape, Random(3))
    reports = [verify_thm1(shape), verify_thm1(shape, order),
               *(verify_thm4_chain(shape, chain)
                 for chain in all_connected_chains(sum(shape))[:20])]
    assert all(r.passed for r in reports)
    with pytest.raises(AssertionError, match='formatted a tableau'):
        reports[0].record()
    monkeypatch.undo()
    labels = specht.cell(shape).labels
    assert sorted(reports[1].ordering) == sorted(labels)
    assert sorted(reports[-1].record()['ordering']) == sorted(labels)


@pytest.mark.parametrize('shape', SHAPES + list(partitions(7))
                         + list(partitions(8)))
def test_promotion_table_matches_promote(shape):
    """Both tables, read off the smaller shapes, against the slides of
    `jdt`."""
    tabs = specht.cell(shape).tableaux
    table = qrkit._promotion_table(shape)
    assert [tabs[i] for i in table] == [promote(t) for t in tabs]
    table = qrkit._inverse_promotion_table(shape)
    assert [tabs[i] for i in table] == [inverse_promote(t) for t in tabs]


def test_cold_promotion_table_calls_no_jdt(monkeypatch, cold_caches):
    """On cold caches the promotion tables of every shape up to n = 7 are
    read off the smaller shapes' without a single call into `jdt`."""
    def refuse(*args):
        raise AssertionError('a promotion table called jdt')

    # jdt's functions, also under the names qrkit imports them by
    for mod in (jdt, qrkit):
        for name, value in list(vars(mod).items()):
            if callable(value) and getattr(value, '__module__', '') == jdt.__name__:
                monkeypatch.setattr(mod, name, refuse)
    for shape in partitions(7):
        qrkit._promotion_table(shape)


@pytest.mark.parametrize('shape', SHAPES + list(partitions(7)))
def test_thm4_tables_match_phi_and_preorder(shape):
    """The per-J table, composed from the evacuation tables and peel keys,
    against `phi_connected`/`preorder_connected`, which evacuate and peel
    each tableau themselves: phi, and the ranks and strings of the keys
    (the strings, built on first read, pin the keys themselves)."""
    tabs = specht.cell(shape).tableaux
    for j_set in connected_sets(sum(shape)):
        p, q = min(j_set), max(j_set) + 1
        phi, ranks = qrkit._j_table(shape, p, q)
        strs = qrkit._j_texts(shape, p, q)
        assert [tabs[i] for i in phi] == [phi_connected(j_set, t) for t in tabs]
        keys = preorder_connected(j_set, shape)
        want = tuple(keys[t] for t in tabs)
        assert strs == tuple(str(key) for key in want)
        for a in range(len(tabs)):
            for b in range(len(tabs)):
                assert (ranks[a] < ranks[b]) == (want[a] < want[b])
                assert (ranks[a] == ranks[b]) == (want[a] == want[b])
        assert sorted(set(ranks)) == list(range(len(set(want))))


@pytest.mark.parametrize('shape', SHAPES + list(partitions(7)))
def test_evacuation_and_peel_tables(shape):
    """Each ev_k table, derived from ev_{k-1}'s, against `partial_evacuate`;
    for J = {1, ..., k-1}, phi_J = ev_k ev_k ev_k is ev_k, so the first
    table of `_j_table` must be ev_k too.  The cell's peel keys, derived
    from the smaller cells', against `total_index_key`."""
    tabs = specht.cell(shape).tableaux
    n = sum(shape)
    for k in range(1, n + 1):
        want = [partial_evacuate(t, k) for t in tabs]
        table = qrkit._evacuation_table(shape, k)
        assert [tabs[i] for i in table] == want
        if k > 1:
            phi = qrkit._j_table(shape, 1, k)[0]
            assert [tabs[i] for i in phi] == want
    # the peel to one box is the total index key without its last label
    assert specht.cell(shape).peels == [total_index_key(t)[:-1] for t in tabs]


def test_evacuation_tables_take_no_slide(monkeypatch, cold_caches):
    """On cold caches, ev_2, ..., ev_n of an n = 6 shape run no reverse
    slide at all: ev_k for k <= n - 1 is read off the shapes one box
    smaller, and ev_n is ev_{n-1} after the inverse promotion table, which
    is read off them too."""
    def refuse(grid, m):
        raise AssertionError('an evacuation table slid a tableau')

    monkeypatch.setattr(jdt, '_reverse_slide', refuse)
    for k in range(2, 7):
        qrkit._evacuation_table((3, 2, 1), k)


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


def test_hot_paths_call_no_validation(monkeypatch, cold_caches):
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
    for shape in partitions(5):
        assert all(r.passed for r in thm1_shape_reports(shape, seed=1))
        for chain in all_connected_chains(5)[::7]:
            assert verify_thm4_chain(shape, chain).passed
        for job in (cli._dmu_job, cli._lemma_pr_job):
            assert all(r.passed for r in job(shape))
    assert calls == []


@pytest.mark.parametrize('sweep', [
    lambda shape: cli._thm1_job((shape, 1)),
    cli._thm4_job,
], ids=['thm1', 'thm4'])
def test_sweeps_check_each_shape_a_few_times(monkeypatch, cold_caches, sweep):
    """A shape is validated where it enters, not by every removable-box or
    conjugate lookup inside the workers: on cold caches the thm1 and thm4
    sweeps of n = 5 check a partition at most 3 times per shape."""
    calls = []
    real = tableaux.check_partition

    def counting(shape):
        calls.append(shape)
        real(shape)

    for mod in (tableaux, rsk, specht, qrkit):
        monkeypatch.setattr(mod, 'check_partition', counting)
    shapes = partitions(5)
    for shape in shapes:
        assert all(r.passed for r in sweep(shape))
    assert len(calls) <= 3 * len(shapes)


@pytest.mark.parametrize('worker', [
    lambda shape: cli._thm1_job((shape, 1)),
    cli._branching_job,
    cli._dmu_job,
    cli._lemma_pr_job,
], ids=['thm1', 'branching', 'prop-dmu', 'lemma-pr'])
def test_sweeps_list_each_shape_once(monkeypatch, cold_caches, worker):
    """`enumerate_syt` memoizes nothing: a shape's tableaux are held by its
    cell, which is assembled from the cells one box smaller and lists
    nothing, or by the one job that lists them, so one sweep of n <= 6
    lists each shape at most once."""
    listed = []
    real = tableaux.enumerate_syt

    def counting(shape):
        listed.append(shape)
        return real(shape)

    monkeypatch.setattr(tableaux, 'enumerate_syt', counting)
    shapes = cli._shape_jobs(None, 6)
    for shape in shapes:
        assert all(r.passed for r in worker(shape))
    assert len(listed) == len(set(listed))
    assert set(listed) <= set(shapes) | {(1,)}


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


# every entry point taking a shape gives a list shape the boundary's
# ValueError, not the TypeError of a cache that cannot hash it

@pytest.mark.parametrize('call', [
    lambda shape: verify_thm1(shape),
    lambda shape: verify_thm4_chain(shape, [{1}]),
    lambda shape: verify_thm4_chain(shape, [{1}, {1, 2}]),
    specht.total_index_order,
    lambda shape: specht.generator_matrix(shape, 1),
    lambda shape: specht.matrix_of(shape, (2, 1, 3)),
    specht.check_branching,
    specht.check_filtration_invariance,
    lambda shape: specht.quotient_matrices(shape, 1),
    lambda shape: qrkit.search_ordering(shape, (2, 1, 3)),
    count_syt,
    enumerate_syt,
    lambda shape: preorder_connected({1}, shape),
], ids=['verify_thm1', 'thm4_one_member', 'thm4_two_members',
        'total_index_order', 'generator_matrix', 'matrix_of',
        'check_branching', 'check_filtration_invariance',
        'quotient_matrices', 'search_ordering', 'count_syt', 'enumerate_syt',
        'preorder_connected'])
def test_a_list_shape_gets_the_boundary_error(call):
    with pytest.raises(ValueError, match='not a nonempty partition tuple'):
        call([2, 1])
    call((2, 1))


# every entry point taking a basis order gives an order of list tableaux
# the boundary's ValueError, not the TypeError of a dict that cannot hash
# them; the same order of tuple tableaux is accepted

@pytest.mark.parametrize('call', [
    lambda order: verify_thm1((2, 1), order),
    lambda order: specht.generator_matrix((2, 1), 1, order),
    lambda order: specht.matrix_of((2, 1), (2, 1, 3), order),
    lambda order: specht.matrix_from_generator_word((2, 1), [1, 2], order),
], ids=['verify_thm1', 'generator_matrix', 'matrix_of',
        'matrix_from_generator_word'])
def test_an_order_of_list_tableaux_gets_the_boundary_error(call):
    with pytest.raises(ValueError, match='not a basis order'):
        call([[[1, 3], [2]], [[1, 2], [3]]])
    call((((1, 3), (2,)), ((1, 2), (3,))))


# every entry point taking a basis order refuses a set or a dict of the
# shape's tableaux, whose iteration order nobody chose, on every shape,
# and accepts the same tableaux as a tuple or a list

@pytest.mark.parametrize('call', [
    lambda shape, order: verify_thm1(shape, order).ordering,
    lambda shape, order: specht.generator_matrix(shape, 1, order),
    lambda shape, order: specht.matrix_of(shape, (2, 1, 3, 4)[:sum(shape)],
                                          order),
    lambda shape, order: specht.matrix_from_generator_word(shape, [1, 2],
                                                           order),
], ids=['verify_thm1', 'generator_matrix', 'matrix_of',
        'matrix_from_generator_word'])
@pytest.mark.parametrize('shape', [(2, 1), (3, 1), (2, 2)])
def test_an_unordered_basis_order_gets_the_boundary_error(call, shape):
    order = specht.total_index_order(shape)
    for unordered in (set(order), frozenset(order), dict.fromkeys(order)):
        with pytest.raises(ValueError,
                           match=f'order must be a sequence, not a '
                                 f'{type(unordered).__name__}$'):
            call(shape, unordered)
    assert call(shape, order) == call(shape, list(order))
