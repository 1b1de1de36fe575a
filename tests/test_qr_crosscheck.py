"""The integer triangularity test against the exact QR route it replaced.

`verify_thm1` and `verify_thm4_chain` decide "Q of M's QR is the signed
permutation of the symmetry" through `_decide`, which runs the pivot test
(`qrkit._pivot_test`) on M's packed rows without factoring M.  The
`qr_route_*` helpers below keep the earlier implementation, which
factored every matrix with `exact_qr`, as the reference: both routes must
produce the same `CheckReport.record()` on every check, pass or fail.
"""

from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from klspecht import qrkit, specht
from klspecht.jdt import promote
from klspecht.qrkit import (
    IrrationalNormError,
    SingularMatrixError,
    all_connected_chains,
    as_signed_permutation,
    exact_qr,
    phi_connected,
    preorder_connected,
    random_index_monotone_order,
    verify_thm1,
    verify_thm4_chain,
)
from klspecht.reports import CheckReport
from klspecht.symgroup import long_cycle, longest_element, multiply, reduced_word
from klspecht.tableaux import (
    format_tableau,
    partitions,
    tableau_index,
    total_index_key,
)
from klspecht.specht import total_index_order

from dense_reference import pack_rows, unpack_rows


def is_index_monotone(order):
    idx = [tableau_index(t) for t in order]
    return all(a <= b for a, b in zip(idx, idx[1:]))


# ---------------------------------------------------------------------------
# the reference route: every check factors its matrix with exact_qr

def qr_route_thm1(shape, order=None):
    basis = tuple(order) if order is not None else total_index_order(shape)
    if sorted(basis) != sorted(total_index_order(shape)):
        raise ValueError(f'order is not a basis order for {shape}')
    if not is_index_monotone(basis):
        raise ValueError('order must be weakly increasing in tableau index')
    n = sum(shape)
    cyc = long_cycle(n)
    mat = qrkit.matrix_of(shape, cyc, basis)
    pos = {t: i for i, t in enumerate(basis)}
    prom = [pos[promote(t)] for t in basis]
    idx = [tableau_index(t) for t in basis]
    origin = [0] * len(basis)
    for c, r in enumerate(prom):
        origin[r] = c
    failures = []
    for c in range(len(basis)):
        lead = mat[prom[c]][c]
        if lead not in (1, -1):
            failures.append(
                f'column {format_tableau(basis[c])} has {lead} at its promotion row'
            )
        for r in range(len(basis)):
            if mat[r][c] and idx[origin[r]] > idx[c]:
                failures.append(
                    f'column {format_tableau(basis[c])} leaks onto the promotion '
                    f'of a larger-index tableau (row {r})'
                )
    signs = {}
    try:
        fact = exact_qr(mat)
    except IrrationalNormError as err:
        failures.append(f'no rational QR: {err}')
        fact = None
    if fact is not None:
        sp = as_signed_permutation(fact.q)
        if sp is None:
            failures.append('Q is not a signed permutation matrix')
        else:
            for c, r in enumerate(sp.target):
                if r != prom[c]:
                    failures.append(
                        f'Q sends {format_tableau(basis[c])} to row {r}, '
                        f'but promotion sits at row {prom[c]}'
                    )
                    break
            else:
                for c, s in enumerate(sp.signs):
                    label = str(idx[c])
                    if label not in signs:
                        signs[label] = s
                    elif signs[label] != s:
                        failures.append(
                            f'sign flips inside index class {label}'
                        )
    return CheckReport(
        theorem='thm1',
        passed=not failures,
        shape=tuple(shape),
        ordering=tuple(format_tableau(t) for t in basis),
        witness={'cycle': list(cyc), 'promotion': prom},
        signs=signs or None,
        failures=failures,
    )


@lru_cache(maxsize=None)
def _reference_maps(j_set, shape):
    """preorder_connected and phi_connected of one J, as dicts, so the
    n = 6 sweep spends its time in exact_qr rather than jeu de taquin."""
    phi = {t: phi_connected(j_set, t) for t in total_index_order(shape)}
    return preorder_connected(j_set, shape), phi


_total_index_key = lru_cache(maxsize=None)(total_index_key)
# the reference routes label the same tableaux once per chain
format_tableau = lru_cache(maxsize=None)(format_tableau)


def qr_route_thm4_chain(shape, chain):
    n = sum(shape)
    js = [frozenset(j) for j in chain]
    w = tuple(range(1, n + 1))
    for j in js:
        w = multiply(longest_element(j, n), w)
    key_maps = [_reference_maps(j, shape)[0] for j in js]
    tabs = total_index_order(shape)

    def composite(t):
        return tuple(km[t] for km in reversed(key_maps))

    basis = tuple(sorted(tabs, key=lambda t: (composite(t), _total_index_key(t))))
    pos = {t: i for i, t in enumerate(basis)}
    phi = {}
    for t in tabs:
        out = t
        for j in js:
            out = _reference_maps(j, shape)[1][out]
        phi[t] = out
    mat = qrkit.matrix_of(shape, w, basis)
    failures = []
    signs = {}
    try:
        fact = exact_qr(mat)
    except IrrationalNormError as err:
        failures.append(f'no rational QR: {err}')
        fact = None
    if fact is not None:
        sp = as_signed_permutation(fact.q)
        if sp is None:
            failures.append('Q is not a signed permutation matrix')
        else:
            for c, t in enumerate(basis):
                if sp.target[c] != pos[phi[t]]:
                    failures.append(
                        f'Q sends {format_tableau(t)} to row {sp.target[c]}, '
                        f'but the composite symmetry sits at row {pos[phi[t]]}'
                    )
                    break
            else:
                for c, s in enumerate(sp.signs):
                    label = str(composite(basis[c]))
                    if label not in signs:
                        signs[label] = s
                    elif signs[label] != s:
                        failures.append(f'sign flips inside class {label}')
    return CheckReport(
        theorem='thm4',
        passed=not failures,
        shape=tuple(shape),
        ordering=tuple(format_tableau(t) for t in basis),
        witness={
            'chain': [sorted(j) for j in js],
            'w': list(w),
            'symmetry': {
                format_tableau(t): format_tableau(phi[t]) for t in tabs
            },
        },
        signs=signs or None,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# the pivot test against exact_qr on random integer matrices

@st.composite
def matrices_and_targets(draw, max_d=4):
    """An integer matrix and a candidate target.  Half the matrices are a
    signed permutation times an integer upper-triangular matrix (so QR
    realizes that permutation), some of those perturbed in one entry;
    the rest are arbitrary.  The target is the built permutation, another
    permutation, or an arbitrary list."""
    d = draw(st.integers(min_value=1, max_value=max_d))
    small = st.integers(min_value=-3, max_value=3)
    built = draw(st.permutations(range(d)))
    if draw(st.booleans()):
        m = [[0] * d for _ in range(d)]
        for c in range(d):
            # row built[c] of P U is row c of U
            m[built[c]] = [draw(small) if k > c else 0 for k in range(d)]
            m[built[c]][c] = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        if draw(st.booleans()):
            r, k = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
            m[r][k] += draw(st.sampled_from((-2, -1, 1, 2)))
    else:
        m = [[draw(small) for _ in range(d)] for _ in range(d)]
    target = draw(st.one_of(
        st.just(list(built)),
        st.permutations(range(d)),
        st.lists(st.integers(0, d - 1), min_size=d, max_size=d),
    ))
    return m, target


@settings(max_examples=200, deadline=None)
@given(matrices_and_targets())
def test_pivot_test_accepts_exactly_what_qr_realizes(case):
    m, target = case
    d = len(m)
    width = specht._width(max(abs(x) for row in m for x in row))
    pivots = qrkit._pivot_test(pack_rows(m, width), range(d), target)
    signs = None if pivots is None else tuple(1 if v > 0 else -1 for v in pivots)
    try:
        fact = exact_qr(m)
    except SingularMatrixError:
        assert signs is None
        return
    except IrrationalNormError:
        assert signs is None
        return
    sp = as_signed_permutation(fact.q)
    if sp is None or list(sp.target) != list(target):
        assert signs is None
    else:
        assert signs == sp.signs


# ---------------------------------------------------------------------------
# both routes on every check of the n <= 6 sweeps

def _thm1_orders(shape, seed=0, shuffles=10):
    """The orders `thm1_shape_reports` checks: canonical, then shuffles."""
    rng = Random(f'{seed}:thm1:{"-".join(map(str, shape))}')
    return [None] + [random_index_monotone_order(shape, rng)
                     for _ in range(shuffles)]


@pytest.mark.parametrize('n', range(2, 7))
def test_thm1_routes_agree(n):
    for shape in partitions(n):
        for order in _thm1_orders(shape):
            new = verify_thm1(shape, order).record()
            assert new == qr_route_thm1(shape, order).record()
            assert new['passed']


@pytest.mark.parametrize('n', range(2, 7))
def test_thm4_routes_agree(n):
    for shape in partitions(n):
        for chain in all_connected_chains(n):
            new = verify_thm4_chain(shape, chain).record()
            assert new == qr_route_thm4_chain(shape, chain).record()
            assert new['passed']


_generator_terms = specht._Cell.generator_terms


def _twisted(self, j):
    return _generator_terms(self, sum(self.shape) - j)


def test_routes_agree_on_failing_checks(monkeypatch, cold_caches):
    """Feed both routes wrong generator matrices, so checks fail, and
    compare the failure text.

    s_j is replaced by s_{n-j} where every product reads it, in
    `_Cell.generator_terms`: that is still a representation (the twist
    by the diagram automorphism), so every product of generators for w
    is one matrix, the matrix of w0 w w0, whether it is built along a
    reduced word of w, as the reference route does, or from cached
    factors, as the verifiers do."""
    kinds = set()
    monkeypatch.setattr(specht._Cell, 'generator_terms', _twisted)
    for n in range(3, 6):
        for shape in partitions(n):
            new = verify_thm1(shape).record()
            assert new == qr_route_thm1(shape).record()
            kinds.update(f.split(' ')[0] for f in new['failures'])
            for chain in all_connected_chains(n)[::5]:
                new = verify_thm4_chain(shape, chain).record()
                assert new == qr_route_thm4_chain(shape, chain).record()
                kinds.update(f.split(' ')[0] for f in new['failures'])
    assert {'no', 'Q'} <= kinds


def test_thm1_routes_agree_on_failing_checks_in_shuffled_orders(
        monkeypatch, cold_caches):
    """thm1 in the canonical order and 5 seeded index-monotone orders,
    under two faults: the twisted generators above, and a packed fold
    (`_Cell.fold`) that doubles the entry of M(c) at (pr(T), T) for the
    last tableau T of the total index order.  For thm1 both routes fold
    M(c) along the reduced word of c, the verifiers in `_long_cycle` and
    the reference route in `matrix_of`, so both see one matrix.  The
    doubled entry keeps the pivot test passing with a pivot of +-2,
    which only the leading-term check names."""
    fold = specht._Cell.fold

    def doubled_pivot(self, word, start=None):
        p = fold(self, word, start)
        if list(word) != reduced_word(long_cycle(sum(self.shape))):
            return p
        t = len(self.tableaux) - 1
        r = self.position[promote(self.tableaux[t])]
        rows = list(p.rows)
        rows[r] += unpack_rows(p)[r][t] << t * p.width
        return specht._Packed(rows, p.width, 2 * p.bound)

    failures = []
    for name, fault in (('generator_terms', _twisted), ('fold', doubled_pivot)):
        with monkeypatch.context() as patch:
            patch.setattr(specht._Cell, name, fault)
            for n in range(2, 6):
                for shape in partitions(n):
                    for order in _thm1_orders(shape, shuffles=5):
                        new = verify_thm1(shape, order).record()
                        assert new == qr_route_thm1(shape, order).record()
                        failures += new['failures']
        cold_caches()
    for text in ('has 2 at its promotion row', 'leaks onto'):
        assert any(text in f for f in failures), text
    assert any(f.startswith(('no rational QR', 'Q ')) for f in failures)


def test_passing_checks_do_not_factor(monkeypatch):
    def refuse(m):
        raise AssertionError('exact_qr called on a passing check')

    monkeypatch.setattr(qrkit, 'exact_qr', refuse)
    for shape in partitions(5):
        assert verify_thm1(shape).passed
        for chain in all_connected_chains(5):
            assert verify_thm4_chain(shape, chain).passed


def test_passing_checks_build_nothing_dense(monkeypatch, cold_caches):
    """On cold caches, the verifiers build their factors from the
    generators' nonzero entries and decide on packed rows: no dense
    generator and no unpacked matrix (`_dense` is the one read-out of
    both)."""
    def refuse(*args):
        raise AssertionError('dense matrix built on a passing check')

    monkeypatch.setattr(specht, '_dense', refuse)
    for n in range(2, 6):
        for shape in partitions(n):
            for order in _thm1_orders(shape, shuffles=5):
                assert verify_thm1(shape, order).passed
            for chain in all_connected_chains(n):
                assert verify_thm4_chain(shape, chain).passed
