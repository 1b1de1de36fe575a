"""Release acceptance suite.

Eleven criteria, one test each.  Every test prints a single PASS or
FAIL line (visible with `pytest -s`), so the whole gate reads off
`pytest -v -s tests/test_acceptance.py`.  All comparisons are exact;
the wall-clock ceilings are generous and guard against algorithmic
regressions, not machine noise.
"""

from __future__ import annotations

import functools
import io
import math
import time
from contextlib import redirect_stdout
from random import Random

from klspecht import cli
from klspecht.hecke import (
    check_rhoades_insertion,
    kl_oracle,
    kl_polynomial,
    mu_tableaux,
)
from klspecht.jdt import evacuate, partial_evacuate, promote
from klspecht.qrkit import (
    all_connected_chains,
    search_ordering,
    thm1_shape_reports,
    verify_counterexample,
    verify_thm4_chain,
)
from klspecht.specht import (
    check_branching,
    check_filtration_invariance,
    generator_matrix,
    matrix_from_generator_word,
    matrix_of,
)
from klspecht.symgroup import (
    all_perms,
    bruhat_leq,
    descending_decomposition,
    identity,
    is_separable,
    length,
    long_cycle,
    longest_element,
    multiply,
    reduced_word,
    schroeder_number,
    simple,
)
from klspecht.tableaux import (
    count_syt,
    delete_largest,
    enumerate_syt,
    partitions,
    tableau_index,
)

from dense_reference import identity_matrix, mat_eq, mat_mul

SEED = 20260816


def criterion(num, label):
    """Print one PASS/FAIL line for the wrapped test."""
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f'FAIL criterion {num:2d} {label}')
                raise
            print(f'PASS criterion {num:2d} {label} '
                  f'({time.perf_counter() - t0:.2f}s)')
        return run
    return wrap


# pinned 6x6 factorization of the long cycle action on shape (3, 1, 1),
# basis in total index order
PINNED_M = '''\
0 0 0 1 0 0
0 0 0 0 1 0
1 0 0 -1 1 0
0 0 0 0 0 1
0 1 0 -1 0 1
0 0 1 0 -1 1'''
PINNED_Q = '''\
0 0 0 1 0 0
0 0 0 0 1 0
1 0 0 0 0 0
0 0 0 0 0 1
0 1 0 0 0 0
0 0 1 0 0 0'''
PINNED_R = '''\
1 0 0 -1 1 0
0 1 0 -1 0 1
0 0 1 0 -1 1
0 0 0 1 0 0
0 0 0 0 1 0
0 0 0 0 0 1'''


@criterion(1, 'qr 3,1,1 c reproduces the pinned factorization')
def test_criterion_01_long_cycle_qr_worked_example():
    t0 = time.perf_counter()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(['qr', '3,1,1', 'c'])
    assert code == 0
    expected = ['M'] + PINNED_M.splitlines() \
        + ['Q'] + PINNED_Q.splitlines() \
        + ['R'] + PINNED_R.splitlines()
    assert buf.getvalue().splitlines() == expected

    # the printed Q must be the permutation matrix of promotion on the
    # basis order used for M, with every sign +1
    tabs = enumerate_syt((3, 1, 1))
    q = [[int(e) for e in row.split()] for row in PINNED_Q.splitlines()]
    images = [tabs.index(promote(t)) for t in tabs]
    for row in range(6):
        for col in range(6):
            assert q[row][col] == (1 if images[col] == row else 0)
    assert time.perf_counter() - t0 < 1.0


@criterion(2, 'long cycle QR realizes promotion, every shape, n <= 7')
def test_criterion_02_long_cycle_qr_sweep():
    t0 = time.perf_counter()
    for n in range(2, 7):
        for shape in partitions(n):
            for rep in thm1_shape_reports(shape, seed=SEED):
                assert rep.passed, (shape, rep.failures)
                assert rep.signs and set(rep.signs.values()) <= {1, -1}
    small = time.perf_counter() - t0
    assert small < 60.0, f'n <= 6 sweep took {small:.1f}s'

    t1 = time.perf_counter()
    for shape in partitions(7):
        for rep in thm1_shape_reports(shape, seed=SEED):
            assert rep.passed, (shape, rep.failures)
    big = time.perf_counter() - t1
    assert big < 1800.0, f'n = 7 sweep took {big:.1f}s'


@criterion(3, 'index filtration is invariant and quotients branch')
def test_criterion_03_filtration_and_branching():
    t0 = time.perf_counter()
    for n in range(2, 7):
        for shape in partitions(n):
            flt = check_filtration_invariance(shape)
            assert flt.passed, (shape, flt.failures)
            brn = check_branching(shape)
            assert brn.passed, (shape, brn.failures)
            # multiplicity free: the reduced shapes are pairwise distinct
            reduced = [tuple(s) for s in brn.witness['reduced_shapes']]
            assert len(set(reduced)) == len(reduced)
    assert time.perf_counter() - t0 < 60.0


@criterion(4, 'promotion = evacuation after partial evacuation, n <= 8')
def test_criterion_04_promotion_factors_through_partial_evacuation():
    t0 = time.perf_counter()
    for n in range(2, 9):
        for shape in partitions(n):
            for t in enumerate_syt(shape):
                assert promote(t) == evacuate(partial_evacuate(t, n - 1))
    assert time.perf_counter() - t0 < 10.0


@criterion(5, 'mu is stable under deleting the largest entry, n <= 6')
def test_criterion_05_mu_descends_to_deleted_tableaux():
    for n in range(2, 7):
        for shape in partitions(n):
            classes = {}
            for t in enumerate_syt(shape):
                classes.setdefault(tableau_index(t), []).append(t)
            for members in classes.values():
                for t in members:
                    for r in members:
                        small = mu_tableaux(
                            delete_largest(t)[0], delete_largest(r)[0])
                        assert mu_tableaux(t, r) == small, (shape, t, r)


@criterion(6, 'mu survives inserting the top letter at a common slot')
def test_criterion_06_mu_survives_last_letter_insertion():
    for u in all_perms(3):
        for v in all_perms(3):
            for k in range(4):
                assert check_rhoades_insertion(u, v, k), (u, v, k)

    rng = Random(SEED)
    perms = all_perms(4)
    for _ in range(1000):
        u = rng.choice(perms)
        v = rng.choice(perms)
        k = rng.randrange(5)
        assert check_rhoades_insertion(u, v, k), (u, v, k)


@criterion(7, 'no basis order factors 2413 on shape 3,1')
def test_criterion_07_non_separable_counterexample():
    rep = verify_counterexample()
    assert rep.passed, rep.failures
    outcomes = rep.witness['orderings']
    assert len(outcomes) == 6
    assert 'unexpected signed permutation' not in outcomes.values()
    # the same harness accepts the long cycle on the same shape
    assert rep.witness['long_cycle_ordering'] is not None
    assert search_ordering((3, 1), long_cycle(4)) is not None


@criterion(8, 'separable = admits a descending decomposition, n <= 6')
def test_criterion_08_separable_equals_descending():
    for n in range(1, 7):
        separable = 0
        for w in all_perms(n):
            flag = is_separable(w)
            separable += flag
            assert flag == (descending_decomposition(w) is not None), w
        # pattern enumeration against the convolution recurrence
        assert separable == schroeder_number(n - 1), n


@criterion(9, 'descent recursion matches the bar-invariance oracle')
def test_criterion_09_kl_recursion_matches_oracle():
    for n in range(2, 6):
        perms = all_perms(n)
        len_of = {w: length(w) for w in perms}
        for v in perms:
            for w in perms:
                p = kl_polynomial(v, w)
                assert p == kl_oracle(v, w), (v, w)
                assert (p == ()) == (not bruhat_leq(v, w)), (v, w)
                if v == w:
                    assert p == (1,)
                elif p:
                    assert p[0] == 1
                    assert len(p) - 1 <= (len_of[w] - len_of[v] - 1) // 2

    # recursion-only degree sweep one size up
    perms = all_perms(6)
    len_of = {w: length(w) for w in perms}
    for v in perms:
        lv = len_of[v]
        for w in perms:
            p = kl_polynomial(v, w)
            if not p:
                continue
            assert p[0] == 1
            if v != w:
                assert len(p) - 1 <= (len_of[w] - lv - 1) // 2, (v, w)


@criterion(10, 'signed symmetry for every connected chain, n <= 5')
def test_criterion_10_signed_symmetry_for_connected_chains():
    counts = []
    for n in range(2, 6):
        chains = all_connected_chains(n)
        counts.append(len(chains))
        for shape in partitions(n):
            for chain in chains:
                rep = verify_thm4_chain(shape, chain)
                assert rep.passed, (
                    shape,
                    [sorted(j) for j in chain],
                    rep.failures,
                )
    assert counts == [1, 5, 19, 67]


@criterion(11, 'Coxeter relations, word independence, sum of squares')
def test_criterion_11_representation_structure():
    for n in range(2, 7):
        for shape in partitions(n):
            gens = [generator_matrix(shape, j) for j in range(1, n)]
            dim = len(gens[0])
            eye = identity_matrix(dim)
            for a, ga in enumerate(gens):
                assert mat_eq(mat_mul(ga, ga), eye), (shape, a + 1)
                for b in range(a + 2, len(gens)):
                    gb = gens[b]
                    assert mat_eq(mat_mul(ga, gb), mat_mul(gb, ga))
                if a + 1 < len(gens):
                    gb = gens[a + 1]
                    assert mat_eq(
                        mat_mul(ga, mat_mul(gb, ga)),
                        mat_mul(gb, mat_mul(ga, gb)),
                    ), (shape, a + 1)

    for n in range(2, 7):
        w0 = longest_element(frozenset(range(1, n)), n)
        word = reduced_word(w0)
        flipped = [n - j for j in word]
        if n > 2:  # n = 2 has a single reduced word
            assert flipped != word
        for candidate in (word, flipped):
            rebuilt = identity(n)
            for j in candidate:
                rebuilt = multiply(rebuilt, simple(j, n))
            assert rebuilt == w0
        for shape in partitions(n):
            direct = matrix_of(shape, w0)
            assert mat_eq(matrix_from_generator_word(shape, word), direct)
            assert mat_eq(matrix_from_generator_word(shape, flipped), direct)

    for n in range(1, 9):
        total = sum(count_syt(shape) ** 2 for shape in partitions(n))
        assert total == math.factorial(n), n
