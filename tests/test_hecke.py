import os
import random
import subprocess
import sys
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import klspecht
from klspecht import hecke
from klspecht.hecke import (
    KLInvariantError,
    check_rhoades_insertion,
    format_qpoly,
    kl_oracle,
    kl_polynomial,
    mu,
    mu_tableaux,
    qp_add,
    qp_coeff,
    qp_mul,
    qp_shift,
    qp_sub,
    qp_trim,
)
from klspecht.rsk import css, css_i, inverse_rsk
from klspecht.symgroup import (
    all_perms,
    bruhat_leq,
    identity,
    inverse,
    left_descents,
    left_mult_s,
    length,
    multiply,
    right_descents,
    right_mult_s,
    simple,
)
from klspecht.tableaux import (
    enumerate_syt,
    partitions,
    removable_boxes,
)


def test_qpoly_arithmetic():
    assert qp_trim([1, 0, 2, 0, 0]) == (1, 0, 2)
    assert qp_trim([0, 0]) == ()
    assert qp_add((1, 1), (0, 2, 3)) == (1, 3, 3)
    assert qp_sub((1, 3, 3), (0, 2, 3)) == (1, 1)
    assert qp_sub((1,), (1,)) == ()
    assert qp_shift((1, 2), 2) == (0, 0, 1, 2)
    assert qp_shift((), 3) == ()
    assert qp_mul((1, 1), (1, 1)) == (1, 2, 1)
    assert qp_mul((1, 1), ()) == ()
    assert qp_coeff((1, 0, 4), 2) == 4
    assert qp_coeff((1,), 5) == 0


def test_qpoly_formatting():
    assert format_qpoly(()) == '0'
    assert format_qpoly((1,)) == '1'
    assert format_qpoly((1, 0, 1)) == '1+q^2'
    assert format_qpoly((1, 2)) == '1+2q'
    assert format_qpoly((0, 0, 3)) == '3q^2'


def test_diagonal_is_one():
    for v in all_perms(4):
        assert kl_polynomial(v, v) == (1,)
        assert kl_oracle(v, v) == (1,)


def test_vanishing_off_the_order():
    for v in all_perms(4):
        for w in all_perms(4):
            if not bruhat_leq(v, w):
                assert kl_polynomial(v, w) == ()


def test_known_nontrivial_polynomial():
    v = (1, 3, 2, 4)
    w = (3, 4, 1, 2)
    assert kl_polynomial(v, w) == (1, 1)
    assert kl_oracle(v, w) == (1, 1)
    assert format_qpoly(kl_polynomial(v, w)) == '1+q'


def test_identity_row_in_s3():
    e = identity(3)
    for w in all_perms(3):
        assert kl_oracle(e, w) == (1,)


def test_two_routes_agree_on_s4():
    for v in all_perms(4):
        for w in all_perms(4):
            assert kl_polynomial(v, w) == kl_oracle(v, w)


def test_degree_bound_and_constant_term():
    for v in all_perms(4):
        for w in all_perms(4):
            p = kl_polynomial(v, w)
            if not p:
                continue
            assert p[0] == 1
            if v != w:
                d = length(w) - length(v)
                assert len(p) - 1 <= (d - 1) // 2


def test_mu_even_gap_vanishes():
    for v in all_perms(4):
        for w in all_perms(4):
            if (length(w) - length(v)) % 2 == 0:
                assert mu(v, w) == 0


def test_mu_on_covers_is_one():
    for v in all_perms(4):
        for w in all_perms(4):
            if bruhat_leq(v, w) and length(w) == length(v) + 1:
                assert mu(v, w) == 1


def test_mu_is_symmetric():
    for v in all_perms(4):
        for w in all_perms(4):
            assert mu(v, w) == mu(w, v)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        kl_polynomial((1, 2, 3), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        mu((2, 1), (1, 3, 2))


def test_mu_tableaux_known_value():
    assert mu_tableaux(((1, 2), (3,)), ((1, 3), (2,))) == 1
    t = ((1, 2), (3,))
    assert mu_tableaux(t, t) == 0


def test_mu_tableaux_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        mu_tableaux(((1, 2),), ((1,), (2,)))


def test_mu_tableaux_recorder_independence():
    # the value must not depend on which recording tableau realizes the
    # pair inside the group algebra
    for n in range(2, 7):
        for shape in partitions(n):
            tabs = enumerate_syt(shape)
            recorders = [css(shape)] + [
                css_i(shape, i)
                for i in range(1, len(removable_boxes(shape)) + 1)
            ]
            for t in tabs:
                for r in tabs:
                    want = mu_tableaux(t, r)
                    for rec in recorders:
                        got = mu(inverse_rsk(t, rec), inverse_rsk(r, rec))
                        assert got == want, (shape, t, r, rec)


def test_insertion_preserves_mu_exhaustively_small():
    for u in all_perms(3):
        for v in all_perms(3):
            for k in range(4):
                assert check_rhoades_insertion(u, v, k)


def test_insertion_trivial_case():
    w = (2, 1, 3)
    assert check_rhoades_insertion(w, w, 1)


@settings(max_examples=80, deadline=None)
@given(
    st.permutations(tuple(range(1, 6))),
    st.permutations(tuple(range(1, 6))),
)
def test_random_pairs_agree_with_the_oracle(v, w):
    v, w = tuple(v), tuple(w)
    assert kl_polynomial(v, w) == kl_oracle(v, w)


# ---------------------------------------------------------------------------
# the on-the-spot invariants raise, and n is bounded before allocation

# P_{1324,3412} = 1+q: the recursion reaches the general branch for it
_V = (1, 3, 2, 4)
_W = (3, 4, 1, 2)


def _fresh_ids():
    """Tables of S_4 outside the `tables` cache, so corrupted values never
    reach the memo that other tests read."""
    t = hecke._Tables(4)
    return t, t.index[_V], t.index[_W]


@pytest.mark.parametrize('trimmed, message', [
    ((2,), 'KL constant term must be 1'),
    ((1, 0, 0, 0, 0, 0, 1), 'KL degree bound violated'),
])
def test_kl_invariants_raise(monkeypatch, trimmed, message):
    t, vid, wid = _fresh_ids()
    monkeypatch.setattr(hecke, 'qp_trim', lambda coeffs: trimmed)
    with pytest.raises(KLInvariantError, match=message):
        t.kl(vid, wid)


def test_oracle_constant_term_raises():
    t, vid, wid = _fresh_ids()
    t.rpoly = lambda xid, zid: ()
    with pytest.raises(KLInvariantError, match='oracle constant term must be 1'):
        t.kl_oracle_ids(vid, wid)


def test_oracle_bar_invariance_raises():
    # R-polynomials off by q^10: the low half that P is read from is
    # intact, the mirror identity is not
    t, vid, wid = _fresh_ids()
    clean = hecke._Tables(4)
    t.rpoly = lambda xid, zid: qp_add(clean.rpoly(xid, zid), qp_shift((1,), 10))
    with pytest.raises(KLInvariantError, match='bar-invariance failed'):
        t.kl_oracle_ids(vid, wid)


def test_kl_invariants_survive_optimize_flag():
    script = f'''
import sys
from klspecht import hecke
t = hecke._Tables(4)
hecke.qp_trim = lambda coeffs: (2,)
try:
    t.kl(t.index[{_V!r}], t.index[{_W!r}])
except hecke.KLInvariantError as err:
    print(sys.flags.optimize, err)
'''
    src = str(Path(klspecht.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, '-O', '-c', script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == '1 KL constant term must be 1'


def test_tables_refuses_n_above_the_bound_before_allocating(monkeypatch):
    def refuse(n):
        raise AssertionError(f'tables({n}) started allocating')

    monkeypatch.setattr(hecke, '_Tables', refuse)
    for n in (hecke.MAX_N + 1, 12):
        with pytest.raises(ValueError, match='too large'):
            hecke.tables(n)
    with pytest.raises(ValueError, match='too large'):
        kl_polynomial(tuple(range(1, 10)), tuple(range(9, 0, -1)))


def test_group_tables_match_direct_definitions():
    """The lex id order and lengths against `length`, the generator
    tables against s_j w and w s_j composed with `simple`, the descent
    and scan masks against the descent sets and lengths, and the downsets
    against `bruhat_leq`."""
    for n in range(1, 6):
        t = hecke._Tables(n)
        assert t.perms == all_perms(n)
        top = n * (n - 1) // 2
        assert len(t.scan) == top + 1
        # one column of n! ids per generator, none for S_1
        columns = t.rmult + t.lmult
        assert [len(col) for col in columns] == [len(t.perms)] * (2 * n - 2)
        for i, w in enumerate(t.perms):
            assert t.index[w] == i
            assert t.lengths[i] == length(w)
            for v, x in enumerate(t.perms):
                assert (t.down[i] >> v) & 1 == bruhat_leq(x, w), (x, w)
            for j in range(1, n):
                s = simple(j, n)
                assert t.perms[t.lmult[j - 1][i]] == multiply(s, w)
                assert t.perms[t.rmult[j - 1][i]] == multiply(w, s)
            assert t.ldesc[i] == sum(1 << (j - 1) for j in left_descents(w))
            assert t.rdesc[i] == sum(1 << (j - 1) for j in right_descents(w))
            for j in range(1, n):
                assert (t.smask[j - 1] >> i) & 1 == (j in left_descents(w))
            for low in range(top + 1):
                assert (t.scan[low] >> i) & 1 == (
                    length(w) >= low and (length(w) - low) % 2 == 0)
        # no bit beyond the last id
        for mask in t.smask + t.scan:
            assert mask >> len(t.perms) == 0


def _reference_tables(n):
    """The group tables built the slow, direct way: ids in lex order,
    both generator tables with `left_mult_s` and `right_mult_s`, and each
    downset as the union over the swaps of every inverted pair, not only
    the Bruhat covers.  Each swap is lex smaller, so its downset is built."""
    perms = all_perms(n)
    lengths = [length(w) for w in perms]
    index = {w: i for i, w in enumerate(perms)}
    lmult = [[index[left_mult_s(w, j)] for w in perms] for j in range(1, n)]
    rmult = [[index[right_mult_s(w, j)] for w in perms] for j in range(1, n)]

    def descents(mult):
        return [sum(1 << j for j, col in enumerate(mult)
                    if lengths[col[i]] < lengths[i])
                for i in range(len(perms))]

    ldesc = descents(lmult)
    smask = [sum(1 << i for i, m in enumerate(ldesc) if (m >> j) & 1)
             for j in range(n - 1)]
    scan = [sum(1 << i for i, ell in enumerate(lengths)
                if ell >= low and (ell - low) % 2 == 0)
            for low in range(n * (n - 1) // 2 + 1)]
    down = []
    for i, w in enumerate(perms):
        d = 1 << i
        for a in range(n - 1):
            for b in range(a + 1, n):
                if w[a] > w[b]:
                    v = list(w)
                    v[a], v[b] = v[b], v[a]
                    d |= down[index[tuple(v)]]
        down.append(d)
    return {'perms': perms, 'lengths': lengths, 'index': index,
            'scan': scan, 'lmult': lmult, 'rmult': rmult,
            'ldesc': ldesc, 'rdesc': descents(rmult), 'smask': smask,
            'down': down}


@pytest.mark.parametrize('n', [6, 7])
def test_group_tables_match_the_direct_construction(n):
    t = hecke._Tables(n)
    for field, want in _reference_tables(n).items():
        assert getattr(t, field) == want, field


def test_lex_rank_arithmetic_up_to_s8():
    """The rank arithmetic behind `rmult` and the inverse ids, checked on
    words up to S_8 without building a second `tables(8)`: at n = 8,
    right multiplication by s_j permutes each lex block of m! ranks,
    m = 9 - j, by pi_m, so pi_m for every m <= 8 covers its whole
    generator table, and the inverse ids are `_lex_inverse(8)`."""
    for m in range(2, 9):
        words = list(permutations(range(1, m + 1)))
        rank = {w: k for k, w in enumerate(words)}
        assert hecke._swap_first_two(m) == [rank[right_mult_s(w, 1)]
                                            for w in words], m
        assert hecke._lex_inverse(m) == [rank[inverse(w)] for w in words], m
    assert hecke._lex_inverse(1) == [0]


def _standardize(word):
    """The word of S_k whose letters are in the same relative order."""
    ranks = sorted(word)
    return tuple(ranks.index(x) + 1 for x in word)


def test_first_letter_slices_are_lifted_tail_downsets():
    """The rule behind `_bruhat_rows`, against `bruhat_leq` on every w
    and first letter b for n <= 6: with a = w[0] and x the standardized
    tail of w, the standardized tails of the v <= w with v[0] = b are
    the downset in S_{n-1} of x lifted by f_b, then f_{b+1}, ...,
    f_{a-2}, where f_c(y) is the longer of y and s_c y.  Each such slice
    is block b of the table's row of w, and the blocks past a are empty
    (v[0] > w[0] fails the first prefix test of `bruhat_leq`)."""
    for n in range(2, 7):
        t = hecke.tables(n)
        size = factorial(n - 1)
        tails = all_perms(n - 1)
        below = {y: {u for u in tails if bruhat_leq(u, y)} for y in tails}
        # words[b]: the v with v[0] = b, in the order of their tails
        words = [[(b,) + tuple(x + (x >= b) for x in y) for y in tails]
                 for b in range(n + 1)]
        for w in all_perms(n):
            a, row = w[0], t.down[t.index[w]]
            assert row >> (a * size) == 0, w
            for b in range(1, a + 1):
                got = {y for y, v in zip(tails, words[b]) if bruhat_leq(v, w)}
                top = _standardize(w[1:])
                for c in range(b, a - 1):
                    lifted = left_mult_s(top, c)
                    if length(lifted) > length(top):
                        top = lifted
                assert got == below[top], (w, b)
                block = (row >> ((b - 1) * size)) & ((1 << size) - 1)
                assert {tails[k] for k in range(size) if (block >> k) & 1} == got


def test_s8_rows_agree_with_bruhat_leq_on_seeded_pairs():
    """Rows of a fresh `_Tables(8)`, which no other test builds, against
    `bruhat_leq`: for 300 seeded w, five uniform v (mostly not below w),
    five v read off w's row, and five v made from w by swapping an
    inverted pair, which are all below w."""
    t = hecke._Tables(8)
    rng = random.Random(827)
    for _ in range(300):
        wid = rng.randrange(len(t.perms))
        w = t.perms[wid]
        row, bits = t.down[wid], bin(t.down[wid])[:1:-1]
        inversions = [(i, j) for i in range(8) for j in range(i + 1, 8)
                      if w[i] > w[j]]
        for _ in range(5):
            v = t.perms[rng.randrange(len(t.perms))]
            assert (row >> t.index[v]) & 1 == bruhat_leq(v, w), (v, w)
            # the first set bit from a seeded start, wrapping round
            k = bits.find('1', rng.randrange(len(bits)))
            assert bruhat_leq(t.perms[k if k >= 0 else bits.find('1')], w)
            if inversions:
                i, j = rng.choice(inversions)
                v = list(w)
                v[i], v[j] = w[j], w[i]
                assert (row >> t.index[tuple(v)]) & 1, (v, w)


def test_kl_agrees_with_the_oracle_on_seeded_pairs_of_s6():
    """Seeded Bruhat-comparable pairs of S_6, half of them with an even
    length gap of at least 4, where the recursion's z = v correction
    term cancels the q^{d/2} coefficient.  Fresh tables, so no pair is
    answered from a memo another test filled."""
    t = hecke._Tables(6)
    rng = random.Random(806)
    even, other = [], []
    while len(even) < 100 or len(other) < 100:
        vid, wid = rng.randrange(720), rng.randrange(720)
        if vid == wid or not t.leq(vid, wid):
            continue
        d = t.lengths[wid] - t.lengths[vid]
        bucket = even if d >= 4 and d % 2 == 0 else other
        if len(bucket) < 100:
            bucket.append((vid, wid))
    for vid, wid in even + other:
        assert t.kl(vid, wid) == t.kl_oracle_ids(vid, wid), (
            t.perms[vid], t.perms[wid])
    assert any(len(t.kl(vid, wid)) > 1 for vid, wid in even)


def test_recursion_fits_a_small_limit():
    """Each recursive route works on a strictly shorter Bruhat interval,
    so its depth stays below the length of w0: importing the package
    must not raise the interpreter's limit, and the heaviest routes run
    under a limit of 200."""
    script = '''
import sys
before = sys.getrecursionlimit()
import klspecht, klspecht.cli
from klspecht import hecke, specht, symgroup, tableaux
print(before, sys.getrecursionlimit())
sys.setrecursionlimit(200)
print(hecke.kl_polynomial(symgroup.identity(7), tuple(range(7, 0, -1))))
for shape in tableaux.partitions(7):
    specht.matrix_of(shape, symgroup.long_cycle(7))
print(hecke.kl_oracle(symgroup.identity(6), tuple(range(6, 0, -1))))
'''
    src = str(Path(klspecht.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, '-c', script],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    limits, kl, oracle = proc.stdout.split('\n')[:3]
    before, after = limits.split()
    assert before == after
    assert kl == oracle == '(1,)'


def _descent_rule_fires(v, w):
    """Does w have a left or right descent that v lacks?  Read off the
    words by `symgroup`, apart from the tables' descent masks."""
    return bool(left_descents(w) - left_descents(v)
                or right_descents(w) - right_descents(v))


def test_mu_is_the_oracle_top_coefficient_on_s5():
    """mu on every comparable pair of S_5, both ways round, against the top
    coefficient of the oracle's polynomial.  Where the gap is odd and 3
    or more and w has a descent that v lacks, mu reads 0 without a call
    to `kl`: on 1408 of the 1446 such pairs.  The rule leaves pairs whose
    mu is 1 at a gap of 3 or more to the polynomial."""
    t = hecke._Tables(5)
    calls = []
    real = t.kl
    t.kl = lambda vid, wid: calls.append(vid) or real(vid, wid)
    odd = fired = computed = 0
    for vid, v in enumerate(t.perms):
        for wid, w in enumerate(t.perms):
            if vid == wid or not t.leq(vid, wid):
                continue
            d = t.lengths[wid] - t.lengths[vid]
            want = qp_coeff(t.kl_oracle_ids(vid, wid), d >> 1) if d & 1 else 0
            calls.clear()
            assert t.mu_ids(vid, wid) == t.mu_ids(wid, vid) == want, (v, w)
            if d >= 3 and d & 1:
                odd += 1
                if _descent_rule_fires(v, w):
                    assert calls == [] and want == 0, (v, w)
                    fired += 1
                else:
                    computed += want == 1
    assert (odd, fired) == (1446, 1408)
    assert computed > 0


def test_kl_equals_the_oracle_on_every_pair_of_s5():
    """`kl`'s correction scan skips each mu(z, u) the descent rule makes 0;
    every polynomial of S_5 still equals the oracle's."""
    t = hecke._Tables(5)
    for vid in range(120):
        for wid in range(120):
            assert t.kl(vid, wid) == t.kl_oracle_ids(vid, wid), (
                t.perms[vid], t.perms[wid])


def test_mu_agrees_with_the_oracle_on_seeded_pairs_of_s6():
    """Seeded comparable pairs of S_6 with an odd gap of at least 3: 60
    where the descent rule fires and 60 where it does not, on fresh
    tables each, so no answer comes from a memo the other filled."""
    t = hecke._Tables(6)
    rng = random.Random(637)
    fires, other = [], []
    while len(fires) < 60 or len(other) < 60:
        vid, wid = rng.randrange(720), rng.randrange(720)
        d = t.lengths[wid] - t.lengths[vid]
        if d < 3 or not d & 1 or not t.leq(vid, wid):
            continue
        bucket = fires if _descent_rule_fires(t.perms[vid], t.perms[wid]) else other
        if len(bucket) < 60:
            bucket.append((vid, wid, d))
    for pairs in (fires, other):
        fresh = hecke._Tables(6)
        got = [fresh.mu_ids(vid, wid) for vid, wid, _ in pairs]
        want = [qp_coeff(t.kl_oracle_ids(vid, wid), d >> 1) for vid, wid, d in pairs]
        assert got == want
    assert not any(qp_coeff(t.kl_oracle_ids(v, w), d >> 1) for v, w, d in fires)
    assert any(qp_coeff(t.kl_oracle_ids(v, w), d >> 1) for v, w, d in other)
