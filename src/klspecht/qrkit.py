"""
Exact QR factorization over Q and the theorem verifiers built on it.

`exact_qr` is one integer elimination: Bareiss without pivoting on the
rows of [M'^T M' | M'^T], M' = L M free of denominators (`_bareiss`),
leaves row k as [D_k u_k^T M' | D_k u_k^T], with u_k column k of M' less
its projection on the earlier columns and pivot D_{k+1} = D_k |u_k|^2
(D_0 = 1), zero only for singular M (`SingularMatrixError`).  Q and R are
the right and left halves over s_k = sqrt(D_k D_{k+1}) and s_k L; an
irrational s_k (`IrrationalNormError`) rules out a signed-permutation Q.
`QRInvariantError` (also under `python -O`) names a failed self-check.

thm1 and thm4 assert that Q is a given signed permutation P.  QR of an
invertible matrix is unique, so that holds exactly when P^T M is upper
triangular with a positive diagonal: row P(c) of M vanishes left of
column c and is nonzero in column c, with the sign of column c of P.
That pivot test reads the integer entries of M's packed rows
(`_pivot_test`, below) in O(d^2) without factoring.

One signed-triangularity test stands for every order weakly increasing
in a rank (`_block_signs`): row phi(T) vanishes on every column of
smaller rank and on T's classmates, and holds +-1 at T.  The pivot at T
is the entry (phi(T), T) whatever the order, and the columns such an
order can put before T are exactly those of smaller rank and T's
classmates.  The pivot test in rank order tests the smaller-rank
columns and the earlier classmates, the one in rank order with each
class reversed the later ones; so every such order passes the pivot
test when both pass, with the same pivots.  thm1 runs it on M(c) in the
ranks of the tableau index, thm4 on each M(w_J) in the ranks of J's
preorder, as condition (a) below.  Each verdict also holds the signs to
the rule the check expects, at every position; the expected sign
depends only on the class, so the value check implies constancy.  A
check whose verdicts hold passes on them, with no matrix and no
decision.  Only where a verdict fails is a check decided on its own
(`_decide`), which names its failures, and unpacks M and runs
`exact_qr` only when its pivot test fails.
`exact_qr` remains the factorization behind the `qr` command and the
basis-order loop shared by `search_ordering` and `verify_counterexample`.

The verifiers check matrices of the Specht module action:

* `verify_thm1`: the long cycle c = (2, ..., n, 1) acts, in any basis
  order weakly increasing in the tableau index, by Q R with Q the signed
  permutation matrix of jeu de taquin promotion, signs constant on index
  classes (and, by a rule observed up to n = 8, of value (-1)**(r_i - 1)
  on class i, r_i the row of removable box i; see `verify_thm1`), and
  the matrix itself supports columns only on promotions of
  tableaux of weakly smaller index.  Whether every such order passes at
  once depends on the shape alone, and is decided once per shape
  (`_thm1_pivots`): `_block_signs` of M(c) in the ranks of the index,
  each pivot the sign the rule gives.  Its test implies that support:
  row pr(T) vanishes on every column of smaller index, and the lead
  entry of T is its pivot.  Every check then passes on those pivots,
  shared read-only by its report.  Only in a module that fails this is
  each order decided on its own, with its leading terms read column by
  column when its pivot test fails or some pivot is not +-1, which names
  its failures.
* `verify_thm4_chain`: for a chain J_1 < ... < J_k of connected
  generator subsets, w = w_{J_k} ... w_{J_1} acts by Q R with Q the
  signed permutation of the composite partial-evacuation symmetry phi =
  phi_{J_k} ... phi_{J_1}, signs constant on the blocks of the composite
  preorder; a one-member chain also checks the value of each class's
  sign, by a rule observed up to n = 8 (see `verify_thm4_chain`).
  Everything a check shares with other checks is derived once (see
  "Shared thm4 state" below).  A chain, of one member or more, then
  costs its cached record and one probe per member of its shape's
  verdict table (`_Verdicts`): it passes when each member has the block
  structure below and the signs of that rule.  Only in a module that
  fails that does a chain cost one extension of the state of the chain
  without J_k and the decision.
* `verify_counterexample`: for the non-separable w = 2413 on shape
  (3, 1), no basis order at all yields a signed-permutation Q.
* `search_ordering`: brute-force the basis orders of a small module for
  one that makes QR of [w] a signed permutation.

The verifiers' matrices are built once per shape in the total index
order, each keyed by what it is built from.  thm1 reads M(c) as the
packed fold of a reduced word of c (`_long_cycle`).  thm4 builds
M(w_J) only for the blocks J = {p, ..., n-1}: the packed fold of
s_{n-1} ... s_p on the cached M(w_{J'}), J' = J without p, read off the
nonzero slots of its packed rows (on the identity for |J| = 1;
`_block_factor`).  Every other J is decided on the shapes one box
smaller (see "Block structure").  It checks their block structure once
(`_j_signs`) and multiplies no chain.  Its one long route, for a module
where that structure fails, packs the fold of a reduced word of the
chain's w (`_chain_matrix`); a J with q < n that a module failing B
checks on its own shape packs that of w_J.  Matrices are
never reindexed on a passing check: reordering a basis conjugates every
factor by the same permutation, so a check reads the total index order
through its basis order, and a failing check reindexes its matrix once,
to exactly `matrix_of` of w in the checked order.  `matrix_of`
itself is not cached: a caller sweeping all of S_n would otherwise keep
n! matrices alive.

Packed rows.  The pivot test reads `specht`'s packed rows (see its
docstring) at any slot width: the width each fold picks from its word
(32 bits for M(c) up to n = 8, where its entry bound needs at most 17).
With the bias word, a column's pivot test is one and with the mask of
the columns before it, and its pivot is one extract, one subtraction
and one shift (`_pivot_test`).

Validation happens at the boundary.  `verify_thm1` checks a caller's
order once, by cell position (it must list every tableau of the shape
exactly once, weakly increasing in index); `verify_thm4_chain` validates
a chain once per n (its record, `_chain_data`); `phi_connected` and
`preorder_connected` check their tableau or shape.  A shape the caches
cannot hash (a list) gets `check_partition`'s ValueError from
`specht.cell`, which `verify_thm4_chain` calls when its own caches fail
to hash it.  The per-shape tables
are read off the cells of the shape and of the shapes one box smaller,
with no tableau work and no check; the verifiers then work on positions
only.

For a connected J = {p, ..., q-1} (positions p..q, block size
m = q-p+1), the tableau symmetry is phi_J = ev_q ev_m ev_q and the
preorder compares, lexicographically, the chain of index labels obtained
by peeling the largest n-m entries off ev_q(T); chains compare their
members' keys outermost first and break final ties by the total index
order.

Shared thm4 state.  None of it depends on the order in which chains are
checked, so a sweep in DFS order and a caller checking single chains in
any order take the same path and get the same reports.

* The chain record, per (chain, n) (`_chain_data`): the blocks (p, q),
  each validated once per (J, n) by its members' integer values, min,
  max and size (`_block`), the product w of their longest elements,
  read off the blocks, and each J as a tuple shared by every record
  (`_member`).  It is cached on the chain as the caller gives it, so a
  sweep's tuple of frozensets is its own key; a list, or a tuple the
  cache cannot hash, is converted to a tuple of frozensets first.  A
  report holds the record's member tuples as its chain until it
  renders, which gives it fresh lists.
* Per-shape tables, by position in the total index order: inverse
  promotion (`_inverse_promotion_table`), promotion for thm1, its
  inverse permutation (`_promotion_table`), and ev_k for each k
  (`_evacuation_table`).  All are read off the shapes one box smaller,
  and none slides a tableau.  ev_k for k <= n-1 fixes n, so it is the
  smaller shapes' table, one index class at a time, and ev_n is ev_{n-1}
  after pr^-1.  For pr^-1, let T be in index class i, with n at box b,
  T' = T - n in lambda - b, and u = pr^-1(T'), which writes n-1 at a
  corner c of lambda - b.  n is the largest entry, so the hole of the
  reverse slide on T follows its path on T' to c.  If b is directly
  right of or below c, the hole moves on into b: pr^-1(T) is u with n
  at b, at class i's first position plus u's.  Otherwise the hole stops
  at c, and pr^-1(T) has n at c and n-1 at b: it lies in class c of
  lambda, at the first position of class b of lambda - c, plus u's
  position in lambda - b - c, which is u's less the first position of
  class c of lambda - b.  So each index class of lambda - b maps by one
  shift.  The index labels of each tableau peeled down to one box (the
  total index key without its last label) are the cell's `peels`, kept
  as the cell is assembled.
* Per (shape, J), one table composed from those and the peel keys
  (`_j_table`): phi_J = ev_q ev_m ev_q (`_phi_table`, which (c) below
  reads alone), and the dense rank of the preorder key, the first n-m
  labels of the peel of ev_q(T) (`_j_keys`).  A chain reads it once per
  J: its basis order sorts positions on the rank lists, outermost J
  first, and its class keys combine the ranks.  The str of each key is
  built on first read (`_j_texts`), only to label a class: when a report
  renders its signs, or a check names a sign that flips
  (`_class_labels`), so a passing text sweep builds none.
  `phi_connected` and `preorder_connected` evacuate and peel each
  tableau directly (`_preorder_key` reads the total index key of
  ev_q(T)): a route apart from the tables, which are tested against it.
* Block structure, per (shape, J), checked once (`_j_signs`).  Three
  conditions, observed on all 1205 (shape, J) pairs with 3 <= n <= 8 and
  checked at run time, not assumed, in the rank of J's preorder:
  (a) M(w_J) is block upper triangular (entry (r, c) is nonzero only when
      rank[r] <= rank[c]), and inside each diagonal block its only entries
      are +-1 at (phi_J(c), c);
  (b) every s_j with j in J is block upper triangular;
  (c) phi_{J'} keeps the rank for every connected J' <= J.
  Given (c), phi_J keeps the rank, and (a) is `_block_signs` of M(w_J)
  with phi_J in that rank.  For J = {1, ..., n-2} the rank is the
  tableau index, and (a) is the filtration whose blocks B (below)
  compares with S_{n-1}.  For J = {1, ..., n-1}, one class, (a) says
  M(w0) = eps P_ev, the signed evacuation of Berenstein-Zelevinsky and
  Stembridge.  `_j_signs` returns the sign of each column's
  diagonal-block entry, or None, and `_j_verdict` whether each of those
  signs is the one-member rule's, evaluated once per class of the rank:
  the verdict that passes every chain whose members all have it, kept in
  one table per shape, keyed by (p, q) (`_Verdicts`).
  Every J = {p, ..., q-1} with q <= n-1 lies in S_{n-1}, and is decided
  on the shapes mu_i = lambda - box i when B(lambda, j) holds for each j
  in J (`_inherits`).  B, which `specht._b_failures` tests once per
  (shape, j) for this module and for both specht reports: no entry of
  s_j sits in a row of larger index than its column, and each diagonal
  index block, shifted by its class's first position, has exactly the
  (column, entry) pairs of s_j on mu_i.  Index class i is
  SYT(mu_i) with n at box i (`specht._Cell`), and ev_k for k <= n-1
  never moves n, so on class i phi_J is mu_i's, shifted, and the
  one-member rule, which reads only the entries <= m of ev_q(T), is
  mu_i's.  The peel key is (i,) + mu_i's, so the rank of J compares
  (index, rank on mu_i) lexicographically.  Under B, M(w_J) and every
  s_j with j in J are index-block upper triangular with mu_i's matrices
  as their diagonal blocks, and an entry above those blocks lies in a
  row of smaller rank.  So (a)-(c) and the rule hold on lambda exactly
  when they hold on every mu_i: J's signs are the concatenation of the
  mu_i's signs and its verdict the AND of theirs, with no rank table,
  factor or slide of lambda's.  Only J = {p, ..., n-1}, and a J of a
  module that fails B, is checked on lambda itself: n-1 factors per
  shape, not n(n-1)/2.
* Chain states: per (shape, blocks of a chain), the basis order, an int
  class key per position, the composite phi and the pivots (None when
  the chain fails), all by position (`_ChainState`).  Only equality of
  keys is read: two positions are in one class when all their ranks
  agree.  The empty chain's state is the identity: the total index
  order, key 0 everywhere, phi = id and every pivot +1.  Every chain
  C + J grows from the state of C by one rule, in O(d) small steps: the
  order is C's order sorted stably on the rank of J, each key is C's key
  times d plus J's rank (ranks are below d), and phi is phi_J after C's
  phi.  When (a)-(c) hold for J and C passed, C + J passes with the
  pivot at x equal to J's sign at phi_C(x) times C's pivot at x.  By (b),
  M(C) is block upper in J's rank, and by (c) phi_C keeps that rank, so
  in C + J's order row phi_J phi_C(x) of M(w_J) M(C) vanishes on every
  column before x and is that product at x.  So a one-member chain has
  J's rank order, J's rank as its keys and J's signs as its pivots, and
  J = {1, ..., n-1}, whose rank is 0 everywhere, keeps C's order and
  classes.  Otherwise, only in a module that fails (a)-(c), the state
  runs the pivot test on `_chain_matrix`.  A check builds the state of a
  chain only when a member lacks its verdict, and decides on it; any
  other chain's report builds its state when it renders
  (`_thm4_fields`), so a text sweep builds none.
* Store: the states of the chains that extend further, the empty chain
  among them, in an lru_cache of 2048 entries on `_chain_state`.  A
  chain ending in J = {1, ..., n-1} extends no other and is built
  uncached (`_thm4_state`).  A sweep that reads no record stores none.
  One that renders every record stores 1575 up to n = 6, so in any order
  it builds each once there; one shape's states fit at n = 7 and 8 (at
  most 396 and 1352), so a sweep shape by shape builds each once there
  too, and a state an eviction drops is rebuilt from its own prefix's,
  also when a report renders late.

Reports.  A check decided on its own (`_decide`) works on positions and
integer class keys.  Each order lists every class contiguously (thm4's
is sorted on the composite key, thm1's is index-monotone), so `_decide`
checks sign constancy in one pass, where the key changes, and the value
of each class's sign at the class's first position.  A report keeps at
once what a text line reads (passed, failures, shape, timing and thm4's
chain) and renders its ordering, signs and the label-bearing witness
entries from positions on first read (`_thm1_fields`, `_thm4_fields`;
see `CheckReport`).  Their arguments are the shared lists of the chain
state, which holds no matrix, or, for a thm4 chain that passed on its
members' verdicts, the chain's blocks alone; a thm1 report that passed
on its shape's verdict shares that verdict's pivots.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _permutations, repeat
from math import isqrt, lcm
from operator import le, mul
from random import Random
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .jdt import _partial_evacuate
from .reports import CheckReport
from .specht import (
    Matrix,
    QRInvariantError,
    _b_failures,
    _Packed,
    _read_terms,
    _refuse_unordered,
    _reindexed,
    _Terms,
    _words,
    cell,
    mat_reindex,
    matrix_entries,
    matrix_of,
    total_index_order,
)
from .symgroup import Perm, long_cycle, reduced_word
from .tableaux import (
    Partition,
    Tableau,
    _removable_boxes,
    _remove_box,
    _total_index_key,
    check_partition,
    check_standard,
    format_tableau,
    shape_of,
)

__all__ = [
    'IrrationalNormError',
    'QRFactorization',
    'QRInvariantError',
    'SignedPermutation',
    'SingularMatrixError',
    'all_connected_chains',
    'as_signed_permutation',
    'exact_qr',
    'phi_connected',
    'preorder_connected',
    'random_index_monotone_order',
    'search_ordering',
    'verify_counterexample',
    'verify_thm1',
    'verify_thm4_chain',
]


class SingularMatrixError(ValueError):
    """The columns are linearly dependent; QR needs full rank."""


class IrrationalNormError(ArithmeticError):
    """A Gram-Schmidt squared norm is not a rational square, so the
    orthonormal factor leaves the rationals."""

    def __init__(self, column: int, norm2: Fraction):
        super().__init__(
            f'column {column}: squared norm {norm2} is not a rational square'
        )
        self.column = column
        self.norm2 = norm2


class QRFactorization(NamedTuple):
    q: Matrix
    r: Matrix


class SignedPermutation(NamedTuple):
    """Q with exactly one entry +-1 per row and column: column c carries
    sign signs[c] into row target[c]."""

    target: tuple[int, ...]
    signs: tuple[int, ...]


def _cleared(m: Matrix) -> tuple[int, list[list[int]]]:
    """L = lcm of the denominators of m's int or Fraction entries, and L m.
    An entry with no denominator, a float say, raises TypeError."""
    try:
        scale = lcm(*(x.denominator for row in m for x in row))
    except AttributeError:
        matrix_entries(m)  # raises the TypeError naming that entry
        raise
    return scale, [[x.numerator * (scale // x.denominator) for x in row]
                   for row in m]


def _bareiss(cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """Bareiss without pivoting on [M^T M | M^T], M of these columns."""
    rows = [[sum(map(mul, a, b)) for b in cols] + list(a) for a in cols]
    prev = 1
    for k, top in enumerate(rows):
        p = top[k]
        if not p:
            raise SingularMatrixError(f'column {k} depends linearly on '
                                      'earlier columns')
        for row in rows[k + 1:]:
            f = row[k]
            if f or p != prev:  # else the row stays as it is
                row[:] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
    return rows


def exact_qr(m: Matrix) -> QRFactorization:
    """Exact QR with orthonormal Q and positive upper-triangular R.

    >>> f = exact_qr([[0, 1], [1, 0]])
    >>> f.q == [[0, 1], [1, 0]] and f.r == [[1, 0], [0, 1]]
    True
    """
    d = len(m)
    if d == 0 or any(len(row) != d for row in m):
        raise ValueError('exact_qr needs a nonempty square matrix')
    scale, cols = _cleared(list(zip(*m)))
    rows = _bareiss(cols)
    us = [row[d:] for row in rows]
    q_cols, r, det = [], [], 1  # det = D_k
    for k, (row, u) in enumerate(zip(rows, us)):
        s2 = det * row[k]
        if [sum(map(mul, u, v)) for v in us[:k + 1]] != [0] * k + [s2]:
            raise QRInvariantError('Q is not orthonormal')
        if row[:d] != [sum(map(mul, u, col)) for col in cols]:
            raise QRInvariantError('QR != M')
        if not row[k] > 0:
            raise QRInvariantError('R diagonal must be positive')
        if any(row[:k]):
            raise QRInvariantError('R must be triangular')
        s = isqrt(s2)
        if s * s != s2:
            raise IrrationalNormError(k, Fraction(row[k], det * scale * scale))
        q_cols.append(_over(u, s))
        r.append(_over(row[:d], s * scale))
        det = row[k]
    return QRFactorization(q=[list(row) for row in zip(*q_cols)], r=r)


def _over(xs: Sequence[int], s: int) -> list[Fraction]:
    """Each x / s, as one shared Fraction per distinct x."""
    value = {x: Fraction(x, s) for x in set(xs)}
    return list(map(value.__getitem__, xs))


def as_signed_permutation(m: Matrix) -> SignedPermutation | None:
    """Read m as a signed permutation matrix, or None.  m must be square
    (`ValueError` otherwise); [] is the empty permutation.

    >>> as_signed_permutation([[1, 1], [0, 1]]) is None
    True
    """
    d = len(m)
    if any(len(row) != d for row in m):
        raise ValueError('as_signed_permutation needs a square matrix')
    target = []
    signs = []
    for c in range(d):
        hits = [r for r in range(d) if m[r][c] != 0]
        if len(hits) != 1:
            return None
        r = hits[0]
        if m[r][c] not in (1, -1):
            return None
        signs.append(1 if m[r][c] > 0 else -1)
        target.append(r)
    if sorted(target) != list(range(d)):
        return None
    return SignedPermutation(tuple(target), tuple(signs))


# ---------------------------------------------------------------------------
# the pivot test on packed rows

def _pivot_test(p: _Packed, ids: Sequence[int],
                image: Sequence[int]) -> list[int] | None:
    """The pivots of p reindexed to the basis order ids, with column c
    sent to the row of image[ids[c]], by position, read off the packed
    rows: row image[i] must vanish on the columns ids[:c] before c and not
    on i, and its entry on i is pivots[i].  None if some row fails."""
    width = p.width
    bias, slots, tops, _ = _words(len(p.rows), width)
    rows = p.rows
    before = 0
    pivots = [0] * len(rows)
    for i in ids:
        biased = rows[image[i]] + bias
        if (biased ^ bias) & before:
            return None
        v = ((biased & slots[i]) - tops[i]) >> i * width
        if not v:
            return None
        pivots[i] = v
        before |= slots[i]
    return pivots


def _block_signs(p: _Packed, image: Sequence[int],
                 rank: Sequence[int]) -> list[int] | None:
    """The pivots of p by position when row image[i] vanishes on every
    column of smaller rank than i and on i's classmates and holds +-1 at
    i, else None: the pivot test in rank order and in rank order with
    each class reversed (see the module docstring)."""
    d = len(rank)
    pivots = _pivot_test(p, sorted(range(d), key=rank.__getitem__), image)
    if (pivots is None or any(v != 1 and v != -1 for v in pivots)
            or _pivot_test(p, sorted(range(d - 1, -1, -1),
                                     key=rank.__getitem__), image) is None):
        return None
    return pivots


def _qr_failures(m: Matrix, target: Sequence[int], labels: Sequence[str],
                 symmetry: str) -> list[str]:
    """Why QR of m does not realize c -> target[c], once the pivot test
    has said so: `exact_qr` runs only here, to name the failure."""
    try:
        fact = exact_qr(m)
    except IrrationalNormError as err:
        return [f'no rational QR: {err}']
    sp = as_signed_permutation(fact.q)
    if sp is None:
        return ['Q is not a signed permutation matrix']
    for c, r in enumerate(sp.target):
        if r != target[c]:
            return [f'Q sends {labels[c]} to row {r}, '
                    f'but {symmetry} sits at row {target[c]}']
    raise QRInvariantError('exact_qr realizes a signed permutation '
                           'that the pivot test rejected')


# ---------------------------------------------------------------------------
# basis orders

def random_index_monotone_order(shape: Partition, rng: Random) -> tuple[Tableau, ...]:
    """Shuffle each index class of the total index order in place."""
    cl = cell(shape)
    out: list[Tableau] = []
    for members in cl.classes.values():
        block = [cl.tableaux[k] for k in members]
        rng.shuffle(block)
        out.extend(block)
    return tuple(out)


# ---------------------------------------------------------------------------
# the decision shared by thm1 and thm4

def _inverse(perm: Sequence[int]) -> list[int]:
    """inv[perm[i]] = i."""
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


@lru_cache(maxsize=None)
def _block_factor(shape: Partition, p: int, q: int) -> _Packed:
    """M(w_J) in the total index order for J = {p, ..., q-1}, packed.  For
    q = n, w_J = s_{n-1} ... s_p w_{J'} with J' = J - {p}, so it is the fold
    of s_{n-1} ... s_p on M(w_{J'}), as the terms of s_{n-1} for |J'| = 1
    and otherwise read off the nonzero slots of its factor (on the identity
    for |J| = 1): n(n-1)/2 products per shape.  A J with q < n is decided
    on the shapes one box smaller (`_inherits`) unless the module fails
    B, and only then is its factor built, as the packed fold of a reduced
    word (`_chain_matrix`)."""
    if q < sum(shape):
        return _chain_matrix(shape, ((p, q),))
    cl = cell(shape)
    start = (None if q == p + 1 else cl.generator_terms(q - 1) if q == p + 2
             else _read_terms(_block_factor(shape, p + 1, q)))
    return cl.fold(range(q - 1, p - 1, -1), start)


@lru_cache(maxsize=None)
def _long_cycle(shape: Partition) -> _Packed:
    """M(c) in the total index order: the fold of a reduced word of c."""
    return cell(shape).fold(reduced_word(long_cycle(sum(shape))))


def _decide(shape: Partition, p: _Packed | None, ids: Sequence[int],
            image: Sequence[int], keys: Sequence[int],
            pivots: Sequence[int] | None, symmetry: str,
            blocks: tuple[tuple[int, int], ...] | None,
            sign_of: Callable[[int], int] | None) -> list[str]:
    """Why Q of the packed matrix p (total index order), reindexed to the
    basis order `ids` (cell positions), is not the signed permutation of
    the tableau symmetry i -> image[i] (cell positions) with signs
    constant on classes, given the pivots by position (`_pivot_test`;
    None when that fails).  Positions i and j are in one class when
    keys[i] == keys[j], and `ids` lists each class contiguously, so a sign
    may change only where the key does.  `blocks` names the classes (see
    `_class_labels`).  Each class's sign, that of its first pivot, must
    also be sign_of(i) at its first position i, unless sign_of is None.

    Only a failing check unpacks p or renders a label, to name its
    failure; a passing one never reads p, which thm4 leaves None."""
    if pivots is None:
        pos = _inverse(ids)
        target = [pos[image[i]] for i in ids]
        return _qr_failures(_reindexed(p, ids), target,
                            _labels(shape, ids), symmetry)
    failures = []
    word = 'index class' if blocks is None else 'class'
    key = None
    for i in ids:
        if keys[i] != key:
            key, positive = keys[i], pivots[i] > 0
        elif (pivots[i] > 0) != positive:
            failures.append(f'sign flips inside {word} '
                            f'{_class_labels(shape, blocks)[i]}')
    if sign_of is not None:
        failures += [f'{word} {_class_labels(shape, blocks)[i]} has sign '
                     f'{s:+d}, expected {-s:+d}' for i, s in
                     _signs(range(len(ids)), ids, keys, pivots).items()
                     if s != sign_of(i)]
    return failures


def _labels(shape: Partition, ids: Sequence[int]) -> tuple[str, ...]:
    """The label of each tableau of the basis order ids."""
    return tuple(map(cell(shape).labels.__getitem__, ids))


def _class_labels(shape: Partition,
                  blocks: tuple[tuple[int, int], ...] | None) -> list[str]:
    """The label of each position's class, by position: thm1's index
    (blocks None), or the str of the composite key of the chain of these
    blocks, a tuple of its members' key tuples, outermost first."""
    if blocks is None:
        return list(map(str, cell(shape).indexes))
    if len(blocks) == 1:
        return [f'({text},)' for text in _j_texts(shape, *blocks[0])]
    texts = [_j_texts(shape, p, q) for p, q in reversed(blocks)]
    return [f'({text})' for text in map(', '.join, zip(*texts))]


def _signs(names: Sequence, ids: Sequence[int], keys: Sequence[int],
           pivots: Sequence[int]) -> dict:
    """The sign of each class's first pivot, by the name of the class's
    first position (`ids` lists each class contiguously, see `_decide`)."""
    signs = {}
    key = None
    for i in ids:
        if keys[i] != key:
            key = keys[i]
            signs[names[i]] = 1 if pivots[i] > 0 else -1
    return signs


@lru_cache(maxsize=None)
def _inverse_promotion_table(shape: Partition) -> tuple[int, ...]:
    """pr^-1(tableaux[i]) = tableaux[table[i]], read off the shapes one
    box smaller with no slide: on index class i, box b of lambda, each
    index class k of lambda - b, box c, maps by one shift (see the module
    docstring)."""
    cl = cell(shape)
    boxes = _removable_boxes(shape)
    table: list[int] = []
    for (start, small), b in zip(cl.smaller, boxes):
        sub = cell(small)
        shift = {}
        for k, (r, c) in enumerate(_removable_boxes(small), start=1):
            if b in ((r, c + 1), (r + 1, c)):
                shift[k] = start
            else:
                rest = cell(_remove_box(shape, r))
                at = rest.classes[_removable_boxes(rest.shape).index(b) + 1][0]
                shift[k] = (cl.classes[boxes.index((r, c)) + 1][0] + at
                            - sub.classes[k][0])
        table += [u + shift[sub.indexes[u]]
                  for u in _inverse_promotion_table(small)]
    return tuple(table) or (0,)  # (1,): the identity


@lru_cache(maxsize=None)
def _promotion_table(shape: Partition) -> tuple[int, ...]:
    """pr(tableaux[i]) = tableaux[table[i]]: the inverse permutation of
    `_inverse_promotion_table`."""
    return tuple(_inverse(_inverse_promotion_table(shape)))


def _thm1_sign(shape: Partition) -> Callable[[int], int]:
    """The sign thm1 expects at each position i, as a function of i:
    (-1)**(r - 1), r the row of the removable box of i's index."""
    rows, indexes = [r for r, _ in _removable_boxes(shape)], cell(shape).indexes
    return lambda i: (-1) ** (rows[indexes[i] - 1] - 1)


@lru_cache(maxsize=None)
def _thm1_pivots(shape: Partition) -> list[int] | None:
    """M(c)'s pivots by position when every index-monotone order passes
    thm1, else None: `_block_signs` in the ranks of the tableau index,
    with each pivot the sign `_thm1_sign` expects there (see the module
    docstring).  The result is shared with the cache and with every
    report: callers must not change it."""
    indexes = cell(shape).indexes
    want = list(map(_thm1_sign(shape), range(len(indexes))))
    pivots = _block_signs(_long_cycle(shape), _promotion_table(shape), indexes)
    return pivots if pivots == want else None


# ---------------------------------------------------------------------------
# the long-cycle check

def verify_thm1(shape: Partition,
                order: Sequence[Tableau] | None = None) -> CheckReport:
    """QR-factor the long cycle action and compare Q with promotion.

    Also checks the value of each index class's sign against the rule
    observed on every shape up to n = 8 (the statement quoted in PAPER.md
    stops before the sign): index class i has sign (-1)**(r_i - 1), r_i
    the row of removable box i, counted from 1 at the top.

    Whether M(c) passes is decided once per shape, for every
    index-monotone order at once (`_thm1_pivots`, see the module
    docstring), so a check validates the caller's order, by cell position
    and index, and passes on the shape's pivots.  Only in a module that
    fails that verdict is each order decided on its own pivot test,
    which names its failures."""
    t0 = time.perf_counter()
    cl = cell(shape)
    ids = cl.positions(order)
    indexes = cl.indexes
    seen = list(map(indexes.__getitem__, ids))
    if seen != sorted(seen):
        raise ValueError('order must be weakly increasing in tableau index')
    pivots = _thm1_pivots(shape)
    if pivots is not None:
        failures = []
    else:
        packed = _long_cycle(shape)
        table = _promotion_table(shape)
        pivots = _pivot_test(packed, ids, table)
        failures = _decide(shape, packed, ids, table, indexes, pivots,
                           'promotion', None, _thm1_sign(shape))
        # in an index-monotone order, passing pivots of +-1 imply the
        # leading terms (see the module docstring)
        if pivots is None or any(v != 1 and v != -1 for v in pivots):
            pos = _inverse(ids)
            failures = _leading_term_failures(
                _reindexed(packed, ids), [pos[table[i]] for i in ids],
                seen, _labels(shape, ids)) + failures
    return CheckReport(
        theorem='thm1',
        passed=not failures,
        shape=tuple(shape),
        failures=failures,
        timing=time.perf_counter() - t0,
        render=(_thm1_fields, shape, ids, pivots),
    )


def _thm1_fields(shape: Partition, ids: Sequence[int],
                 pivots: Sequence[int] | None) -> tuple:
    """The ordering, signs and witness of a thm1 report (see
    `CheckReport`)."""
    pos = _inverse(ids)
    table = _promotion_table(shape)
    signs = None if pivots is None else _signs(
        _class_labels(shape, None), ids, cell(shape).indexes, pivots)
    return (_labels(shape, ids), signs,
            {'cycle': list(long_cycle(sum(shape))),
             'promotion': [pos[table[i]] for i in ids]})


def _leading_term_failures(mat: Matrix, prom: Sequence[int],
                           idx: Sequence[int], labels: Sequence[str]) -> list[str]:
    """What breaks the leading-term shape of the long cycle's matrix in
    the checked basis order, column by column."""
    d = len(mat)
    origin = _inverse(prom)  # origin[prom[c]] = c
    failures = []
    for c in range(d):
        lead = mat[prom[c]][c]
        if lead not in (1, -1):
            failures.append(
                f'column {labels[c]} has {lead} at its promotion row'
            )
        for r in range(d):
            if mat[r][c] and idx[origin[r]] > idx[c]:
                failures.append(
                    f'column {labels[c]} leaks onto the promotion '
                    f'of a larger-index tableau (row {r})'
                )
    return failures


# the seeded index-monotone reorders `thm1_shape_reports` checks per shape
_THM1_SHUFFLES = 10


def thm1_shape_reports(shape: Partition, seed: int = 0) -> list[CheckReport]:
    """The canonical order plus seeded random index-monotone reorders."""
    reports = [verify_thm1(shape)]
    rng = Random(f'{seed}:thm1:{"-".join(map(str, shape))}')
    for _ in range(_THM1_SHUFFLES):
        reports.append(verify_thm1(shape, random_index_monotone_order(shape, rng)))
    return reports


# ---------------------------------------------------------------------------
# connected subsets, partial evacuation symmetries, chains

@lru_cache(maxsize=None)
def _block(js: frozenset[int], n: int) -> tuple[int, int]:
    """The block (p, q) of J = {p, ..., q-1}, validated once per n.  The
    members are read by value, as the caches compare them (1.0 and True
    mean 1), so the answer never depends on which form was cached first."""
    if not js:
        raise ValueError('J must be a nonempty set of generator indices')
    try:
        ints = frozenset(map(int, js))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != js:
        raise ValueError(f'J must be a set of integers: {set(js)}')
    p, q = min(ints), max(ints) + 1
    if p < 1 or q > n:
        raise ValueError(f'J must lie in 1..{n - 1}: {sorted(js)}')
    if q - p != len(js):
        raise ValueError(f'J must be connected: {sorted(js)}')
    return p, q


def phi_connected(j_set: Iterable[int], t: Tableau) -> Tableau:
    """The tableau symmetry realized by w_J for connected J.

    With positions p..q (p = min J, q = max J + 1) and block size
    m = q-p+1, this is ev_q ev_m ev_q.
    """
    check_standard(t)
    p, q = _block(frozenset(j_set), sum(shape_of(t)))
    return _phi(t, p, q)


def _phi(t: Tableau, p: int, q: int) -> Tableau:
    out = _partial_evacuate(t, q)
    out = _partial_evacuate(out, q - p + 1)
    return _partial_evacuate(out, q)


def preorder_connected(j_set: Iterable[int], shape: Partition) -> dict[Tableau, tuple[int, ...]]:
    """Class keys of the total preorder attached to connected J.

    Keys compare lexicographically; equal keys are the sign-constancy
    classes.  The key of T peels the top n-m entries off ev_q(T),
    recording index labels (so J = {1..n-1} has one class, and smaller
    blocks refine down to the total index order).
    """
    check_partition(shape)
    p, q = _block(frozenset(j_set), sum(shape))
    return {t: _preorder_key(t, p, q) for t in total_index_order(shape)}


def _preorder_key(t: Tableau, p: int, q: int) -> tuple[int, ...]:
    return _total_index_key(_partial_evacuate(t, q))[:sum(shape_of(t)) - (q - p + 1)]


# Per-shape tables indexed by position in the total index order, shared
# by every chain on the shape.  Each ev_k table for k <= n-1 is read off
# the shapes one box smaller, ev_n's is ev_{n-1}'s after the inverse
# promotion table, and the per-J table is composed from those and the
# cell's peel keys.

@lru_cache(maxsize=None)
def _evacuation_table(shape: Partition, k: int) -> tuple[int, ...]:
    """ev_k(tableaux[i]) = tableaux[table[i]].  ev_1 is the identity.  ev_k
    for 2 <= k <= n-1 fixes n, so on each index class, SYT(lambda - box i)
    with n at box i, it is that shape's table shifted by the class's first
    position.  ev_n is ev_{n-1} after pr^-1, one reverse slide of 1..n,
    whose table is read off the smaller shapes in two cases (see the
    module docstring): no ev_k slides a tableau."""
    cl = cell(shape)
    if k == 1:
        return tuple(range(len(cl.tableaux)))
    if k < sum(shape):
        return tuple(start + e for start, small in cl.smaller
                     for e in _evacuation_table(small, k))
    prev = _evacuation_table(shape, k - 1)
    return tuple(map(prev.__getitem__, _inverse_promotion_table(shape)))


@lru_cache(maxsize=None)
def _phi_table(shape: Partition, p: int, q: int) -> tuple[int, ...]:
    """phi_J(tableaux[i]) = tableaux[table[i]] for J = {p, ..., q-1}:
    ev_q ev_m ev_q, composed from the ev tables."""
    evq = _evacuation_table(shape, q)
    evm = _evacuation_table(shape, q - p + 1)
    return tuple(map(evq.__getitem__, map(evm.__getitem__, evq)))


def _j_keys(shape: Partition, p: int, q: int) -> list[tuple[int, ...]]:
    """The `preorder_connected` key of J = {p, ..., q-1} at each position:
    the first n-m labels of the cell's peel keys of ev_q, with no tableau
    work of their own."""
    peel, cut = cell(shape).peels, sum(shape) - (q - p + 1)
    return [peel[e][:cut] for e in _evacuation_table(shape, q)]


@lru_cache(maxsize=None)
def _j_table(shape: Partition, p: int, q: int
             ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For J = {p, ..., q-1}, at i: the position of phi_J(tableaux[i])
    (`_phi_table`), and the dense rank of its key (`_j_keys`) among the
    keys of the shape.  Ranks compare as the keys do."""
    keys = _j_keys(shape, p, q)
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return _phi_table(shape, p, q), tuple(rank[key] for key in keys)


@lru_cache(maxsize=None)
def _j_texts(shape: Partition, p: int, q: int) -> tuple[str, ...]:
    """The str of J's key at each position (`_j_keys`), built on first
    read: only a class label reads it (`_class_labels`)."""
    return tuple(map(str, _j_keys(shape, p, q)))


def all_connected_chains(n: int) -> list[tuple[frozenset[int], ...]]:
    """Every strictly increasing chain of connected generator subsets."""
    intervals = [
        frozenset(range(a, b + 1))
        for a in range(1, n)
        for b in range(a, n)
    ]
    intervals.sort(key=lambda s: (len(s), min(s)))
    chains: list[tuple[frozenset[int], ...]] = []

    def extend(chain: list[frozenset[int]]) -> None:
        chains.append(tuple(chain))
        for iv in intervals:
            if chain[-1] < iv:
                chain.append(iv)
                extend(chain)
                chain.pop()

    for iv in intervals:
        extend([iv])
    return chains


@lru_cache(maxsize=None)
def _chain_data(chain: tuple[Iterable[int], ...], n: int) -> tuple:
    """The record of the validated chain, cached on the chain as given (a
    tuple of frozensets, or of tuples): the block (p, q) of each J =
    {p, ..., q-1}, w = w_{J_k} ... w_{J_1} and each J as the tuple
    (p, ..., q-1), which a report holds until it renders.  w_J reverses
    p..q, x -> p + q - x, so w is read off the blocks, J_1 first."""
    js = tuple(map(frozenset, chain))
    if not js:
        raise ValueError('chain must be nonempty')
    if not all(a < b for a, b in zip(js, js[1:])):
        raise ValueError('chain must strictly increase')
    blocks = tuple(_block(j_set, n) for j_set in js)
    w = range(1, n + 1)
    for p, q in blocks:
        w = [p + q - x if p <= x <= q else x for x in w]
    return blocks, tuple(w), tuple(_member(p, q) for p, q in blocks)


@lru_cache(maxsize=None)
def _member(p: int, q: int) -> tuple[int, ...]:
    """(p, ..., q-1), one tuple shared by every chain record holding J."""
    return tuple(range(p, q))


def _pick_ranks(terms: _Terms, rank: Sequence[int]) -> Iterator[Iterator[int]]:
    """The rank of the column of each pick, row by row (see `_Terms`)."""
    ranks = [*rank, *rank, *(rank[k] for k, _ in terms.scaled)].__getitem__
    return map(map, repeat(ranks), terms.picks)


def _inherits(shape: Partition, p: int, q: int) -> bool:
    """Whether J = {p, ..., q-1} is decided on the shapes one box smaller:
    q <= n-1 and B(shape, j) holds for every j in J, that is, specht's
    cached `_b_failures` finds nothing that fails it (see "Block
    structure").  qrkit holds no B code of its own."""
    return q < sum(shape) and not any(any(_b_failures(shape, j))
                                      for j in range(p, q))


@lru_cache(maxsize=None)
def _j_signs(shape: Partition, p: int, q: int) -> tuple[int, ...] | None:
    """For J = {p, ..., q-1}, the sign of M(w_J) at (phi_J(c), c) in each
    column c, by position, or None unless the block structure that decides
    thm4 holds.  Observed on all 1205 (shape, J) pairs with 3 <= n <= 8 and
    checked here, in `_j_table`'s rank of J:
    (a) `_block_factor` is block upper triangular (entry (r, c) is nonzero
        only when rank[r] <= rank[c]), and inside each diagonal block its
        only entries are +-1 at (phi_J(c), c);
    (b) every s_j with j in J is block upper triangular;
    (c) phi_{J'} keeps the rank for every connected J' <= J.
    A J that `_inherits`, B holding for each j in J by specht's
    `_b_failures`, has the concatenation of its signs on the shapes one
    box smaller, None when any is None (see "Block structure").  A J of a
    module that fails B takes the route below, on the shape itself.
    Otherwise (a) is `_block_signs` on `_block_factor`, which also finds
    each sign; with (c), phi_J keeps the rank, so row phi_J(c) lies in c's
    block."""
    if _inherits(shape, p, q):
        parts = [_j_signs(small, p, q) for _, small in cell(shape).smaller]
        return None if None in parts else sum(parts, ())
    phi, rank = _j_table(shape, p, q)
    if any(tuple(map(rank.__getitem__, _phi_table(shape, a, b))) != rank
           for a in range(p, q) for b in range(a + 1, q + 1)):
        return None  # (c)
    cl = cell(shape)
    if not all(all(map(le, rank, map(min, _pick_ranks(cl.generator_terms(j),
                                                       rank))))
               for j in range(p, q)):
        return None  # (b); every row of s_j has its diagonal pick
    signs = _block_signs(_block_factor(shape, p, q), phi, rank)  # (a)
    return None if signs is None else tuple(signs)


def _one_member_sign(shape: Partition, p: int, q: int) -> Callable[[int], int]:
    """The sign at each position x of the one-member chain J = {p, ...,
    q-1}, as a function of x, by the rule `verify_thm4_chain` checks:
    (-1)**n(mu), mu the shape of the entries <= q-p+1 of ev_q(T_x).
    n(mu) = sum of (i - 1) mu_i has the parity of the number of those
    entries in rows 2, 4, ...  mu is lambda less the boxes that J's class
    key peels, so the sign depends only on x's class."""
    ev, tableaux, m = _evacuation_table(shape, q), cell(shape).tableaux, q - p + 1
    return lambda x: (-1) ** sum(map(bisect_right, tableaux[ev[x]][1::2],
                                     repeat(m)))


def _j_verdict(shape: Partition, p: int, q: int) -> bool:
    """Whether (a)-(c) hold for J = {p, ..., q-1} (`_j_signs`) and each
    sign is the one-member rule's (`_one_member_sign`), evaluated once per
    class of J's rank: then every chain whose members all have this
    verdict passes (see `verify_thm4_chain`).  Uncached: it fills the
    shape's verdict table (`_Verdicts`) on first read.  A J that
    `_inherits` has it when the tables of the shapes one box smaller do
    (see "Block structure")."""
    if _inherits(shape, p, q):
        return all(_Verdicts(small)[p, q] for _, small in cell(shape).smaller)
    rank, sign = _j_table(shape, p, q)[1], _one_member_sign(shape, p, q)
    # the rule at one position of each class: the last, r -> x
    want = {r: sign(x) for r, x in dict(zip(rank, range(len(rank)))).items()}
    return _j_signs(shape, p, q) == tuple(map(want.__getitem__, rank))


@lru_cache(maxsize=None)  # one table per shape
class _Verdicts(dict):
    """The thm4 verdicts of one shape, keyed by the block (p, q) of J =
    {p, ..., q-1}, each `_j_verdict` on first read."""

    def __init__(self, shape: Partition):
        self.shape = cell(shape).shape  # a bad shape raises, and is not kept

    def __missing__(self, block: tuple[int, int]) -> bool:
        verdict = self[block] = _j_verdict(self.shape, *block)
        return verdict


def _chain_matrix(shape: Partition,
                  blocks: tuple[tuple[int, int], ...]) -> _Packed:
    """M(w_{J_k} ... w_{J_1}) in the total index order: the packed fold of
    a reduced word of w, the long route of a module that fails (a)-(c)."""
    js = tuple(frozenset(range(p, q)) for p, q in blocks)
    return cell(shape).fold(reduced_word(_chain_data(js, sum(shape))[1]))


class _ChainState(NamedTuple):
    """What a chain's check reads, by position in the total index order.
    A chain's state grows from the state of the chain without its
    outermost member, and the empty chain's is the identity (see "Shared
    thm4 state")."""

    perm: list[int]  # the basis order
    key: Sequence[int]  # the composite class key: equal keys, one class
    phi: Sequence[int]  # the composite symmetry
    pivots: Sequence[int] | None  # by position; None when the test fails


@lru_cache(maxsize=2048)
def _chain_state(shape: Partition,
                 blocks: tuple[tuple[int, int], ...]) -> _ChainState:
    """The state of the chain of these blocks.  The empty chain's is the
    identity: the total index order, one class, phi = id and every pivot
    +1.  A chain C + J, J = J_k, grows from the (cached) state of C: C's
    order sorted stably on the rank of J, C's key times d plus J's rank,
    and phi_J after C's phi.  When (a)-(c) hold for J (`_j_signs`) and C's
    pivot test passed, the pivot at x is J's sign at phi_C(x) times C's
    pivot at x, with no matrix; otherwise it is the pivot test of
    `_chain_matrix`.  The result is shared with the cache: callers must
    not change it."""
    if not blocks:
        ids = list(range(len(cell(shape).tableaux)))
        return _ChainState(ids, [0] * len(ids), ids, [1] * len(ids))
    prefix = _chain_state(shape, blocks[:-1])
    phi_j, rank_j = _j_table(shape, *blocks[-1])
    signs = _j_signs(shape, *blocks[-1])
    d = len(rank_j)
    perm = sorted(prefix.perm, key=rank_j.__getitem__)
    key = [k * d + r for k, r in zip(prefix.key, rank_j)]
    phi = list(map(phi_j.__getitem__, prefix.phi))
    pivots = None if signs is None or prefix.pivots is None else list(
        map(mul, map(signs.__getitem__, prefix.phi), prefix.pivots))
    if pivots is None:
        pivots = _pivot_test(_chain_matrix(shape, blocks), perm, phi)
    return _ChainState(perm, key, phi, pivots)


def _thm4_state(shape: Partition,
                blocks: tuple[tuple[int, int], ...]) -> _ChainState:
    """The state of the chain of these blocks, from the store, except that
    a chain ending in J = {1, ..., n-1}, a prefix of no other, is built
    uncached."""
    if blocks[-1] == (1, sum(shape)):
        return _chain_state.__wrapped__(shape, blocks)
    return _chain_state(shape, blocks)


def verify_thm4_chain(shape: Partition,
                      chain: Sequence[Iterable[int]]) -> CheckReport:
    """QR-factor w_{J_k} ... w_{J_1} against the composite symmetry.

    A one-member chain J = {p, ..., q-1} also checks the value of each
    class's sign against the rule observed on every (shape, J) with
    n <= 8 (the statement quoted in PAPER.md stops before the sign): at
    position x it is (-1)**n(mu), mu the shape of the entries <= q-p+1 of
    ev_q(T_x) and n(mu) = sum of (i - 1) mu_i.  For J = {1, ..., n-1}
    this is (-1)**n(lambda), the sign of w0 acting by evacuation
    (Berenstein-Zelevinsky; Stembridge, Duke Math. J. 82, 1996).  A longer
    chain's signs are products of its members' (see `_chain_state`).

    A chain passes, with no state and no decision, when the verdict
    table of its shape (`_Verdicts`) holds at each block of its record
    (`_chain_data`): for each member J, (a)-(c) hold, and J's sign at each
    position is the one-member rule's, which depends only on the class of
    J's rank.  By (a)-(c) its pivot test passes, and the pivot of C + J
    at x is J's sign at phi_C(x) times C's pivot at x (see
    `_chain_state`), C possibly empty, with phi = id and every pivot +1.
    A one-member chain's pivots are then J's signs: the rule's at every
    position, so constant on classes and of the value the check expects.
    A longer chain checks no sign value, and its signs are constant on
    classes by induction on the chain, from the empty chain's one class.
    Let x and y share a class of C + J.  C's keys at x and y agree, so
    C's pivots there have one sign.  By (c), each phi_{J_i} with J_i < J
    keeps rank_J, so phi_C does, and rank_J(phi_C(x)) = rank_J(x) =
    rank_J(y) = rank_J(phi_C(y)): J's signs there agree too.  So nothing
    else is decided, and the report builds its state only when it
    renders.  A chain with a member that lacks the verdict is decided on
    its state, which names its failures.

    The record is looked up on `chain` itself when it is a tuple the
    cache can hash; any other chain is converted to a tuple of frozensets
    first, except a set or a dict of members, which lists no order and
    raises ValueError.  The report's witness holds the record's tuple of
    members until it renders, when the chain becomes fresh lists
    (`_thm4_fields`), so a passing check allocates only its report."""
    t0 = time.perf_counter()
    n = sum(shape)
    if chain.__class__ is not tuple:  # a list, or an iterable read once
        _refuse_unordered(chain, 'chain')
        chain = tuple(map(frozenset, chain))
    try:
        blocks, w, members = _chain_data(chain, n)
    except TypeError:  # members the cache cannot hash, such as sets
        blocks, w, members = _chain_data(tuple(map(frozenset, chain)), n)
    try:
        passed = all(map(_Verdicts(shape).__getitem__, blocks))
    except TypeError:
        cell(shape)  # a shape the caches cannot hash: the boundary's error
        raise
    if passed:
        failures, state = [], None
    else:
        state = _thm4_state(shape, blocks)
        failures = _decide(
            shape, _chain_matrix(shape, blocks) if state.pivots is None
            else None, state.perm, state.phi, state.key, state.pivots,
            'the composite symmetry', blocks,
            _one_member_sign(shape, *blocks[0]) if len(blocks) == 1 else None)
    return CheckReport('thm4', not failures, tuple(shape), None,
                       {'chain': members}, None, failures,
                       time.perf_counter() - t0,
                       render=(_thm4_fields, shape, blocks, w, state))


def _thm4_fields(shape: Partition, blocks: tuple[tuple[int, int], ...],
                 w: Perm, state: _ChainState | None) -> tuple:
    """The ordering, signs and the rest of the witness of a thm4 report
    (see `CheckReport`), read off the chain's state, which a chain that
    passed with no state builds here.  The chain's members, which the
    report held as its record's shared tuples, become fresh lists."""
    if state is None:
        state = _thm4_state(shape, blocks)
    labels = cell(shape).labels
    signs = None if state.pivots is None else _signs(
        _class_labels(shape, blocks), state.perm, state.key, state.pivots)
    return (tuple(map(labels.__getitem__, state.perm)), signs,
            {'chain': [list(range(p, q)) for p, q in blocks], 'w': list(w),
             'symmetry': dict(zip(labels, map(labels.__getitem__, state.phi)))})


# ---------------------------------------------------------------------------
# the nonseparable counterexample and small searches

def verify_counterexample() -> CheckReport:
    """No basis order lets QR work for the pattern 2413 on shape (3, 1).

    Tries all 6 orderings of the 3 tableaux; each must fail, either with
    an irrational Gram-Schmidt norm or with Q not a signed permutation.
    As a sanity check the same harness accepts the long cycle on the same
    shape.
    """
    t0 = time.perf_counter()
    shape = (3, 1)
    w = (2, 4, 1, 3)
    base = matrix_of(shape, w)
    tabs = total_index_order(shape)
    failures = []
    outcomes = {}
    for perm, miss in _qr_outcomes(base):
        label = '|'.join(format_tableau(tabs[i]) for i in perm)
        outcomes[label] = miss or 'unexpected signed permutation'
        if miss is None:
            failures.append(
                f'ordering {label} factors [2413] through a signed permutation'
            )
    if len(tabs) != 3:
        failures.append('expected 3 standard tableaux of shape (3, 1)')
    if len(outcomes) != 6:
        failures.append('expected exactly 6 orderings of 3 tableaux')
    sanity = search_ordering(shape, long_cycle(4))
    if sanity is None:
        failures.append('no ordering accepts the long cycle on (3, 1)')
    return CheckReport(
        theorem='counterexample',
        passed=not failures,
        shape=shape,
        witness={
            'w': list(w),
            'orderings': outcomes,
            'long_cycle_ordering':
                None if sanity is None
                else [format_tableau(t) for t in sanity],
        },
        failures=failures,
        timing=time.perf_counter() - t0,
    )


# the largest module `search_ordering` searches: it tries d! orders
_SEARCH_MAX_DIM = 7


def search_ordering(shape: Partition, w: Perm) -> tuple[Tableau, ...] | None:
    """First basis order making QR of [w] a signed permutation, or None.

    Orders are tried in lexicographic position order against the total
    index order, so the result is deterministic.  Modules larger than
    `_SEARCH_MAX_DIM` are refused (the search is factorial).
    """
    tabs = total_index_order(shape)
    if len(tabs) > _SEARCH_MAX_DIM:
        raise ValueError(
            f'dimension {len(tabs)} exceeds the search bound {_SEARCH_MAX_DIM}'
        )
    for perm, miss in _qr_outcomes(matrix_of(shape, w)):
        if miss is None:
            return tuple(tabs[i] for i in perm)
    return None


def _qr_outcomes(base: Matrix) -> Iterator[tuple[tuple[int, ...], str | None]]:
    """For each basis order (a permutation of base's rows and columns,
    in lexicographic order), why QR of the reordered matrix does not
    give a signed-permutation Q, or None when it does."""
    for perm in _permutations(range(len(base))):
        try:
            fact = exact_qr(mat_reindex(base, perm))
        except IrrationalNormError:
            yield perm, 'irrational norm'
            continue
        if as_signed_permutation(fact.q) is None:
            yield perm, 'Q not a signed permutation'
        else:
            yield perm, None
