"""
Exact QR factorization over Q and the theorem verifiers built on it.

`exact_qr` runs Gram-Schmidt in Fraction arithmetic, normalizing only
when every squared column norm is the square of a rational; otherwise Q
would have irrational entries and `IrrationalNormError` is raised (for
the matrices checked here that already rules out a signed-permutation Q,
whose R = Q^T M would be an integer matrix with perfect-square norms).
Singular input raises `SingularMatrixError` instead.  The factorization
(orthonormal Q, upper-triangular R with positive diagonal, QR = M) is
checked exactly before returning; a violation raises `QRInvariantError`,
also under `python -O`.

thm1 and thm4 assert that Q is a given signed permutation P.  QR of an
invertible matrix is unique, so that holds exactly when P^T M is upper
triangular with a positive diagonal, and `pivot_signs` tests this on the
integer entries of M in O(d^2) without factoring.  Both verifiers decide
through `_decide`, which runs the same test on packed rows (below) and
unpacks M and runs `exact_qr` only when it fails, to name the failure.
`exact_qr` remains the factorization behind the `qr` command and the
basis-order loop shared by `search_ordering` and `verify_counterexample`.

The verifiers check matrices of the Specht module action:

* `verify_thm1`: the long cycle c = (2, ..., n, 1) acts, in any basis
  order weakly increasing in the tableau index, by Q R with Q the signed
  permutation matrix of jeu de taquin promotion, signs constant on index
  classes, and the matrix itself supports columns only on promotions of
  tableaux of weakly smaller index.  In such an order the pivot test
  implies that support: row pr(T) vanishes on every column before T,
  which includes every column of smaller index, and the lead entry of T
  is its pivot.  So the leading terms are read column by column only
  when the pivot test fails or some pivot is not +-1.
* `verify_thm4_chain`: for a chain J_1 < ... < J_k of connected
  generator subsets, w = w_{J_k} ... w_{J_1} acts by Q R with Q the
  signed permutation of the composite partial-evacuation symmetry phi =
  phi_{J_k} ... phi_{J_1}, signs constant on the blocks of the composite
  preorder.  Everything a check shares with other checks is derived
  once (see "Shared thm4 state" below); the rest costs one extension of
  the state of the chain without J_k and the decision.
* `verify_counterexample`: for the non-separable w = 2413 on shape
  (3, 1), no basis order at all yields a signed-permutation Q.
* `search_ordering`: brute-force the basis orders of a small module for
  one that makes QR of [w] a signed permutation.

The matrices of the long cycle and of each w_J are built once per
shape in the total index order, keyed by (shape, w): as the nonzero
entries a product reads on its left (`_factor`) and, when first needed,
as packed rows (`_packed`).  They are never reindexed on a passing
check: reordering a basis conjugates every factor by the same
permutation, so a check reads the total index order through its basis
order, and a failing check reindexes its matrix once, to exactly
`matrix_of` of w in the checked order.  `matrix_of` itself is not
cached: a caller sweeping all of S_n would otherwise keep n! matrices
alive.

Packed rows.  The verifiers decide on matrices kept as one Python int
per row (`_Packed`): entry (i, j) is a signed digit in the W-bit slot at
bit j * W.  A product A B adds one packed row of B, its negative or a
multiple of it per nonzero entry of A (`_times`).  Adding a bias word
with 2**(W-1) in every slot and xoring it back leaves each slot zero
exactly where its entry is, so a column's pivot test is one and with
the mask of the columns before it, and its pivot is one extract, one
subtraction and one shift (`_pivot_test`).  Every matrix the verifiers
decide on uses W = `_SLOT_WIDTH` = 32 and carries a bound on its
entries; a product takes the bound |A B| <= rowabs(A) max|B|, and one
whose bound would reach 2**(W-1) raises `QRInvariantError`, also under
`python -O`, instead of truncating.  Over every chain that bound needs
at most 9 bits at n = 6, 15 at n = 7 and 22 at n = 8.

Validation happens at the boundary.  `verify_thm1` checks a caller's
order once, by cell position (it must list every tableau of the shape
exactly once, weakly increasing in index); `verify_thm4_chain` validates
a chain once per n (`_chain_data`); `phi_connected` and
`preorder_connected` check their tableau or shape.  The per-shape tables
are built from the cell's tableaux, which are standard by construction,
with the unchecked `_` workers of `jdt` and `tableaux`; the verifiers
then work on positions only.

For a connected J = {p, ..., q-1} (positions p..q, block size
m = q-p+1), the tableau symmetry is phi_J = ev_q ev_m ev_q and the
preorder compares, lexicographically, the chain of index labels obtained
by peeling the largest n-m entries off ev_q(T); chains compare their
members' keys outermost first and break final ties by the total index
order.

Shared thm4 state.  None of it depends on the order in which chains are
checked, so a sweep in DFS order and a caller checking single chains in
any order take the same path and get the same reports.

* Chain data, per (chain, n): the validated chain, each w_J, the
  product w and the sorted J lists (`_chain_data`).  Reports get fresh
  lists.
* Per-shape tables, by position in the total index order: ev_k for
  k = 2..n (`_position_map`, which also maps promotion for thm1) and
  the index labels of each tableau peeled down to one box
  (`_peel_table`, the `tableaux` peel worker's total index key without
  its last label).  Each tableau is evacuated n-1 times per shape,
  whatever the number of J.
* Per (J, shape), one table composed from those (`_j_table`): phi_J =
  ev_q ev_m ev_q, and the dense rank and str of the preorder key, the
  first n-m labels of the peel of ev_q(T).  A chain reads it once per J:
  its basis order sorts positions on the rank lists, outermost J first,
  and its class labels join the key strings into the str of the
  composite key.  `phi_connected` and `preorder_connected` evacuate and
  peel directly, with a peel loop of their own (`_preorder_key`): an
  independent route the tables are tested against.
* Chain states: per (shape, chain), the packed rows of M(chain), the
  basis order, the str of each position's composite key and the
  composite phi, all by position (`_ChainState`).  A chain's state grows
  from the state of the chain without J_k, read from an LRU of the
  states of chains that extend further (`_chain_states`), in
  O(nnz(M(w_{J_k}))) big-int additions and O(d) small steps: the order
  is the prefix order sorted stably on the rank of J_k, each key str is
  J_k's key str before the prefix's, and phi is phi_{J_k} after the
  prefix's phi.  The LRU is bounded by its total count of matrix
  slots, 2**20: that holds every such state up to n = 6 and a whole
  shape's DFS subtree at n = 7 and 8, so a DFS sweep always hits and
  memory stays bounded where all states would not fit (54 M slots at
  n = 8).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _permutations, repeat
from math import isqrt
from operator import neg
from random import Random
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .jdt import _partial_evacuate, _promote
from .reports import CheckReport
from .specht import (
    Matrix,
    cell,
    identity_matrix,
    mat_eq,
    mat_mul,
    mat_reindex,
    mat_transpose,
    matrix_of,
    total_index_order,
)
from .symgroup import (
    Perm,
    long_cycle,
    longest_element,
    multiply,
)
from .tableaux import (
    Partition,
    Tableau,
    _delete_largest,
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
    'pivot_signs',
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


class QRInvariantError(AssertionError):
    """An exact invariant of the QR route fails: `exact_qr` produced a
    factorization that fails its own check, or a matrix entry might not
    fit its packed slot.  Raised rather than asserted, so `python -O`
    keeps the check."""


@dataclass(frozen=True)
class QRFactorization:
    q: Matrix
    r: Matrix


@dataclass(frozen=True)
class SignedPermutation:
    """Q with exactly one entry +-1 per row and column: column c carries
    sign signs[c] into row target[c]."""

    target: tuple[int, ...]
    signs: tuple[int, ...]


def _rational_sqrt(x: Fraction) -> Fraction | None:
    num = isqrt(x.numerator)
    den = isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def exact_qr(m: Matrix) -> QRFactorization:
    """Exact QR with orthonormal Q and positive upper-triangular R.

    >>> f = exact_qr([[0, 1], [1, 0]])
    >>> f.q == [[0, 1], [1, 0]] and f.r == [[1, 0], [0, 1]]
    True
    """
    d = len(m)
    if d == 0 or any(len(row) != d for row in m):
        raise ValueError('exact_qr needs a nonempty square matrix')
    cols = [[Fraction(m[r][c]) for r in range(d)] for c in range(d)]
    us: list[list[Fraction]] = []
    norms2: list[Fraction] = []
    for k, col in enumerate(cols):
        u = list(col)
        for prev, n2 in zip(us, norms2):
            coeff = sum(a * b for a, b in zip(u, prev)) / n2
            if coeff:
                u = [a - coeff * b for a, b in zip(u, prev)]
        n2 = sum(a * a for a in u)
        if n2 == 0:
            raise SingularMatrixError(
                f'column {k} depends linearly on earlier columns'
            )
        us.append(u)
        norms2.append(n2)
    q_cols = []
    for k, (u, n2) in enumerate(zip(us, norms2)):
        root = _rational_sqrt(n2)
        if root is None:
            raise IrrationalNormError(k, n2)
        q_cols.append([a / root for a in u])
    q = [[q_cols[c][r] for c in range(d)] for r in range(d)]
    r_mat = mat_mul(mat_transpose(q), [list(row) for row in m])
    if not mat_eq(mat_mul(mat_transpose(q), q), identity_matrix(d)):
        raise QRInvariantError('Q is not orthonormal')
    if not mat_eq(mat_mul(q, r_mat), [list(row) for row in m]):
        raise QRInvariantError('QR != M')
    for i in range(d):
        if not r_mat[i][i] > 0:
            raise QRInvariantError('R diagonal must be positive')
        if any(r_mat[i][j] != 0 for j in range(i)):
            raise QRInvariantError('R must be triangular')
    return QRFactorization(q=q, r=r_mat)


def as_signed_permutation(m: Matrix) -> SignedPermutation | None:
    """Read m as a signed permutation matrix, or None.

    >>> as_signed_permutation([[1, 1], [0, 1]]) is None
    True
    """
    d = len(m)
    target = []
    signs = []
    for c in range(d):
        hits = [r for r in range(d) if m[r][c] != 0]
        if len(hits) != 1:
            return None
        r = hits[0]
        v = m[r][c]
        if v == 1:
            signs.append(1)
        elif v == -1:
            signs.append(-1)
        else:
            return None
        target.append(r)
    if sorted(target) != list(range(d)):
        return None
    return SignedPermutation(tuple(target), tuple(signs))


def pivot_signs(m: Matrix, target: Sequence[int]) -> tuple[int, ...] | None:
    """Signs s such that the Q of `exact_qr(m)` is the signed permutation
    sending column c to row target[c] with sign s[c], or None if it is not.

    QR of an invertible matrix is unique, so Q is that signed permutation
    P exactly when P^T m is upper triangular with a positive diagonal:
    row target[c] of m vanishes left of column c and is nonzero in column
    c, with sign s[c].  That already makes m invertible, and it rejects a
    target (one row index of m per column) that is not a permutation.
    No factorization is computed.  m must have integer entries: it is
    packed and decided by the test the verifiers use (`_pivot_test`).

    >>> pivot_signs([[0, -1], [1, 0]], [1, 0])
    (1, -1)
    >>> pivot_signs([[1, 0], [1, 1]], [0, 1]) is None
    True
    """
    if not m:
        return ()
    terms = _terms(m)
    pivots = _pivot_test(_pack(terms, _width(terms.maxabs)),
                         range(len(target)), target)
    return None if pivots is None else tuple(1 if v > 0 else -1 for v in pivots)


# ---------------------------------------------------------------------------
# packed rows: one int per row of an integer matrix

class _Packed(NamedTuple):
    """A square integer matrix with one int per row: entry (i, j) sits in
    the `width`-bit slot at bit j * width of rows[i], as a signed digit,
    so rows[i] = sum of m[i][j] << (j * width).  Every entry has
    |entry| <= bound < 2**(width - 1)."""

    rows: Sequence[int]
    width: int
    bound: int


# the slot width of the matrices the verifiers decide on: with its sign,
# the entry bound of every chain product up to n = 8 fits in 23 bits
_SLOT_WIDTH = 32


def _width(bound: int) -> int:
    """The slot width that holds every entry of absolute value <= bound."""
    return bound.bit_length() + 1


class _SlotWords(NamedTuple):
    """Words over d slots of one width."""

    bias: int  # 2**(width - 1) in every slot
    slots: tuple[int, ...]  # the mask of each slot
    tops: tuple[int, ...]  # 2**(width - 1) in each slot
    units: tuple[int, ...]  # 1 in each slot: the rows of the identity


@lru_cache(maxsize=None)
def _words(d: int, width: int) -> _SlotWords:
    """Adding the bias to a packed row turns each signed digit v into the
    plain digit v + 2**(width - 1), and xoring it back leaves v mod
    2**width: zero exactly where v is."""
    mask, top = (1 << width) - 1, 1 << (width - 1)
    tops = tuple(top << j * width for j in range(d))
    return _SlotWords(sum(tops), tuple(mask << j * width for j in range(d)),
                      tops, tuple(1 << j * width for j in range(d)))


def _check_fits(bound: int, width: int) -> None:
    """Raise `QRInvariantError` unless entries of absolute value <= bound
    fit `width`-bit slots: a truncated entry would decide a different
    matrix, also under `python -O`."""
    if bound >> (width - 1):
        raise QRInvariantError(
            f'entries up to {bound} overflow {width}-bit slots')


def _unpack(p: _Packed) -> Matrix:
    """The matrix of packed rows, as fresh lists."""
    width, d = p.width, len(p.rows)
    top, mask = 1 << (width - 1), (1 << width) - 1
    bias = _words(d, width).bias
    return [[((row >> j * width) & mask) - top for j in range(d)]
            for row in (r + bias for r in p.rows)]


class _Terms(NamedTuple):
    """The nonzero entries of a d x d integer matrix A, as `_times` reads
    them: row i of A B is the sum of the operands picks[i], where operand
    k is row k of B, operand d + k is its negative, and operand 2d + e is
    x times row k of B for the e-th pair (k, x) of `scaled`.  The entries
    of the matrices multiplied here are almost all +-1, which then cost
    one addition each and no multiplication."""

    picks: tuple[tuple[int, ...], ...]
    scaled: tuple[tuple[int, int], ...]  # (k, x) for each |x| > 1
    rowabs: int  # the largest sum of |entry| over a row of A
    maxabs: int  # the largest |entry| of A


def _terms(m: Sequence[Sequence[int]]) -> _Terms:
    d = len(m)
    picks = []
    scaled: list[tuple[int, int]] = []
    for row in m:
        pick = [k if x == 1 else d + k
                for k, x in enumerate(row) if x == 1 or x == -1]
        if len(pick) + row.count(0) < d:  # some |x| > 1
            for k, x in enumerate(row):
                if x not in (0, 1, -1):
                    pick.append(2 * d + len(scaled))
                    scaled.append((k, x))
        picks.append(tuple(pick))
    if scaled:
        rowabs = max(sum(map(abs, row)) for row in m)
        maxabs = max(abs(x) for _, x in scaled)
    else:
        rowabs = max(map(len, picks))
        maxabs = min(rowabs, 1)
    return _Terms(tuple(picks), tuple(scaled), rowabs, maxabs)


def _times(terms: _Terms, b: _Packed) -> _Packed:
    """A B in the slots of B, from the `_terms` of A, with one addition
    per nonzero entry of A.  |A B| <= rowabs(A) max|B| entrywise; a
    product whose bound would not fit the slots raises instead."""
    bound = terms.rowabs * b.bound
    _check_fits(bound, b.width)
    return _Packed(_combine(terms, b.rows), b.width, bound)


def _combine(terms: _Terms, rows: Sequence[int]) -> list[int]:
    """The rows of A B, unchecked."""
    operands = [*rows, *map(neg, rows)]
    if terms.scaled:
        operands += [x * rows[k] for k, x in terms.scaled]
    return list(map(sum, map(map, repeat(operands.__getitem__), terms.picks)))


def _pack(terms: _Terms, width: int) -> _Packed:
    """The matrix of `terms` in packed rows: it times the identity."""
    _check_fits(terms.maxabs, width)
    units = _words(len(terms.picks), width).units
    return _Packed(_combine(terms, units), width, terms.maxabs)


def _pivot_test(p: _Packed, ids: Sequence[int],
                image: Sequence[int]) -> list[int] | None:
    """The pivots of p reindexed to the basis order ids, with column c
    sent to the row of image[ids[c]], read off the packed rows: row
    image[i] must vanish on the columns ids[:c] before c and not on i,
    and its entry on i is the pivot.  None if some row fails."""
    width = p.width
    bias, slots, tops, _ = _words(len(p.rows), width)
    rows = p.rows
    before = 0
    pivots = []
    for i in ids:
        biased = rows[image[i]] + bias
        if (biased ^ bias) & before:
            return None
        v = ((biased & slots[i]) - tops[i]) >> i * width
        if not v:
            return None
        pivots.append(v)
        before |= slots[i]
    return pivots


def _reindexed(p: _Packed, ids: Sequence[int]) -> Matrix:
    """The packed matrix with row and column c taken from ids[c]."""
    return mat_reindex(_unpack(p), ids)


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
def _factor(shape: Partition, w: Perm) -> _Terms:
    """The matrix of w in the total index order, kept per (shape, w) for
    the few w the verifiers use (the long cycle and each w_J), as the
    `_terms` a product reads on its left."""
    return _terms(matrix_of(shape, w))


@lru_cache(maxsize=None)
def _packed(shape: Partition, w: Perm) -> _Packed:
    """The matrix of w in packed rows."""
    return _pack(_factor(shape, w), _SLOT_WIDTH)


def _decide(shape: Partition, p: _Packed, ids: Sequence[int],
            image: Sequence[int], classes: Sequence[str], symmetry: str,
            class_word: str
            ) -> tuple[tuple[str, ...], dict[str, int], list[str], list[int] | None]:
    """Is Q of the packed matrix p (total index order), reindexed to the
    basis order `ids` (cell positions), the signed permutation of the
    tableau symmetry i -> image[i] (cell positions), with signs constant
    on `classes` (one label per column)?

    Returns the column labels, the sign of each class, the failures and
    the pivots (None when the pivot test fails).  Only a failing check
    unpacks p, to name its failure."""
    labels = tuple(map(cell(shape).labels.__getitem__, ids))
    signs: dict[str, int] = {}
    failures = []
    pivots = _pivot_test(p, ids, image)
    if pivots is None:
        pos = _inverse(ids)
        target = [pos[image[i]] for i in ids]
        failures = _qr_failures(_reindexed(p, ids), target, labels, symmetry)
    else:
        for label, v in zip(classes, pivots):
            s = 1 if v > 0 else -1
            if signs.setdefault(label, s) != s:
                failures.append(f'sign flips inside {class_word} {label}')
    return labels, signs, failures, pivots


@lru_cache(maxsize=None)
def _position_map(shape: Partition, op: Callable[..., Tableau],
                  *args: int) -> tuple[int, ...]:
    """op(tableaux[i], *args) = tableaux[table[i]], for a map op of the
    shape's tableaux (promotion, ev_k) that does not check its input."""
    cl = cell(shape)
    return tuple(cl.position[op(t, *args)] for t in cl.tableaux)


# ---------------------------------------------------------------------------
# the long-cycle check

def verify_thm1(shape: Partition,
                order: Sequence[Tableau] | None = None) -> CheckReport:
    """QR-factor the long cycle action and compare Q with promotion."""
    t0 = time.perf_counter()
    cl = cell(shape)
    ids = cl.positions(order)
    idx = [cl.indexes[i] for i in ids]
    if any(a > b for a, b in zip(idx, idx[1:])):
        raise ValueError('order must be weakly increasing in tableau index')
    cyc = long_cycle(sum(shape))
    packed = _packed(shape, cyc)
    table = _position_map(shape, _promote)
    labels, signs, failures, pivots = _decide(
        shape, packed, ids, table, [str(i) for i in idx], 'promotion',
        'index class')
    pos = _inverse(ids)
    prom = [pos[table[i]] for i in ids]
    # in an index-monotone order, passing pivots of +-1 imply the
    # leading terms (see the module docstring)
    if pivots is None or any(v != 1 and v != -1 for v in pivots):
        failures = _leading_term_failures(_reindexed(packed, ids), prom, idx,
                                          labels) + failures
    return CheckReport(
        theorem='thm1',
        passed=not failures,
        shape=tuple(shape),
        ordering=labels,
        witness={
            'cycle': list(cyc),
            'promotion': prom,
        },
        signs=signs or None,
        failures=failures,
        timing=time.perf_counter() - t0,
    )


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


def thm1_shape_reports(shape: Partition, seed: int = 0,
                       shuffles: int = 10) -> list[CheckReport]:
    """The canonical order plus seeded random index-monotone reorders."""
    reports = [verify_thm1(shape)]
    rng = Random(f'{seed}:thm1:{"-".join(map(str, shape))}')
    for _ in range(shuffles):
        reports.append(verify_thm1(shape, random_index_monotone_order(shape, rng)))
    return reports


# ---------------------------------------------------------------------------
# connected subsets, partial evacuation symmetries, chains

def _block(j_set: Iterable[int], n: int) -> tuple[int, int]:
    js = sorted(set(j_set))
    if not js:
        raise ValueError('J must be a nonempty set of generator indices')
    if js[0] < 1 or js[-1] > n - 1:
        raise ValueError(f'J must lie in 1..{n - 1}: {js}')
    if js != list(range(js[0], js[-1] + 1)):
        raise ValueError(f'J must be connected: {js}')
    return js[0], js[-1] + 1


def phi_connected(j_set: Iterable[int], t: Tableau) -> Tableau:
    """The tableau symmetry realized by w_J for connected J.

    With positions p..q (p = min J, q = max J + 1) and block size
    m = q-p+1, this is ev_q ev_m ev_q.
    """
    check_standard(t)
    p, q = _block(j_set, sum(shape_of(t)))
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
    p, q = _block(j_set, sum(shape))
    return {t: _preorder_key(t, p, q) for t in total_index_order(shape)}


def _preorder_key(t: Tableau, p: int, q: int) -> tuple[int, ...]:
    e = _partial_evacuate(t, q)
    key = []
    for _ in range(sum(shape_of(t)) - (q - p + 1)):
        e, i = _delete_largest(e)
        key.append(i)
    return tuple(key)


# Per-shape tables indexed by position in the total index order, shared
# by every chain on the shape.  They read the cell's tableaux, so they
# call the unchecked workers.  Each tableau is evacuated once per k and
# peeled once; the per-J table is composed from those.

@lru_cache(maxsize=None)
def _peel_table(shape: Partition) -> tuple[tuple[int, ...], ...]:
    """The index labels met while deleting the largest entry of
    tableaux[i] down to one box, at i."""
    return tuple(_total_index_key(t)[:-1] for t in cell(shape).tableaux)


@lru_cache(maxsize=None)
def _j_table(j_set: frozenset[int], shape: Partition
             ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[str, ...]]:
    """For connected J, at i: the position of phi_J(tableaux[i]), and the
    dense rank and str of its `preorder_connected` key among the keys of
    the shape.  Ranks compare as the keys do."""
    n = sum(shape)
    p, q = _block(j_set, n)
    evq = _position_map(shape, _partial_evacuate, q)
    evm = _position_map(shape, _partial_evacuate, q - p + 1)
    peel = _peel_table(shape)
    keys = [peel[e][:n - (q - p + 1)] for e in evq]
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return (tuple(evq[evm[e]] for e in evq),
            tuple(rank[key] for key in keys),
            tuple(str(key) for key in keys))


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


class _ChainData(NamedTuple):
    js: tuple[frozenset[int], ...]
    w_js: tuple[Perm, ...]  # w_{J_1}, ..., w_{J_k}
    w: Perm  # w_{J_k} ... w_{J_1}
    members: tuple[tuple[int, ...], ...]  # each J sorted, for the report


@lru_cache(maxsize=None)
def _chain_data(js: tuple[frozenset[int], ...], n: int) -> _ChainData:
    """The validated chain with its longest elements and their product."""
    if not js:
        raise ValueError('chain must be nonempty')
    for j in js:
        _block(j, n)
    for a, b in zip(js, js[1:]):
        if not a < b:
            raise ValueError('chain must strictly increase')
    w_js = tuple(longest_element(j, n) for j in js)
    w = tuple(range(1, n + 1))
    for w_j in w_js:
        w = multiply(w_j, w)
    return _ChainData(js, w_js, w, tuple(tuple(sorted(j)) for j in js))


class _ChainState(NamedTuple):
    """What a chain's check reads, by position in the total index order.
    A chain's state grows from the state of the chain without its
    outermost member (see "Shared thm4 state")."""

    m: _Packed  # M(w_{J_k} ... w_{J_1})
    perm: list[int]  # the basis order
    text: Sequence[str]  # str of the composite key, without its parentheses
    phi: Sequence[int]  # the composite symmetry


class _SlotBoundedLRU:
    """Chain states by key, least recently used first out, holding at
    most `budget` matrix slots (d**2 for a state of dimension d) in all."""

    def __init__(self, budget: int):
        self.budget = budget
        self.slots = 0
        self._states: OrderedDict[object, _ChainState] = OrderedDict()

    def get(self, key: object) -> _ChainState | None:
        state = self._states.get(key)
        if state is not None:
            self._states.move_to_end(key)
        return state

    def put(self, key: object, state: _ChainState) -> None:
        """Keep state under a key the cache does not hold."""
        size = len(state.perm) ** 2
        if size > self.budget:
            return
        self._states[key] = state
        self.slots += size
        while self.slots > self.budget:
            _, old = self._states.popitem(last=False)
            self.slots -= len(old.perm) ** 2

    def clear(self) -> None:
        self._states.clear()
        self.slots = 0


# the states of the chains that extend further, so that a longer chain
# costs one extension; 2**20 slots cover every such state up to n = 6 and
# bound the memory at n = 8
_chain_states = _SlotBoundedLRU(1 << 20)


def _chain_state(shape: Partition, js: tuple[frozenset[int], ...],
                 w_js: tuple[Perm, ...]) -> _ChainState:
    """The state of the chain js, grown from the (cached) state of the
    chain without J_k: M(w_{J_k}) times its packed rows, its order sorted
    stably on the rank of J_k, J_k's key text before its text and phi_{J_k}
    after its phi.  The result is shared with the cache: callers must not
    change it."""
    key = (shape, js)
    state = _chain_states.get(key)
    if state is not None:
        return state
    phi_k, rank_k, str_k = _j_table(js[-1], shape)
    if len(js) == 1:
        state = _ChainState(_packed(shape, w_js[0]),
                            sorted(range(len(phi_k)), key=rank_k.__getitem__),
                            str_k, phi_k)
    else:
        prefix = _chain_state(shape, js[:-1], w_js[:-1])
        state = _ChainState(
            _times(_factor(shape, w_js[-1]), prefix.m),
            sorted(prefix.perm, key=rank_k.__getitem__),
            [f'{s}, {t}' for s, t in zip(str_k, prefix.text)],
            list(map(phi_k.__getitem__, prefix.phi)))
    # a chain ending in J = {1, ..., n-1} is a prefix of no other
    if len(js[-1]) < sum(shape) - 1:
        _chain_states.put(key, state)
    return state


def verify_thm4_chain(shape: Partition,
                      chain: Sequence[Iterable[int]]) -> CheckReport:
    """QR-factor w_{J_k} ... w_{J_1} against the composite symmetry."""
    t0 = time.perf_counter()
    js, w_js, w, members = _chain_data(
        tuple(map(frozenset, chain)), sum(shape))
    cl = cell(shape)
    state = _chain_state(shape, js, w_js)
    # str of the composite key: a tuple of key tuples
    close = ',)' if len(js) == 1 else ')'
    text = state.text
    classes = [f'({text[i]}{close}' for i in state.perm]
    labels, signs, failures, _ = _decide(
        shape, state.m, state.perm, state.phi, classes,
        'the composite symmetry', 'class')
    phi = state.phi
    return CheckReport(
        theorem='thm4',
        passed=not failures,
        shape=tuple(shape),
        ordering=labels,
        witness={
            'chain': [list(j) for j in members],
            'w': list(w),
            'symmetry': dict(zip(cl.labels, map(cl.labels.__getitem__, phi))),
        },
        signs=signs or None,
        failures=failures,
        timing=time.perf_counter() - t0,
    )


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


def search_ordering(shape: Partition, w: Perm,
                    max_dim: int = 7) -> tuple[Tableau, ...] | None:
    """First basis order making QR of [w] a signed permutation, or None.

    Orders are tried in lexicographic position order against the total
    index order, so the result is deterministic.  Modules larger than
    `max_dim` are refused (the search is factorial).
    """
    tabs = total_index_order(shape)
    if len(tabs) > max_dim:
        raise ValueError(
            f'dimension {len(tabs)} exceeds the search bound {max_dim}'
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
