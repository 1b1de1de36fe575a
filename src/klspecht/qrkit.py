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
through `_decide`, which runs `exact_qr` only when that test fails, to
name the failure.  `exact_qr` remains the factorization behind the `qr`
command and the basis-order loop shared by `search_ordering` and
`verify_counterexample`.

The verifiers check matrices of the Specht module action:

* `verify_thm1`: the long cycle c = (2, ..., n, 1) acts, in any basis
  order weakly increasing in the tableau index, by Q R with Q the signed
  permutation matrix of jeu de taquin promotion, signs constant on index
  classes, and the matrix itself supports columns only on promotions of
  tableaux of weakly smaller index.
* `verify_thm4_chain`: for a chain J_1 < ... < J_k of connected
  generator subsets, w = w_{J_k} ... w_{J_1} acts by Q R with Q the
  signed permutation of the composite partial-evacuation symmetry phi =
  phi_{J_k} ... phi_{J_1}, signs constant on the blocks of the composite
  preorder.  Everything a check shares with other checks is derived
  once (see "Shared thm4 state" below); the rest costs one matrix
  product, one sort of d positions and the decision.
* `verify_counterexample`: for the non-separable w = 2413 on shape
  (3, 1), no basis order at all yields a signed-permutation Q.
* `search_ordering`: brute-force the basis orders of a small module for
  one that makes QR of [w] a signed permutation.

The matrices of the long cycle and of each w_J are built once per
shape in the total index order (`_matrix`, keyed by (shape, w)) and
reindexed once per check.  Reordering a basis conjugates every factor by
the same permutation, so the reindexed products equal `matrix_of` of w
in the checked order exactly.  `matrix_of` itself is not cached: a
caller sweeping all of S_n would otherwise keep n! matrices alive.

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
  k = 2..n (`_evacuation_table`) and the index labels of each tableau
  peeled down to one box (`_peel_table`, the `tableaux` peel worker's
  total index key without its last label).  Each tableau is evacuated
  n-1 times per shape, whatever the number of J.
* Per (J, shape), one table composed from those (`_j_table`): phi_J =
  ev_q ev_m ev_q, and the dense rank and str of the preorder key, the
  first n-m labels of the peel of ev_q(T).  A chain reads it once per J:
  its basis order sorts positions on the rank lists, outermost J first,
  and its class labels join the key strings into the str of the
  composite key.  `phi_connected` and `preorder_connected` evacuate and
  peel directly, with a peel loop of their own (`_preorder_key`): an
  independent route the tables are tested against.
* Prefix products: M(chain) = M(w_{J_k}) M(chain without J_k), where the
  second factor is read from an LRU of the products of chains that
  extend further (`_prefixes`).  It is bounded by its total count of
  matrix entries, 2**20: that holds every such product up to n = 6 and a
  whole shape's DFS subtree at n = 7 and 8, so a DFS sweep always hits
  and memory stays bounded where all products would not fit (54 M
  entries at n = 8).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _permutations
from math import isqrt
from random import Random
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    """`exact_qr` produced a factorization that fails its own exact
    check.  Raised rather than asserted, so `python -O` keeps the check."""


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
    No factorization is computed.

    >>> pivot_signs([[0, -1], [1, 0]], [1, 0])
    (1, -1)
    >>> pivot_signs([[1, 0], [1, 1]], [0, 1]) is None
    True
    """
    signs = []
    for c, r in enumerate(target):
        row = m[r]
        if any(row[:c]) or not row[c]:
            return None
        signs.append(1 if row[c] > 0 else -1)
    return tuple(signs)


def _qr_failures(m: Matrix, target: Sequence[int], labels: Sequence[str],
                 symmetry: str) -> list[str]:
    """Why QR of m does not realize c -> target[c], once `pivot_signs`
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
                           'that pivot_signs rejected')


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
def _matrix(shape: Partition, w: Perm) -> tuple[tuple[int, ...], ...]:
    """The matrix of w in the total index order, kept per (shape, w) for
    the few w the verifiers use (the long cycle and each w_J)."""
    return tuple(map(tuple, matrix_of(shape, w)))


def _decide(shape: Partition, canonical: Sequence[Sequence[int]],
            ids: Sequence[int], image: Sequence[int], classes: Sequence[str],
            symmetry: str, class_word: str
            ) -> tuple[Matrix, list[int], list[str], dict[str, int], list[str]]:
    """Is Q of `canonical` (total index order), reindexed to the basis
    order `ids` (cell positions), the signed permutation of the tableau
    symmetry i -> image[i] (cell positions), with signs constant on
    `classes` (one label per column)?

    Returns the reindexed matrix, the target row of each column, the
    column labels, the sign of each class and the failures."""
    mat = mat_reindex(canonical, ids)
    pos = _inverse(ids)
    target = [pos[image[i]] for i in ids]
    cell_labels = cell(shape).labels
    labels = [cell_labels[i] for i in ids]
    signs: dict[str, int] = {}
    failures = []
    q_signs = pivot_signs(mat, target)
    if q_signs is None:
        failures = _qr_failures(mat, target, labels, symmetry)
    else:
        for label, s in zip(classes, q_signs):
            if signs.setdefault(label, s) != s:
                failures.append(f'sign flips inside {class_word} {label}')
    return mat, target, labels, signs, failures


# ---------------------------------------------------------------------------
# the long-cycle check

@lru_cache(maxsize=None)
def _promotion_table(shape: Partition) -> tuple[int, ...]:
    """promote(tableaux[i]) = tableaux[table[i]]."""
    cl = cell(shape)
    return tuple(cl.position[_promote(t)] for t in cl.tableaux)


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
    mat, prom, labels, signs, sign_failures = _decide(
        shape, _matrix(shape, cyc), ids, _promotion_table(shape),
        [str(i) for i in idx], 'promotion', 'index class')
    d = len(ids)
    origin = _inverse(prom)  # origin[prom[c]] = c
    failures = []

    # leading-term shape of the matrix itself: column T is supported on
    # rows pr(R) with index(R) <= index(T), and carries +-1 at pr(T)
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
    failures.extend(sign_failures)
    return CheckReport(
        theorem='thm1',
        passed=not failures,
        shape=tuple(shape),
        ordering=tuple(labels),
        witness={
            'cycle': list(cyc),
            'promotion': prom,
        },
        signs=signs or None,
        failures=failures,
        timing=time.perf_counter() - t0,
    )


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
def _evacuation_table(k: int, shape: Partition) -> tuple[int, ...]:
    """ev_k(tableaux[i]) = tableaux[table[i]]."""
    cl = cell(shape)
    return tuple(cl.position[_partial_evacuate(t, k)] for t in cl.tableaux)


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
    evq = _evacuation_table(q, shape)
    evm = _evacuation_table(q - p + 1, shape)
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


class _EntryBoundedLRU:
    """Square matrices by key, least recently used first out, holding at
    most `budget` matrix entries in all."""

    def __init__(self, budget: int):
        self.budget = budget
        self.entries = 0
        self._mats: OrderedDict[object, Matrix] = OrderedDict()

    def get(self, key: object) -> Matrix | None:
        mat = self._mats.get(key)
        if mat is not None:
            self._mats.move_to_end(key)
        return mat

    def put(self, key: object, mat: Matrix) -> None:
        """Keep mat under a key the cache does not hold."""
        size = len(mat) ** 2
        if size > self.budget:
            return
        self._mats[key] = mat
        self.entries += size
        while self.entries > self.budget:
            _, old = self._mats.popitem(last=False)
            self.entries -= len(old) ** 2

    def clear(self) -> None:
        self._mats.clear()
        self.entries = 0


# chain products M(w_{J_k}) ... M(w_{J_1}) of the chains that extend
# further, so that a longer chain costs one product; 2**20 entries cover
# every such prefix up to n = 6 and bound the memory at n = 8
_prefixes = _EntryBoundedLRU(1 << 20)


def _chain_matrix(shape: Partition, js: tuple[frozenset[int], ...],
                  w_js: tuple[Perm, ...]) -> Matrix:
    """M(w_{J_k}) ... M(w_{J_1}) in the total index order, as the product
    of M(w_{J_k}) with the (cached) matrix of the chain without J_k.  The
    result is shared with the cache: callers must not change it."""
    if len(js) == 1:
        return _matrix(shape, w_js[0])
    key = (shape, js)
    mat = _prefixes.get(key)
    if mat is None:
        mat = mat_mul(_matrix(shape, w_js[-1]),
                      _chain_matrix(shape, js[:-1], w_js[:-1]))
        # a chain ending in J = {1, ..., n-1} is a prefix of no other
        if len(js[-1]) < sum(shape) - 1:
            _prefixes.put(key, mat)
    return mat


def verify_thm4_chain(shape: Partition,
                      chain: Sequence[Iterable[int]]) -> CheckReport:
    """QR-factor w_{J_k} ... w_{J_1} against the composite symmetry."""
    t0 = time.perf_counter()
    js, w_js, w, members = _chain_data(
        tuple(frozenset(j) for j in chain), sum(shape))
    # everything below is indexed by position in the total index order
    cl = cell(shape)
    d = len(cl.tableaux)
    # the composite key compares its members' keys outermost first; the
    # position is the total_index_key tie-break: the cell is sorted by it
    tables = [_j_table(j, shape) for j in js]
    _, ranks, strs = zip(*reversed(tables))
    keys = list(zip(*ranks, range(d)))
    perm = sorted(range(d), key=keys.__getitem__)
    # str of the composite key: a tuple of key tuples
    close = ',)' if len(js) == 1 else ')'
    parts = list(zip(*strs))
    classes = ['(' + ', '.join(parts[i]) + close for i in perm]
    phi: Sequence[int] = range(d)
    for table, _, _ in tables:
        phi = [table[i] for i in phi]
    _, _, labels, signs, failures = _decide(
        shape, _chain_matrix(shape, js, w_js), perm, phi, classes,
        'the composite symmetry', 'class')
    return CheckReport(
        theorem='thm4',
        passed=not failures,
        shape=tuple(shape),
        ordering=tuple(labels),
        witness={
            'chain': [list(j) for j in members],
            'w': list(w),
            'symmetry': {
                label: cl.labels[phi[i]] for i, label in enumerate(cl.labels)
            },
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
