"""
Specht modules of S_n in the Kazhdan-Lusztig basis.

The module S^lambda has basis {C_T} indexed by the standard tableaux of
shape lambda.  A simple transposition acts on a basis vector through the
descent set of its tableau and the mu coefficients of column-word
preimages:

    s_j . C_T = -C_T                                  if j in D(T),
    s_j . C_T =  C_T + sum_{j in D(R)} mu(T, R) C_R   otherwise.

`generator_matrix` realizes this action as an integer matrix whose
column T holds the coordinates of s_j . C_T; `matrix_of` multiplies the
generator matrices along a reduced word, so matrix_of(u v) =
matrix_of(u) matrix_of(v) with the rightmost factor acting first.

The per-shape cell (`cell`) is where the tableaux of a shape are turned
into numbers, once: their descent sets, indexes, index classes (the
positions of each index, in index order) and display labels, and, on the
first `mu` lookup, the `hecke.tables(n)` id of each column word.  `mu`
is read off the polynomials `hecke` memoizes; the cell only maps
positions to KL ids, one pair per lookup.
These tableaux come from `enumerate_syt` and are standard by
construction, so the cell reads them with the unchecked `_` workers of
`tableaux` and `rsk`; everything downstream works on positions in the
total index order.  Basis orders passed in by a caller are validated
once, by cell position.

The cell builds s_1, ..., s_{n-1} together, once, in the total index
order: one pass over the unordered pairs of tableaux, with one `mu`
lookup for each pair whose descent sets differ (a pair with equal
descent sets has no entry in any s_j).  A one-dimensional module has no
pairs, so it never builds KL tables.  Each matrix is kept as a tuple
of tuples; every product is taken in that order and reindexed to the
requested basis order at the end, since reordering a basis conjugates
every factor by the same permutation.  The public
functions always return fresh lists.

Rows and columns follow a basis order, by default the total index order.
Ordering by index exposes a filtration: for j <= n-2 the action never
moves a basis vector toward a strictly larger index
(`check_filtration_invariance`), and the diagonal blocks of the
filtration (`quotient_matrices`) reproduce the Specht modules of S_{n-1}
for the shapes with one removable box deleted (`check_branching`), each
shape occurring once.

Matrices are plain lists of rows over exact Python numbers (int or
Fraction); nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import itemgetter
from typing import Sequence

from . import hecke
from .reports import CheckReport
from .rsk import _column_word
from .symgroup import Perm, check_perm, reduced_word
from .tableaux import (
    Partition,
    Tableau,
    _delete_largest,
    _descent_set,
    _tableau_index,
    check_partition,
    count_syt,
    enumerate_syt,
    format_tableau,
    removable_boxes,
)

__all__ = [
    'Matrix',
    'check_branching',
    'check_filtration_invariance',
    'generator_matrix',
    'identity_matrix',
    'mat_eq',
    'mat_mul',
    'mat_reindex',
    'mat_transpose',
    'matrix_entries',
    'matrix_of',
    'matrix_from_generator_word',
    'quotient_matrices',
    'total_index_order',
]

Matrix = list[list]  # rows of int or Fraction entries


# ---------------------------------------------------------------------------
# exact matrix helpers

def identity_matrix(d: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError('inner dimensions do not match')
    cols = len(b[0])
    out = []
    for row in a:
        new = [0] * cols
        for k, coeff in enumerate(row):
            if coeff:
                brow = b[k]
                for j in range(cols):
                    if brow[j]:
                        new[j] += coeff * brow[j]
        out.append(new)
    return out


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def mat_reindex(a: Sequence[Sequence], ids: Sequence[int]) -> Matrix:
    """Fresh matrix whose row and column c are row and column ids[c] of a."""
    if len(ids) < 2:  # itemgetter of one item returns the bare item
        return [[a[r][k] for k in ids] for r in ids]
    take = itemgetter(*ids)
    return list(map(list, map(take, take(a))))


def mat_transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def matrix_entries(a: Matrix) -> list[list[int | str]]:
    """Row-major entries for serialization: ints, or 'p/q' strings."""
    out: list[list[int | str]] = []
    for row in a:
        line: list[int | str] = []
        for x in row:
            if isinstance(x, Fraction):
                if x.denominator == 1:
                    line.append(int(x))
                else:
                    line.append(f'{x.numerator}/{x.denominator}')
            else:
                line.append(int(x))
        out.append(line)
    return out


# ---------------------------------------------------------------------------
# the cell data of a shape

class _Cell:
    """Tableaux of one shape with descent sets, indexes, index classes,
    labels, KL ids and cached generator matrices, all by position."""

    def __init__(self, shape: Partition):
        check_partition(shape)
        self.shape = shape
        self.tableaux = enumerate_syt(shape)
        self.position = {t: i for i, t in enumerate(self.tableaux)}
        self.descents = [_descent_set(t) for t in self.tableaux]
        self.indexes = [_tableau_index(t) for t in self.tableaux]
        # index -> cell positions of that index; the tableaux are in total
        # index order, so the keys ascend
        self.classes: dict[int, list[int]] = {}
        for k, i in enumerate(self.indexes):
            self.classes.setdefault(i, []).append(k)
        self.labels = tuple(format_tableau(t) for t in self.tableaux)
        self._kl: tuple[hecke._Tables, list[int]] | None = None
        self._generators: tuple[tuple[tuple[int, ...], ...], ...] | None = None

    def positions(self, order: Sequence[Tableau] | None) -> list[int]:
        """Cell position of each tableau of a basis order (None: the total
        index order).  This is where a caller's order is validated: it
        must list every tableau of the shape exactly once."""
        d = len(self.tableaux)
        if order is None:
            return list(range(d))
        ids = [self.position.get(t, -1) for t in order]
        if sorted(ids) != list(range(d)):
            raise ValueError(f'order is not a basis order for {self.shape}')
        return ids

    def kl_ids(self) -> tuple[hecke._Tables, list[int]]:
        """`hecke.tables(n)` and the id there of each tableau's column
        word.  Resolved on first use, so a cell that never needs mu never
        builds KL tables."""
        if self._kl is None:
            tab = hecke.tables(sum(self.shape))
            self._kl = (tab, [tab.index[_column_word(t)] for t in self.tableaux])
        return self._kl

    def mu(self, i: int, j: int) -> int:
        """`hecke.mu_tableaux` of the tableaux at positions i and j."""
        tab, ids = self.kl_ids()
        return tab.mu_ids(ids[i], ids[j])

    def generator(self, j: int) -> tuple[tuple[int, ...], ...]:
        """s_j in the total index order.  The first call builds s_1, ...,
        s_{n-1} together, in one pass over the unordered pairs of
        tableaux: a pair with different descent sets costs one `mu`
        lookup, and a nonzero mu(T, R) lands in s_j[R][T] for each j in
        D(R) but not in D(T).  Rows are tuples, so no caller can change
        the cached matrices."""
        if not 1 <= j <= sum(self.shape) - 1:
            raise ValueError(f's_{j} does not act on shape {self.shape}')
        if self._generators is None:
            d = len(self.tableaux)
            mats = [[[0] * d for _ in range(d)] for _ in range(sum(self.shape) - 1)]
            for t, dt in enumerate(self.descents):
                for k, mat in enumerate(mats, start=1):
                    mat[t][t] = -1 if k in dt else 1
                for r in range(t + 1, d):
                    dr = self.descents[r]
                    if dt != dr:
                        m = self.mu(t, r)
                        if m:
                            for k in dr - dt:
                                mats[k - 1][r][t] = m
                            for k in dt - dr:
                                mats[k - 1][t][r] = m
            self._generators = tuple(tuple(map(tuple, mat)) for mat in mats)
        return self._generators[j - 1]


@lru_cache(maxsize=None)
def cell(shape: Partition) -> _Cell:
    return _Cell(shape)


def total_index_order(shape: Partition) -> tuple[Tableau, ...]:
    """The default basis order (same as `enumerate_syt`)."""
    return cell(shape).tableaux


# ---------------------------------------------------------------------------
# matrices of the action

def generator_matrix(shape: Partition, j: int,
                     order: Sequence[Tableau] | None = None) -> Matrix:
    """Matrix of s_j acting on S^shape, columns indexed by `order`.

    >>> generator_matrix((2, 1), 1)
    [[-1, 1], [0, 1]]
    >>> generator_matrix((2, 1), 2)
    [[1, 0], [1, -1]]
    """
    c = cell(shape)
    return mat_reindex(c.generator(j), c.positions(order))


def matrix_from_generator_word(shape: Partition, word: Sequence[int],
                               order: Sequence[Tableau] | None = None) -> Matrix:
    """Product of generator matrices along a word (leftmost first).

    The product of the cell's cached generators is taken in the total
    index order, right to left so that each sparse generator is the left
    factor of `mat_mul`, and reindexed to `order` once at the end.
    """
    c = cell(shape)
    ids = c.positions(order)
    factors = [c.generator(j) for j in reversed(word)]
    out = (reduce(lambda acc, s: mat_mul(s, acc), factors) if factors
           else identity_matrix(len(ids)))
    return mat_reindex(out, ids)


def matrix_of(shape: Partition, w: Perm,
              order: Sequence[Tableau] | None = None) -> Matrix:
    """Matrix of w acting on S^shape (via any reduced word of w)."""
    check_perm(w)
    if len(w) != sum(shape):
        raise ValueError(f'{w} does not act on shape {shape}')
    return matrix_from_generator_word(shape, reduced_word(w), order)


# ---------------------------------------------------------------------------
# filtration and branching

def check_filtration_invariance(shape: Partition) -> CheckReport:
    """Do all s_j with j <= n-2 keep the span of lower-index basis vectors?

    Checks that generator matrices in the total index order have no entry
    in a row of strictly larger index than its column.
    """
    c = cell(shape)
    n = sum(shape)
    failures = []
    for j in range(1, n - 1):
        mat = c.generator(j)
        for col in range(len(mat)):
            for row in range(len(mat)):
                if mat[row][col] and c.indexes[row] > c.indexes[col]:
                    failures.append(
                        f's_{j} moves {format_tableau(c.tableaux[col])} '
                        f'(index {c.indexes[col]}) onto index {c.indexes[row]}'
                    )
    return CheckReport(
        theorem='filtration',
        passed=not failures,
        shape=shape,
        witness={'generators_checked': max(n - 2, 0)},
        failures=failures,
    )


def quotient_matrices(shape: Partition, i: int) -> list[Matrix]:
    """Matrices of s_1, ..., s_{n-2} on the index-i filtration quotient.

    Rows and columns run over the tableaux of index i in total index
    order (their relative order within the full basis).
    """
    c = cell(shape)
    n = sum(shape)
    members = c.classes.get(i)
    if not members:
        raise ValueError(f'shape {shape} has no removable box labelled {i}')
    out = []
    for j in range(1, n - 1):
        mat = c.generator(j)
        out.append([[mat[r][col] for col in members] for r in members])
    return out


def check_branching(shape: Partition) -> CheckReport:
    """Do the filtration quotients reproduce the S_{n-1} Specht modules?

    For each removable box i with reduced shape mu_i, deleting the
    largest entry must map the index-i tableaux bijectively and
    order-preservingly onto SYT(mu_i), and the quotient matrices must
    equal the generator matrices of S^{mu_i} on the nose.  The reduced
    shapes are pairwise distinct, so the restriction is multiplicity
    free.
    """
    c = cell(shape)
    n = sum(shape)
    failures = []
    reduced: list[Partition] = []
    for i, (r, _col) in enumerate(removable_boxes(shape), start=1):
        parts = list(shape)
        parts[r - 1] -= 1
        small = tuple(p for p in parts if p)
        reduced.append(small)
        members = [c.tableaux[k] for k in c.classes.get(i, ())]
        if not small:
            if len(members) != 1:
                failures.append(f'index-{i} class has size {len(members)}, expected 1')
            continue
        image = [_delete_largest(t)[0] for t in members]
        if image != list(enumerate_syt(small)):
            failures.append(
                f'index-{i} class does not map onto SYT({small}) in order'
            )
            continue
        quots = quotient_matrices(shape, i)
        for j, quot in enumerate(quots, start=1):
            expect = generator_matrix(small, j)
            if not mat_eq(quot, expect):
                failures.append(
                    f'index-{i} quotient of s_{j} differs from S^{small}'
                )
        if len(members) != count_syt(small):
            failures.append(
                f'index-{i} class has size {len(members)}, '
                f'expected {count_syt(small)}'
            )
    if len(set(reduced)) != len(reduced):
        failures.append('restriction is not multiplicity free')
    return CheckReport(
        theorem='branching',
        passed=not failures,
        shape=shape,
        witness={'reduced_shapes': [list(s) for s in reduced]},
        failures=failures,
    )
