"""
Partitions, standard Young tableaux, and the index order.

A partition of $n$ is a weakly decreasing tuple of positive integers with
sum $n$, drawn as a left-justified diagram of boxes.  A standard Young
tableau (SYT) of that shape is a filling by $1, \\dots, n$ that increases
along rows and down columns; it is stored here as a tuple of row tuples.

A box is *removable* when deleting it leaves a partition diagram, i.e. it
is the last box of its row and of its column.  Removable boxes are
labelled $1, 2, \\dots$ from the top row downward.  The *index* of a
tableau is the label of the removable box holding $n$.  Comparing by
index, and recursively by the index of the tableau with its largest entry
deleted, yields the *total index order*; `enumerate_syt` lists tableaux in
exactly that order and it is the canonical basis order everywhere in this
package.

Validation happens at the boundary.  The public tableau functions
(`tableau_index`, `delete_largest`, `descent_set`, ...) check their input
with `check_standard` and then call a `_`-prefixed worker, which assumes
a standard tableau and checks nothing.  The workers are for tableaux that
are standard by construction: those of `enumerate_syt` or of a `specht`
cell, and the images of such tableaux under the `jdt` operations.

`enumerate_syt` lists afresh on every call and memoizes nothing: a
shape's tableaux are held by its `specht` cell, which assembles them from
the cells one box smaller without listing, or by the one sweep job that
lists them.  The cell's descent sets and indexes come out of that
assembly too; `enumerate_syt`, `_descent_set` and `_tableau_index` are
the independent routes the tests check each cell against.

The peel behind the total index order (delete the largest entry until
nothing is left) is written once, in `_total_index_key`, which
`total_index_key`, `total_index_cmp` and `qrkit._preorder_key` read.
The shape one step of it leaves, lambda less removable box i, is written
once too, in `_remove_box`, which `specht._Cell._grow` (the cell one box
smaller, and with it each tableau's peel key), `specht.check_branching`
and the prop-dmu sweep in `cli` read.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

__all__ = [
    'Box',
    'Partition',
    'Tableau',
    'check_partition',
    'check_standard',
    'count_syt',
    'delete_largest',
    'descent_set',
    'enumerate_syt',
    'format_partition',
    'format_tableau',
    'parse_partition',
    'parse_tableau',
    'partitions',
    'position_of',
    'removable_boxes',
    'shape_of',
    'tableau_index',
    'total_index_cmp',
    'total_index_key',
]

Partition = tuple[int, ...]
Box = tuple[int, int]  # (row, col), 1-based
Tableau = tuple[tuple[int, ...], ...]


def check_partition(shape: Partition) -> None:
    """Raise ValueError unless `shape` is a partition with positive parts."""
    if not isinstance(shape, tuple) or not shape:
        raise ValueError(f'not a nonempty partition tuple: {shape!r}')
    for part in shape:
        if not isinstance(part, int) or part < 1:
            raise ValueError(f'partition parts must be positive integers: {shape!r}')
    if any(a < b for a, b in zip(shape, shape[1:])):
        raise ValueError(f'partition parts must weakly decrease: {shape!r}')


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition literal such as ``"3,1,1"``."""
    try:
        shape = tuple(int(piece) for piece in text.split(','))
    except ValueError:
        raise ValueError(f'bad partition literal: {text!r}') from None
    check_partition(shape)
    return shape


def format_partition(shape: Partition) -> str:
    return ','.join(str(part) for part in shape)


def shape_of(tableau: Tableau) -> Partition:
    """Row lengths of a tableau."""
    return tuple(len(row) for row in tableau)


def check_standard(tableau: Tableau) -> None:
    """Raise ValueError unless rows/columns strictly increase and the
    entries are exactly 1..n."""
    shape = shape_of(tableau)
    check_partition(shape)
    n = sum(shape)
    seen = sorted(entry for row in tableau for entry in row)
    if seen != list(range(1, n + 1)):
        raise ValueError(f'entries are not exactly 1..{n}: {tableau!r}')
    for row in tableau:
        if any(a >= b for a, b in zip(row, row[1:])):
            raise ValueError(f'rows must strictly increase: {tableau!r}')
    for upper, lower in zip(tableau, tableau[1:]):
        if any(upper[c] >= lower[c] for c in range(len(lower))):
            raise ValueError(f'columns must strictly increase: {tableau!r}')


def parse_tableau(text: str) -> Tableau:
    """Parse a row literal such as ``"1,4,5/2/3"`` (rows split by ``/``)."""
    try:
        tableau = tuple(
            tuple(int(piece) for piece in row.split(','))
            for row in text.split('/')
        )
    except ValueError:
        raise ValueError(f'bad tableau literal: {text!r}') from None
    check_standard(tableau)
    return tableau


def format_tableau(tableau: Tableau) -> str:
    return '/'.join(','.join(str(e) for e in row) for row in tableau)


def position_of(tableau: Tableau, value: int) -> Box:
    """1-based (row, col) of `value` in `tableau`."""
    for r, row in enumerate(tableau, start=1):
        for c, entry in enumerate(row, start=1):
            if entry == value:
                return (r, c)
    raise ValueError(f'{value} does not appear in {tableau!r}')


def removable_boxes(shape: Partition) -> list[Box]:
    """Removable boxes of a diagram, top row first.

    The label of a removable box is its 1-based position in this list.

    >>> removable_boxes((6, 6, 3, 1))
    [(2, 6), (3, 3), (4, 1)]
    >>> removable_boxes((3, 1, 1))
    [(1, 3), (3, 1)]
    """
    check_partition(shape)
    return _removable_boxes(shape)


def _removable_boxes(shape: Partition) -> list[Box]:
    boxes = []
    for r, part in enumerate(shape, start=1):
        below = shape[r] if r < len(shape) else 0
        if part > below:
            boxes.append((r, part))
    return boxes


def _remove_box(shape: Partition, r: int) -> Partition:
    """shape less the last box of row r (1-based), a removable box."""
    parts = list(shape)
    parts[r - 1] -= 1
    return tuple(p for p in parts if p)


def tableau_index(tableau: Tableau) -> int:
    """Label of the removable box holding the largest entry."""
    check_standard(tableau)
    return _tableau_index(tableau)


def _tableau_index(tableau: Tableau) -> int:
    n = sum(shape_of(tableau))
    box = position_of(tableau, n)
    return _removable_boxes(shape_of(tableau)).index(box) + 1


def delete_largest(tableau: Tableau) -> tuple[Tableau, int]:
    """Remove the box holding n.  Returns (smaller tableau, index label).

    >>> delete_largest(((1, 3), (2,)))
    (((1,), (2,)), 1)
    """
    check_standard(tableau)
    return _delete_largest(tableau)


def _delete_largest(tableau: Tableau) -> tuple[Tableau, int]:
    n = sum(shape_of(tableau))
    rows = [row[:-1] if row[-1] == n else row for row in tableau]
    return tuple(row for row in rows if row), _tableau_index(tableau)


def total_index_key(tableau: Tableau) -> tuple[int, ...]:
    """Sequence of index labels along the peel n, n-1, ..., 1.

    Sorting by this key realizes the total index order; the key determines
    the tableau (it records the whole chain of shapes).
    """
    check_standard(tableau)
    return _total_index_key(tableau)


def _total_index_key(tableau: Tableau) -> tuple[int, ...]:
    key = []
    while tableau:
        tableau, i = _delete_largest(tableau)
        key.append(i)
    return tuple(key)


def total_index_cmp(a: Tableau, b: Tableau) -> int:
    """Three-way comparison in the total index order (-1, 0, or +1).

    Compares the `total_index_key`s.  Only tableaux of equal shape are
    comparable.
    """
    check_standard(a)
    check_standard(b)
    if shape_of(a) != shape_of(b):
        raise ValueError('tableaux of different shapes are not comparable')
    ka, kb = _total_index_key(a), _total_index_key(b)
    return (ka > kb) - (ka < kb)


def descent_set(tableau: Tableau) -> set[int]:
    """{j : j+1 sits in a strictly lower row than j}.

    >>> sorted(descent_set(((1, 3, 4), (2, 5))))
    [1, 4]
    """
    check_standard(tableau)
    return _descent_set(tableau)


def _descent_set(tableau: Tableau) -> set[int]:
    row_of = {}
    for r, row in enumerate(tableau, start=1):
        for entry in row:
            row_of[entry] = r
    n = len(row_of)
    return {j for j in range(1, n) if row_of[j + 1] > row_of[j]}


def enumerate_syt(shape: Partition) -> tuple[Tableau, ...]:
    """All SYT of `shape`, listed in the total index order.

    Entries n, n-1, ... are placed at removable boxes in label order, so the
    depth-first emission order is lexicographic on `total_index_key`.
    """
    check_partition(shape)
    grid = [[0] * part for part in shape]
    parts = list(shape)
    out: list[Tableau] = []

    def fill(m: int) -> None:
        if m == 0:
            out.append(tuple(tuple(row) for row in grid))
            return
        for r, c in _removable_boxes(tuple(p for p in parts if p)):
            grid[r - 1][c - 1] = m
            parts[r - 1] -= 1
            fill(m - 1)
            parts[r - 1] += 1

    fill(sum(shape))
    return tuple(out)


def count_syt(shape: Partition) -> int:
    """Number of SYT of `shape`, by the hook length product.

    Independent of `enumerate_syt` (no enumeration), so the two cross-check
    each other.

    >>> count_syt((2, 2))
    2
    >>> count_syt((3, 1, 1))
    6
    """
    check_partition(shape)
    cols = _conjugate(shape)
    hooks = 1
    for r, part in enumerate(shape, start=1):
        for c in range(1, part + 1):
            hooks *= (part - c) + (cols[c - 1] - r) + 1
    return factorial(sum(shape)) // hooks


def conjugate(shape: Partition) -> Partition:
    """Transpose of the diagram (column lengths)."""
    check_partition(shape)
    return _conjugate(shape)


def _conjugate(shape: Partition) -> Partition:
    return tuple(
        sum(1 for part in shape if part >= c)
        for c in range(1, shape[0] + 1)
    )


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in descending lexicographic order."""
    if n < 1:
        raise ValueError(f'partitions of n >= 1 only: {n}')
    out: list[Partition] = []

    def extend(prefix: list[int], rest: int, cap: int) -> None:
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, rest), 0, -1):
            prefix.append(part)
            extend(prefix, rest - part, part)
            prefix.pop()

    extend([], n, n)
    return tuple(out)
