"""
Row-insertion RSK, its inverse, and column superstandard tableaux.

`rsk` sends a permutation word $w_1 \\dots w_n$ to an (insertion,
recording) pair $(P, Q)$ of standard tableaux of the same shape by
Schensted row insertion: each letter bumps the smallest larger entry to
the next row, and Q records where the diagram grew.

>>> rsk((2, 4, 1, 3))
(((1, 3), (2, 4)), ((1, 2), (3, 4)))

The column superstandard tableau `css` of a shape is filled $1, 2, \\dots$
down consecutive columns.  Its indexed variants `css_i` place $n$ in
removable box $i$ (say in row $k$), then $n-1, \\dots, n-k+1$ at the ends
of rows $k-1, \\dots, 1$, and fill the rest column by column.  Permutations
whose recording tableau is column superstandard are recovered by reading
the insertion tableau down columns, bottom to top (`column_word`).

The public functions validate their tableaux with `check_standard`;
`_column_word` is the unchecked worker behind `column_word`.  The
`specht` cell does not call it: it inserts n into the column words of
the cells one box smaller, and the tests check those words against
`_column_word`.
"""

from __future__ import annotations

from bisect import bisect_left

from .symgroup import check_perm
from .tableaux import (
    Partition,
    Tableau,
    _conjugate,
    check_partition,
    check_standard,
    position_of,
    removable_boxes,
    shape_of,
)

__all__ = [
    'column_word',
    'css',
    'css_i',
    'inverse_rsk',
    'rsk',
]


def rsk(word: tuple[int, ...]) -> tuple[Tableau, Tableau]:
    """Insertion and recording tableaux of a permutation word."""
    check_perm(word)
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, letter in enumerate(word, start=1):
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([letter])
                q_rows.append([step])
                break
            row = p_rows[r]
            i = bisect_left(row, letter)
            if i == len(row):
                row.append(letter)
                q_rows[r].append(step)
                break
            row[i], letter = letter, row[i]
            r += 1
    return tuple(tuple(r) for r in p_rows), tuple(tuple(r) for r in q_rows)


def inverse_rsk(p: Tableau, q: Tableau) -> tuple[int, ...]:
    """The permutation word mapping to (p, q) under `rsk`."""
    check_standard(p)
    check_standard(q)
    if shape_of(p) != shape_of(q):
        raise ValueError('insertion and recording tableaux must share a shape')
    n = sum(shape_of(p))
    rows = [list(row) for row in p]
    word = [0] * n
    for step in range(n, 0, -1):
        r, c = position_of(q, step)
        if c != len(rows[r - 1]):
            raise ValueError(f'recording tableau is not standard at {step}')
        letter = rows[r - 1].pop()
        for i in range(r - 2, -1, -1):
            row = rows[i]
            j = bisect_left(row, letter) - 1
            row[j], letter = letter, row[j]
        word[step - 1] = letter
    return tuple(word)


def css(shape: Partition) -> Tableau:
    """Column superstandard tableau: 1, 2, ... down consecutive columns.

    >>> css((4, 3, 1))
    ((1, 4, 6, 8), (2, 5, 7), (3,))
    """
    check_partition(shape)
    grid = [[0] * part for part in shape]
    value = 1
    for c, height in enumerate(_conjugate(shape)):
        for r in range(height):
            grid[r][c] = value
            value += 1
    return tuple(tuple(row) for row in grid)


def css_i(shape: Partition, i: int) -> Tableau:
    """Column superstandard tableau of index i.

    >>> css_i((4, 3, 1), 2)
    ((1, 4, 6, 7), (2, 5, 8), (3,))
    """
    boxes = removable_boxes(shape)
    if not 1 <= i <= len(boxes):
        raise ValueError(f'shape {shape} has no removable box labelled {i}')
    n = sum(shape)
    k, col = boxes[i - 1]
    grid: list[list[int | None]] = [[None] * part for part in shape]
    grid[k - 1][col - 1] = n
    for m in range(1, k):
        grid[k - m - 1][shape[k - m - 1] - 1] = n - m
    value = 1
    for c in range(shape[0]):
        for r in range(len(shape)):
            if c < shape[r] and grid[r][c] is None:
                grid[r][c] = value
                value += 1
    result = tuple(tuple(row) for row in grid)  # type: ignore[arg-type]
    check_standard(result)
    return result


def column_word(p: Tableau) -> tuple[int, ...]:
    """Column reading word, bottom to top within each column.

    For tableaux of shape lambda this is the permutation whose `rsk`
    insertion tableau is p and whose recording tableau is css(lambda).

    >>> column_word(((1, 2, 3, 4), (5, 6, 7), (8,)))
    (8, 5, 1, 6, 2, 7, 3, 4)
    """
    check_standard(p)
    return _column_word(p)


def _column_word(p: Tableau) -> tuple[int, ...]:
    shape = shape_of(p)
    word = []
    for c, height in enumerate(_conjugate(shape)):
        for r in range(height - 1, -1, -1):
            word.append(p[r][c])
    return tuple(word)

