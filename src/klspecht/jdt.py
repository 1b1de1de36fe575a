"""
Jeu de taquin promotion and (partial) evacuation on standard tableaux.

Promotion `pr` deletes the largest entry, slides the hole to the top-left
corner (always swapping with the larger of the neighbours above and to the
left), adds one to every entry, and writes 1 in the corner:

>>> promote(((1, 2), (3, 4)))
((1, 3), (2, 4))

Inverse promotion deletes 1, slides the hole outward (swapping with the
smaller of the neighbours to the right and below), subtracts one, and
writes n in the final hole.

Evacuation `ev_n` repeats inverse promotion on the shrinking subtableau of
unfixed boxes, fixing the box where each slide terminates.  Partial
evacuation `ev_k` stops after the top k entries have been fixed, i.e. it
runs the reverse slides for m = k, k-1, ..., 2 on the entries 1..m only.
A box is unfixed during step m exactly when it holds a value <= m, so no
explicit mask is needed.

All three operations preserve standardness and the shape.

The public functions validate their tableau with `check_standard` and
then call a `_`-prefixed worker (`_promote`, `_inverse_promote`,
`_partial_evacuate`), which assumes a standard tableau and checks
nothing.  The `lemma-pr` sweep worker calls them directly on the
tableaux of a `specht` cell; the verifiers' per-shape tables are read
off the smaller shapes' instead and call none, so these slides stay the
independent route the tests compare those tables with.
"""

from __future__ import annotations

from .tableaux import Tableau, check_standard, position_of, shape_of

__all__ = [
    'evacuate',
    'inverse_promote',
    'partial_evacuate',
    'promote',
]


def promote(tableau: Tableau) -> Tableau:
    """Jeu de taquin promotion.

    >>> promote(((1, 3, 4), (2, 5)))
    ((1, 2, 5), (3, 4))
    """
    check_standard(tableau)
    return _promote(tableau)


def _promote(tableau: Tableau) -> Tableau:
    n = sum(shape_of(tableau))
    grid = [list(row) for row in tableau]
    r, c = position_of(tableau, n)
    r -= 1
    c -= 1
    while r > 0 or c > 0:
        above = grid[r - 1][c] if r > 0 else None
        left = grid[r][c - 1] if c > 0 else None
        # entries are distinct, so the larger neighbour is unambiguous
        if left is None or (above is not None and above > left):
            grid[r][c] = above
            r -= 1
        else:
            grid[r][c] = left
            c -= 1
    grid[0][0] = 0
    return tuple(tuple(e + 1 for e in row) for row in grid)


def _reverse_slide(grid: list[list[int]], m: int) -> None:
    """Inverse promotion of the entries 1..m in place; entries > m stay put.

    Deletes 1, slides the hole toward the outer boundary of the region
    (swapping with the smaller of right/below, considering only entries
    <= m), renumbers 2..m down by one, and writes m in the hole.
    """
    rows = len(grid)
    r = c = -1
    for i, row in enumerate(grid):
        for j, entry in enumerate(row):
            if entry == 1:
                r, c = i, j
    while True:
        right = None
        if c + 1 < len(grid[r]) and grid[r][c + 1] <= m:
            right = grid[r][c + 1]
        below = None
        if r + 1 < rows and c < len(grid[r + 1]) and grid[r + 1][c] <= m:
            below = grid[r + 1][c]
        if right is None and below is None:
            break
        if below is None or (right is not None and right < below):
            grid[r][c] = right
            c += 1
        else:
            grid[r][c] = below
            r += 1
    for i, row in enumerate(grid):
        for j, entry in enumerate(row):
            if 1 < entry <= m:
                row[j] = entry - 1
    grid[r][c] = m


def inverse_promote(tableau: Tableau) -> Tableau:
    """Inverse of `promote`.

    >>> inverse_promote(((1, 3, 4), (2, 5)))
    ((1, 2, 3), (4, 5))
    >>> inverse_promote(promote(((1, 3, 4), (2, 5))))
    ((1, 3, 4), (2, 5))
    """
    check_standard(tableau)
    return _inverse_promote(tableau)


def _inverse_promote(tableau: Tableau) -> Tableau:
    """One reverse slide of every entry."""
    grid = [list(row) for row in tableau]
    _reverse_slide(grid, sum(shape_of(tableau)))
    return tuple(tuple(row) for row in grid)


def partial_evacuate(tableau: Tableau, k: int) -> Tableau:
    """Evacuation of the top k entries, `ev_k`.

    Runs the reverse slide on the entries 1..m for m = k down to 2; the
    box where the slide for m terminates keeps the value m and is never
    entered again (later slides only move entries below m).
    """
    check_standard(tableau)
    n = sum(shape_of(tableau))
    if not 1 <= k <= n:
        raise ValueError(f'need 1 <= k <= {n}, got {k}')
    return _partial_evacuate(tableau, k)


def _partial_evacuate(tableau: Tableau, k: int) -> Tableau:
    grid = [list(row) for row in tableau]
    for m in range(k, 1, -1):
        _reverse_slide(grid, m)
    return tuple(tuple(row) for row in grid)


def evacuate(tableau: Tableau) -> Tableau:
    """Full evacuation `ev_n`, an involution.

    >>> evacuate(((1, 3, 4), (2, 5)))
    ((1, 3, 4), (2, 5))
    >>> evacuate(((1, 2), (3, 4)))
    ((1, 2), (3, 4))
    """
    return partial_evacuate(tableau, sum(shape_of(tableau)))
