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
positions of each index, in index order), column words and peel keys
(the index labels met deleting the largest entry down to one box),
display labels on first read, and, on the first `mu` lookup, the
`hecke.tables(n)` id of each column word.  `mu` is read off the
polynomials `hecke` memoizes; the cell only maps positions to KL ids,
one pair per lookup.
A cell of n >= 2 boxes is assembled from the cells one box smaller,
which stay cached: the index-i class of the total index order lists
SYT(lambda - box i) in order, so each tableau, descent set, index,
column word and peel key is one step from its counterpart there
(`_Cell`), and no tableau is listed, scanned or checked.
`enumerate_syt` and the `tableaux`/`rsk` workers stay the independent
routes the tests compare every cell with.  Everything downstream works
on positions in the total index order.  Basis orders passed in by a
caller are validated once, by cell position, also one of tableaux the
position dict cannot hash, and shapes by the cell (`check_partition`),
also one the cache cannot hash.

The cell builds s_1, ..., s_{n-1} together, once, in the total index
order, as the nonzero entries a product reads (`_Terms`): one pass over
the unordered pairs of tableaux, with one `mu` lookup for each pair
whose descent sets differ and whose column words' lengths differ in
parity (mu is 0 on every other pair).  A one-dimensional module has no
pairs, so it never builds KL tables.  These entries are the only form of
s_j the cell keeps: a dense s_j, or its block on one index class, is
read from their picks afresh on each `generator_matrix` or
`quotient_matrices` call (`_dense`), and never cached.  Every
product is folded in the total index order (`_Cell.fold`) and reindexed
to the requested basis order at the end, since reordering a basis
conjugates every factor by the same permutation.  The public functions
always return fresh lists.

Packed rows.  Every product runs on matrices kept as one int per row
(`_Packed`): entry (i, j) is a signed digit in the W-bit slot at bit
j * W.  A product A B adds one packed row of B, its negative or a
multiple of it per nonzero entry of A (`_times`, reading A's `_Terms`)
and carries the bound |A B| <= rowabs(A) max|B|; one whose bound would
reach 2**(W-1) raises `QRInvariantError`, also under `python -O`.
Packed rows are read out one way: `_read_terms` reads their nonzero
slots and `_dense` lays those out on the requested positions
(`_reindexed`).
`_Cell.fold`, behind `matrix_of`, takes W from the word: the product of
its generators' rowabs (times the largest |entry| of the matrix it
starts from, if not the identity), rounded up to a multiple of
`_SLOT_WIDTH` = 32; this is the one place a width is rounded.  That bound
grows geometrically along a word (44 bits at n = 7, 67 at n = 8).

Rows and columns follow a basis order, by default the total index order.
Ordering by index exposes a filtration: for j <= n-2 the action never
moves a basis vector toward a strictly larger index, and the diagonal
blocks of the filtration (`quotient_matrices`) reproduce the Specht
modules of S_{n-1} for the shapes with one removable box deleted, each
shape occurring once.  These two facts for one s_j are the branching
predicate B(lambda, j), tested in one place: `_b_failures`, cached per
(shape, j), reads the picks of s_j and of s_j on each smaller cell and
returns what fails, the entries below the filtration and the classes
whose block differs.  `check_filtration_invariance` and `check_branching`
word their failures from it, and `qrkit` decides a thm4 J on the shapes
one box smaller exactly where it is empty.

Matrices are plain lists of rows over exact Python numbers (int or
Fraction); nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import prod
from operator import neg
from typing import NamedTuple, Sequence

from . import hecke
from .reports import CheckReport
from .symgroup import Perm, reduced_word
from .tableaux import (
    Partition,
    Tableau,
    _delete_largest,
    _remove_box,
    _removable_boxes,
    check_partition,
    count_syt,
    format_tableau,
    removable_boxes,
)

__all__ = [
    'Matrix',
    'check_branching',
    'check_filtration_invariance',
    'generator_matrix',
    'mat_reindex',
    'matrix_entries',
    'matrix_of',
    'matrix_from_generator_word',
    'quotient_matrices',
    'total_index_order',
]

Matrix = list[list]  # rows of int or Fraction entries


# ---------------------------------------------------------------------------
# exact matrix helpers

def mat_reindex(a: Sequence[Sequence], ids: Sequence[int]) -> Matrix:
    """Fresh matrix whose row and column c are row and column ids[c] of a."""
    return [[a[r][k] for k in ids] for r in ids]


def matrix_entries(a: Matrix) -> list[list[int | str]]:
    """Row-major entries for serialization: ints, or 'p/q' strings.  An
    entry that is neither an int nor a Fraction, a float say, raises
    TypeError."""
    return [[_entry(x) for x in row] for row in a]


def _entry(x: object) -> int | str:
    """An int or Fraction entry as an int, or else as a 'p/q' string."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f'matrix entry {x!r} is not an int or a Fraction')
    return int(x) if x.denominator == 1 else f'{x.numerator}/{x.denominator}'


def _refuse_unordered(xs: object, what: str) -> None:
    """Refuse a set or a dict where the caller must list an order (a basis
    order, a chain): it would give its iteration order, which nobody
    chose."""
    if isinstance(xs, (set, frozenset, dict)):
        raise ValueError(f'{what} must be a sequence, not a {type(xs).__name__}')


# ---------------------------------------------------------------------------
# packed rows: one int per row of an integer matrix

class QRInvariantError(AssertionError):
    """An exact invariant of the QR route fails: `exact_qr` produced a
    factorization that fails its own check, or a matrix entry might not
    fit its packed slot.  Raised rather than asserted, so `python -O`
    keeps the check."""


class _Packed(NamedTuple):
    """A square integer matrix with one int per row: entry (i, j) sits in
    the `width`-bit slot at bit j * width of rows[i], as a signed digit,
    so rows[i] = sum of m[i][j] << (j * width).  Every entry has
    |entry| <= bound < 2**(width - 1)."""

    rows: Sequence[int]
    width: int
    bound: int


# the unit `_Cell.fold` rounds slot widths up to, so that `_words` holds
# a few widths
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


def _pick(k: int, x: int, d: int, scaled: list[tuple[int, int]]) -> int:
    """The operand of x times row k (see `_Terms`); (k, x) joins scaled
    when |x| > 1."""
    if x == 1 or x == -1:
        return k if x == 1 else d + k
    scaled.append((k, x))
    return 2 * d + len(scaled) - 1


def _entries(terms: _Terms, shift: int = 0) -> list[tuple[int, int]]:
    """The column (plus shift) and entry of each pick of `terms`, indexed
    by pick: pick p < 2d is column p mod d with entry +-1, and pick 2d + e
    the e-th scaled pair (see `_Terms`)."""
    d = len(terms.picks)
    return ([(k + shift, x) for x in (1, -1) for k in range(d)]
            + [(k + shift, x) for k, x in terms.scaled])


def _collect(picks: Sequence[Sequence[int]],
             scaled: list[tuple[int, int]]) -> _Terms:
    """The `_Terms` of each row's operands and the scaled pairs."""
    weights = [1] * (2 * len(picks)) + [abs(x) for _, x in scaled]
    rowabs = max(sum(map(weights.__getitem__, pick)) for pick in picks)
    maxabs = max(weights[2 * len(picks):], default=min(rowabs, 1))
    return _Terms(tuple(map(tuple, picks)), tuple(scaled), rowabs, maxabs)


def _read_terms(p: _Packed) -> _Terms:
    """The `_Terms` of a packed matrix, read off its nonzero slots only."""
    width, d = p.width, len(p.rows)
    bias, slots, tops, _ = _words(d, width)
    picks: list[list[int]] = []
    scaled: list[tuple[int, int]] = []
    for row in p.rows:
        biased, pick = row + bias, []
        rest = biased ^ bias  # zero exactly on the zero slots
        while rest:
            k = ((rest & -rest).bit_length() - 1) // width
            x = ((biased & slots[k]) - tops[k]) >> k * width
            pick.append(_pick(k, x, d, scaled))
            rest ^= rest & slots[k]
        picks.append(pick)
    return _collect(picks, scaled)


def _dense(terms: _Terms, ids: Sequence[int]) -> Matrix:
    """The matrix of `terms` on the rows and columns ids, as fresh lists:
    entry (a, b) is entry (ids[a], ids[b]), read from the picks of the
    rows ids whose column is among ids, in O(d + nonzeros)."""
    at = {k: a for a, k in enumerate(ids)}
    entries = _entries(terms)
    out = [[0] * len(ids) for _ in ids]
    for row, k in zip(out, ids):
        for col, x in map(entries.__getitem__, terms.picks[k]):
            if col in at:
                row[at[col]] += x
    return out


def _times(terms: _Terms, b: _Packed) -> _Packed:
    """A B in the slots of B, from the `_Terms` of A, with one addition
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


def _reindexed(p: _Packed, ids: Sequence[int]) -> Matrix:
    """The packed matrix with row and column c taken from ids[c], as
    fresh lists: the one read-out of packed rows, through their nonzero
    slots."""
    return _dense(_read_terms(p), ids)


# ---------------------------------------------------------------------------
# the cell data of a shape

class _Cell:
    """Tableaux of one shape with descent sets, indexes, index classes,
    column words, peel keys, labels, KL ids and the nonzero entries of
    each generator, all by position.

    For n >= 2 the cell is assembled from the cells one box smaller: the
    index-i class, for removable boxes i = (r, c) in label order, is
    SYT(lambda - box i) in its own total index order with n added at the
    end of row r.  That tableau T gets
    - D(T) = D(T') + {n-1} when n-1, which sits in the index box of T',
      lies in a row above r, else D(T') (the same frozenset);
    - idx(T) = i;
    - column word(T) = word(T') with n inserted after the boxes of
      columns 1..c-1, since box i is the foot of column c;
    - peel key(T) = (i,) + peel key(T'), the total index key of T
      without its last label.
    `smaller` keeps the first position and the shape lambda - box i of
    each class, for the tables read off the smaller cells.
    Labels are rendered on first read: a passing check never reads one."""

    def __init__(self, shape: Partition):
        check_partition(shape)
        self.shape = shape
        if shape == (1,):
            self.tableaux: tuple[Tableau, ...] = (((1,),),)
            self.descents: list[frozenset[int]] = [frozenset()]
            self.indexes = [1]
            self.words: list[tuple[int, ...]] = [(1,)]
            # the index labels met deleting the largest entry down to one box
            self.peels: list[tuple[int, ...]] = [()]
            # index -> cell positions of that index, keys ascending
            self.classes: dict[int, list[int]] = {1: [0]}
            # (first position, lambda - box i) of each index class i
            self.smaller: list[tuple[int, Partition]] = []
        else:
            self._grow(sum(shape))
        self._kl: tuple[hecke._Tables, list[int]] | None = None
        self._generator_terms: tuple[_Terms, ...] | None = None

    def _grow(self, n: int) -> None:
        """The fields of a shape of n >= 2 from the cells one box smaller,
        one index class at a time, in label order (see `_Cell`)."""
        tabs: list[Tableau] = []
        self.descents, self.indexes, self.words, self.peels = [], [], [], []
        self.classes, self.smaller = {}, []
        for i, (r, c) in enumerate(_removable_boxes(self.shape), start=1):
            rest = _remove_box(self.shape, r)
            small = cell(rest)
            self.smaller.append((len(tabs), rest))
            self.classes[i] = list(range(len(tabs), len(tabs) + len(small.tableaux)))
            self.indexes += [i] * len(small.tableaux)
            # n-1 sits in the index box of T', and this is its row
            rows = [row for row, _ in _removable_boxes(rest)]
            grown: dict[frozenset[int], frozenset[int]] = {}
            for t, dt, k in zip(small.tableaux, small.descents, small.indexes):
                tabs.append(t[:r - 1] + (t[r - 1] + (n,),) + t[r:]
                            if r <= len(t) else t + ((n,),))
                if rows[k - 1] < r:
                    dt = grown.get(dt) or grown.setdefault(dt, dt | {n - 1})
                self.descents.append(dt)
            at = sum(min(part, c - 1) for part in self.shape)
            self.words += [w[:at] + (n,) + w[at:] for w in small.words]
            self.peels += [(i,) + key for key in small.peels]
        self.tableaux = tuple(tabs)

    @cached_property
    def position(self) -> dict[Tableau, int]:
        """The cell position of each tableau."""
        return {t: i for i, t in enumerate(self.tableaux)}

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The display label of each tableau."""
        return tuple(map(format_tableau, self.tableaux))

    def positions(self, order: Sequence[Tableau] | None) -> list[int]:
        """Cell position of each tableau of a basis order (None: the total
        index order).  This is where a caller's order is validated: it
        must list every tableau of the shape exactly once, in a sequence
        (a set or a dict raises)."""
        d = len(self.tableaux)
        if order is None:
            return list(range(d))
        if order.__class__ is not tuple:
            _refuse_unordered(order, 'order')
        try:
            ids = list(map(self.position.get, order, repeat(-1)))
        except TypeError:  # a tableau the dict cannot hash: a list, say
            ids = []
        if sorted(ids) != list(range(d)):
            raise ValueError(f'order is not a basis order for {self.shape}')
        return ids

    def kl_ids(self) -> tuple[hecke._Tables, list[int]]:
        """`hecke.tables(n)` and the id there of each tableau's column
        word.  Resolved on first use, so a cell that never needs mu never
        builds KL tables."""
        if self._kl is None:
            tab = hecke.tables(sum(self.shape))
            self._kl = (tab, list(map(tab.index.__getitem__, self.words)))
        return self._kl

    def mu(self, i: int, j: int) -> int:
        """`hecke.mu_tableaux` of the tableaux at positions i and j."""
        tab, ids = self.kl_ids()
        return tab.mu_ids(ids[i], ids[j])

    def generator_terms(self, j: int) -> _Terms:
        """s_j in the total index order, as the `_Terms` a product reads.
        The first call builds s_1, ..., s_{n-1} together, in one pass over
        the tableaux T: a diagonal pick (-1 if j is in D(T), else 1), then
        for each later R with mu(T, R) != 0 a pick in row R at T for each
        j in D(R) - D(T), and in row T at R for each j in D(T) - D(R), so
        rows come out in column order.  mu is looked up only where it can
        be nonzero (see the module docstring)."""
        n, d = sum(self.shape), len(self.tableaux)
        if not 1 <= j <= n - 1:
            raise ValueError(f's_{j} does not act on shape {self.shape}')
        if self._generator_terms is None:
            picks = [[[] for _ in range(d)] for _ in range(n - 1)]
            scaled: list[list[tuple[int, int]]] = [[] for _ in range(n - 1)]
            tab, ids = self.kl_ids() if d > 1 else (None, [])
            odd = [tab.lengths[i] & 1 for i in ids]
            for t, dt in enumerate(self.descents):
                for k in range(1, n):
                    picks[k - 1][t].append(d + t if k in dt else t)
                for r in range(t + 1, d):
                    dr = self.descents[r]
                    if dt != dr and odd[t] != odd[r]:
                        m = self.mu(t, r)
                        if m:
                            for k in dr - dt:
                                picks[k - 1][r].append(_pick(t, m, d, scaled[k - 1]))
                            for k in dt - dr:
                                picks[k - 1][t].append(_pick(r, m, d, scaled[k - 1]))
            self._generator_terms = tuple(map(_collect, picks, scaled))
        return self._generator_terms[j - 1]

    def fold(self, word: Sequence[int], start: _Terms | None = None) -> _Packed:
        """The product of the generators along word (leftmost first) times
        the matrix `start` (None: the identity) in the total index order,
        folded on packed rows right to left.  The slots hold start's
        maxabs times the product of the factors' rowabs, so no step
        overflows them; rounding their width up to a multiple of
        `_SLOT_WIDTH` keeps `_words` to a few widths."""
        factors = [self.generator_terms(j) for j in reversed(word)]
        width = _width(prod(terms.rowabs for terms in factors)
                       * (1 if start is None else start.maxabs))
        width += -width % _SLOT_WIDTH
        out = (_Packed(_words(len(self.tableaux), width).units, width, 1)
               if start is None else _pack(start, width))
        for terms in factors:
            out = _times(terms, out)
        return out


@lru_cache(maxsize=None)
def _cell(shape: Partition) -> _Cell:
    return _Cell(shape)


def cell(shape: Partition) -> _Cell:
    """The cached cell of a shape.  A shape the cache cannot hash (a
    list, say) gets `check_partition`'s ValueError, as every other bad
    shape does, before the cache's TypeError."""
    try:
        return _cell(shape)
    except TypeError:
        check_partition(shape)
        raise


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
    return _dense(c.generator_terms(j), c.positions(order))


def matrix_from_generator_word(shape: Partition, word: Sequence[int],
                               order: Sequence[Tableau] | None = None) -> Matrix:
    """Product of generator matrices along a word (leftmost first).

    The packed fold of the word in the total index order (`_Cell.fold`),
    unpacked and reindexed to `order` once.
    """
    c = cell(shape)
    ids = c.positions(order)
    return _reindexed(c.fold(word), ids)


def matrix_of(shape: Partition, w: Perm,
              order: Sequence[Tableau] | None = None) -> Matrix:
    """Matrix of w acting on S^shape (via any reduced word of w, which
    `reduced_word` checks is a permutation)."""
    if len(w) != sum(shape):
        raise ValueError(f'{w} does not act on shape {shape}')
    return matrix_from_generator_word(shape, reduced_word(w), order)


# ---------------------------------------------------------------------------
# filtration and branching

@lru_cache(maxsize=None)
def _b_failures(shape: Partition, j: int
                ) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """What fails B(shape, j) for 1 <= j <= n-2, read off the picks of s_j
    in the total index order, in O(nonzeros): the (column, row) positions
    of the entries in a row of larger index than their column, column-major
    (the filtration), and the index classes i whose diagonal block differs
    from s_j on lambda - box i (the branching to S_{n-1}).  Class i sits at
    positions start, start + 1, ... (`_Cell.smaller`), and its block is
    compared row by row as (column - start, entry) pairs, sorted only when
    they differ in pick order.  B holds exactly when both are empty."""
    cl = cell(shape)
    terms = cl.generator_terms(j)
    entries = _entries(terms)
    below: list[tuple[int, int]] = []
    differs = []
    for i, (start, small) in enumerate(cl.smaller, start=1):
        sub = cell(small).generator_terms(j)
        shifted, end, same = _entries(sub, start), start + len(sub.picks), True
        for row, picks in enumerate(sub.picks, start):
            pairs = list(map(entries.__getitem__, terms.picks[row]))
            want = list(map(shifted.__getitem__, picks))
            w = len(want)
            if pairs[:w] == want and all(k >= end for k, _ in pairs[w:]):
                continue  # the block row, then entries right of the block
            below += [(k, row) for k, _ in pairs if k < start]
            block = [(k, x) for k, x in pairs if start <= k < end]
            same = same and sorted(block) == sorted(want)
        if not same:
            differs.append(i)
    return tuple(sorted(below)), tuple(differs)


def check_filtration_invariance(shape: Partition) -> CheckReport:
    """Do all s_j with j <= n-2 keep the span of lower-index basis vectors?

    Reports each entry of s_j in a row of strictly larger index than its
    column, column by column, as B finds them (`_b_failures`).
    """
    c = cell(shape)
    n = sum(shape)
    failures = [f's_{j} moves {c.labels[col]} (index {c.indexes[col]}) '
                f'onto index {c.indexes[row]}'
                for j in range(1, n - 1) for col, row in _b_failures(shape, j)[0]]
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
    order (their relative order within the full basis).  Each block is
    read from the generator's picks (`_dense`), with no dense generator
    in between.
    """
    c = cell(shape)
    members = c.classes.get(i)
    if not members:
        raise ValueError(f'shape {shape} has no removable box labelled {i}')
    return [_dense(c.generator_terms(j), members) for j in range(1, sum(shape) - 1)]


def check_branching(shape: Partition) -> CheckReport:
    """Do the filtration quotients reproduce the S_{n-1} Specht modules?

    For each removable box i with reduced shape mu_i, deleting the
    largest entry must map the index-i tableaux bijectively and
    order-preservingly onto SYT(mu_i), and the quotient of each s_j must
    equal s_j on S^{mu_i} on the nose, as B compares them (`_b_failures`,
    with no dense matrix).  The reduced shapes are pairwise distinct, so
    the restriction is multiplicity free.

    The cell is assembled from the cells of the mu_i (see `_Cell`), so
    the clause "the index-i class maps onto SYT(mu_i) in order" holds by
    construction; tests pin it against `enumerate_syt`.  `count_syt`
    stays its independent size check.
    """
    c = cell(shape)
    n = sum(shape)
    differs = [_b_failures(shape, j)[1] for j in range(1, n - 1)]
    failures = []
    reduced: list[Partition] = []
    for i, (r, _col) in enumerate(removable_boxes(shape), start=1):
        small = _remove_box(shape, r)
        reduced.append(small)
        members = [c.tableaux[k] for k in c.classes.get(i, ())]
        if not small:
            if len(members) != 1:
                failures.append(f'index-{i} class has size {len(members)}, expected 1')
            continue
        image = [_delete_largest(t)[0] for t in members]
        if image != list(total_index_order(small)):
            failures.append(
                f'index-{i} class does not map onto SYT({small}) in order'
            )
            continue
        failures += [f'index-{i} quotient of s_{j} differs from S^{small}'
                     for j, classes in enumerate(differs, start=1) if i in classes]
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
