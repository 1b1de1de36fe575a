"""
Symmetric group combinatorics on one-line words.

A permutation w of S_n is the tuple (w(1), ..., w(n)).  Composition is
right-to-left: multiply(u, v) applies v first.  The simple transposition
s_j swaps j and j+1; acting on the *left* it swaps the values j, j+1 of a
word, acting on the right it swaps positions.  Descent sets are taken on
the left throughout: j is a descent of w when j+1 appears before j in the
word, equivalently length(s_j w) < length(w).

Bruhat order is implemented by the prefix criterion: v <= w iff for every
k the sorted prefix (v(1), ..., v(k)) is entrywise at most the sorted
prefix of w.

Separable permutations are those avoiding the patterns 2413 and 3142;
they coincide with the *descending* permutations, the products
w_{J_k} ... w_{J_1} of longest elements of a strictly increasing chain
J_1 < J_2 < ... < J_k of subsets of the generators.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable

__all__ = [
    'Perm',
    'all_perms',
    'bruhat_leq',
    'check_perm',
    'descending_decomposition',
    'descending_table',
    'format_perm',
    'format_subset',
    'identity',
    'inverse',
    'is_separable',
    'left_descents',
    'left_mult_s',
    'length',
    'long_cycle',
    'longest_element',
    'multiply',
    'parse_perm',
    'reduced_word',
    'right_descents',
    'right_mult_s',
    'schroeder_number',
    'separable_tree',
    'simple',
    'tree_to_perm',
]

Perm = tuple[int, ...]


def check_perm(w: Perm) -> None:
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f'not a permutation of 1..{len(w)}: {w!r}')


def parse_perm(text: str, n: int | None = None) -> Perm:
    """Parse ``"8,5,1,6,2,7,3,4"``, or the digit shorthand ``"85162734"``
    when every value is a single digit (n <= 9).

    The literal ``"c"`` denotes the long cycle (2, 3, ..., n, 1); this
    form needs `n` to be supplied.
    """
    if text == 'c':
        if n is None:
            raise ValueError('the long cycle literal "c" needs an ambient n')
        return long_cycle(n)
    if ',' in text:
        try:
            w = tuple(int(piece) for piece in text.split(','))
        except ValueError:
            raise ValueError(f'bad permutation literal: {text!r}') from None
    elif text.isdigit():
        w = tuple(int(ch) for ch in text)
    else:
        raise ValueError(f'bad permutation literal: {text!r}')
    check_perm(w)
    if n is not None and len(w) != n:
        raise ValueError(f'expected a permutation of 1..{n}: {text!r}')
    return w


def format_perm(w: Perm) -> str:
    return ','.join(str(v) for v in w)


def format_subset(j: Iterable[int]) -> str:
    return '{' + ','.join(str(x) for x in sorted(j)) + '}'


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def all_perms(n: int) -> list[Perm]:
    """All of S_n, in lexicographic one-line order."""
    return list(permutations(range(1, n + 1)))


def length(w: Perm) -> int:
    """Coxeter length, i.e. the number of inversions."""
    return sum(
        1
        for i, j in combinations(range(len(w)), 2)
        if w[i] > w[j]
    )


def multiply(u: Perm, v: Perm) -> Perm:
    """Composition u after v: (u v)(i) = u(v(i))."""
    if len(u) != len(v):
        raise ValueError('cannot compose permutations of different sizes')
    return tuple(u[x - 1] for x in v)


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, x in enumerate(w, start=1):
        out[x - 1] = i
    return tuple(out)


def simple(j: int, n: int) -> Perm:
    """The simple transposition s_j in S_n."""
    if not 1 <= j <= n - 1:
        raise ValueError(f's_{j} is not a generator of S_{n}')
    w = list(range(1, n + 1))
    w[j - 1], w[j] = w[j], w[j - 1]
    return tuple(w)


def left_mult_s(w: Perm, j: int) -> Perm:
    """s_j w: swap the values j and j+1 in the word."""
    out = list(w)
    for i, x in enumerate(out):
        if x == j:
            out[i] = j + 1
        elif x == j + 1:
            out[i] = j
    return tuple(out)


def right_mult_s(w: Perm, j: int) -> Perm:
    """w s_j: swap positions j and j+1."""
    out = list(w)
    out[j - 1], out[j] = out[j], out[j - 1]
    return tuple(out)


def left_descents(w: Perm) -> set[int]:
    """{j : j+1 appears before j in the word}, i.e. length(s_j w) < length(w).

    >>> sorted(left_descents((2, 4, 1, 3)))
    [1, 3]
    """
    pos = inverse(w)
    return {j for j in range(1, len(w)) if pos[j] < pos[j - 1]}


def right_descents(w: Perm) -> set[int]:
    """{j : w(j) > w(j+1)}."""
    return {j for j in range(1, len(w)) if w[j - 1] > w[j]}


def bruhat_leq(v: Perm, w: Perm) -> bool:
    """Bruhat order by the sorted-prefix criterion.

    >>> bruhat_leq((1, 3, 2, 4), (3, 4, 1, 2))
    True
    """
    if len(v) != len(w):
        raise ValueError('cannot compare permutations of different sizes')
    vp: list[int] = []
    wp: list[int] = []
    for k in range(len(v) - 1):
        insort(vp, v[k])
        insort(wp, w[k])
        if any(a > b for a, b in zip(vp, wp)):
            return False
    return True


def reduced_word(w: Perm) -> list[int]:
    """A reduced word, stripping the smallest left descent first.

    The returned list [j_1, ..., j_k] satisfies w = s_{j_1} ... s_{j_k}.

    >>> reduced_word((3, 2, 1))
    [1, 2, 1]
    """
    word = []
    while True:
        descents = left_descents(w)
        if not descents:
            return word
        j = min(descents)
        word.append(j)
        w = left_mult_s(w, j)


def longest_element(j_set: frozenset[int] | set[int], n: int) -> Perm:
    """Longest element w_J of the parabolic subgroup generated by
    {s_j : j in J}: it reverses each connected block of J and fixes the
    rest.  J = {1, ..., n-1} gives the longest element of S_n."""
    j_sorted = sorted(j_set)
    if not j_sorted:
        raise ValueError('J must be a nonempty set of generator indices')
    if j_sorted[0] < 1 or j_sorted[-1] > n - 1:
        raise ValueError(f'J must lie in 1..{n - 1}: {sorted(j_set)}')
    word = list(range(1, n + 1))
    start = j_sorted[0]
    prev = j_sorted[0]
    for j in j_sorted[1:] + [None]:  # type: ignore[list-item]
        if j is not None and j == prev + 1:
            prev = j
            continue
        # positions start..prev+1 form a block; reverse them
        word[start - 1:prev + 1] = word[start - 1:prev + 1][::-1]
        if j is not None:
            start = prev = j
    return tuple(word)


def long_cycle(n: int) -> Perm:
    """The n-cycle c = (2, 3, ..., n, 1), i.e. c(i) = i+1 mod n."""
    if n < 1:
        raise ValueError('n must be positive')
    return tuple(list(range(2, n + 1)) + [1])


def is_separable(w: Perm) -> bool:
    """True when w avoids the patterns 2413 and 3142."""
    check_perm(w)
    for quad in combinations(w, 4):
        ranks = tuple(sorted(quad).index(x) + 1 for x in quad)
        if ranks == (2, 4, 1, 3) or ranks == (3, 1, 4, 2):
            return False
    return True


def separable_tree(w: Perm):
    """Decomposition tree of a separable permutation, or None.

    Nodes are ('leaf',), ('sum', left, right), ('skew', left, right),
    where direct sums concatenate with the right part shifted up and skew
    sums with the left part shifted up.  `tree_to_perm` evaluates back.
    """
    check_perm(w)
    return _tree(w)


@lru_cache(maxsize=None)
def _tree(w: Perm):
    n = len(w)
    if n == 1:
        return ('leaf',)
    for k in range(1, n):
        prefix = w[:k]
        if max(prefix) == k:
            left = _tree(prefix)
            right = _tree(tuple(x - k for x in w[k:]))
            if left is not None and right is not None:
                return ('sum', left, right)
        if min(prefix) == n - k + 1:
            left = _tree(tuple(x - (n - k) for x in prefix))
            right = _tree(w[k:])
            if left is not None and right is not None:
                return ('skew', left, right)
    return None


def tree_to_perm(tree) -> Perm:
    """Evaluate a decomposition tree back to its permutation."""
    kind = tree[0]
    if kind == 'leaf':
        return (1,)
    left = tree_to_perm(tree[1])
    right = tree_to_perm(tree[2])
    k, m = len(left), len(right)
    if kind == 'sum':
        return left + tuple(x + k for x in right)
    if kind == 'skew':
        return tuple(x + m for x in left) + right
    raise ValueError(f'bad tree node: {tree!r}')


@lru_cache(maxsize=None)
def descending_table(n: int) -> dict[Perm, tuple[frozenset[int], ...]]:
    """All descending permutations of S_n with one witness chain each.

    Chains J_1 < ... < J_k of generator subsets are explored breadth first
    (shortest chain first, subsets ordered by size then content), and each
    product w_{J_k} ... w_{J_1} keeps the first chain that reaches it.
    """
    if n < 2:
        return {}
    gens = range(1, n)
    subsets = [
        frozenset(combo)
        for size in gens
        for combo in combinations(gens, size)
    ]
    table: dict[Perm, tuple[frozenset[int], ...]] = {}
    level = []
    for j in subsets:
        chain = (j,)
        prod = longest_element(j, n)
        if prod not in table:
            table[prod] = chain
        level.append((chain, prod))
    while level:
        nxt = []
        for chain, prod in level:
            top = chain[-1]
            for j in subsets:
                if top < j:
                    bigger = multiply(longest_element(j, n), prod)
                    if bigger not in table:
                        table[bigger] = chain + (j,)
                    nxt.append((chain + (j,), bigger))
        level = nxt
    return table


def descending_decomposition(w: Perm) -> tuple[frozenset[int], ...] | None:
    """A chain J_1 < ... < J_k with w = w_{J_k} ... w_{J_1}, or None.

    The witness is the first chain found by `descending_table`'s search
    order, so it is deterministic.
    """
    check_perm(w)
    if len(w) < 2:
        return None if w != (1,) else ()
    if w == identity(len(w)):
        return ()
    return descending_table(len(w)).get(w)


def schroeder_number(k: int) -> int:
    """Large Schroeder number r_k (r_0 = 1, r_1 = 2, r_2 = 6, ...).

    Computed by the convolution recurrence, independent of any pattern
    enumeration; S_n contains r_{n-1} separable permutations.
    """
    if k < 0:
        raise ValueError('k must be nonnegative')
    r = [1]
    for m in range(1, k + 1):
        r.append(r[m - 1] + sum(r[i] * r[m - 1 - i] for i in range(m)))
    return r[k]
