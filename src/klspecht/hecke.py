"""
Kazhdan-Lusztig polynomials and mu coefficients for S_n, two ways.

Polynomials in q are coefficient tuples by ascending degree with no
trailing zeros, so () is 0 and (1,) is 1.

The production route `kl_polynomial` runs the multiplication recursion
for the KL basis: with s a left descent of w and u = sw,

    P_{v,w} = P_{sv,u} + q P_{v,u}
              - sum over v <= z <= u with sz < z of
                mu(z, u) q^{(len(w)-len(z))/2} P_{v,z},

after first raising v through the left and right descents of w
(P_{v,w} = P_{sv,w} when sw < w < sv, and the mirror image), and
returning 1 outright when len(w) - len(v) <= 2.  The correction sum is
a masked, shifted scan: with d = len(w) - len(v),
`down[u] & smask[s] & scan[len(v) + (d & 1)]` keeps exactly the z below
u with s as a left descent, odd len(u) - len(z) and len(z) >= len(v),
and shifting it right by id(v) starts the scan at z = v (ids are lex
ranks, and Bruhat order implies lex order, so every z >= v has
id(z) >= id(v)); only v <= z is tested per candidate, and mu(z, u) is
read in place (1 for a gap of 1, else the top coefficient of P_{z,u}).
Every returned value is checked on the spot: constant term 1 and degree
at most (len(w) - len(v) - 1)/2.  A violation raises `KLInvariantError`,
also under `python -O`.

The independent oracle route `kl_oracle` never touches that recursion.
It computes R-polynomials by their own descent recursion (s a right
descent of w: R_{x,w} = R_{xs,ws} when xs < x, else
(q-1) R_{x,ws} + q R_{xs,ws}) and then solves the bar-invariance
triangular system

    q^{len(w)-len(x)} P_{x,w}(1/q) = sum_{x <= z <= w} R_{x,z} P_{z,w}

downward in x, reading the answer off the low half and verifying the
mirror half exactly (again raising `KLInvariantError`).  The two routes
share only the interned group tables (multiplication, lengths, Bruhat
bitsets), not the algorithm.  The tables are built on lex ranks, which
are the ids: lengths from Lehmer digits, the generator tables as one
column of ids per generator, the right one's a fixed permutation of
lex-rank blocks, the left one's read from them through the inverse ids
(s w = (w^-1 s)^-1), and each Bruhat downset as at most n downsets of
S_{n-1} side by side, one per first letter (see `_bruhat_rows`).

Each recursive call (`kl`, `rpoly`, `kl_oracle_ids`) works on a
strictly shorter Bruhat interval, so the recursion nests at most a few
frames per unit of len(w0) <= 28 and the interpreter's default limit is
enough; importing this module leaves that limit alone.

The Bruhat bitsets hold n!(n! + 1)/2 bits (row w has id(w) + 1), 102 MB
at n = 8, so `tables` refuses n above `MAX_N` = 8 before allocating
anything: S_9 would need about 8.2 GB.

mu(v, w) is the coefficient of degree (len(w)-len(v)-1)/2 in P_{v,w},
symmetrized so the arguments may come in either order; it feeds both the
W-graph edges and the Specht module matrices built on top of this module.
`mu_ids` puts its arguments in length order and reads 0 (even length
gap), 1 or 0 (gap 1, by Bruhat order) or the top coefficient of the
memoized `kl`; it keeps no memo of its own and does not call itself.
Before that last step comes the descent rule: for a gap d >= 3, mu(v, w)
is 0 when some left or right descent s of w is not one of v.  Then
P_{v,w} = P_{sv,w} (the raising above, Kazhdan-Lusztig, Invent. Math.
53, 1979, section 2), and the degree bound of P_{sv,w}, (d - 2)/2, lies
below the degree (d - 1)/2 that mu reads, so the rule is exact and no
polynomial is computed.  `kl`'s correction scan applies the same rule to
each mu(z, u) with a gap of 3 or more.

Memo tables, one set per n: `kl_memo` holds the production polynomials,
keyed by (v, w) after the descent raising; `r_memo` and `oracle_memo`
hold the oracle's R-polynomials and polynomials.

Thread note: the per-n memo tables are plain dicts, safe for concurrent
readers under the GIL; writers are not synchronized, so confine each n to
one worker (the CLI parallelizes across shapes in separate processes).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial

from .rsk import column_word
from .tableaux import Tableau, shape_of

__all__ = [
    'KLInvariantError',
    'MAX_N',
    'QPoly',
    'check_affordable',
    'check_rhoades_insertion',
    'format_qpoly',
    'kl_oracle',
    'kl_polynomial',
    'mu',
    'mu_tableaux',
    'qp_add',
    'qp_coeff',
    'qp_mul',
    'qp_shift',
    'qp_sub',
]

QPoly = tuple[int, ...]

_ZERO: QPoly = ()
_ONE: QPoly = (1,)

MAX_N = 8


def qp_trim(coeffs) -> QPoly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def qp_add(a: QPoly, b: QPoly) -> QPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return qp_trim(out)


def qp_sub(a: QPoly, b: QPoly) -> QPoly:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return qp_trim(out)


def qp_shift(a: QPoly, k: int) -> QPoly:
    """Multiply by q^k."""
    return (0,) * k + a if a else a


def qp_mul(a: QPoly, b: QPoly) -> QPoly:
    if not a or not b:
        return _ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return qp_trim(out)


def qp_coeff(a: QPoly, k: int) -> int:
    return a[k] if 0 <= k < len(a) else 0


def format_qpoly(p: QPoly) -> str:
    """Ascending-degree text: () -> "0", (1, 0, 1) -> "1+q^2"."""
    if not p:
        return '0'
    parts = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = 'q' if k == 1 else f'q^{k}'
            body = power if mag == 1 else f'{mag}{power}'
        if not parts:
            parts.append(body if c > 0 else f'-{body}')
        else:
            parts.append(f'+{body}' if c > 0 else f'-{body}')
    return ''.join(parts)


class KLInvariantError(AssertionError):
    """A KL polynomial failed its exact check on the spot.  Raised rather
    than asserted, so `python -O` keeps the check."""


def _swap_first_two(m: int) -> list[int]:
    """pi_m for m >= 2: the lex rank of each word of S_m is sent to the
    lex rank of that word with its first two letters swapped.

    A rank is a (m-1)! + b (m-2)! + r: the first letter is the a-th
    smallest (from 0), the second the b-th smallest of the rest, and r
    ranks the tail among its own letters.  After the swap the first
    letter is the u-th smallest, u = b + [b >= a], the second is the
    (a - [a > u])-th smallest of the rest, and the tail keeps r.  So
    pi_m is a run of (m-2)! consecutive ranks for each (a, b)."""
    f1, f2 = factorial(m - 1), factorial(m - 2)
    pi = []
    for a in range(m):
        for b in range(m - 1):
            u = b + (b >= a)
            start = u * f1 + (a - (a > u)) * f2
            pi.extend(range(start, start + f2))
    return pi


def _lex_inverse(n: int) -> list[int]:
    """The lex rank of w^-1 for each lex rank of w in S_n.

    The word of rank a (n-1)! + r is a + 1 followed by the word x of
    rank r in S_{n-1}, its letters from a + 1 up raised by one.  Its
    inverse is x^-1 raised by one with the letter 1 inserted at
    position a.  In S_m, `insert[a][y]` is the rank of the word of rank
    y in S_{m-1}, raised by one, with 1 inserted at position a.  At
    a = 0 that rank is y.  At a > 0 the first letter stays in front with
    one more smaller letter after it, so its Lehmer digit
    c = y // (m-2)! grows by one, and the tail of rank y mod (m-2)! takes
    the insertion at a - 1."""
    ranks = [0]
    insert = [[0]]  # S_1: the letter 1 into the empty word
    for m in range(2, n + 1):
        f1 = factorial(m - 1)
        insert = [list(range(f1))] + [
            [(c + 1) * f1 + t for c in range(m - 1) for t in tail]
            for tail in insert]
        ranks = [x for row in insert for x in map(row.__getitem__, ranks)]
    return ranks


def _bitsets(values: list[int], digits: list[list[str]]) -> list[int]:
    """One bitset per table of digits: bit i is table[values[i]], read as
    one base-2 string that `str.translate` makes from a string of one
    character per id."""
    text = ''.join(map(chr, reversed(values)))
    return [int(text.translate(table), 2) for table in digits]


def _bruhat_rows(n: int) -> list[int]:
    """`down` of `_Tables(n)`, each row joined from rows of
    `tables(n - 1)`.

    Let w have first letter a and tail x, standardized into S_{n-1}.  The
    v <= w with first letter b, their tails standardized, are a principal
    downset of S_{n-1}: none for b > a, that of x for b = a, and for b < a
    that of f_{a-2}(... f_{b+1}(f_b(x))) (x itself for b = a - 1), where
    f_c(y) = max(y, s_c y).  By the lifting property (Bjorner-Brenti, GTM
    231, Prop. 2.2.7) for s = s_{a-1}, a left descent of w, v <= w iff
    min(v, s v) <= s w, and s w has first letter a - 1 and tail x.  For
    b < a - 1, s acts on the tails as s_{a-2}, and {y : min(y, s_{a-2} y)
    <= z} is the downset of f_{a-2}(z).  The v with first letter b are the
    ids (b - 1)(n-1)! to b (n-1)! - 1 in the lex order of their tails, so
    row w is rows of S_{n-1} side by side: one byte join once (n-1)! is a
    multiple of 8, shifts below that."""
    if n == 1:
        return [1]
    sub = tables(n - 1)
    size = factorial(n - 1)
    ids = range(size)
    # blocks[a][b], a and b from 0, holds for each tail id the tail whose
    # S_{n-1} row is block b of the row with first letter a + 1.  Moving
    # to the next first letter lifts the tails of block b by one more f_c;
    # y and s_c y are ordered alike in Bruhat and lex order, so f_c(y) is
    # the larger id
    lift = [list(map(max, ids, col)) for col in sub.lmult]
    blocks: list[list] = [[] for _ in range(n)]
    for b in range(n):
        blocks[b].append(ids)
        if b + 1 < n:
            blocks[b + 1].append(ids)
        tail = ids
        for a in range(b + 2, n):
            tail = list(map(lift[a - 2].__getitem__, tail))
            blocks[a].append(tail)
    rows = sub.down
    if size % 8:
        return [sum(rows[y] << (b * size) for b, y in enumerate(tails))
                for block in blocks for tails in zip(*block)]
    rows = [row.to_bytes(size // 8, 'little') for row in rows]
    return [int.from_bytes(b''.join(parts), 'little') for block in blocks
            for parts in zip(*[list(map(rows.__getitem__, col)) for col in block])]


class _Tables:
    """Interned S_n: ids are lex ranks (perms[i] is the i-th word that
    `permutations` yields), with lengths, generator actions, descent
    bitmasks, Bruhat downsets as bitsets, and the memo tables of both
    routes (see the module docstring).

    Lengths are sums of Lehmer digits.  The generator tables are columns,
    one per s_j and none for S_1: `rmult[j - 1][i]` is the id of
    perms[i] s_j, and `lmult[j - 1][i]` that of s_j perms[i].  w s_j swaps
    the first two letters of w's tail of length m = n - j + 1, which
    permutes each block of m! consecutive ids by `_swap_first_two(m)`.
    `lmult` and `ldesc` are `rmult` and `rdesc` read through the inverse
    ids (`_lex_inverse`), since s_j w = (w^-1 s_j)^-1.  `down[i]` has bit
    v set iff perms[v] <= perms[i] in Bruhat order (`_bruhat_rows`).

    Two id masks feed the masked, shifted correction scan of `kl`:
    `smask[j - 1]` has bit i set iff s_j is a left descent of perms[i],
    and `scan[l]` has bit i set iff len(perms[i]) >= l with the parity
    of l."""

    def __init__(self, n: int):
        self.n = n
        self.perms = perms = list(permutations(range(1, n + 1)))
        # every column holds these int objects, one per id
        ids = list(range(len(perms)))
        self.index = dict(zip(perms, ids))
        # the words of S_m with one first letter run through S_{m-1} in lex
        # order (relabelled), and the first Lehmer digit is w[0] - 1, so the
        # lengths of S_m are those of S_{m-1} repeated m times, raised by
        # 0 .. m-1
        lengths = [0]
        for m in range(2, n + 1):
            lengths = [d + x for d in range(m) for x in lengths]
        self.lengths = lengths
        top = lengths[-1] + 1
        self.scan = _bitsets(lengths, [
            ['01'[ell >= low and not (ell - low) & 1] for ell in range(top)]
            for low in range(top)])

        self.rmult = rmult = []
        for m in range(n, 1, -1):
            pi = _swap_first_two(m)
            rmult.append([ids[start + p] for start in range(0, len(ids), len(pi))
                          for p in pi])
        # swapping two adjacent letters into a descent lowers the lex rank,
        # so s_j is a right descent of perms[i] iff perms[i] s_j has a
        # smaller id
        rdesc = [0] * len(ids)
        for j, col in enumerate(rmult):
            bit = 1 << j
            rdesc = [d | bit if c < i else d for i, d, c in zip(ids, rdesc, col)]
        self.rdesc = rdesc
        inv = list(map(ids.__getitem__, _lex_inverse(n)))
        self.lmult = [list(map(inv.__getitem__, map(col.__getitem__, inv)))
                      for col in rmult]
        self.ldesc = ldesc = list(map(rdesc.__getitem__, inv))
        self.smask = _bitsets(ldesc, [
            ['01'[(m >> j) & 1] for m in range(1 << (n - 1))]
            for j in range(n - 1)])
        self.down = _bruhat_rows(n)

        self.kl_memo: dict[tuple[int, int], QPoly] = {}
        self.r_memo: dict[tuple[int, int], QPoly] = {}
        self.oracle_memo: dict[tuple[int, int], QPoly] = {}

    def leq(self, vid: int, wid: int) -> bool:
        return bool((self.down[wid] >> vid) & 1)

    # production route -------------------------------------------------

    def kl(self, vid: int, wid: int) -> QPoly:
        if vid == wid:
            return _ONE
        if not self.leq(vid, wid):
            return _ZERO
        ldesc = self.ldesc
        rdesc = self.rdesc
        lw = ldesc[wid]
        rw = rdesc[wid]
        while True:
            free = lw & ~ldesc[vid]
            if free:
                vid = self.lmult[(free & -free).bit_length() - 1][vid]
                continue
            free = rw & ~rdesc[vid]
            if free:
                vid = self.rmult[(free & -free).bit_length() - 1][vid]
                continue
            break
        if vid == wid:
            return _ONE
        key = (vid, wid)
        hit = self.kl_memo.get(key)
        if hit is not None:
            return hit
        lengths = self.lengths
        d = lengths[wid] - lengths[vid]
        half = (d - 1) // 2
        if d <= 2:
            p = _ONE
        else:
            s = (lw & -lw).bit_length() - 1
            uid = self.lmult[s][wid]
            lu = lengths[uid]
            # one slot above the degree bound: for even d the positive
            # terms reach q^{d/2} before the z = v correction cancels it
            buf = [0] * (half + 2)
            for i, c in enumerate(self.kl(self.lmult[s][vid], uid)):
                buf[i] += c
            for i, c in enumerate(self.kl(vid, uid)):
                buf[i + 1] += c
            # the correction z: s a left descent, odd len(u) - len(z) and
            # v <= z, so len(z) >= len(v) and id(z) >= id(v); bit k of the
            # scan is id(v) + k.  The scan already has z < u with an odd
            # gap, so mu(z, u) is 1 for gap 1, 0 by the descent rule of
            # `mu_ids`, and otherwise the top coefficient of P_{z,u}
            down = self.down
            ldu, rdu = ldesc[uid], rdesc[uid]
            low = lengths[vid] + (d & 1)
            rest = (down[uid] & self.smask[s] & self.scan[low]) >> vid
            while rest:
                bit = rest & -rest
                rest ^= bit
                zid = vid + bit.bit_length() - 1
                gap = lu - lengths[zid]
                if gap > 1 and (ldu & ~ldesc[zid] or rdu & ~rdesc[zid]):
                    continue  # mu(z, u) = 0 by the descent rule
                if not (down[zid] >> vid) & 1:
                    continue
                m = 1 if gap == 1 else qp_coeff(self.kl(zid, uid), gap >> 1)
                if m:
                    shift = (lengths[wid] - lengths[zid]) // 2
                    for i, c in enumerate(self.kl(vid, zid)):
                        buf[i + shift] -= m * c
            p = qp_trim(buf)
        if not (p and p[0] == 1):
            raise KLInvariantError('KL constant term must be 1')
        if len(p) - 1 > half:
            raise KLInvariantError('KL degree bound violated')
        self.kl_memo[key] = p
        return p

    def mu_ids(self, vid: int, wid: int) -> int:
        """mu(v, w) in either order.  A gap d >= 3 reads 0 by the descent
        rule when w has a left or right descent s that v lacks: then
        P_{v,w} = P_{sv,w}, of degree at most (d - 2)/2, also when v and w
        are incomparable (see the module docstring)."""
        lengths = self.lengths
        if lengths[vid] > lengths[wid]:
            vid, wid = wid, vid
        d = lengths[wid] - lengths[vid]
        if not d & 1:
            return 0
        if d == 1:
            return int(self.leq(vid, wid))
        if (self.ldesc[wid] & ~self.ldesc[vid]
                or self.rdesc[wid] & ~self.rdesc[vid]):
            return 0
        return qp_coeff(self.kl(vid, wid), d >> 1)

    # oracle route ------------------------------------------------------

    def rpoly(self, xid: int, wid: int) -> QPoly:
        if xid == wid:
            return _ONE
        if not self.leq(xid, wid):
            return _ZERO
        key = (xid, wid)
        hit = self.r_memo.get(key)
        if hit is not None:
            return hit
        rw = self.rdesc[wid]
        s = (rw & -rw).bit_length() - 1
        wsid = self.rmult[s][wid]
        xsid = self.rmult[s][xid]
        if (self.rdesc[xid] >> s) & 1:
            p = self.rpoly(xsid, wsid)
        else:
            a = self.rpoly(xid, wsid)
            b = self.rpoly(xsid, wsid)
            p = qp_add(qp_sub(qp_shift(a, 1), a), qp_shift(b, 1))
        self.r_memo[key] = p
        return p

    def kl_oracle_ids(self, xid: int, wid: int) -> QPoly:
        if xid == wid:
            return _ONE
        if not self.leq(xid, wid):
            return _ZERO
        key = (xid, wid)
        hit = self.oracle_memo.get(key)
        if hit is not None:
            return hit
        f = _ZERO
        rest = self.down[wid]
        while rest:
            bit = rest & -rest
            rest ^= bit
            zid = bit.bit_length() - 1
            if zid == xid or not (self.down[zid] >> xid) & 1:
                continue
            r = self.rpoly(xid, zid)
            if r:
                pz = self.kl_oracle_ids(zid, wid)
                if pz:
                    f = qp_add(f, qp_mul(r, pz))
        ell = self.lengths[wid] - self.lengths[xid]
        half = (ell - 1) // 2
        p = qp_trim(tuple(-c for c in f[:half + 1]))
        if not (p and p[0] == 1):
            raise KLInvariantError('oracle constant term must be 1')
        # the solution must satisfy the full bar identity, not just its
        # truncation: q^ell * P(1/q) == P + F exactly
        mirror = [0] * (ell + 1)
        for i, c in enumerate(p):
            mirror[ell - i] = c
        if qp_trim(mirror) != qp_add(p, f):
            raise KLInvariantError('bar-invariance failed')
        self.oracle_memo[key] = p
        return p


def check_affordable(n: int) -> None:
    """Refuse an n whose tables would not fit in memory (ValueError)."""
    if n > MAX_N:
        raise ValueError(f'n = {n} is too large: KL tables stop at n = {MAX_N} '
                         f'(n = {MAX_N + 1} would need about 8.2 GB)')


@lru_cache(maxsize=None)
def tables(n: int) -> _Tables:
    if n < 1:
        raise ValueError('n must be positive')
    check_affordable(n)
    return _Tables(n)


def _ids(v: tuple[int, ...], w: tuple[int, ...]) -> tuple[_Tables, int, int]:
    if len(v) != len(w):
        raise ValueError('permutations must lie in the same S_n')
    t = tables(len(v))
    try:
        return t, t.index[tuple(v)], t.index[tuple(w)]
    except KeyError:
        raise ValueError(f'not permutations of 1..{len(w)}: {v!r}, {w!r}') from None


def kl_polynomial(v: tuple[int, ...], w: tuple[int, ...]) -> QPoly:
    """P_{v,w} by the descent recursion (production route)."""
    t, vid, wid = _ids(v, w)
    return t.kl(vid, wid)


def kl_oracle(v: tuple[int, ...], w: tuple[int, ...]) -> QPoly:
    """P_{v,w} by R-polynomials and bar invariance (independent route)."""
    t, vid, wid = _ids(v, w)
    return t.kl_oracle_ids(vid, wid)


def mu(v: tuple[int, ...], w: tuple[int, ...]) -> int:
    """Top-degree KL coefficient, symmetric in the argument order."""
    t, vid, wid = _ids(v, w)
    return t.mu_ids(vid, wid)


def mu_tableaux(t: Tableau, r: Tableau) -> int:
    """mu between the column-word preimages of two tableaux of one shape.

    >>> mu_tableaux(((1, 2), (3,)), ((1, 3), (2,)))
    1
    """
    if shape_of(t) != shape_of(r):
        raise ValueError('mu_tableaux needs tableaux of the same shape')
    return mu(column_word(t), column_word(r))


def check_rhoades_insertion(u: tuple[int, ...], v: tuple[int, ...], k: int) -> bool:
    """Does inserting n at slot k of both words preserve mu?

    u and v lie in S_{n-1}; slot k (0 <= k <= n-1) means n lands at
    one-line position k+1 of both enlarged words.  Returns the truth of
    mu(u, v) == mu(u', v'), which the insertion theorem predicts always.
    """
    if len(u) != len(v):
        raise ValueError('u and v must lie in the same S_{n-1}')
    if not 0 <= k <= len(u):
        raise ValueError(f'slot must lie in 0..{len(u)}: {k}')
    n = len(u) + 1
    u2 = u[:k] + (n,) + u[k:]
    v2 = v[:k] + (n,) + v[k:]
    return mu(u, v) == mu(u2, v2)
