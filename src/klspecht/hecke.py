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
a masked, shifted scan: `down[u] & smask[s] & parity[(len(u) + 1) % 2]`
keeps exactly the z below u with s as a left descent and odd
len(u) - len(z), and shifting it right by id(v) starts the scan at
z = v (ids ascend by length, so every z >= v has id(z) >= id(v)); only
v <= z is tested per candidate.  Every returned value is checked on the
spot: constant term 1 and degree at most (len(w) - len(v) - 1)/2.  A
violation raises `KLInvariantError`, also under `python -O`.

The independent oracle route `kl_oracle` never touches that recursion.
It computes R-polynomials by their own descent recursion (s a right
descent of w: R_{x,w} = R_{xs,ws} when xs < x, else
(q-1) R_{x,ws} + q R_{xs,ws}) and then solves the bar-invariance
triangular system

    q^{len(w)-len(x)} P_{x,w}(1/q) = sum_{x <= z <= w} R_{x,z} P_{z,w}

downward in x, reading the answer off the low half and verifying the
mirror half exactly (again raising `KLInvariantError`).  The two routes
share only the interned group tables (multiplication, lengths, Bruhat
bitsets), not the algorithm.  The generator tables are built with
`symgroup.left_mult_s` and `symgroup.right_mult_s`.

Each recursive call (`kl`, `rpoly`, `kl_oracle_ids`) works on a
strictly shorter Bruhat interval, so the recursion nests at most a few
frames per unit of len(w0) <= 28 and the interpreter's default limit is
enough; importing this module leaves that limit alone.

The tables hold n! x n! Bruhat bitsets, so `tables` refuses n above
`MAX_N` = 8 before allocating anything: S_9 would need about 16 GB.

mu(v, w) is the coefficient of degree (len(w)-len(v)-1)/2 in P_{v,w},
symmetrized so the arguments may come in either order; it feeds both the
W-graph edges and the Specht module matrices built on top of this module.
`mu_ids` puts its arguments in Bruhat order and reads 0 (incomparable or
even length gap), 1 (gap 1) or the top coefficient of the memoized
`kl`; it keeps no memo of its own and does not call itself.

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

from .rsk import column_word
from .symgroup import left_mult_s, length, right_mult_s
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


class _Tables:
    """Interned S_n: ids sorted by (length, word), generator actions,
    descent bitmasks, Bruhat downsets as bitsets, and the memo tables of
    both routes (see the module docstring).

    Two id masks feed the masked, shifted correction scan of `kl`:
    `smask[j - 1]` has bit i set iff s_j is a left descent of perms[i],
    and `parity[p]` has bit i set iff len(perms[i]) = p mod 2."""

    def __init__(self, n: int):
        self.n = n
        ranked = sorted((length(w), w) for w in permutations(range(1, n + 1)))
        self.perms = perms = [w for _, w in ranked]
        self.lengths = lengths = [ell for ell, _ in ranked]
        index = {w: i for i, w in enumerate(perms)}
        self.index = index

        # parity[p] has bit i set iff lengths[i] is congruent to p mod 2;
        # each length fills one contiguous id range
        parity = [0, 0]
        start = 0
        for i in range(1, len(perms) + 1):
            if i == len(perms) or lengths[i] != lengths[start]:
                parity[lengths[start] & 1] |= (1 << i) - (1 << start)
                start = i
        self.parity = parity

        lmult = []
        rmult = []
        ldesc = []
        rdesc = []
        for i, w in enumerate(perms):
            lrow = []
            rrow = []
            lmask = rmask = 0
            for j in range(1, n):
                li = index[left_mult_s(w, j)]
                ri = index[right_mult_s(w, j)]
                lrow.append(li)
                rrow.append(ri)
                if lengths[li] < lengths[i]:
                    lmask |= 1 << (j - 1)
                if lengths[ri] < lengths[i]:
                    rmask |= 1 << (j - 1)
            lmult.append(lrow)
            rmult.append(rrow)
            ldesc.append(lmask)
            rdesc.append(rmask)
        self.lmult = lmult
        self.rmult = rmult
        self.ldesc = ldesc
        self.rdesc = rdesc
        # smask[j - 1] has bit i set iff s_j is a left descent of perms[i],
        # read off as one base-2 string per generator: or-ing 1 << i into
        # an n!-bit int per descent would copy that int every time
        self.smask = [int(''.join('1' if (m >> j) & 1 else '0'
                                  for m in reversed(ldesc)), 2)
                      for j in range(n - 1)]

        # down[i] has bit v set iff v <= perms[i]; any swap of an inverted
        # pair lowers length, and every x < w lies below some such swap,
        # so the union over all of them (plus w itself) is the downset
        down = [0] * len(perms)
        for i, w in enumerate(perms):
            d = 1 << i
            for a in range(n - 1):
                for b in range(a + 1, n):
                    if w[a] > w[b]:
                        v = list(w)
                        v[a], v[b] = v[b], v[a]
                        d |= down[index[tuple(v)]]
            down[i] = d
        self.down = down

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
                vid = self.lmult[vid][(free & -free).bit_length() - 1]
                continue
            free = rw & ~rdesc[vid]
            if free:
                vid = self.rmult[vid][(free & -free).bit_length() - 1]
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
            uid = self.lmult[wid][s]
            lu = lengths[uid]
            # one slot above the degree bound: for even d the positive
            # terms reach q^{d/2} before the z = v correction cancels it
            buf = [0] * (half + 2)
            for i, c in enumerate(self.kl(self.lmult[vid][s], uid)):
                buf[i] += c
            for i, c in enumerate(self.kl(vid, uid)):
                buf[i + 1] += c
            # the correction z: s a left descent, odd len(u) - len(z) and
            # v <= z, so id(z) >= id(v); bit k of the scan is id(v) + k
            down = self.down
            rest = (down[uid] & self.smask[s] & self.parity[(lu + 1) & 1]) >> vid
            while rest:
                bit = rest & -rest
                rest ^= bit
                zid = vid + bit.bit_length() - 1
                if not (down[zid] >> vid) & 1:
                    continue
                m = self.mu_ids(zid, uid)
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
        if self.leq(wid, vid):
            vid, wid = wid, vid
        elif not self.leq(vid, wid):
            return 0
        d = self.lengths[wid] - self.lengths[vid]
        if not d & 1:
            return 0
        if d == 1:
            return 1
        return qp_coeff(self.kl(vid, wid), (d - 1) // 2)

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
        wsid = self.rmult[wid][s]
        xsid = self.rmult[xid][s]
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
                         f'(n = {MAX_N + 1} would need about 16 GB)')


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
