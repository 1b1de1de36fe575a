"""Dense list-of-rows matrix arithmetic, kept as the tests' reference for
the packed-row products of `klspecht.specht`; `pack_rows` and
`unpack_rows`, which pack a test matrix and read packed rows back by
plain shifts rather than by the code under test; and `pick_rank_signs`,
the reading of a block factor's signed block triangularity off its
picks, the reference for `klspecht.qrkit._block_signs`."""

from klspecht.specht import _Packed


def identity_matrix(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def mat_mul(a, b):
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


def mat_eq(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def pack_rows(m, width):
    """m as packed rows: row i is the sum of m[i][j] << (j * width), so
    each entry is a signed digit in its width-bit slot."""
    bound = max(abs(x) for row in m for x in row)
    if bound >= 1 << (width - 1):
        raise ValueError(f'entries up to {bound} do not fit {width}-bit slots')
    return _Packed([sum(x << j * width for j, x in enumerate(row)) for row in m],
                   width, bound)


def unpack_rows(p):
    """The matrix of packed rows p, the inverse of `pack_rows`: each row's
    signed digits, lowest slot first, one shift at a time."""
    width, d = p.width, len(p.rows)
    out = []
    for r in p.rows:
        row = []
        for _ in range(d):
            x = r & ((1 << width) - 1)
            x -= (x >> (width - 1)) << width  # the signed digit
            row.append(x)
            r = (r - x) >> width
        assert r == 0
        out.append(row)
    return out


def pick_rank_signs(terms, image, rank):
    """The sign of each column c at row image[c], by position, read off
    the picks of a `klspecht.specht._Terms` (operand k or d + k is +-1 in
    column k, operand 2d + e the e-th scaled pair): None unless every row r
    has exactly one pick whose column has rank at most rank[r] and row
    image[c] holds +1 or -1 in column c.  Where image keeps the rank, that
    is the one pick of row image[c] in c's block."""
    d = len(terms.picks)
    column = [*range(d), *range(d), *(k for k, _ in terms.scaled)]
    for r, picks in enumerate(terms.picks):
        if sum(rank[column[p]] <= rank[r] for p in picks) != 1:
            return None
    signs = []
    for c in range(d):
        picks = terms.picks[image[c]]
        sign = (c in picks) - (d + c in picks)
        if not sign:
            return None
        signs.append(sign)
    return signs
