"""Dense list-of-rows matrix arithmetic, kept as the tests' reference for
the packed-row products of `klspecht.specht`."""


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
