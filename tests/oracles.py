"""Reference implementations that only the tests use.

Each one is the slow, direct form of something the library computes
faster; the tests compare the two.
"""

import itertools

from skewcodes import gf


def mat_vec(field, a, v):
    """The product a * v of a row list and a vector, summed cell by cell."""
    add, mul = field.add, field.mul
    out = []
    for row in a:
        acc = 0
        for x, y in zip(row, v):
            if x and y:
                acc = add(acc, mul(x, y))
        out.append(acc)
    return out


def solve(field, rows, rhs):
    """Solve rows * x = rhs; returns (particular, kernel_basis) or None.

    A None return signals an inconsistent system.  One rref of the augmented
    system gives both parts: its pivots in the first columns are those of
    rows alone, so the kernel is the one right_kernel(rows) reads.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = gf.rref(field, aug)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    kernel = []
    for fcol in range(ncols):
        if fcol not in pivots:
            vec = [0] * ncols
            vec[fcol] = 1
            for r, pc in enumerate(pivots):
                vec[pc] = field.neg(red[r][fcol])
            kernel.append(vec)
    return x, kernel


def rank_bruteforce(field, rows):
    """Rank via exhaustive minor search, for matrices up to 4x4."""
    n, m = len(rows), len(rows[0]) if rows else 0
    if n > 4 or m > 4:
        raise ValueError("oracle limited to 4x4")
    for k in range(min(n, m), 0, -1):
        for ri in itertools.combinations(range(n), k):
            for ci in itertools.combinations(range(m), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det(field, sub) != 0:
                    return k
    return 0


def det(field, rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    add, mul, neg = field.add, field.mul, field.neg
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = mul(rows[0][j], det(field, minor))
            total = add(total, term if j % 2 == 0 else neg(term))
    return total
