"""Hamming, rank and sum-rank weights, ball sizes and classical bounds.

Bound values are carried as exact integers/rationals together with a log10
float view, since q^(mn) overflows doubles at the scales of interest.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import gf

HAMMING = "hamming"
RANK = "rank"
SUMRANK = "sumrank"

BRUTEFORCE_GUARD = 1 << 24


@dataclass(frozen=True)
class OrderedPartition:
    parts: tuple

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("partition parts must be positive")

    @property
    def n(self):
        return sum(self.parts)

    @property
    def ell(self):
        return len(self.parts)

    def blocks(self, vector):
        out = []
        i = 0
        for p in self.parts:
            out.append(vector[i:i + p])
            i += p
        return out


@dataclass
class BoundReport:
    name: str
    value: Fraction

    @property
    def log10(self):
        if self.value <= 0:
            return float("-inf")
        return (math.log10(self.value.numerator)
                - math.log10(self.value.denominator))


def weight(field, vector, metric=HAMMING, partition=None):
    """Weight of a vector over F_{q^m} in the requested metric."""
    if metric == HAMMING:
        return sum(1 for v in vector if v)
    if metric == RANK:
        return gf.rank_q(field, vector)
    if metric == SUMRANK:
        if partition is None or partition.n != len(vector):
            raise ValueError("sum-rank weight needs a partition matching "
                             "the vector length")
        return sum(gf.rank_q(field, block)
                   for block in partition.blocks(vector))
    raise ValueError(f"unknown metric {metric!r}")


def min_distance_bruteforce(field, generator_rows, metric=HAMMING,
                            partition=None):
    """Minimum weight over the codewords of all nonzero messages.

    Dependent rows encode some nonzero message as the zero word, so the
    result is then 0.  Otherwise one codeword per line of the code is
    weighed (gf.lines): every metric here is invariant under nonzero
    scalars, since multiplying by a in F_{q^m}^* is an F_q-linear bijection
    and keeps each block's rank.
    """
    k = len(generator_rows)
    if not k:
        raise ValueError("minimum distance of a code with no generator rows "
                         "is undefined: it has no nonzero codeword")
    if field.order ** k > BRUTEFORCE_GUARD:
        raise ValueError("brute-force guard exceeded (q^(mk) > 2^24)")
    if gf.rank(field, generator_rows) < k:
        return 0
    best = None
    for word in gf.lines(field, generator_rows):
        w = weight(field, word, metric, partition)
        if best is None or w < best:
            best = w
            if best == 1:
                return best
    return best


# ---------------------------------------------------------------------------
# counting

def q_binomial(n, k, q):
    """Number of k-dimensional subspaces of F_q^n, as an exact integer."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def hamming_ball(n, radius, q):
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(radius + 1))


def rank_count(a, b, r, q):
    """Number of a x b matrices over F_q of rank r; 0 outside 0..min(a, b)."""
    if r < 0 or r > min(a, b):
        return 0
    out = q_binomial(a, r, q)
    for i in range(r):
        out *= q ** b - q ** i
    return out


def rank_ball(n, m, radius, q):
    """Vectors in F_{q^m}^n of rank weight <= radius."""
    return sum(rank_count(m, n, i, q) for i in range(radius + 1))


def sumrank_ball(partition, m, radius, q):
    """Vectors of sum-rank weight <= radius: the product of the blocks'
    rank-shell polynomials (Byrne, Gluesing-Luerssen & Ravagnani, IEEE T-IT
    67(10), 2021), truncated at degree radius, with its coefficients summed."""
    ball = [1]
    for nl in partition.parts:
        shell = [rank_count(nl, m, s, q)
                 for s in range(min(nl, m, radius) + 1)]
        product = [0] * min(len(ball) + len(shell) - 1, radius + 1)
        for i, a in enumerate(ball):
            for j, b in enumerate(shell[:len(product) - i]):
                product[i + j] += a * b
        ball = product
    return sum(ball)


# ---------------------------------------------------------------------------
# classical bounds (cardinality bounds; exact rationals)

def classical_bounds(metric, n, d, q, m=1, partition=None):
    """Singleton, sphere-packing and Gilbert-Varshamov values.

    Sphere-packing upper-bounds and GV lower-bounds the maximum cardinality
    of a code of minimum distance d in the given metric.
    """
    gf.require_prime_power(q)
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    if metric in (RANK, SUMRANK) and m < 1:
        raise ValueError(f"extension degree m = {m} must be >= 1")
    t = (d - 1) // 2
    if metric == HAMMING:
        singleton = Fraction(q ** (n - d + 1))
        sphere = Fraction(q ** n, hamming_ball(n, t, q))
        gv = Fraction(q ** n, hamming_ball(n, d - 1, q))
    elif metric == RANK:
        singleton = Fraction(q ** (max(n, m) * (min(n, m) - d + 1))) \
            if d <= min(n, m) else Fraction(1)
        sphere = Fraction(q ** (m * n), rank_ball(n, m, t, q))
        gv = Fraction(q ** (m * n), rank_ball(n, m, d - 1, q))
    elif metric == SUMRANK:
        if partition is None:
            raise ValueError("sum-rank bounds need a partition")
        if partition.n != n:
            raise ValueError(f"partition {list(partition.parts)} sums to "
                             f"{partition.n}, not n = {n}")
        singleton = Fraction(q ** (m * (n - d + 1)))
        sphere = Fraction(q ** (m * n), sumrank_ball(partition, m, t, q))
        gv = Fraction(q ** (m * n), sumrank_ball(partition, m, d - 1, q))
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return [BoundReport("singleton", singleton),
            BoundReport("sphere_packing", sphere),
            BoundReport("gilbert_varshamov", gv)]
