"""Almost-affinely-disjoint subspace families from Reed-Solomon codes.

The construction spans S_i by v_{i,t} = (e_t | Gamma_t(c_i) | h_t(c_i)) over
the codewords c_i of an RS[n-k-1, n-2k] code; it is a partial k-spread of
size q^(n-2k) and, for k in {1, 2}, an [n,k,L]_q-AAD family with
L(n,1) = n-1 and L(n,2) = 1 + 2(n-2)(2n-6).
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import gf, grscode

EXHAUSTIVE_GUARD = 1 << 22


@dataclass
class AadFamily:
    field: object
    n: int
    k: int
    generators: list        # one k x n generator matrix per subspace

    @property
    def size(self):
        return len(self.generators)


def guaranteed_l(n, k):
    """The proven affine-intersection bound for k in {1, 2}."""
    if k == 1:
        return n - 1
    if k == 2:
        return 1 + 2 * (n - 2) * (2 * n - 6)
    raise ValueError("L(n,k) is proven only for k in {1, 2}")


def _rs_codewords(field, n, k):
    """Codewords of the RS[n-k-1, n-2k] code with the power parity check."""
    length = n - k - 1
    dim = n - 2 * k
    points = [field.power(field.gamma, p) for p in range(length)]
    rows = grscode.power_rows(field, points, [1] * length, k - 1)
    if rows:
        basis = gf.right_kernel(field, rows)
    else:
        basis = [[1 if i == j else 0 for j in range(length)]
                 for i in range(length)]
    assert len(basis) == dim
    return list(gf.span(field, basis))


def construct(n, k, q):
    """The RS-based family for k in {1, 2}: q >= nk, n > 2k."""
    if k not in (1, 2):
        raise ValueError("construction defined for k in {1, 2}")
    if n <= 2 * k:
        raise ValueError("need n > 2k")
    if q < n * k:
        raise ValueError("need q >= nk")
    p, e = gf.prime_power(q)
    field = gf.field(p, e, 1)
    g = field.gamma
    length = n - k - 1
    generators = []
    for cw in _rs_codewords(field, n, k):
        rows = []
        for t in range(1, k + 1):
            unit = [1 if pos == t - 1 else 0 for pos in range(k)]
            gamma_part = [field.mul(field.power(g, p * (t - 1)), cw[p - 1])
                          for p in range(1, length + 1)]
            h_val = 0
            for p in range(1, length + 1):
                expo = (t - 1) * length + p + 1
                h_val = field.add(h_val, field.power(cw[p - 1], expo))
            rows.append(unit + gamma_part + [h_val])
        generators.append(rows)
    return AadFamily(field, n, k, generators)


def verify_spread(family):
    """All pairs of subspaces intersect trivially (stacked rank 2k)."""
    k = family.k
    for g1, g2 in itertools.combinations(family.generators, 2):
        if gf.rank(family.field, g1 + g2) != 2 * k:
            return False
    return True


def verify_aad(family, l_bound, mode="exhaustive", samples=2000, rng=None):
    """(u + S_i) meets at most l_bound other subspaces, for all (i, u).

    The affine coset u + S_i intersects S_j iff u lies in S_i + S_j, so the
    exhaustive check counts, for each i, how many sets S_i + S_j (j != i)
    hold each u outside S_i; a u in none of them has count 0.
    """
    field = family.field
    n, k = family.n, family.k
    q = field.order

    def in_span(i, vec):
        return gf.rank(field, family.generators[i] + [vec]) == k

    def meets(i, j, vec):
        stacked = family.generators[i] + family.generators[j]
        return gf.rank(field, stacked + [vec]) == 2 * k

    if mode == "exhaustive":
        if q ** n > EXHAUSTIVE_GUARD:
            raise ValueError("exhaustive guard exceeded (q^n > 2^22)")
        gens = family.generators

        def members(rows):
            return set(map(tuple, gf.span(field, rows)))

        own = [members(g) for g in gens]
        sums = {}
        for i, j in itertools.combinations(range(family.size), 2):
            sums[i, j] = sums[j, i] = members(gens[i] + gens[j])
        for i in range(family.size):
            hits = Counter(u for j in range(family.size) if j != i
                           for u in sums[i, j] - own[i])
            if max(hits.values(), default=0) > l_bound:
                return False
        return True
    if mode == "sample":
        if rng is None:
            raise ValueError("sample mode needs an rng")
        for _ in range(samples):
            i = rng.randrange(family.size)
            while True:
                vec = [rng.randrange(q) for _ in range(n)]
                if not in_span(i, vec):
                    break
            count = sum(1 for j in range(family.size)
                        if j != i and meets(i, j, vec))
            if count > l_bound:
                return False
        return True
    raise ValueError(f"unknown mode {mode!r}")


def bounds(n, k, l_bound, q):
    """(upper, asymptotic lower): 1 + L(q^(n-k)-1)/(q^k-1) and the leading
    term q^(n-2k-(n-k)(k+1)/(L+1)) of the probabilistic bound."""
    if n <= 2 * k:
        raise ValueError("need n > 2k")
    upper = 1 + Fraction(l_bound * (q ** (n - k) - 1), q ** k - 1)
    exponent = Fraction(n - 2 * k) - Fraction((n - k) * (k + 1), l_bound + 1)
    as_lower = float(q) ** float(exponent)
    return upper, as_lower
