"""Almost-affinely-disjoint subspace families from Reed-Solomon codes.

The construction spans S_i by v_{i,t} = (e_t | Gamma_t(c_i) | h_t(c_i)) over
the codewords c_i of an RS[n-k-1, n-2k] code; it is a partial k-spread of
size q^(n-2k) and, for k in {1, 2}, an [n,k,L]_q-AAD family with
L(n,1) = n-1 and L(n,2) = 1 + 2(n-2)(2n-6).

Verification works in the quotient by each subspace: u + S_i meets S_j iff
u lies in S_i + S_j, which depends only on the line through the coset of u
modulo S_i, so one count per line of cosets of S_i decides every u on it:
at most (q^k - 1)/(q - 1) lines per pair (i, j).
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

from . import gf, grscode

EXHAUSTIVE_GUARD = 1 << 22
FAMILY_GUARD = 1 << 16      # subspaces, one per codeword, that construct lists


@dataclass
class AadFamily:
    field: object
    n: int
    k: int
    generators: list        # one k x n generator matrix per subspace

    @property
    def size(self):
        return len(self.generators)


def check_exhaustive_guard(n, q):
    """Reject an exhaustive check of F_q^n beyond EXHAUSTIVE_GUARD words;
    (n, q) alone decide it, so callers check before building a family."""
    if n < 1:
        raise ValueError(f"n = {n} must be >= 1")
    if q ** n > EXHAUSTIVE_GUARD:
        raise ValueError("exhaustive guard exceeded (q^n > 2^22)")


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
    if q ** (n - 2 * k) > FAMILY_GUARD:
        raise ValueError(f"family guard exceeded (q^(n-2k) = {q}^{n - 2 * k}"
                         " > 2^16 subspaces)")
    field = gf.field_q(q, 1)
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
    """All pairs of subspaces intersect trivially (stacked rank 2k): the
    spans hold size * (q^k - 1)/(q - 1) distinct lines (gf.lines).  Each
    of the size generators has k rows, so this many lines exist only when
    every span has rank k and no line lies in two spans."""
    if family.size < 2:
        return True
    field, q, k = family.field, family.field.order, family.k
    words = {tuple(word) for rows in family.generators
             for word in gf.lines(field, rows)}
    return len(words) == family.size * (q ** k - 1) // (q - 1)


def _reducer(field, rows):
    """The map u -> u - (the word of span(rows) that agrees with u on the
    pivot coordinates of gf.echelon(rows)), read on the other coordinates:
    linear, with kernel span(rows), so it names each coset u + span(rows)
    by one word of length n - rank(rows)."""
    basis = gf.echelon(field, rows)
    axpy, neg = field.axpy, field.neg
    pivots = {c for c, _ in basis}
    free = [c for c in range(len(rows[0])) if c not in pivots]

    def reduce(u):
        u = list(u)
        # a basis row is 0 left of its pivot and at the pivots of the rows
        # inserted before it, so the update leaves the pivot coordinates
        # already cleared as they are
        for c, row in basis:
            if u[c]:
                axpy(u, neg(u[c]), row, c)
        return tuple(u[j] for j in free)
    return reduce


def _coset_table(family, i, reduce):
    """For each line of nonzero cosets u + S_i, named by its normalised
    word, the number of j != i whose S_j its cosets meet.  u + S_i meets
    S_j iff u lies in S_i + S_j, whose cosets are the words of
    span(reduce(S_j)); gf.lines counts each line of them once per j, also
    when the reduced rows are dependent (S_i and S_j intersect)."""
    field = family.field
    table = Counter()
    for j, rows in enumerate(family.generators):
        if j != i:
            reduced = [reduce(r) for r in rows]
            table.update(map(tuple, gf.lines(field, reduced)))
    return table


def verify_aad(family, l_bound, mode="exhaustive", samples=2000, rng=None):
    """(u + S_i) meets at most l_bound other subspaces, for all (i, u).

    The coset u + S_i meets S_j iff u lies in S_i + S_j, which depends on u
    only through its coset modulo S_i, and only through the line of that
    coset.  So both modes reduce modulo S_i (by one echelon basis of S_i,
    one _reducer per i for the draws and the tables) and count once per
    line of cosets, named by its normalised word, the j != i with the line
    in the image of S_j: at most (q^k - 1)/(q - 1) lines per ordered pair.
    Exhaustive mode checks every line of cosets of every i (None below);
    sample mode draws (i, u) with u outside S_i and checks the lines of the
    drawn cosets.  One table is alive at a time.
    """
    field = family.field
    n = family.n
    q = field.order
    if mode == "exhaustive":
        check_exhaustive_guard(n, q)
    elif mode != "sample":
        raise ValueError(f"unknown mode {mode!r}")
    elif samples < 1:
        raise ValueError(f"samples = {samples} must be >= 1")
    elif rng is None:
        raise ValueError("sample mode needs an rng")
    elif family.k >= n:
        raise ValueError(f"sample mode needs k < n: no u lies outside "
                         f"S_i when k = {family.k} and n = {n}")
    reducers = [_reducer(field, rows) for rows in family.generators]
    if mode == "exhaustive":
        drawn = dict.fromkeys(range(family.size))
    else:
        drawn = defaultdict(list)
        for _ in range(samples):
            i = rng.randrange(family.size)
            while True:
                coset = reducers[i]([rng.randrange(q) for _ in range(n)])
                if any(coset):
                    break
            # the drawn coset's line, named by its normalised word
            drawn[i].append(tuple(next(gf.lines(field, [coset]))))
    for i, cosets in drawn.items():
        table = _coset_table(family, i, reducers[i])
        if any(table[c] > l_bound
               for c in (table if cosets is None else cosets)):
            return False
    return True


def bounds(n, k, l_bound, q):
    """(upper, asymptotic lower): 1 + L(q^(n-k)-1)/(q^k-1) and the leading
    term q^(n-2k-(n-k)(k+1)/(L+1)) of the probabilistic bound."""
    if n <= 2 * k:
        raise ValueError("need n > 2k")
    if l_bound < 0:
        raise ValueError(f"L = {l_bound} must be >= 0")
    upper = 1 + Fraction(l_bound * (q ** (n - k) - 1), q ** k - 1)
    exponent = Fraction(n - 2 * k) - Fraction((n - k) * (k + 1), l_bound + 1)
    as_lower = float(q) ** float(exponent)
    return upper, as_lower
