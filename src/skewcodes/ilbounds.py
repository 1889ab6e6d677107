"""Closed-form success-probability bounds for interleaved RS/alternant
decoding, the helper maximization, matrix counting and dimension bounds.

All bound values are exact Fractions clamped to [0, 1], or None outside a
bound's validity window.  all_bounds gives the six bounds of one error
weight t, the three alternant ones from one pass over the weights w.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import gf, grscode, metric

BOUND_NAMES = ("L.RS", "L.A", "L.A1", "L.A2", "L.T", "U")


# ---------------------------------------------------------------------------
# upper bounds on the dimension of a q-ary code: k_q^opt(n, d)

def _log_floor(q, x):
    """The largest k with q^k <= x, for an integer x >= 1."""
    k, power = 0, q
    while power <= x:
        k += 1
        power *= q
    return k

def _singleton_k(q, n, d):
    return n - d + 1

def _hamming_k(q, n, d):
    vol = metric.hamming_ball(n, (d - 1) // 2, q)
    return _log_floor(q, q ** n // vol)

def _griesmer_k(q, n, d):
    k, need = 0, d
    while need <= n:
        k += 1
        need += -(-d // q ** k)
    return k

def _plotkin_k(q, n, d):
    # shorten to n' = min(n, ceil(dq/(q-1)) - 1), so d <= n' < dq/(q-1) and
    # d > (1 - 1/q) n'; then M <= q^(n-n') d/(d - theta n')
    theta = Fraction(q - 1, q)
    n_prime = min(n, -(-d * q // (q - 1)) - 1)
    size = q ** (n - n_prime) * (Fraction(d) / (d - theta * n_prime))
    return _log_floor(q, math.floor(size))


def kopt(q, n, d):
    """Upper bound on the dimension of a q-ary [n, ?, d] code:
    min(Singleton, Hamming, Griesmer, Plotkin)."""
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    return min(_singleton_k(q, n, d), _hamming_k(q, n, d),
               _griesmer_k(q, n, d), _plotkin_k(q, n, d))


def alternant_dimension_bounds(spec):
    """(lower, upper) on the dimension of the F_q-subfield subcode of the GRS
    code spec, from Lemma-style bounds: n - m(n-k) and min(k, kopt)."""
    n, k, m = spec.n, spec.k, spec.field.m
    lower = max(n - m * (n - k), 0)
    upper = min(k, kopt(spec.field.q, n, spec.d))
    return lower, upper


# ---------------------------------------------------------------------------
# the convex-sum maximization helper

def maximize_convex_sum(a, b, c, B, s):
    """Upper bound on max sum of m_i^s over multisets of c values in [a, b]
    summing to B: ((B - c a)/(b - a) + 1)(b^s - a^s) + c a^s.
    """
    if a < 1 or b < a or not (c * a <= B <= c * b):
        raise ValueError("maximization window violated")
    if a == b:
        return Fraction(c * a ** s)
    return (Fraction(B - c * a, b - a) + 1) * (b ** s - a ** s) \
        + c * a ** s


# ---------------------------------------------------------------------------
# matrix counting

def count_matrices(s_rows, t_cols, r_rank, q):
    """(M, N): all matrices of rank r, and those without zero columns."""
    m = metric.rank_count(s_rows, t_cols, r_rank, q)
    n = sum((-1) ** j * math.comb(t_cols, j)
            * metric.rank_count(s_rows, t_cols - j, r_rank, q)
            for j in range(t_cols - r_rank + 1))
    return m, n


# ---------------------------------------------------------------------------
# success-probability bounds

@dataclass
class BoundInputs:
    q: int            # base field size (error alphabet for alternant bounds)
    m: int            # extension degree; the GRS code lives over q^m
    n: int
    d: int            # designed distance of the GRS code
    s: int            # interleaving order
    t: int            # number of errors

    def __post_init__(self):
        gf.require_prime_power(self.q)
        if self.m < 1:
            raise ValueError(f"extension degree m = {self.m} must be >= 1")
        if self.d < 1:
            raise ValueError(f"designed distance d = {self.d} must be >= 1")
        if self.s < 1:
            raise ValueError(f"interleaving order s = {self.s} must be >= 1")
        if self.d > self.n:
            raise ValueError(f"designed distance d = {self.d} exceeds the "
                             f"length n = {self.n}")
        if self.t < 1:
            raise ValueError(f"number of errors t = {self.t} must be >= 1")
        if self.n > self.q ** self.m - 1:
            raise ValueError(f"n = {self.n} exceeds q^m - 1 = "
                             f"{self.q ** self.m - 1}, the number of "
                             "nonzero locators")


def _clamp01(x):
    return max(Fraction(0), min(Fraction(1), x))


def bound_l_rs(inputs):
    """L.RS: success lower bound for interleaved RS, errors over F_{q^m}."""
    q, m, d, s, t = inputs.q, inputs.m, inputs.d, inputs.s, inputs.t
    if t >= d:
        return None
    Q = q ** m
    # ratio (q^{ms} - q^{-m}) / (q^{ms} - 1), exactly
    ratio = Fraction(Q ** s * Q - 1, Q * (Q ** s - 1))
    # q^{-m(s+1)(t_max - t)} with t_max = s(d-1)/(s+1) exactly rational
    exponent = m * (s * (d - 1) - (s + 1) * t)
    tail = Fraction(1, Q - 1) * Fraction(q) ** (-exponent)
    return _clamp01(1 - ratio ** t * tail)


def _alternant_bounds(inputs):
    """(L.A, L.A1, L.A2) for t < d, in one pass over the weights w = d-t..t:
    L.A bounds each subcode size by q^(k_q^opt), L.A1 by the Singleton bound
    instead, and L.A2 is L.A without the |L_0| correction."""
    q, m, d, s, t = inputs.q, inputs.m, inputs.d, inputs.s, inputs.t
    lines = Fraction(q ** s - 1, q - 1)
    la = la1 = la2 = Fraction(0)
    for w in range(d - t, t + 1):
        a_w = q ** max(0, w - (d - t - 1) * m)
        c_w = (q ** m - 1) ** w
        big_b = grscode.b_mds_total(w, d - t, q, m)
        b_w = q ** kopt(q, w, d - t)
        # a_w and b_w bracket every subcode size and big_b sums them, so the
        # maximization window is guaranteed for n <= q^m - 1; the Singleton
        # bound on the dimension only widens it
        assert a_w <= b_w and c_w * a_w <= big_b <= c_w * b_w
        full = maximize_convex_sum(a_w, b_w, c_w, big_b, s)
        single = maximize_convex_sum(a_w, q ** (w - (d - t) + 1), c_w,
                                     big_b, s)
        correction = lines * (c_w + grscode.b_mds(w, d - t, w, q, m)
                              - big_b) - c_w
        weight = Fraction(math.comb(t, w), (q ** m - 1) * (q ** s - 1) ** w)
        la += weight * (correction + full)
        la1 += weight * (correction + single)
        la2 += weight * (full - c_w)
    return _clamp01(1 - la), _clamp01(1 - la1), _clamp01(1 - la2)


def bound_l_t(inputs):
    """L.T: lower bound for large interleaving order (requires s >= t)."""
    q, d, s, t = inputs.q, inputs.d, inputs.s, inputs.t
    if s < t:
        return None
    total = 0
    for r in range(max(0, 2 * t - d + 2), t + 1):
        total += count_matrices(s, t, r, q)[1]
    return _clamp01(Fraction(total, (q ** s - 1) ** t))


def z_xi(q, s, t, xi):
    """|Z^xi|: matrices in E_B with some e hitting exactly xi columns.

    Inclusion-exclusion over j-subsets of the (q^s-1)/(q-1) collinearity
    classes; the remaining t - j*xi columns range over the nonzero vectors
    outside those j classes, of which there are q^s - 1 - j(q-1).  (The
    source prints q^s - q^j there, which matches only at j = 1; exhaustive
    counting confirms this form.)
    """
    total = 0
    reps = (q ** s - 1) // (q - 1)
    for j in range(1, t // xi + 1):
        rest = q ** s - 1 - j * (q - 1)
        free = t - j * xi
        if rest < 0 and free > 0:
            continue
        d_j = 1
        for z in range(j):
            d_j *= math.comb(t - z * xi, xi)
        d_j *= (q - 1) ** (j * xi) * (rest ** free if free else 1)
        term = math.comb(reps, j) * d_j
        total += term if j % 2 else -term
    return total


def bound_u(inputs):
    """U: success upper bound (requires t >= d/2 so the xi-range is valid)."""
    q, d, s, t = inputs.q, inputs.d, inputs.s, inputs.t
    if 2 * t < d or t >= d:
        return None
    best = max(z_xi(q, s, t, xi) for xi in range(d - t, t + 1))
    return _clamp01(1 - Fraction(best, (q ** s - 1) ** t))


def all_bounds(inputs):
    """The bounds of BOUND_NAMES at inputs, by name; None where one does not
    apply.  The alternant bounds L.A, L.A1 and L.A2 need t < d."""
    alternant = (_alternant_bounds(inputs) if inputs.t < inputs.d
                 else (None, None, None))
    return dict(zip(BOUND_NAMES, (bound_l_rs(inputs), *alternant,
                                  bound_l_t(inputs), bound_u(inputs))))


def bound(name, inputs):
    """Evaluate one named bound; None means "not applicable" here."""
    if name not in BOUND_NAMES:
        raise ValueError(f"unknown bound {name!r}")
    return all_bounds(inputs)[name]
