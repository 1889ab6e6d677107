"""Quadratic-lifted Reed-Solomon codes over F_q with q = 2^ell.

Codewords are evaluations of bivariate polynomials whose restriction to
every quadratic curve y = ax^2 + bx + c has degree < q - r.  A monomial
x^a y^b is good iff 2i + j + a (mod* q) < q - r for all i <=2 b and
j <=2 b - i, where mod* folds values >= q into [1, q-1] (multiples of q-1
map to q-1) and <=2 is the bitwise-dominance order.

The bad exponents of a row b form one bitmask.  Bit w of the window W is set,
for 0 <= w < 4q, iff w (mod* q) >= q - r; x^a y^b is bad iff some achievable
sum v = 2i + j of b has bit a + v set in W, so row b's bad exponents a are the
union over v of (W >> v) restricted to [0, q-1].  The sets S_t(ell) are read
the same way from a target mask.  `is_good_monomial`, which walks the sums of
one (a, b), is the oracle for both.
"""

import itertools
import math
from dataclasses import dataclass

from . import gf, metric

LAMBDA1 = 2 + math.sqrt(2)
LAMBDA2 = 2 - math.sqrt(2)

# closed-form coefficients of |S_0| for r = 1 and r = 3 (exact surd forms
# (2 +- sqrt2)/4 and (4 +- sqrt2)/4)
_C1_PLUS = (2 + math.sqrt(2)) / 4
_C1_MINUS = (2 - math.sqrt(2)) / 4
_C3_PLUS = (4 + math.sqrt(2)) / 4
_C3_MINUS = (4 - math.sqrt(2)) / 4

# most monomials (q^2) or curve cells (q^2 (q - 1)) that one enumeration
# lists: good_monomials at ell <= 11, curves_through at ell <= 7
ENUMERATION_GUARD = 1 << 22


def _check_enumeration_guard(size, what):
    if size > ENUMERATION_GUARD:
        raise ValueError(f"enumeration guard exceeded ({what} = {size} "
                         f"> 2^22)")


@dataclass(frozen=True)
class QlrsParams:
    ell: int
    r: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("need ell >= 1")
        if not 1 <= self.r <= self.q - 1:
            raise ValueError("need 1 <= r <= q - 1")

    @property
    def q(self):
        return 1 << self.ell


def mod_star(a, q):
    """Fold a into [0, q-1]: identity below q, multiples of q-1 to q-1."""
    if a <= q - 1:
        return a
    if a % (q - 1) == 0:
        return q - 1
    return a % (q - 1)


def _achievable_sums(b):
    """Bitmask of values 2i + j over i <=2 b, j <=2 b - i.

    Each set bit w of b contributes 0 (unused), w (to j) or 2w (to i).
    """
    mask = 1
    bit = 1
    while bit <= b:
        if b & bit:
            mask = mask | (mask << bit) | (mask << (2 * bit))
        bit <<= 1
    return mask


def is_good_monomial(a, b, params):
    """True iff 2i+j+a (mod* q) < q - r for every admissible (i, j)."""
    q, r = params.q, params.r
    if not (0 <= a <= q - 1 and 0 <= b <= q - 1):
        raise ValueError("exponents must lie in [0, q-1]")
    sums = _achievable_sums(b)
    v = 0
    while sums:
        if sums & 1 and mod_star(v + a, q) >= q - r:
            return False
        sums >>= 1
        v += 1
    return True


def _row_masks(q, window):
    """For each row b < q, the bitmask of the a < q with bit a + v of window
    set for some achievable sum v of b.

    The union U(b) of window >> v over the sums v of b obeys U(0) = window
    and U(b) = U(b') | U(b') >> w | U(b') >> 2w, where w is the top bit of b
    and b' = b - w, because the sums of b are those of b' plus 0, w or 2w
    (see _achievable_sums).  So each row costs three shifts.
    """
    unions = [window]
    for b in range(1, q):
        w = 1 << (b.bit_length() - 1)
        u = unions[b - w]
        unions.append(u | u >> w | u >> (2 * w))
    low = (1 << q) - 1
    return [u & low for u in unions]


def good_monomials(params):
    """The good (a, b), b-major then a, in increasing order."""
    q, r = params.q, params.r
    _check_enumeration_guard(q * q, "q^2 monomials")
    window = sum(1 << w for w in range(4 * q) if mod_star(w, q) >= q - r)
    return [(a, b) for b, bad in enumerate(_row_masks(q, window))
            for a in range(q) if not bad >> a & 1]


def dimension(params):
    """Number of good monomials (equals the code dimension)."""
    return len(good_monomials(params))


def bad_star_count(params):
    """|S*(ell)|: the number of (Phi, q-r)*-bad monomials."""
    return params.q ** 2 - dimension(params)


# ---------------------------------------------------------------------------
# ij reduction

def ij_reduce(ell, i, j):
    """Deduct q = 2^ell from 2i + j by zeroing shadow bits.

    Zeroing a bit of weight w in i removes 2w from 2i + j; in j it removes
    w.  Removals are powers of two processed largest-first, taken while they
    fit, which always lands exactly on q when 2i + j >= q (each partial sum
    is a multiple of the next candidate).  Inputs with 2i + j < q are
    returned unchanged (the no-op branch).
    """
    q = 1 << ell
    if not (0 <= i < q and 0 <= j < q):
        raise ValueError("need 0 <= i, j < q")
    if 2 * i + j < q:
        return i, j
    ip, jp = i, j
    removed = 0
    for h in range(ell, -1, -1):
        contrib = 1 << h
        if h >= 1 and (ip >> (h - 1)) & 1 and removed + contrib <= q:
            ip &= ~(1 << (h - 1))
            removed += contrib
        if removed == q:
            break
        if (jp >> h) & 1 and removed + contrib <= q:
            jp &= ~(1 << h)
            removed += contrib
        if removed == q:
            break
    assert removed == q
    return ip, jp


# ---------------------------------------------------------------------------
# bad-monomial sets S_t(ell) and the recursion

def s_t_exhaustive(ell, r, t):
    """S_t(ell) by definition: the (a, b) with a + v = tq + q - r' for an
    achievable sum v of b and some 1 <= r' <= r."""
    q = 1 << ell
    target = sum(1 << (q - rp + t * q) for rp in range(1, r + 1))
    return {(a, b) for b, hit in enumerate(_row_masks(q, target))
            for a in range(q) if hit >> a & 1}


def min_valid_ell(r):
    """Smallest ell with r < q/2 = 2^(ell-1)."""
    return r.bit_length() + 1


def s_counts_recursive(ell, r):
    """(|S_0|, |S_1|, |S_2|) via the 3x3 recursion from exhaustive s(ell_0).

    The recursion step needs r < q/2; below the smallest valid level the
    sets are enumerated directly (they are tiny there).
    """
    ell0 = min_valid_ell(r)
    if ell < ell0:
        return tuple(len(s_t_exhaustive(ell, r, t)) for t in range(3))
    vec = [len(s_t_exhaustive(ell0, r, t)) for t in range(3)]
    for _ in range(ell - ell0):
        a, b, c = vec
        vec = [3 * a + b, a + b + c, c]
    return tuple(vec)


def s0_closed_form(ell, r):
    """Closed forms of |S_0(ell)| for r in {1, 3} (floating point)."""
    if r == 1:
        return _C1_PLUS * LAMBDA1 ** ell + _C1_MINUS * LAMBDA2 ** ell
    if r == 3:
        return _C3_PLUS * LAMBDA1 ** ell + _C3_MINUS * LAMBDA2 ** ell - 1.0
    raise ValueError("closed forms available for r in {1, 3}")


def bad_star_bounds(params):
    """(lower, upper) bounds on |S*(ell)| / r^2 from the bracket theorem.

    Requires 1 <= r <= q/4 (so the r = 3 system is valid at ell - ceil(s));
    when r is a power of two the bracket is r^2 S0^(1)(ell-s) <= |S*| <=
    r^2 S0^(3)(ell-s).
    """
    ell, r = params.ell, params.r
    if r > params.q // 4 or ell < 2:
        raise ValueError("bounds need ell >= 2 and 1 <= r <= q/4")
    if r & (r - 1) == 0:
        s = r.bit_length() - 1
        lo = s_counts_recursive(ell - s, 1)[0]
        hi = s_counts_recursive(ell - s, 3)[0]
        return lo, hi
    s_floor = int(math.floor(math.log2(r)))
    s_ceil = int(math.ceil(math.log2(r)))
    lo = s_counts_recursive(ell - s_floor, 1)[0] / 4
    hi = 4 * s_counts_recursive(ell - s_ceil, 3)[0]
    return lo, hi


# ---------------------------------------------------------------------------
# the code as a block code of length q^2

def _monomial_evaluations(field, monomials):
    points = list(itertools.product(field.elements(), repeat=2))
    return [[field.mul(field.power(x, a), field.power(y, b))
             for x, y in points] for a, b in monomials]


def evaluation_rank(params):
    """Rank of the good-monomial evaluation matrix (dimension cross-check)."""
    field = gf.field(2, params.ell, 1)
    return gf.rank(field, _monomial_evaluations(field,
                                                good_monomials(params)))


def encode(params, coeffs):
    """Evaluate sum coeffs[(a,b)] x^a y^b at all points of F_q^2.

    Coefficient support must lie inside the good monomials.
    """
    field = gf.field(2, params.ell, 1)
    good = set(good_monomials(params))
    for mono in coeffs:
        if mono not in good:
            raise ValueError(f"monomial {mono} is not good for r={params.r}")
    if not coeffs:
        return [0] * params.q ** 2
    return gf.mat_mul(field, [list(coeffs.values())],
                      _monomial_evaluations(field, list(coeffs)))[0]


def distance_bounds(params):
    """(qr + 1, qr + q) bracket on the minimum Hamming distance."""
    return params.q * params.r + 1, params.q * params.r + params.q


def min_distance_bruteforce(params):
    """Minimum Hamming distance by enumeration (metric.BRUTEFORCE_GUARD)."""
    field = gf.field(2, params.ell, 1)
    rows = _monomial_evaluations(field, good_monomials(params))
    return metric.min_distance_bruteforce(field, rows)


# ---------------------------------------------------------------------------
# local recovery

def curves_through(params, point):
    """All q^2 quadratic curves of F_q^2 through the point, as index lists.

    Curve (alpha, beta) maps x to alpha x^2 + beta x + gamma0 with gamma0
    fixed by the point; the list holds the q - 1 cell indices at x != x0
    in the row-major (x, y) indexing of the code's evaluation points.  The
    guard needs only q, so it runs before the field build, which takes
    seconds at large ell.
    """
    x0, y0 = point
    q = params.q
    _check_enumeration_guard(q * q * (q - 1), "q^2 (q - 1) curve cells")
    field = gf.field(2, params.ell, 1)
    out = []
    for alpha in field.elements():
        for beta in field.elements():
            gamma0 = field.sub(y0, field.add(
                field.mul(alpha, field.mul(x0, x0)), field.mul(beta, x0)))
            cells = []
            for x in field.elements():
                if x == x0:
                    continue
                y = field.add(field.add(field.mul(alpha, field.mul(x, x)),
                                        field.mul(beta, x)), gamma0)
                cells.append(x * q + y)
            out.append(cells)
    return out


def local_recover(params, word, erased, position):
    """Recover word[position] using a curve with <= r - 1 other erasures.

    An RS erasure decode of the [q-1, q-r] restriction needs at least q - r
    known coordinates, i.e. tolerates r - 1 erasures among the other points.
    Returns the value or None when every curve is blocked.
    """
    q = params.q
    x0, y0 = divmod(position, q)
    curves = curves_through(params, (x0, y0))
    field = gf.field(2, params.ell, 1)
    for cells in curves:
        known = [c for c in cells if c not in erased]
        if len(known) < q - params.r:
            continue
        xs = [c // q for c in known[:q - params.r]]
        vals = [word[c] for c in known[:q - params.r]]
        return _lagrange_eval(field, xs, vals, x0)
    return None


def _lagrange_eval(field, xs, vals, x0):
    acc = 0
    for i, xi in enumerate(xs):
        num = den = 1
        for j, xj in enumerate(xs):
            if i != j:
                num = field.mul(num, field.sub(x0, xj))
                den = field.mul(den, field.sub(xi, xj))
        acc = field.add(acc, field.mul(vals[i],
                                       field.mul(num, field.inv(den))))
    return acc


def _check_tau(tau):
    if not 0 <= tau <= 1:
        raise ValueError(f"erasure probability tau = {tau} must lie in [0, 1]")


def lrs_fail_prob(q, r, tau):
    """Closed-form local-recovery failure probability of lifted RS codes."""
    _check_tau(tau)
    inner = sum(math.comb(q - 1, i) * tau ** i * (1 - tau) ** (q - 1 - i)
                for i in range(r, q))
    return inner ** (q + 1)


def simulate_local(params, tau, trials, rng):
    """Fraction of trials in which an erased symbol has no usable curve."""
    _check_tau(tau)
    if trials < 1:
        raise ValueError(f"trials = {trials} must be >= 1")
    target = 0
    curves = curves_through(params, (0, 0))
    failures = 0
    n = params.q ** 2
    for _ in range(trials):
        erased = {c for c in range(n) if c != target
                  and rng.random() < tau}
        erased.add(target)
        ok = False
        for cells in curves:
            hit = sum(1 for c in cells if c in erased)
            if hit <= params.r - 1:
                ok = True
                break
        if not ok:
            failures += 1
    return failures / trials
