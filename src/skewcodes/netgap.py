"""Bound calculators for generalized combination networks.

Closed forms for upper/lower bounds on r_max, (q,t)-feasibility thresholds
and the gap bounds of an (eps,ell)-N_{h,r,alpha*ell+eps} network.  Values
with rational closed forms are exact Fractions (gamma is stored as the
paper constant 3.48 = 87/25); bounds involving beta (which contains e) are
computed in the float log domain.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import gf
from .metric import q_binomial

GAMMA = Fraction(348, 100)          # q-binomial approximation constant
BETA_ALPHA_MAX = 171                # (alpha-1)! <= 170! fits in a float


@dataclass(frozen=True)
class CombNetParams:
    h: int
    r: int
    alpha: int
    ell: int
    eps: int
    q: int
    t: int = 1

    def __post_init__(self):
        if self.alpha < 1 or self.ell < 1 or self.t < 1 or self.eps < 0:
            raise ValueError("need alpha, ell, t >= 1 and eps >= 0")
        if self.r < 1:
            raise ValueError(f"r = {self.r} must be >= 1")
        if self.h < 1:
            raise ValueError(f"h = {self.h} must be >= 1")
        gf.require_prime_power(self.q)

    @property
    def theta(self):
        return self.alpha - (self.h - self.eps) // self.ell + 1

    def f(self, t):
        """(alpha*ell + eps - h) eps t^2 + (alpha*ell + 2eps - h) t + 1."""
        a, l, e, h = self.alpha, self.ell, self.eps, self.h
        return (a * l + e - h) * e * t * t + (a * l + 2 * e - h) * t + 1

    def g(self, t):
        """max(lt,(h-l)t) * (min(lt,(h-l)t) - (h-l-e)t + 1)."""
        lt, ht = self.ell * t, (self.h - self.ell) * t
        return max(lt, ht) * (min(lt, ht) - (self.h - self.ell - self.eps) * t + 1)

    @property
    def beta(self):
        """((alpha-1)! / (2 e gamma alpha))^(1/(alpha-1)); needs
        2 <= alpha <= BETA_ALPHA_MAX."""
        a = self.alpha
        if a > BETA_ALPHA_MAX:
            raise ValueError(f"alpha = {a} exceeds {BETA_ALPHA_MAX}: beta "
                             f"needs (alpha-1)! as a float")
        return (math.factorial(a - 1) / (2 * math.e * float(GAMMA) * a)) \
            ** (1 / (a - 1))

    @property
    def nontrivial(self):
        return self.ell + self.eps < self.h <= self.alpha * self.ell + self.eps


@dataclass
class NetBound:
    name: str
    applicable: bool
    value: Fraction = None     # exact value when rational
    log2: float = None         # always set when applicable


def _log2_fraction(x):
    return math.log2(x.numerator) - math.log2(x.denominator)


def _mk(name, value):
    log2 = _log2_fraction(Fraction(value)) if value > 0 else float("-inf")
    return NetBound(name, True, Fraction(value), log2)


def _na(name):
    return NetBound(name, False)


# ---------------------------------------------------------------------------
# upper bounds on r_max

def rmax_upper(params):
    """All upper bounds with validity predicates enforced."""
    p = params
    q, t, ell, eps, h, alpha = p.q, p.t, p.ell, p.eps, p.h, p.alpha
    out = []

    # Cor. on gamma-form / exact subspace count, valid for h - eps >= 2 ell
    if alpha >= 2 and h - eps >= 2 * ell:
        theta = p.theta
        loose = GAMMA * theta * Fraction(q) ** (ell * t * (eps * t + 1)) \
            + alpha - theta
        exact = q_binomial((eps + ell) * t, eps * t, q) \
            * (theta * Fraction(q ** (ell * t + 1) - 1, q - 1) - 1) \
            + (h - eps) // ell - 1
        out.append(_mk("UB.N.exact", exact))
        out.append(_mk("UB.N.gamma", loose))
    else:
        out.append(_na("UB.N.exact"))
        out.append(_na("UB.N.gamma"))

    # alpha = 2 refinement; non-trivially solvable networks give h <= 2l+eps
    if alpha == 2 and h - eps <= 2 * ell and h > ell + eps:
        expo = (h - ell) * (2 * ell + eps - h) * t * t + (h - ell) * t
        loose = GAMMA * Fraction(q) ** expo
        dim = 2 * ell * t - (h - eps) * t + 1
        exact = Fraction(q_binomial(h * t, dim, q),
                         q_binomial(ell * t, dim, q))
        out.append(_mk("UB.2.exact", exact))
        out.append(_mk("UB.2.gamma", loose))
    else:
        out.append(_na("UB.2.exact"))
        out.append(_na("UB.2.gamma"))

    # covering-Grassmannian upper bound
    if (1 < ell * t < h * t and eps * t <= (h - ell) * t - 1
            and 2 <= alpha <= q_binomial(h * t - eps * t - 1, ell * t, q) + 1):
        num = q_binomial(h * t, h * t - eps * t - 1, q)
        den = q_binomial(h * t - ell * t, (h - ell - eps) * t - 1, q)
        exact = Fraction((alpha - 1) * num, den)
        exact = Fraction(math.floor(exact))
        loose = GAMMA * (alpha - 1) * Fraction(q) ** (ell * t * (eps * t + 1))
        out.append(_mk("UB.EZ.exact", exact))
        out.append(_mk("UB.EZ.gamma", loose))
    else:
        out.append(_na("UB.EZ.exact"))
        out.append(_na("UB.EZ.gamma"))
    return out


# ---------------------------------------------------------------------------
# lower bounds on r_max

def covering_code_lower(n, k, delta, alpha, q):
    """(alpha-1) q^(max(k,n-k)(min(k,n-k)-delta+1)) for covering codes."""
    if not (1 <= delta <= k and delta + k <= n and alpha >= 2):
        raise ValueError("need 1 <= delta <= k, delta + k <= n, alpha >= 2")
    return (alpha - 1) * q ** (max(k, n - k) * (min(k, n - k) - delta + 1))


def rmax_lower(params):
    p = params
    q, t, alpha, h, ell, eps = p.q, p.t, p.alpha, p.h, p.ell, p.eps
    out = []

    if alpha >= 2 and h <= alpha * ell + eps:
        log2 = p.f(t) / (alpha - 1) * math.log2(q) + math.log2(p.beta)
        # beta * q^(f(t)/(alpha-1)) has no exact value: float log view only
        out.append(NetBound("LB.LLL", True, None, log2))
    else:
        out.append(_na("LB.LLL"))

    if alpha >= 2 and h <= 2 * ell + eps and p.g(t) >= 0:
        out.append(_mk("LB.EK", (alpha - 1) * q ** p.g(t)))
    else:
        out.append(_na("LB.EK"))
    return out


def best_bounds(params):
    """Best-regime selection reproducing the bound-summary table."""
    p = params
    uppers = {b.name: b for b in rmax_upper(p)}
    lowers = {b.name: b for b in rmax_lower(p)}
    if p.alpha == 2:
        cands = [uppers["UB.2.gamma"], uppers["UB.EZ.gamma"]]
        cands = [c for c in cands if c.applicable]
        ub = min(cands, key=lambda b: b.log2) if cands else _na("UB")
    elif p.h < 2 * p.ell + p.eps:
        ub = uppers["UB.EZ.gamma"]
    else:
        ub = uppers["UB.N.gamma"]
    lb = lowers["LB.EK"] if p.h < 2 * p.ell + p.eps else lowers["LB.LLL"]
    return ub, lb


# ---------------------------------------------------------------------------
# (q, t) feasibility thresholds

def _require_solvable_window(params):
    """The thresholds need alpha >= 2 and h <= alpha*ell + eps; outside that
    window no (q,t)-solution exists.  Inside it theta, alpha - 1, f and g
    are all >= 1, so no threshold divides by zero."""
    p = params
    if p.alpha < 2:
        raise ValueError(f"alpha = {p.alpha} must be >= 2 for (q,t) "
                         "thresholds and gap bounds")
    if p.h > p.alpha * p.ell + p.eps:
        raise ValueError(f"h = {p.h} exceeds alpha*ell + eps = "
                         f"{p.alpha * p.ell + p.eps}: no (q,t)-solution "
                         "exists")


def _necessary_ratio(params):
    """The ratio that q^(t l (eps t + 1)) must reach for a (q,t)-solution."""
    p = params
    if p.h >= 2 * p.ell + p.eps:
        return Fraction(p.r + p.theta - p.alpha) / (GAMMA * p.theta)
    return Fraction(p.r) / (GAMMA * (p.alpha - 1))


def qt_necessary_log2(params, t):
    """log2 of the threshold on q^t below which no (q,t)-solution exists."""
    ratio = _necessary_ratio(params)
    if ratio <= 0:
        return float("-inf")
    return _log2_fraction(ratio) / (params.ell * (params.eps * t + 1))


def qt_sufficient_log2(params, t):
    """log2 of the threshold on q^t above which a (q,t)-solution exists."""
    p = params
    if p.h >= 2 * p.ell + p.eps:
        return (p.alpha - 1) * t / p.f(t) * (math.log2(p.r)
                                             - math.log2(p.beta))
    return t / p.g(t) * math.log2(Fraction(p.r, p.alpha - 1))


def qt_conditions(params, t_max):
    """Feasibility curves for t = 1..t_max, as log2(q^t) thresholds."""
    if t_max < 1:
        raise ValueError(f"t_max = {t_max} must be >= 1")
    _require_solvable_window(params)
    return [(t, qt_necessary_log2(params, t), qt_sufficient_log2(params, t))
            for t in range(1, t_max + 1)]


# ---------------------------------------------------------------------------
# gap bounds

def _necessary_holds(params, q, t):
    """Exact check of q^t >= ratio^(1/(l(eps t + 1))) via cross powers."""
    ratio = _necessary_ratio(params)
    if ratio <= 1:
        return True
    power = params.ell * (params.eps * t + 1)
    return Fraction(q) ** (t * power) >= ratio


def _least(holds, lo=1):
    """The least integer t >= lo >= 1 with holds(t), for a predicate that
    stays true once true: doubling steps, then bisection."""
    hi = lo
    while not holds(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid + 1, hi)
    return hi


def min_qt_satisfying_necessary(params):
    """A = min{q^t : q^t meets the necessary condition}; exact search.

    The condition is monotone in q for fixed t, so the least prime power
    that meets it at t follows the least integer that does.  No t with
    2^t >= A can beat A.
    """
    best, t = math.inf, 1
    while 2 ** t < best:
        base = _least(lambda b: _necessary_holds(params, b, t), 2)
        best = min(best, gf.next_prime_power(base) ** t)
        t += 1
    return best


def gap_bounds(params):
    """(gap_lb, gap_ub) plus the search witnesses, as a dict."""
    p = params
    _require_solvable_window(params)
    # upper bound: log2 q_s upper - A
    qs_ub_log2 = qt_sufficient_log2(params, 1)
    a_value = min_qt_satisfying_necessary(params)
    gap_ub = qs_ub_log2 - math.log2(a_value)
    # t_A / t_B: minimal t with 2^t above the necessary threshold
    t_a = _least(lambda t: _necessary_holds(params, 2, t))
    # lower bound: log2 q_s lower - t_delta (resp. t_star), the least t
    # past a threshold that f (first case) or g (second case) must reach
    if p.h >= 2 * p.ell + p.eps:
        # f(t) = (slope - eps) eps t^2 + slope t + 1 must grow for t_delta
        # to exist; in the window slope >= eps >= 0, so only slope = 0
        # (eps = 0, h = alpha ell) fails.  g always grows in the second case
        if p.alpha * p.ell + 2 * p.eps - p.h == 0:
            raise ValueError("f(t) = 1 does not grow with t, so t_delta is "
                             "undefined")
        target = math.log2(p.r) - math.log2(p.beta)
        t_delta = _least(lambda t: p.f(t) / (p.alpha - 1) >= target)
    else:
        ratio = Fraction(p.r, p.alpha - 1)
        t_delta = _least(lambda t: Fraction(2) ** p.g(t) >= ratio)
    gap_lb = qt_necessary_log2(params, 1) - t_delta
    return {"gap_lb": gap_lb, "gap_ub": gap_ub, "t_A": t_a,
            "t_delta": t_delta, "A_log2": math.log2(a_value),
            "A_value": a_value}
