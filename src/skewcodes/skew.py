"""Skew polynomial ring F_{q^m}[X; theta, delta].

theta = sigma^j is a power of the Frobenius a -> a^q and delta is either zero
or the inner derivation delta_beta(a) = beta*a - theta(a)*beta.  Polynomials
are stored in left form f = sum f_i X^i; evaluation is remainder evaluation,
computed through the truncated norms N_0(a)=1, N_{i+1}(a)=theta(N_i(a))*a
+ delta(N_i(a)).
"""

from dataclasses import dataclass, field as dc_field


class SkewRing:
    """Ring descriptor: field, automorphism power and derivation parameter."""

    def __init__(self, fld, theta_power=1, beta=0):
        theta_power %= max(fld.m, 1)
        self.field = fld
        self.theta_power = theta_power
        self.beta = beta  # beta == 0 means the zero derivation

    def theta(self, a):
        return self.field.frob(a, self.theta_power)

    def theta_inv(self, a):
        return self.field.frob(a, -self.theta_power)

    def delta(self, a):
        if self.beta == 0:
            return 0
        f = self.field
        return f.sub(f.mul(self.beta, a), f.mul(self.theta(a), self.beta))

    def poly(self, coeffs):
        return SkewPolynomial(self, list(coeffs))

    def zero(self):
        return SkewPolynomial(self, [])

    def one(self):
        return SkewPolynomial(self, [1])

    def x_minus(self, a):
        """The monic linear polynomial X - a."""
        return SkewPolynomial(self, [self.field.neg(a), 1])

    def monomial(self, degree, coeff=1):
        return SkewPolynomial(self, [0] * degree + [coeff])

    def norm_sequence(self, k, a):
        """[N_0(a), ..., N_{k-1}(a)]: N_0 = 1, N_{i+1}(a) = theta(N_i(a))*a
        + delta(N_i(a)), the delta term only when beta != 0."""
        f = self.field
        out = [1]
        n = 1
        for _ in range(k - 1):
            t = f.mul(self.theta(n), a)
            n = f.add(t, self.delta(n)) if self.beta else t
            out.append(n)
        return out

    def conjugate(self, a, c):
        """(theta,delta)-conjugate a^c = theta(c) a c^{-1} + delta(c) c^{-1}."""
        if c == 0:
            raise ZeroDivisionError("conjugation by zero")
        f = self.field
        cinv = f.inv(c)
        val = f.mul(f.mul(self.theta(c), a), cinv)
        if self.beta:
            val = f.add(val, f.mul(self.delta(c), cinv))
        return val

    def conjugacy_class(self, a):
        """Class representative (0 or gamma^i, 0 <= i <= q-2); zero derivation.

        Classes are determined by the field norm: a = gamma^e lies in
        C_sigma(gamma^(e mod (q-1))).
        """
        if self.beta or self.theta_power != 1 % self.field.m:
            raise ValueError("conjugacy classes implemented for the "
                             "Frobenius, zero-derivation case")
        if a == 0:
            return 0
        f = self.field
        nu = f.norm(a)
        base = f.base
        if f.q == 2:
            return 1
        if not base.has_tables:
            raise ValueError(f"conjugacy classes need the log table of the "
                             f"base field {base!r}, which has none")
        ng = base.log[f.norm(f.gamma)]
        i = (base.log[nu] * pow(ng, -1, f.q - 1)) % (f.q - 1)
        return f.power(f.gamma, i)

    def __eq__(self, other):
        return (isinstance(other, SkewRing) and other.field is self.field
                and other.theta_power == self.theta_power
                and other.beta == self.beta)

    def __repr__(self):
        d = f"delta_b={self.beta}" if self.beta else "delta=0"
        return f"SkewRing({self.field!r}, theta=sigma^{self.theta_power}, {d})"


NEG_INF = float("-inf")


@dataclass
class SkewPolynomial:
    """Left-form skew polynomial; coeffs[i] is the coefficient of X^i."""
    ring: SkewRing
    coeffs: list = dc_field(default_factory=list)

    def __post_init__(self):
        while self.coeffs and self.coeffs[-1] == 0:
            self.coeffs.pop()

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def copy(self):
        return SkewPolynomial(self.ring, list(self.coeffs))

    def _check(self, other):
        if other.ring != self.ring:
            raise ValueError("polynomials from different skew rings")

    def __add__(self, other):
        self._check(other)
        f = self.ring.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return SkewPolynomial(self.ring, [f.add(x, y) for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        f = self.ring.field
        return SkewPolynomial(self.ring, [f.neg(c) for c in self.coeffs])

    def scale_left(self, c):
        """c * f (coefficient-wise left multiplication by a constant)."""
        f = self.ring.field
        return SkewPolynomial(self.ring, [f.mul(c, x) for x in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        return skew_mul(self, other)

    def __eq__(self, other):
        return (isinstance(other, SkewPolynomial) and other.ring == self.ring
                and other.coeffs == self.coeffs)

    def monic(self):
        """Normalize by left-dividing by the leading coefficient."""
        if self.is_zero():
            return self.copy()
        return self.scale_left(self.ring.field.inv(self.lc()))

    def evaluate(self, a):
        """Remainder evaluation f(a) = sum f_i N_i(a)."""
        if not self.coeffs:
            return 0
        ring, f = self.ring, self.ring.field
        norms = ring.norm_sequence(len(self.coeffs), a)
        acc = 0
        for c, n in zip(self.coeffs, norms):
            if c and n:
                acc = f.add(acc, f.mul(c, n))
        return acc

    def __repr__(self):
        if self.is_zero():
            return "SkewPoly(0)"
        return "SkewPoly(" + " + ".join(
            f"{c}*X^{i}" for i, c in enumerate(self.coeffs) if c) + ")"


def skew_mul(f, g):
    """Product under X a = theta(a) X + delta(a)."""
    ring = f.ring
    fld = ring.field
    if f.is_zero() or g.is_zero():
        return ring.zero()
    # shifted[i] holds X^i * g as a coefficient list
    cur = list(g.coeffs)
    result = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    add, axpy = fld.add, fld.axpy
    for i, fi in enumerate(f.coeffs):
        if fi:
            axpy(result, fi, cur)
        if i + 1 < len(f.coeffs):
            # cur <- X * cur: (X*h)_j = theta(h_{j-1}) + delta(h_j); slot
            # j + 1 is still 0 when theta(h_j) lands in it
            nxt = [0] * (len(cur) + 1)
            for j, cj in enumerate(cur):
                if cj:
                    nxt[j + 1] = ring.theta(cj)
                    if ring.beta:
                        nxt[j] = add(nxt[j], ring.delta(cj))
            cur = nxt
    return SkewPolynomial(ring, result)


def right_divide(f, g):
    """Right division: f = q*g + r with deg r < deg g; (q, r) unique."""
    if g.is_zero():
        raise ZeroDivisionError("right division by the zero polynomial")
    ring = f.ring
    fld = ring.field
    q = ring.zero()
    r = f.copy()
    dg = g.degree
    g_lc_inv = fld.inv(g.lc())
    while not r.is_zero() and r.degree >= dg:
        shift = r.degree - dg
        c = fld.mul(r.lc(), ring.field.frob(g_lc_inv,
                                            ring.theta_power * shift))
        qi = ring.monomial(shift, c)
        q = q + qi
        r = r - qi * g
    return q, r


def left_divide(f, g):
    """Left division: f = g*q + r with deg r < deg g (theta invertible)."""
    if g.is_zero():
        raise ZeroDivisionError("left division by the zero polynomial")
    ring = f.ring
    fld = ring.field
    q = ring.zero()
    r = f.copy()
    dg = g.degree
    while not r.is_zero() and r.degree >= dg:
        shift = r.degree - dg
        # leading coefficient of g * (c X^shift) is g_lc * theta^dg(c)
        c = fld.frob(fld.mul(fld.inv(g.lc()), r.lc()),
                     -ring.theta_power * dg)
        qi = ring.monomial(shift, c)
        q = q + qi
        r = r - g * qi
    return q, r


def gcrd_lclm(f, g):
    """Extended Euclid on the right: returns (gcrd, lclm, (s, t)).

    gcrd and lclm are monic; s, t satisfy s*f + t*g = gcrd.
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("gcrd(0, 0) is undefined")
    ring = f.ring
    r0, r1 = f.copy(), g.copy()
    s0, s1 = ring.one(), ring.zero()
    t0, t1 = ring.zero(), ring.one()
    while not r1.is_zero():
        q, r2 = right_divide(r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    gcrd = r0.monic()
    # s1*f = -t1*g is the least common left multiple
    if f.is_zero():
        lclm = g.monic()
    elif g.is_zero():
        lclm = f.monic()
    else:
        lclm = (s1 * f).monic()
    c = ring.field.inv(r0.lc())
    return gcrd, lclm, (s0.scale_left(c), t0.scale_left(c))


def eval_remainder(f, a):
    """Remainder of right division of f by (X - a), via truncated norms."""
    return f.evaluate(a)


def minimal_polynomial(ring, omega):
    """Unique monic minimal-degree f with f(alpha)=0 for all alpha in omega.

    Iterative Newton interpolation: g_1 = X - a_1 and
    g_i = (X - a_i^{g_{i-1}(a_i)}) * g_{i-1} whenever g_{i-1}(a_i) != 0.
    """
    omega = list(omega)
    if not omega:
        raise ValueError("minimal polynomial of the empty set")
    g = ring.x_minus(omega[0])
    for a in omega[1:]:
        v = g.evaluate(a)
        if v != 0:
            g = ring.x_minus(ring.conjugate(a, v)) * g
    return g
