"""Exact arithmetic in GF(q) and GF(q^m) plus generic exact linear algebra.

Fields are towers F_p -> F_q=F_{p^e} -> F_{q^m} of one class, Field: the
prime field GF(p) is the bottom level, and every other level is a Field
over the level below.  Each level's modulus is the lexicographically
smallest monic irreducible polynomial of its degree over the level below
(ordered by the integer encoding of its low-order coefficients; Rabin's
test on the codes of each candidate's quotient ring, see _irreducible), so
a degree-1 level has modulus x.  The primitive element gamma is the
smallest element of full multiplicative order, so field tables are
reproducible across runs.  Fields up to 2^20 elements carry full
log/antilog tables, filled by a chunked gamma-walk: multiplication by gamma
is F_p-linear on codes, so each step is a few table lookups over chunks of
the code's base-p digits.  In characteristic 2 that is two lookups over the
low and high halves joined by XOR; otherwise the walk keeps the chunks lo,
mid and top (top is the extra digit of an odd dim) and sums each one through
a shared digit-wise sum table.  A table of at most 2^16 entries is a list,
a longer one a 4-byte buffer (_table): a list entry costs a pointer and an
int object, about 36 bytes (80 MiB for the two tables of GF(4^10)), but
CPython specialises list[int] reads and not buffer reads, which pays in the
table kernels.  Larger fields fall back to polynomial arithmetic over the
level below, with inverses by the norm (Itoh & Tsujii, Inf. Comput. 78,
1988) and the Frobenius as an F_p-linear map on the digits, summed from
tables of the images of digit chunks (Field._linear_map).

Multiplication, by field family:
  - fields of dimension 1 over F_p (prime fields and degree-1 extensions
    of them): the product mod p;
  - other fields up to 2^8 elements: one product table lookup, MUL[x][y];
  - other fields up to 2^20 elements: one log/antilog table lookup;
  - larger extensions of GF(2): a carry-less product of the bit codes,
    reduced by the modulus;
  - larger extensions of GF(p), p odd: Kronecker substitution (Kronecker
    1882; Harvey, J. Symb. Comput. 2009), one big-int product of the codes'
    digits spread into wide slots, see _kronecker;
  - larger towers over GF(p^e), e > 1: schoolbook products of the digit
    polynomials over the level below, reduced by _poly_mulmod.
_mulmod builds the last three.  Rabin's test, the table walk and the gamma
search use them, and so do the Frobenius maps of fields without tables.

Addition, by field family:
  - fields of dimension 1 over F_p: the sum mod p;
  - other fields of characteristic 2: XOR of the codes;
  - odd-characteristic fields up to 2^8 elements: one sum table lookup,
    ADD[x][y], the digit-wise sum table of _digit_add_table; see _small_ops;
  - other odd-characteristic fields with tables: Zech logarithms (Huber, IEEE
    T-IT 36(4), 1990), gamma^a + gamma^b = gamma^(a + Z[b - a]) with
    Z[k] = log(1 + gamma^k), a few table reads; see _zech_ops;
  - odd-characteristic fields without tables: digit-wise sums mod p.
Field._bind_ops binds each family's add, sub, neg and mul once, as closures
on the instance; they are the only definitions of these ops, and deleting
one (as a wrapper that counts calls does when it is removed) binds the same
closure again.  Each family also has one row kernel, axpy(dst, f, src,
start), which adds f * src[j] to dst[j] for j >= start in place: up to 2^8
elements it takes the row MUL[f] once and reads MUL[f][src[j]] per cell,
joined to dst[j] by XOR or by one ADD lookup (full product tables up to
w = 8 bits and log tables above is the split of GF-Complete: Plank,
Greenan & Miller, FAST 2013); with larger tables it takes log f once and
reads exp[(log f + log src[j]) % (order - 1)] per cell, joined to dst[j]
by XOR or by Zech.  span does its row updates with it, and so does the one
elimination loop, echelon, which inserts rows one at a time into an
echelon basis: rank is the size of the basis, rref clears each pivot
column from the basis rows inserted before it, and the AAD coset reducer
reduces by the basis as it is.  mat_mul makes one axpy per nonzero entry,
except on the Kronecker fields (odd prime base, no tables), whose own
mat_mul closure sums the unreduced products of each output entry and
reduces once; see _kronecker.

Element codes are plain ints: an element sum(c_i * z^i) with c_i in F_q is
encoded as sum(code(c_i) * q^i), and a base-field element sum(b_j * x^j) with
b_j in F_p as sum(b_j * p^j).  So the base-p digits of a code are its
F_p-coordinates at every level, and addition is digit-wise mod p (XOR in
characteristic 2).  Base-field codes double as the embedded copy of F_q
inside F_{q^m} (constant polynomials), so the subfield embedding is the
identity on codes.

F_q-ranks are computed on the codes too: rank_q reduces each entry by an
echelon basis of elements, reading an F_q-coordinate as a base-q digit and
taking x - d*b with one field mul and one sub, so no coordinate matrix is
built.  Factorizations (for the gamma search and the prime-power checks)
use deterministic Miller-Rabin and Pollard-Brent; a part that Miller-Rabin
with the 13 primes up to 41 as bases cannot decide, or a split that needs
more than a fixed number of rho steps, is refused with a ValueError, so no
factorization runs unbounded.
"""

import itertools
import math
import operator

TABLE_LIMIT = 1 << 20
_LIST_LIMIT = 1 << 16       # longest table kept as a list, see _table
_SMALL_LIMIT = 1 << 8       # largest field with product tables, _small_ops
_SPREAD_LIMIT = 1 << 10     # entries of a _digit_map chunk table
_RABIN_TESTS = 1 << 17      # per modulus search; GF(256^4) needs 65,545


def _table(n):
    """n zero ints: a list up to _LIST_LIMIT entries, else a 4-byte buffer
    (the module docstring says why)."""
    if n <= _LIST_LIMIT:
        return [0] * n
    return memoryview(bytearray(4 * n)).cast("i")


# ---------------------------------------------------------------------------
# small number theory helpers

# Miller-Rabin with these bases decides primality for every n below
# _MR_LIMIT (Sorenson & Webster, Math. Comp. 86, 2017).  A witness proves n
# composite at any size; an n of _MR_LIMIT or more that passes every base is
# left undecided.  One factorize spends at most _RHO_STEPS Pollard-Brent
# steps, a few seconds: rho finds a prime factor p in about sqrt(p) steps
# (887,005 for p = 10^12 + 39), so a part whose second largest prime factor
# is much above 10^12 is refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
_RHO_STEPS = 1 << 21


def _is_prime(n):
    """Miller-Rabin to the bases _MR_BASES for an n > 1 with no prime
    factor among them: False on a witness, True when every base passes and
    n < _MR_LIMIT, and a ValueError that names n when every base passes
    and n is at least _MR_LIMIT."""
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} passes every base but is beyond the "
                         f"deterministic Miller-Rabin range (below "
                         f"{_MR_LIMIT}), so it cannot be factored")
    return True


def _pollard_brent(n, steps):
    """(a proper factor of n, steps left) for a composite n with no prime
    factor in _MR_BASES, by Pollard's rho with Brent's cycle search (Brent,
    BIT 20, 1980); a ValueError that names n when the steps run out.  The
    map y -> y^2 + c starts at y = 2 with c = 1, 2, ... in turn, so the
    factor found is the same on every run."""
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                if not steps:
                    raise ValueError(f"no factor of {n} found in "
                                     f"{_RHO_STEPS} Pollard-Brent steps, "
                                     f"so it cannot be factored")
                steps -= 1
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g, steps


def factorize(n):
    """Prime factorization as a {prime: exponent} dict in increasing prime
    order: trial division by the Miller-Rabin bases, then Pollard-Brent
    splits of the cofactor until Miller-Rabin proves every part prime.  A
    ValueError when a part passes every base and is at least _MR_LIMIT, or
    when the splits need more than _RHO_STEPS steps."""
    factors = {}
    for p in _MR_BASES:
        if p * p > n:       # n is 1 or a prime
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    parts = [n] if n > 1 else []
    steps = _RHO_STEPS
    while parts:
        x = parts.pop()
        if _is_prime(x):
            factors[x] = factors.get(x, 0) + 1
        else:
            d, steps = _pollard_brent(x, steps)
            parts += [d, x // d]
    return dict(sorted(factors.items()))


def is_prime(n):
    if n < 2:
        return False
    return factorize(n) == {n: 1}


def prime_power(n):
    """Return (p, e) with n = p^e, or None if n is not a prime power."""
    if n < 2:
        return None
    f = factorize(n)
    if len(f) != 1:
        return None
    (p, e), = f.items()
    return p, e


def require_prime_power(q):
    """(p, e) with q = p^e; a ValueError that names q otherwise."""
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"q = {q} is not a prime power")
    return pe


def next_prime_power(n):
    """Smallest prime power >= n."""
    k = max(2, n)
    while prime_power(k) is None:
        k += 1
    return k


# ---------------------------------------------------------------------------
# dense polynomials over a Field (lists of codes, low degree first): the
# schoolbook product of towers over GF(p^e), e > 1, and the gcd of Rabin's test

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_sub(F, a, b):
    return _poly_trim([F.sub(x, y)
                       for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _poly_rem(F, a, mod):
    """The remainder of a divided by a nonzero mod."""
    a = list(a)
    dm = len(mod) - 1
    inv_lead = 1 if mod[-1] == 1 else F.inv(mod[-1])
    while len(a) > dm:
        c = a.pop()
        if c:
            f = c if inv_lead == 1 else F.mul(c, inv_lead)
            shift = len(a) - dm
            for i in range(dm):
                a[shift + i] = F.sub(a[shift + i], F.mul(f, mod[i]))
    return _poly_trim(a)


def _poly_mulmod(F, a, b, mod):
    if not a or not b:
        return []
    res = [0] * (len(a) + len(b) - 1)
    mul, add = F.mul, F.add
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = add(res[i + j], mul(ai, bj))
    return _poly_rem(F, res, mod)


def _poly_gcd(F, a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_rem(F, a, b)
    return a


def _pow(mul, x, n):
    """x^n for n >= 0 by left-to-right square-and-multiply with mul."""
    if n == 0:
        return 1
    r = x
    for bit in bin(n)[3:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, x)
    return r


def _irreducible(F, f):
    """Rabin's test for a monic f of degree d over F, with |F| = q, on the
    codes of F[z]/(f), in which z is the code q: gcd(z^(q^(d/r)) - z, f) = 1
    for each prime r | d, each checked as soon as z^(q^(d/r)) is known, and
    z^(q^d) = z."""
    d, q = len(f) - 1, F.order
    if d == 1:          # every monic linear f
        return True
    mul, h = _mulmod(F, d, f)[0], q
    checks = {d // r for r in factorize(d)}
    for k in range(1, d + 1):
        h = _pow(mul, h, q)                 # z^(q^k)
        if k in checks and len(_poly_gcd(
                F, _poly_sub(F, _digits(h, q, d), [0, 1]), f)) != 1:
            return False
    return h == q


def _digits(code, b, n):
    """The n base-b digits of code, lowest first."""
    out = []
    for _ in range(n):
        code, d = divmod(code, b)
        out.append(d)
    return out


def _undigits(digits, b):
    code = 0
    for d in reversed(digits):
        code = code * b + d
    return code


def _digit_map(p, units):
    """x -> sum(digit_i(x) * units[i]) over the base-p digits of x, read C
    digits at a time from one table per chunk, with C the largest chunk
    whose table has at most _SPREAD_LIMIT entries."""
    C = 1
    while C < len(units) and p ** (C + 1) <= _SPREAD_LIMIT:
        C += 1
    P, tables = p ** C, []
    for c in range(0, len(units), C):
        table = [0]
        for u in units[c:c + C]:       # add a top digit to every chunk code
            table = [t + d * u for d in range(p) for t in table]
        tables.append(table)

    def apply(x):
        s = 0
        for t in tables:
            x, a = divmod(x, P)
            s += t[a]
        return s
    return apply


def _slot_reader(p, n, W):
    """s -> the code whose n base-p digits are the W-bit slots of s, each
    reduced mod p."""
    mask = (1 << W) - 1
    reads = [(W * t, p ** t) for t in range(n)]

    def read(s):
        return sum([(s >> sh & mask) % p * pt for sh, pt in reads])
    return read


def _kronecker(p, m, modulus):
    """(mul, mat_mul) of GF(p^m) codes, p odd, by Kronecker substitution.

    A code's m base-p digits are spread into W-bit slots of one int, one big
    int product then holds every coefficient of the product polynomial in
    its own slot, and the high coefficients at z^k, m <= k <= 2m-2, are
    reduced mod p and folded back with the packed rows z^k mod modulus.
    mat_mul sums the K = len(b) unreduced products of each output entry
    first and folds and reads that sum once (lazy reduction; Harvey, J.
    Symb. Comput. 44, 2009).  A low slot of the sum holds at most K*m
    products of two digits, and the fold adds at most m - 1 more, so slots
    with 2^W > (K*m + m - 1)(p-1)^2 never carry into the next one; mul is
    the case K = 1.  Each entry of a and b is spread once, by _digit_map;
    the layout of each W is built once.
    """
    rows = []
    zk = [(-c) % p for c in modulus[:m]]            # z^m mod modulus
    for k in range(m, 2 * m - 1):
        rows.append(zk)
        top = zk[-1]                                # z^(k+1) = z * z^k
        zk = [(a - top * c) % p for a, c in zip([0] + zk[:-1], modulus)]
    layouts = {}

    def layout(K):
        W = ((K * m + m - 1) * (p - 1) ** 2).bit_length()
        if W not in layouts:
            fold = [(W * k, _undigits(r, 1 << W))
                    for k, r in enumerate(rows, m)]
            mask, low_mask = (1 << W) - 1, (1 << (W * m)) - 1
            read = _slot_reader(p, m, W)

            def reduce(prod):
                return read((prod & low_mask) + sum(
                    [(prod >> sh & mask) % p * r for sh, r in fold]))
            layouts[W] = (_digit_map(p, [1 << (W * t) for t in range(m)]),
                          reduce)
        return layouts[W]

    spread1, reduce1 = layout(1)

    def mul(x, y):
        return reduce1(spread1(x) * spread1(y))

    def mat_mul(a, b):
        spread, reduce = layout(len(b))
        cols = list(zip(*[[spread(y) for y in row] for row in b]))
        return [[reduce(sum(map(operator.mul, xs, col))) for col in cols]
                for xs in [[spread(x) for x in row] for row in a]]
    return mul, mat_mul


def _mulmod(base, m, f):
    """(mul, mat_mul) of codes of base[z]/(f), f a monic list of degree m.

    mul is carry-less over GF(2), reduced by shifted XORs of f; _kronecker's
    over odd GF(p); _poly_mulmod on the digit lists over GF(p^e), e > 1.
    mat_mul is _kronecker's over odd GF(p), else None.
    """
    if base.order == 2:
        mod = _undigits(f, 2)

        def mul(x, y):
            r = 0
            while y:
                if y & 1:
                    r ^= x
                x <<= 1
                y >>= 1
            while r.bit_length() > m:
                r ^= mod << (r.bit_length() - 1 - m)
            return r
        return mul, None
    if base.base is None:
        return _kronecker(base.p, m, f)
    q = base.order

    def mul(x, y):
        return _undigits(_poly_mulmod(base, _digits(x, q, m),
                                      _digits(y, q, m), f), q)
    return mul, None


def _chunks(codes, P):
    """Three lists: the base-P digits 0, 1 and the rest of every code."""
    return ([y % P for y in codes], [y // P % P for y in codes],
            [y // (P * P) for y in codes])


def _digit_add_table(p, c):
    """Digit-wise sums mod p of c-digit base-p codes, as rows: add[a][b].

    Built one top digit at a time from the table of one digit less.  Every
    entry is one of the p^c int objects in `vals`, so an entry costs one
    pointer.
    """
    vals = list(range(p ** c))
    add = [[vals[(a + b) % p] for b in range(p)] for a in range(p)]
    size = p
    for _ in range(c - 1):
        add = [[vals[v + size * ((a_top + b_top) % p)]
                for b_top in range(p) for v in row]
               for a_top in range(p) for row in add]
        size *= p
    return add


# ---------------------------------------------------------------------------
# arithmetic closures per field family, bound by Field._bind_ops; each axpy
# is the row kernel dst[j] += f * src[j] for j >= start, in place

def _prime_ops(p):
    """Fields of dimension 1 over F_p: codes are residues mod p."""
    def add(x, y):
        return (x + y) % p

    def sub(x, y):
        return (x - y) % p

    def neg(x):
        return -x % p

    def mul(x, y):
        return x * y % p

    def axpy(dst, f, src, start=0):
        for j in range(start, len(src)):
            y = src[j]
            if y:
                dst[j] = (dst[j] + f * y) % p

    return {"add": add, "sub": sub, "neg": neg, "mul": mul, "axpy": axpy}


def _same(x):
    return x


def _table_mul(exp, log):
    n1 = len(exp)

    def mul(x, y):
        if x and y:
            return exp[(log[x] + log[y]) % n1]
        return 0
    return mul


def _xor_table_ops(exp, log):
    """Table fields of characteristic 2 above _SMALL_LIMIT elements:
    addition is XOR."""
    n1 = len(exp)

    def axpy(dst, f, src, start=0):
        if f:
            lf = log[f]
            for j in range(start, len(src)):
                y = src[j]
                if y:
                    dst[j] ^= exp[(lf + log[y]) % n1]

    return {"add": operator.xor, "sub": operator.xor, "neg": _same,
            "mul": _table_mul(exp, log), "axpy": axpy}


def _zech_ops(p, exp, log):
    """Table fields of odd characteristic above _SMALL_LIMIT elements:
    addition by Zech logarithms.

    With Z[k] = log(1 + gamma^k), gamma^a + gamma^b = gamma^(a + Z[b - a]).
    -1 = gamma^(n1/2), so Z[n1/2] is the sentinel -1: x + (-x) = 0; a
    buffer cannot hold None, so both storages of _table share it.
    1 + gamma^k adds 1 to the lowest base-p digit of the code gamma^k.  The
    table Z has one entry per nonzero element; it is filled on the first
    add or axpy, so building a field and multiplying in it never pays for
    it.
    A difference of two logs lies in (-n1, n1), and a negative index reads
    Z[k + n1], so the lookups Z[b - a] need no reduction mod n1.
    """
    n1 = len(exp)
    half = n1 // 2
    zech = None

    def fill():     # Z is published whole, never without its sentinel
        nonlocal zech
        z = _table(n1)
        for k, e in enumerate(exp):
            z[k] = log[e + 1 if e % p != p - 1 else e + 1 - p]
        z[half] = -1
        zech = z

    def add(x, y):
        if not x:
            return y
        if not y:
            return x
        if zech is None:
            fill()
        lx = log[x]
        z = zech[log[y] - lx]
        return 0 if z < 0 else exp[(lx + z) % n1]

    def neg(x):
        return exp[(log[x] + half) % n1] if x else 0

    def sub(x, y):
        return add(x, neg(y))

    def axpy(dst, f, src, start=0):
        if not f:
            return
        if zech is None:
            fill()
        lf = log[f]
        for j in range(start, len(src)):
            y = src[j]
            if y:
                lt = (lf + log[y]) % n1       # the log of f * y
                d = dst[j]
                if d:
                    ld = log[d]
                    z = zech[lt - ld]
                    dst[j] = 0 if z < 0 else exp[(ld + z) % n1]
                else:
                    dst[j] = exp[lt]

    return {"add": add, "sub": sub, "neg": neg, "mul": _table_mul(exp, log),
            "axpy": axpy}


def _small_ops(p, dim, exp, log):
    """Table fields of dim > 1 and at most _SMALL_LIMIT elements: one lookup
    per op.

    MUL[x][y] = x * y, read off the log tables once; in odd characteristic
    ADD[x][y] = x + y is the digit-wise sum table and NEG[x] = -x.  Every
    entry is one of CPython's cached small ints, so an entry costs one
    pointer (512 KiB for MUL of GF(256)).  axpy reads the row MUL[f] once
    and then makes one lookup per cell.
    """
    n1 = len(exp)
    # row x is exp rotated by log x, read at log y for y = 1, 2, ...
    exp2, at_logs = list(exp) * 2, operator.itemgetter(*log[1:])
    MUL = [[0] * (n1 + 1)] + [[0, *at_logs(exp2[lx:lx + n1])]
                              for lx in log[1:]]

    def mul(x, y):
        return MUL[x][y]

    if p == 2:
        def axpy(dst, f, src, start=0):
            mf = MUL[f]
            for j in range(start, len(src)):
                y = src[j]
                if y:
                    dst[j] ^= mf[y]

        return {"add": operator.xor, "sub": operator.xor, "neg": _same,
                "mul": mul, "axpy": axpy}
    ADD = _digit_add_table(p, dim)
    NEG = [row.index(0) for row in ADD]

    def add(x, y):
        return ADD[x][y]

    def sub(x, y):
        return ADD[x][NEG[y]]

    def neg(x):
        return NEG[x]

    def axpy(dst, f, src, start=0):
        mf = MUL[f]
        for j in range(start, len(src)):
            y = src[j]
            if y:
                dst[j] = ADD[dst[j]][mf[y]]

    return {"add": add, "sub": sub, "neg": neg, "mul": mul, "axpy": axpy}


def _no_table_ops(fld):
    """Fields without tables: the product of _mulmod (carry-less, Kronecker
    or schoolbook); XOR in characteristic 2, else digit-wise sums mod p; and
    a row kernel of one add and one mul per cell."""
    mul = fld._poly_mul
    if fld.p == 2:
        add = sub = operator.xor
        neg = _same
    else:
        p, dim = fld.p, fld.dim

        def add(x, y):
            if not x or not y:
                return x or y
            out, scale = 0, 1
            for _ in range(dim):
                out += (x % p + y % p) % p * scale
                x //= p
                y //= p
                scale *= p
            return out

        def neg(x):
            out, scale = 0, 1
            for _ in range(dim):
                out += -x % p * scale
                x //= p
                scale *= p
            return out

        def sub(x, y):
            return add(x, neg(y))

    def axpy(dst, f, src, start=0):
        for j in range(start, len(src)):
            y = src[j]
            if y:
                dst[j] = add(dst[j], mul(f, y))

    return {"add": add, "sub": sub, "neg": neg, "mul": mul, "axpy": axpy}


# ---------------------------------------------------------------------------
# the field tower F_p -> F_q -> F_{q^m}

_FIELD_CACHE = {}


def field(p, e, m):
    """Cached GF(q^m) over GF(q) = GF(p^e) over GF(p)."""
    key = (p, e, m)
    if key not in _FIELD_CACHE:
        prime = Field(p)
        base = prime if e == 1 else Field(p, e, prime)
        _FIELD_CACHE[key] = Field(p, m, base)
    return _FIELD_CACHE[key]


def field_q(q, m):
    """Cached field from a prime-power base size q."""
    p, e = require_prime_power(q)
    return field(p, e, m)


def field_name(p, e, m):
    """repr(field(p, e, m)), without building the field."""
    return f"GF({p}^{e * m})[q={p ** e},m={m}]"


class Field:
    """GF(q^m) as a degree-m extension of the Field `base` = GF(q).

    With base None this is the prime field GF(p), the bottom of the tower,
    with q = p and m = 1.  Otherwise the modulus is the smallest monic
    irreducible of degree m over base, and the fixed F_q-basis is the
    polynomial basis (1, z, ..., z^(m-1)), so the F_q-coordinates of an
    element are its base-q digits.  The Frobenius is sigma(a) = a^q.
    """

    def __init__(self, p, m=1, base=None):
        if base is None and not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1 or base is None and m != 1:
            raise ValueError(f"bad extension degree m = {m}")
        self.p = p
        self.m = m
        self.base = base
        self.q = base.order if base else p
        self.dim = (base.dim if base else 1) * m    # the dimension over F_p
        self.order = p ** self.dim
        self.has_tables = self.order <= TABLE_LIMIT
        # factored first: an order - 1 that cannot be factored refuses the
        # field before the modulus search
        factors = factorize(self.order - 1)
        self.modulus = self._find_modulus() if base else None
        self._poly_mul, mat_mul = (_mulmod(base, m, self.modulus) if base
                                   else (lambda x, y: x * y % p, None))
        self.gamma = self._find_gamma(factors)
        if self.has_tables:
            self._build_tables()
        self.basis = tuple(self.q ** i for i in range(m))
        self._frob_maps = []       # sigma^1, sigma^2, ... as they are needed
        self._bind_ops(mat_mul)

    # -- construction helpers ------------------------------------------------

    def _bind_ops(self, mat_mul):
        """Bind this family's add, sub, neg, mul and axpy, and the mat_mul of
        _mulmod for Kronecker fields, on the instance; they are its only
        definitions."""
        if self.dim == 1:
            ops = _prime_ops(self.p)
        elif not self.has_tables:
            ops = _no_table_ops(self)
            if mat_mul is not None:
                ops["mat_mul"] = mat_mul
        elif self.order <= _SMALL_LIMIT:
            ops = _small_ops(self.p, self.dim, self.exp, self.log)
        elif self.p == 2:
            ops = _xor_table_ops(self.exp, self.log)
        else:
            ops = _zech_ops(self.p, self.exp, self.log)
        self._ops = ops
        for name, fn in ops.items():
            setattr(self, name, fn)

    def __delattr__(self, name):
        """Deleting an op (as a wrapper that counts calls does when it is
        removed) binds the same closure again, so its state, such as a
        filled Zech list, is kept."""
        super().__delattr__(name)
        if name in self._ops:
            setattr(self, name, self._ops[name])

    def _find_modulus(self):
        """The first monic irreducible of degree m in code order.  An f whose
        nonzero coefficients sit at degrees divisible by p is g(z^p) = g'(z)^p,
        skipped untested; a ValueError when _RABIN_TESTS tests find none.
        The codes below q are the binomials z^m + b, all reducible when a
        prime r | m does not divide q - 1 (Lidl & Niederreiter, Finite
        Fields, Thm 3.75), so the search then starts at q."""
        p, q, m = self.p, self.q, self.m
        code = q if any((q - 1) % r for r in factorize(m)) else 0
        tests = 0
        while code < q ** m:
            f = _digits(code, q, m) + [1]
            if not any(c for i, c in enumerate(f) if i % p):
                # the q codes of a block differ only at degree 0, which
                # p divides, so the whole block is skipped
                code += q - code % q
                continue
            if _irreducible(self.base, f):
                return tuple(f)
            tests += 1
            if tests == _RABIN_TESTS:
                break
            code += 1
        raise ValueError(f"no irreducible polynomial of degree {m} over "
                         f"GF({q}) in {_RABIN_TESTS} Rabin tests, so "
                         f"GF({q}^{m}) cannot be built")

    def _poly_pow(self, x, n):
        return _pow(self._poly_mul, x, n)

    def _find_gamma(self, factors):
        """The first code of full order q^m - 1, whose prime factors are the
        keys of factors.  For m > 1 the search starts at q: the codes below
        it are F_q, whose orders divide q - 1."""
        n1 = self.order - 1
        for cand in range(self.q if self.m > 1 else 2, self.order):
            if all(self._poly_pow(cand, n1 // r) != 1 for r in factors):
                return cand
        return 1  # order == 2

    def _linear_map(self, f):
        """An F_p-linear map f on codes, as a function read from the images
        f(p^i) of the unit codes, i < dim.

        Codes are F_p-coordinates, so f(x) sums digit_i(x) * f(p^i): an XOR
        of images in characteristic 2.  Otherwise the digits of each image
        are spread into W-bit slots, one per digit, and _digit_map sums the
        spread images of x's digit chunks from prebuilt tables; a slot then
        holds at most dim * (p-1)^2, below 2^W, and is reduced mod p once.
        """
        p, dim = self.p, self.dim
        images = [f(p ** i) for i in range(dim)]
        if p == 2:
            def apply(x):
                y = 0
                while x:
                    low = x & -x
                    y ^= images[low.bit_length() - 1]
                    x ^= low
                return y
        else:
            W = (dim * (p - 1) ** 2).bit_length()
            slots = _digit_map(p, [_undigits(_digits(y, p, dim), 1 << W)
                                   for y in images])
            read = _slot_reader(p, dim, W)

            def apply(x):
                return read(slots(x))
        return apply

    def _build_tables(self):
        # The gamma-walk: step i stores gamma^i and multiplies by gamma.
        # Multiplication by gamma is F_p-linear, so a code x = lo + P * hi
        # with lo its c = dim // 2 low base-p digits (P = p^c) maps to
        # lo_part[lo] + hi_part[hi]: in characteristic 2 two lookups and one
        # XOR, otherwise one sum-table lookup per chunk (see the odd-p branch).
        n1, p, dim, g = self.order - 1, self.p, self.dim, self.gamma
        self.exp = exp = _table(n1)
        self.log = log = _table(self.order)
        if dim == 1:
            x = 1
            for i in range(n1):
                exp[i] = x
                log[x] = i
                x = x * g % p
            return
        times_gamma = self._linear_map(lambda u: self._poly_mul(u, g))
        c = dim // 2
        P = p ** c
        lo_part = [times_gamma(v) for v in range(P)]
        hi_part = [times_gamma(v * P) for v in range(self.order // P)]
        if p == 2:
            x, mask = 1, P - 1
            for i in range(n1):
                exp[i] = x
                log[x] = i
                x = lo_part[x & mask] ^ hi_part[x >> c]
        else:
            # The walk keeps x as its chunk codes lo and hi = mid + P * top
            # (top is one digit when dim is odd, else 0) and adds chunk by
            # chunk through one digit-wise sum table of P * P entries; the
            # parts of lo_part are kept as their rows of that table.
            add = _digit_add_table(p, c)
            a_lo, a_mid, a_top = ([add[y] for y in ys]
                                  for ys in _chunks(lo_part, P))
            b_lo, b_mid, b_top = _chunks(hi_part, P)
            lo, hi = 1, 0
            for i in range(n1):
                x = lo + P * hi
                exp[i] = x
                log[x] = i
                lo, hi = (a_lo[lo][b_lo[hi]],
                          a_mid[lo][b_mid[hi]] + P * a_top[lo][b_top[hi]])

    # -- arithmetic on codes ---------------------------------------------------

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inversion of zero")
        if self.has_tables:
            return self.exp[(-self.log[x]) % (self.order - 1)]
        if self.base is None:
            return pow(x, -1, self.p)
        if self.m == 1:
            return self.base.inv(x)
        # Itoh-Tsujii: x^-1 = x^(r-1) N(x)^-1, r = (q^m - 1)/(q - 1), and
        # x^(r-1) = sigma(a_(m-1)) with a_k = x sigma(x) ... sigma^(k-1)(x),
        # from a_2k = a_k sigma^k(a_k) and a_(k+1) = x sigma(a_k)
        mul, a, k = self._poly_mul, x, 1
        for bit in bin(self.m - 1)[3:]:
            a = mul(a, self._frobenius(k)(a))
            k *= 2
            if bit == "1":
                a = mul(x, self._frobenius(1)(a))
                k += 1
        a = self._frobenius(1)(a)
        return mul(a, self.base.inv(mul(x, a)))

    def power(self, x, n):
        """x^n for any integer n (negative n inverts a nonzero x)."""
        if x == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        if self.has_tables:
            return self.exp[(self.log[x] * n) % (self.order - 1)]
        return self._poly_pow(x, n % (self.order - 1))

    def frob(self, x, j=1):
        """Frobenius sigma^j: x -> x^(q^j); j may be any integer."""
        j %= self.m
        if x == 0 or j == 0:
            return x
        if self.has_tables:
            return self.exp[(self.log[x] * pow(self.q, j, self.order - 1))
                            % (self.order - 1)]
        return self._frobenius(j)(x)

    def _frobenius(self, j):
        """sigma^j on codes for 0 < j < m, an F_q-linear map built once."""
        maps = self._frob_maps
        if not maps:
            maps.append(self._linear_map(lambda u: self._poly_pow(u, self.q)))
        sigma = maps[0]
        while len(maps) < j:
            prev = maps[-1]
            maps.append(self._linear_map(lambda u: sigma(prev(u))))
        return maps[j - 1]

    def norm(self, x):
        """Field norm onto F_q: x^((q^m-1)/(q-1)); result is a base code."""
        if self.q == self.order:
            return x
        return self.power(x, (self.order - 1) // (self.q - 1))

    def elements(self):
        return range(self.order)

    def base_elements(self):
        """Codes of the embedded subfield F_q (identity embedding)."""
        return range(self.q)

    def random_nonzero(self, rng):
        return 1 + rng.randrange(self.order - 1)

    def __repr__(self):
        return field_name(self.p, self.dim // self.m, self.m)


# ---------------------------------------------------------------------------
# matrices and exact linear algebra (row lists of int codes)

def mat_mul(field, a, b):
    """a * b: the field's own mat_mul where _bind_ops binds one (Kronecker
    fields), else one axpy per nonzero entry of a."""
    if "mat_mul" in field._ops:
        return field.mat_mul(a, b)
    axpy = field.axpy
    nb = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * nb
        for k, x in enumerate(row):
            if x:
                axpy(acc, x, b[k])
        out.append(acc)
    return out


def span(field, rows, offset=None):
    """Yield offset + c_1*rows[0] + ... + c_k*rows[k-1] for every message.

    Messages (c_1, ..., c_k) come in itertools.product(field.elements(),
    repeat=k) order, so c_k varies fastest; offset None means the zero word.
    The word of each message prefix is kept, so each word costs one copy and
    one row kernel call.  rows and offset are never mutated, and every
    yielded word is a new list that the caller may keep or change.  With no
    rows the only word is a copy of offset (empty when offset is None).
    """
    axpy = field.axpy
    elements = field.elements()

    def extend(word, i):
        if i == len(rows):
            yield word
            return
        row = rows[i]
        for c in elements:
            new = list(word)
            if c:
                axpy(new, c, row)
            yield from extend(new, i + 1)

    if offset is None:
        offset = [0] * (len(rows[0]) if rows else 0)
    return extend(list(offset), 0)


def lines(field, rows):
    """Yield each line (one-dimensional subspace) of the row span once, as
    its normalised word: the one whose first nonzero coordinate is 1.

    Sorted by pivot, the rows b_1..b_r of one echelon basis are zero left
    of their pivots, and b_i is 1 at its pivot, where every later row is 0.
    A nonzero word sum c_j*b_j whose first nonzero c is c_i is therefore 0
    left of b_i's pivot and c_i there, so it is normalised iff c_i = 1: the
    normalised words are the words of b_i + span(b_(i+1), ..., b_r), each
    once.  Dependent rows add no basis row, so no line twice, and the zero
    word never appears.  A span of rank r has (q^r - 1)/(q - 1) lines.
    Each yielded word is a new list.
    """
    basis = [row for _, row in sorted(echelon(field, rows))]
    for i, row in enumerate(basis):
        yield from span(field, basis[i + 1:], offset=row)


def echelon(field, rows):
    """An echelon basis of the row span, as (pivot column, row) pairs in
    insertion order.

    The rows are inserted one at a time.  Each basis row has a pivot of 1
    with zeros before it and at the pivots of the rows inserted before it,
    so an incoming row is reduced by one axpy per basis row, from that
    row's pivot column; a nonzero remainder joins the basis.  The rank
    cannot exceed the column count, so the loop stops once the basis holds
    ncols rows.  rows is never mutated.
    """
    ncols = len(rows[0]) if rows else 0
    inv, neg, axpy = field.inv, field.neg, field.axpy
    basis = []
    for row in rows:
        if len(basis) == ncols:
            break
        row = list(row)
        for c, b in basis:
            if row[c]:
                axpy(row, neg(row[c]), b, c)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            unit = [0] * ncols
            axpy(unit, inv(row[lead]), row, lead)
            basis.append((lead, unit))
    return basis


def rref(field, rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns).

    Each row of the echelon basis is already zero at the pivots of the rows
    inserted before it.  So clearing, in insertion order, each row's pivot
    column from the rows inserted before it never refills a column already
    cleared.  Sorted by pivot and padded with zero rows, the rows are the
    unique reduced form.
    """
    basis = echelon(field, rows)
    neg, axpy = field.neg, field.axpy
    for k, (c, row) in enumerate(basis):
        for _, prev in basis[:k]:
            if prev[c]:
                axpy(prev, neg(prev[c]), row, c)
    basis.sort()        # the pivots differ, so only they are compared
    ncols = len(rows[0]) if rows else 0
    red = [row for _, row in basis]
    red += [[0] * ncols for _ in range(len(rows) - len(basis))]
    return red, [c for c, _ in basis]


def rank(field, rows):
    """Rank: the size of the echelon basis."""
    return len(echelon(field, rows))


def right_kernel(field, rows):
    """Basis of {x : rows * x = 0}, as a list of vectors.

    One vector per free column f: 1 at f and minus column f of the reduced
    rows at the pivot columns.
    """
    red, pivots = rref(field, rows)
    ncols = len(rows[0]) if rows else 0
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    neg = field.neg
    for fcol in free:
        vec = [0] * ncols
        vec[fcol] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = neg(red[r][fcol])
        basis.append(vec)
    return basis


def expand_matrix(field, vector):
    """F_q-coordinate expansion of a vector over F_{q^m}: an m x n matrix.

    Column j holds the coordinates of v_j in the fixed polynomial basis; the
    map is F_q-linear and invertible on its image.
    """
    q, m = field.q, field.m
    cols = [_digits(v, q, m) for v in vector]
    return [[col[i] for col in cols] for i in range(m)]


def rank_q(field, vector):
    """F_q-rank of a vector over F_{q^m}: the dimension of the F_q-span of
    its entries, computed on their codes.

    The base-q digits of a code are its F_q-coordinates, and F_q embeds as
    the codes below q, so x - d*b for d in F_q is one mul and one sub.  As in
    echelon, the entries are inserted into an echelon basis of (q^i, b) pairs,
    with the lowest nonzero digit of b a 1 at position i and zeros at the
    pivots of the pairs inserted before it; one reduction per pair, in
    insertion order, clears every pivot digit of an incoming entry.
    """
    q, m = field.q, field.m
    mul, sub, inv = field.mul, field.sub, field.base.inv
    basis = []      # (q^i, b)
    for x in vector:
        if len(basis) == m:
            break
        for qi, b in basis:
            d = x // qi % q
            if d:
                x = sub(x, b if d == 1 else mul(d, b))
        if x:
            qi = 1
            while not x // qi % q:
                qi *= q
            d = x // qi % q
            basis.append((qi, x if d == 1 else mul(inv(d), x)))
    return len(basis)
