"""GRS codes, alternant (subfield) subcodes and MDS counting quantities.

A GRS code of designed distance d is the right kernel of H * diag(v) with
H[i][j] = alpha_j^i, i in [0, d-2].  Its F_q-subfield subcode is the kernel
of the coordinate-expanded parity-check matrix; the summed-cardinality
quantities B^MDS feed the interleaved-decoding bounds.

B^MDS = sum_w b_mds(n, d, w) is the weight enumerator W(x, y) =
sum_w A_w x^(n-w) y^w of an [n, k] MDS code over F_Q at (Q - 1, q - 1).
b_mds_total evaluates it by counting, for each coordinate set U, the
Q^max(0, k - |U|) codewords that vanish on U (any k coordinates are an
information set): W(x, y) = sum_u C(n, u) y^(n-u) (x - y)^u Q^max(0, k-u)
(MacWilliams & Sloane 1977, ch. 11), one sum of n + 1 non-negative terms
in place of a per-weight alternating sum.
"""

import math
from dataclasses import dataclass
from functools import cached_property

from . import gf


@dataclass
class GrsSpec:
    """GRS code descriptor over F_{q^m} = field; k = n - d + 1."""
    field: object
    locators: list
    multipliers: list
    d: int

    def __post_init__(self):
        n = len(self.locators)
        if len(set(self.locators)) != n or 0 in self.locators:
            raise ValueError("locators must be distinct and nonzero")
        if len(self.multipliers) != n or 0 in self.multipliers:
            raise ValueError("multipliers must be nonzero, one per locator")
        if not 1 <= self.d <= n:
            raise ValueError("need 1 <= d <= n")

    @property
    def n(self):
        return len(self.locators)

    @property
    def k(self):
        return self.n - self.d + 1

    @cached_property
    def parity_rows(self):
        """The d-1 rows of H * diag(v), (v_j alpha_j^i)_j, built once.

        Shared by parity_check and the decoder; callers must not change them.
        """
        return power_rows(self.field, self.locators, self.multipliers,
                          self.d - 1)

    @cached_property
    def parity_columns(self):
        """(H * diag(v))^T, n rows of length d-1 (empty for d = 1), by which
        the decoder multiplies R; callers must not change them."""
        return [[h[j] for h in self.parity_rows] for j in range(self.n)]


def power_rows(field, points, scales, count):
    """The count x n matrix with rows (scale_j * x_j^i)_j, i < count."""
    rows = [list(scales)] if count > 0 else []
    for _ in range(count - 1):
        rows.append([field.mul(c, x) for c, x in zip(rows[-1], points)])
    return rows


def default_spec(field, n, d):
    """Spec with locators gamma^0..gamma^(n-1) and all-one multipliers."""
    if n > field.order - 1:
        raise ValueError(f"n = {n} exceeds q^m - 1 = {field.order - 1}, "
                         "the number of nonzero locators")
    locs = [field.power(field.gamma, i) for i in range(n)]
    return GrsSpec(field, locs, [1] * n, d)


def parity_check(spec):
    """(d-1) x n matrix H * diag(v); empty for d = 1 (full code)."""
    return [list(r) for r in spec.parity_rows]


def dual_multipliers(spec):
    """u with ker(H diag(v)) = {(u_j f(alpha_j))_j : deg f < k}.

    u_j = (v_j * prod_{l != j} (alpha_j - alpha_l))^{-1}.
    """
    fld = spec.field
    out = []
    for j, aj in enumerate(spec.locators):
        prod = spec.multipliers[j]
        for l, al in enumerate(spec.locators):
            if l != j:
                prod = fld.mul(prod, fld.sub(aj, al))
        out.append(fld.inv(prod))
    return out


def generator_matrix(spec):
    """k x n generator of ker(H diag(v)): row i is (u_j alpha_j^i)_j."""
    return power_rows(spec.field, spec.locators, dual_multipliers(spec),
                      spec.k)


@dataclass
class AlternantCode:
    """F_q-subfield subcode of a GRS code, with an explicit F_q-basis."""
    parent: GrsSpec
    generator: list       # k_A x n over the base field (codes)

    @property
    def dimension(self):
        return len(self.generator)


def expanded_parity_check(spec):
    """The (d-1)m x n parity-check matrix over F_q."""
    return [row for h in spec.parity_rows
            for row in gf.expand_matrix(spec.field, h)]


def subfield_subcode(spec):
    """Alternant code: basis of the F_q-kernel of the expanded parity check."""
    fld = spec.field
    expanded = expanded_parity_check(spec)
    if not expanded:
        base_gen = [[1 if i == j else 0 for j in range(spec.n)]
                    for i in range(spec.n)]
        return AlternantCode(spec, base_gen)
    kernel = gf.right_kernel(fld.base, expanded)
    return AlternantCode(spec, kernel)


# ---------------------------------------------------------------------------
# MDS weight enumerators and summed subfield-subcode cardinalities

def mds_weight_enum(n, k, Q, w):
    """A_w for an [n, k] MDS code over an alphabet of size Q."""
    if w == 0:
        return 1
    d = n - k + 1
    if w < d or w > n:
        return 0
    total = 0
    for j in range(w - d + 1):
        term = math.comb(w, j) * (Q ** (w - d + 1 - j) - 1)
        total += -term if j % 2 else term
    return math.comb(n, w) * total


def b_mds(n, d, w, q, m):
    """B_{n,d,w} = A_w * (q^m-1)^(n-w) * (q-1)^w (w = 0 gives (q^m-1)^n)."""
    a_w = mds_weight_enum(n, n - d + 1, q ** m, w)
    return a_w * (q ** m - 1) ** (n - w) * (q - 1) ** w


def b_mds_total(n, d, q, m):
    """Sum of subfield-subcode cardinalities over all multiplier vectors,
    B^MDS = W(Q - 1, q - 1) for the weight enumerator W(x, y) =
    sum_w A_w x^(n-w) y^w of an [n, k = n - d + 1] MDS code over F_Q,
    Q = q^m, by one sum of n + 1 non-negative terms:

        B^MDS = sum_u C(n, u) (q - 1)^(n-u) (Q - q)^u Q^max(0, k-u).

    Proof.  Per coordinate, x^[c_i = 0] y^[c_i != 0] = y + (x - y)[c_i = 0];
    expanding the product over the coordinates and summing over C gives
    W(x, y) = sum_U y^(n-|U|) (x - y)^|U| #{c in C : c_U = 0}.  Any k
    coordinates of an MDS code are an information set, so exactly
    Q^max(0, k - |U|) codewords vanish on U.  With A_w = mds_weight_enum,
    both sides are polynomials in x, y and Q that agree at every prime power
    Q >= n - 1 (where an [n, k] MDS code exists), so they agree identically:
    the sum equals sum_w b_mds(n, d, w, q, m) also where n > Q + 1 makes
    mds_weight_enum a formula rather than a count.
    """
    Q, k = q ** m, n - d + 1
    return sum(math.comb(n, u) * (q - 1) ** (n - u) * (Q - q) ** u
               * Q ** max(0, k - u) for u in range(n + 1))
