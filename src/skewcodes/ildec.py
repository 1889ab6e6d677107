"""Burst errors and the syndrome-based joint decoder for interleaved GRS
codes, plus the two analytical success oracles.

The key-equation system S(t) Lambda = T(t) stacks per-row Hankel blocks of
syndromes s_{i,r} = sum_p E_{i,p} v_p alpha_p^(r-1).  A solution vector x
defines the monic reversal g(y) = y^t + sum x_l y^l whose roots must be t*
distinct code locators; Forney evaluation then recovers the error columns.
A root outside the locator set, a non-unique solution, or a zero error
column at a claimed position is a decoding failure, never an exception.
"""

from dataclasses import dataclass

from . import gf

SUCCESS = "success"
MISCORRECTION = "miscorrection"
FAILURE = "failure"


@dataclass
class BurstError:
    """Support positions (1-based, sorted) and the restriction columns."""
    support: list
    columns: list      # columns[c] is the length-s column at support[c]

    @property
    def t(self):
        return len(self.support)

    def full_matrix(self, s, n):
        full = [[0] * n for _ in range(s)]
        for c, pos in enumerate(self.support):
            for i in range(s):
                full[i][pos - 1] = self.columns[c][i]
        return full


@dataclass
class DecodeOutcome:
    tag: str
    decoded: list = None    # s x n matrix when the decoder returns a word
    t_star: int = None
    reason: str = ""


def sample_burst(field, s, n, t, rng, support=None, subfield=False):
    """Error with t nonzero columns; entries uniform (sub)field elements.

    The support is uniform over t-subsets unless fixed by the caller; each
    column is uniform over the q^s - 1 (or Q^s - 1) nonzero vectors.
    """
    if not 1 <= t <= n:
        raise ValueError("need 1 <= t <= n")
    if support is None:
        support = sorted(rng.sample(range(1, n + 1), t))
    else:
        support = sorted(support)
        if len(support) != t:
            raise ValueError("support size must equal t")
    alphabet = field.base_elements() if subfield else None
    columns = []
    for _ in range(t):
        while True:
            if subfield:
                col = [alphabet[rng.randrange(len(alphabet))]
                       for _ in range(s)]
            else:
                col = [rng.randrange(field.order) for _ in range(s)]
            if any(col):
                break
        columns.append(col)
    return BurstError(support, columns)


def syndromes(field, rows, spec):
    """R (H diag v)^T: an s x (d-1) matrix; depends only on the error."""
    d1 = spec.d - 1
    out = []
    add, mul = field.add, field.mul
    power_table = _locator_power_table(field, spec)
    for row in rows:
        syn = [0] * d1
        for j, x in enumerate(row):
            if x:
                powers = power_table[j]
                for r in range(d1):
                    syn[r] = add(syn[r], mul(x, powers[r]))
        out.append(syn)
    return out


def _locator_power_table(field, spec):
    # power_table[j][r] = v_j * alpha_j^r, cached per spec
    cache = getattr(spec, "_power_table", None)
    if cache is None:
        mul = field.mul
        cache = []
        for a, v in zip(spec.locators, spec.multipliers):
            row = [v]
            for _ in range(spec.d - 2):
                row.append(mul(row[-1], a))
            cache.append(row)
        spec._power_table = cache
    return cache


def t_max_radius(d, s):
    """Largest radius at which the joint decoder may succeed."""
    return (s * (d - 1)) // (s + 1)


def _key_system(syns, t):
    """Stacked (S(t) | T(t)) as an augmented row list."""
    rows = []
    d1 = len(syns[0])
    for syn in syns:
        for j in range(d1 - t):
            rows.append(syn[j:j + t] + [syn[j + t]])
    return rows


def _solve_key_equation(field, syns, t):
    """None if inconsistent, else ('many', None) or ('unique', x)."""
    rows = _key_system(syns, t)
    neg = field.neg
    aug = [r[:-1] + [neg(r[-1])] for r in rows]
    red, pivots = gf.rref(field, aug)
    if t in pivots:
        return None
    if len(pivots) < t:
        return "many", None
    x = [0] * t
    for r, pc in enumerate(pivots):
        x[pc] = red[r][t]
    return "unique", x


def joint_decode(rows, spec):
    """Algorithm: zero syndromes return R; else scan minimal solvable t*."""
    field = spec.field
    s = len(rows)
    syns = syndromes(field, rows, spec)
    if all(all(x == 0 for x in syn) for syn in syns):
        return DecodeOutcome(SUCCESS, [list(r) for r in rows], 0)
    tmax = t_max_radius(spec.d, s)
    for t_star in range(1, tmax + 1):
        solved = _solve_key_equation(field, syns, t_star)
        if solved is None:
            continue
        status, x = solved
        if status == "many":
            return DecodeOutcome(FAILURE, None, t_star,
                                 "non-unique key-equation solution")
        positions = _locator_roots(field, spec, x, t_star)
        if positions is None:
            return DecodeOutcome(FAILURE, None, t_star,
                                 "error locator roots not in the locator set")
        err = _forney(field, spec, syns, x, positions)
        if err is None:
            return DecodeOutcome(FAILURE, None, t_star,
                                 "zero error column at a claimed position")
        decoded = [[field.sub(rows[i][j], err[i][j]) for j in range(spec.n)]
                   for i in range(s)]
        return DecodeOutcome(SUCCESS, decoded, t_star)
    return DecodeOutcome(FAILURE, None, None, "no solvable key equation "
                         f"within the radius {tmax}")


def _locator_roots(field, spec, x, t):
    """Positions p with g(alpha_p) = 0 for g(y) = y^t + sum x_l y^l.

    Returns None unless exactly t distinct locator roots exist (a count of
    t forces all roots simple and inside the locator set).
    """
    add, mul = field.add, field.mul
    coeffs = list(x) + [1]
    roots = []
    for j, a in enumerate(spec.locators):
        acc = 0
        for c in reversed(coeffs):
            acc = add(mul(acc, a), c)
        if acc == 0:
            roots.append(j)
            if len(roots) > t:
                return None
    return roots if len(roots) == t else None


def _forney(field, spec, syns, x, positions):
    """Error values via Omega_i = S_i * Lambda mod x^(d-1) at the roots."""
    add, mul, neg = field.add, field.mul, field.neg
    t = len(positions)
    # Lambda(z) = prod (1 - alpha_p z): coefficients from the reversal of g
    lam = [1] + [x[t - u] for u in range(1, t + 1)]
    # formal derivative; scalar c repeated u times is (u mod p) * c
    p_char = field.p
    lam_deriv = []
    for u in range(1, t + 1):
        c = lam[u]
        scaled = 0
        for _ in range(u % p_char):
            scaled = add(scaled, c)
        lam_deriv.append(scaled)
    d1 = spec.d - 1
    err_cols = []
    inv = field.inv
    for p_idx in positions:
        a_inv = inv(spec.locators[p_idx])
        # Lambda'(a_inv)
        dval = 0
        for c in reversed(lam_deriv):
            dval = add(mul(dval, a_inv), c)
        if dval == 0:
            return None
        col = []
        for syn in syns:
            # Omega_i(a_inv) with Omega_i = syn * lam truncated below x^(d-1)
            oval = 0
            for idx in range(min(t, d1) - 1, -1, -1):
                acc = 0
                for u in range(0, idx + 1):
                    if u <= t and lam[u] and idx - u < d1 and syn[idx - u]:
                        acc = add(acc, mul(lam[u], syn[idx - u]))
                oval = add(mul(oval, a_inv), acc)
            y = neg(mul(spec.locators[p_idx], mul(oval, inv(dval))))
            col.append(mul(y, inv(spec.multipliers[p_idx])))
        if not any(col):
            return None
        err_cols.append(col)
    s = len(syns)
    err = [[0] * spec.n for _ in range(s)]
    for c, p_idx in enumerate(positions):
        for i in range(s):
            err[i][p_idx] = err_cols[c][i]
    return err


def classify(outcome, true_rows):
    """Exact comparison against the transmitted interleaved codeword."""
    if outcome.tag == FAILURE:
        return FAILURE
    return SUCCESS if outcome.decoded == true_rows else MISCORRECTION


# ---------------------------------------------------------------------------
# analytical success oracles

def rank_oracle(error, spec, s):
    """Success iff rank(S(t)) = t for the true weight t (iff condition)."""
    field = spec.field
    t = error.t
    if t == 0:
        return True
    rows = error.full_matrix(s, spec.n)
    syns = syndromes(field, rows, spec)
    system = [r[:-1] for r in _key_system(syns, t)]
    if not system:
        return False
    return gf.rank(field, system) == t


def crux_oracle(error, spec, s):
    """Success iff no nonzero v in F_{q^m}^t has H diag(v) E^T = 0.

    H is the parity check of GRS at the error locators with unit multipliers
    and designed distance d - t; the condition is the triviality of the
    kernel of the stacked H diag(e_i) blocks.
    """
    field = spec.field
    t = error.t
    d = spec.d
    if t >= d - 1:
        return False     # condition vacuous: every nonzero v satisfies it
    locs = [spec.locators[p - 1] for p in error.support]
    # (d-t-1) x t parity check of GRS at the error locators, unit multipliers
    h = []
    powers = [1] * t
    for _ in range(d - t - 1):
        h.append(list(powers))
        powers = [field.mul(p, a) for p, a in zip(powers, locs)]
    stacked = []
    mul = field.mul
    for i in range(s):
        e_row = [error.columns[c][i] for c in range(t)]
        for hrow in h:
            stacked.append([mul(hv, ev) for hv, ev in zip(hrow, e_row)])
    if not stacked:
        return False
    return len(gf.right_kernel(field, stacked)) == 0
