"""Burst errors and the syndrome-based joint decoder for interleaved GRS
codes, plus the two analytical success oracles.

The key-equation system S(t) x = -T(t) stacks per-row Hankel blocks of
syndromes s_{i,r} = sum_p E_{i,p} v_p alpha_p^r, r < d-1.  The decoder
takes the least solvable t*: the length of the shortest linear recurrence
that generates every syndrome row, which multi-sequence shift-register
synthesis finds in O(s (d-1)^2) field operations.  The synthesis ends
with that recurrence, a connection polynomial lambda (lambda_0 = 1), so
x_l = lambda_{t*-l} solves the system at t* without a solver.  The
solution is unique iff rank S(t*) = t*, which the synthesis's
linear-complexity profile decides with no rank computation: iff every
prefix of P terms, d-1-t* <= P < d-1, needs a recurrence longer than
P-(d-1-t*).  x defines the monic g(y) = y^t* + sum x_l y^l whose roots
must be t* distinct code locators.  A Chien search finds them: t* + 1
row-kernel calls over the rows of H diag(v) evaluate v_p g(alpha_p) at
every locator at once.  The error columns then solve the square system
sum_p v_p alpha_p^r E_{i,p} = s_{i,r}, r < t*, at those locators: it is
invertible because the locators are distinct and nonzero, and the key
equation makes the remaining syndromes agree, so its solution is the one
Forney's formula gives.  A root outside the locator set or a non-unique
solution is a decoding failure, never an exception.
"""

from dataclasses import dataclass

from . import gf, grscode

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
    if s < 1:
        raise ValueError(f"interleaving order s = {s} must be >= 1")
    if not 1 <= t <= n:
        raise ValueError("need 1 <= t <= n")
    if support is None:
        support = sorted(rng.sample(range(1, n + 1), t))
    else:
        support = sorted(support)
        if len(support) != t:
            raise ValueError("support size must equal t")
    size = field.q if subfield else field.order
    columns = []
    for _ in range(t):
        while True:
            col = [rng.randrange(size) for _ in range(s)]
            if any(col):
                break
        columns.append(col)
    return BurstError(support, columns)


def syndromes(field, rows, spec):
    """R (H diag v)^T: an s x (d-1) matrix; depends only on the error."""
    return gf.mat_mul(field, rows, spec.parity_columns)


def t_max_radius(d, s):
    """Largest radius at which the joint decoder may succeed."""
    return (s * (d - 1)) // (s + 1)


def _key_system(syns, t):
    """The rows of S(t), stacked per syndrome row: syn[j:j + t] is the row
    whose right-hand side entry of T(t) is syn[j + t]."""
    return [syn[j:j + t] for syn in syns for j in range(len(syn) - t)]


def _recurrence_length(field, syns):
    """(lam, length, profile) of the shortest linear recurrence that
    generates every row, and the linear-complexity profile of the rows.

    Multi-sequence shift-register synthesis (Feng and Tzeng 1991; Schmidt,
    Sidorenko and Bossert 2009): time runs first, then each row in turn.
    The connection polynomial lam (lam[0] = 1) generates every row up to
    the current time; each row l keeps an auxiliary (b, db, m, lb), the lam,
    discrepancy, time and length stored when row l last made the length
    grow, starting at (1, 1, -1, 0).  A nonzero discrepancy delta of row l
    at time n is cancelled by lam - (delta / db) x^(n - m) b, which needs
    length max(length, n - m + lb); the update is one axpy by a copy of b
    shifted by n - m.  With all rows of length N, length is the least t at
    which S(t) x = -T(t) is solvable (0 for zero rows, N when no t < N is),
    and lam has no nonzero entry past index length and obeys
    sum_i lam[i] syn[n - i] = 0 for length <= n < N on every row.

    The synthesis is sequential: after time P - 1 it has run exactly as it
    would on the rows cut to their first P terms, so its length then is
    L(P), the shortest joint recurrence length that generates those terms.
    profile[P] = L(P) for 0 <= P <= N, and profile[N] = length.

    The profile decides uniqueness: rank S(t) = t iff L(P) > P - (N - t)
    for every P with N - t <= P < N (_unique).  If x != 0 is in the kernel
    of S(t) and its top nonzero index is L' < t, then lam_i = x_{L'-i} /
    x_{L'} is a length-L' recurrence that generates the first
    P = N - t + L' terms of every row, so L(P) <= P - (N - t).
    Conversely a shortest recurrence for those P terms, padded to length
    L' = P - (N - t) and reversed, is such an x, with x_{L'} = 1.
    Massey's lemma (1969) gives the case 2t* <= N as a corollary: if
    L(P) <= P - (N - t*) < t* = L(N), that register fails at some time
    P' >= P on some row that lam generates, so t* >= P' + 1 - L(P)
    >= N - t* + 1.
    """
    add, mul, neg, inv, axpy = (field.add, field.mul, field.neg, field.inv,
                                field.axpy)
    lam, length, profile = [1], 0, [0]
    aux = [([1], 1, -1, 0) for _ in syns]
    for n in range(len(syns[0])):
        for l, syn in enumerate(syns):
            delta = 0
            for c, x in zip(lam, syn[n::-1]):
                if c and x:
                    delta = add(delta, mul(c, x))
            if delta == 0:
                continue
            b, db, m, lb = aux[l]
            shift = n - m
            new = lam + [0] * (shift + len(b) - len(lam))
            axpy(new, neg(mul(delta, inv(db))), [0] * shift + b, shift)
            if shift + lb > length:
                aux[l] = (lam, delta, n, length)
                length = shift + lb
            lam = new
        profile.append(length)
    return lam, length, profile


def _unique(profile, t):
    """rank S(t) = t, read off the linear-complexity profile of rows of
    length N = len(profile) - 1: no P in [N - t, N) has
    L(P) <= P - (N - t) (the criterion of _recurrence_length)."""
    k = len(profile) - 1 - t
    return all(profile[p] > p - k for p in range(k, len(profile) - 1))


def joint_decode(rows, spec):
    """Algorithm: zero syndromes return R; else decode at t*.

    t* is the least t at which S(t) x = -T(t) is solvable, found by
    _recurrence_length without solving at any t.  Solvability is monotone
    in t (if g works at t, y g works at t + 1), so t* beyond the radius
    means no t within it is solvable.  The synthesis's connection polynomial
    lam gives the solution x_l = lam[t* - l], hence the locator polynomial
    g; it is the only solution iff rank S(t*) = t*, the rank oracle's test,
    which _unique reads off the synthesis's linear-complexity profile: no
    P in [d-1-t*, d-1) has L(P) <= P - (d-1-t*).  It always holds when
    2 t* <= d - 1 (Massey).  Rows must be s >= 1 words of length n.

    No error column at the t* found locators is zero.  The key equation says
    each syndrome row obeys the recurrence whose characteristic polynomial
    g has those t* distinct roots, so s_{i,r} = sum_p c_{i,p} alpha_p^r for
    every r < d-1, with c_{i,p} = v_p E_{i,p}.  A zero column at alpha_p
    would leave every row a combination of t* - 1 geometric sequences,
    which obey the recurrence of g / (y - alpha_p): for t* > 1 the system at
    t* - 1 would then be solvable, against the minimality of t*, and for
    t* = 1 all syndromes would be zero.
    """
    field = spec.field
    s = len(rows)
    if s == 0:
        raise ValueError("joint_decode needs at least one row")
    if any(len(row) != spec.n for row in rows):
        raise ValueError(f"row lengths {sorted({len(r) for r in rows})}: "
                         f"every row must have the code length n = {spec.n}")
    syns = syndromes(field, rows, spec)
    if all(all(x == 0 for x in syn) for syn in syns):
        return DecodeOutcome(SUCCESS, [list(r) for r in rows], 0)
    tmax = t_max_radius(spec.d, s)
    lam, t_star, profile = _recurrence_length(field, syns)
    if t_star > tmax:
        return DecodeOutcome(FAILURE, None, None, "no solvable key equation "
                             f"within the radius {tmax}")
    if not _unique(profile, t_star):
        return DecodeOutcome(FAILURE, None, t_star,
                             "non-unique key-equation solution")
    # x_l = lam[t* - l], lam zero-padded to t* + 1 entries
    x = (lam + [0] * t_star)[t_star:0:-1]
    positions = _locator_roots(field, spec, x, t_star)
    if positions is None:
        return DecodeOutcome(FAILURE, None, t_star,
                             "error locator roots not in the locator set")
    columns = _error_columns(field, spec, syns, positions)
    decoded = [list(r) for r in rows]
    for p, col in zip(positions, columns):
        for row, e in zip(decoded, col):
            row[p] = field.sub(row[p], e)
    return DecodeOutcome(SUCCESS, decoded, t_star)


def _locator_roots(field, spec, x, t):
    """Positions p with g(alpha_p) = 0 for g(y) = y^t + sum x_l y^l.

    A Chien search through the row kernel: row l of H diag(v) holds
    v_p alpha_p^l, so sum_l g_l * parity_rows[l] is (v_p g(alpha_p))_p, and
    v_p != 0 makes its zero entries the roots.  Row t exists: the decoder
    calls this with 1 <= t <= t_max_radius(d, s) = floor(s (d-1) / (s+1)),
    which is below d - 1.  Returns None unless exactly t distinct locator
    roots exist (a count of t forces all roots simple and inside the
    locator set).
    """
    h = spec.parity_rows
    acc = list(h[t])
    for c, row in zip(x, h):
        if c:
            field.axpy(acc, c, row)
    roots = [p for p, y in enumerate(acc) if y == 0]
    return roots if len(roots) == t else None


def _error_columns(field, spec, syns, positions):
    """The length-s error column at each position, in positions order.

    One rref of [v_p alpha_p^r | s_{1,r} .. s_{s,r}], r < t, over the t
    positions p: the left block reduces to the identity, leaving the
    columns as the rows of the right block.
    """
    h = spec.parity_rows
    t = len(positions)
    system = [[h[r][p] for p in positions] + [syn[r] for syn in syns]
              for r in range(t)]
    red, _ = gf.rref(field, system)
    return [row[t:] for row in red]


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
    return gf.rank(field, _key_system(syns, t)) == t


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
    h = grscode.power_rows(field, locs, [1] * t, d - t - 1)
    stacked = []
    mul = field.mul
    for i in range(s):
        e_row = [error.columns[c][i] for c in range(t)]
        for hrow in h:
            stacked.append([mul(hv, ev) for hv, ev in zip(hrow, e_row)])
    if not stacked:
        return False
    return len(gf.right_kernel(field, stacked)) == 0
