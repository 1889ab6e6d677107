"""Support-constrained LRS generators and the distributed-LRS designer.

The GM condition |intersection of Z_i over Omega| + |Omega| <= k is checked
by bipartite matching: for each anchor row a, the least surplus
|union of the complements [n] \\ Z_i| - |Omega| over the row sets Omega that
contain a is |[n] \\ Z_a| - k plus a maximum matching of the columns of Z_a
into the other rows (the max-flow min-cut theorem on the Hall-type form of
the condition; Dau, Song & Yuen, ISIT 2014), and the condition holds iff
every such surplus is >= n - k.  The test oracles instead run the max flow
itself, and search the closures of the deduplicated row groups (a violating
Omega exists iff its full-group closure violates).  Constrained
generators come from minimal skew polynomials (row i of T holds the
coefficients of f_{Z_i}); the designer solves its covering ILP exactly, on
one row per distinct set of sources that a message set meets.
"""

import itertools
import random
from dataclasses import dataclass

from . import gf, lrs, skew

MAX_RESAMPLES = 64          # multiplier resamples while T is singular


@dataclass
class ZeroPattern:
    n: int
    zeros: list               # zeros[i] is the set Z_{i+1} subset of [n]

    def __post_init__(self):
        self.zeros = [frozenset(z) for z in self.zeros]
        for z in self.zeros:
            if any(not 1 <= j <= self.n for j in z):
                raise ValueError("zero positions must lie in 1..n")

    @property
    def k(self):
        return len(self.zeros)


def _anchored_surplus(zeros, n, anchor):
    """(surplus, Omega) for the row sets Omega that contain the anchor.

    surplus is the min of |union Y| - |Omega|, where Y_i = [n] \\ Z_i, and
    Omega is the least minimizing row set, as 1-based row numbers.  In the
    flow network source -> row i -> columns Y_i -> sink (unit arcs into the
    sink, unit arcs out of the source except an unbounded one into the
    anchor a), the cut whose source side holds the rows Omega has capacity
    k - |Omega| + |union Y|, and some max flow fills every column of Y_a
    from a.  So surplus = |Y_a| + M - k, with M the size of a maximum
    matching of the columns j of Z_a into the rows i with j not in Z_i
    (never a), and the rows on the source side of the least min cut are
    Omega: a, the unmatched rows, and the rows they reach along
    alternating paths.

    The GM condition at dimension k is equivalent to every anchored surplus
    being >= n - k, and ktilde = n - min_i surplus_i.
    """
    za = zeros[anchor]
    mate = _matching(zeros, anchor)
    row_of = {j: r for r, j in mate.items()}
    omega = [r for r in range(len(zeros)) if r not in mate]
    seen = set(omega)
    for r in omega:
        # a column reached here is matched, or it would end an augmenting path
        for j in za - zeros[r]:
            if row_of[j] not in seen:
                seen.add(row_of[j])
                omega.append(row_of[j])
    return (n - len(za) + len(mate) - len(zeros),
            sorted(r + 1 for r in omega))


def _matching(zeros, anchor):
    """A maximum matching, as {row: column}, of the columns j of Z_anchor
    into the rows r with j not in Z_r: one _augment per column (Kuhn 1955;
    a column that finds no augmenting path never will)."""
    mate = {}
    for j in zeros[anchor]:
        _augment(zeros, mate, j)
    return mate


def _augment(zeros, mate, j):
    """Breadth-first search from the unmatched column j for an augmenting
    path: column c reaches each row r with c not in Z_r, and a matched row
    leads on to its column.  On reaching an unmatched row the path is
    flipped into mate and True returned; otherwise mate is unchanged."""
    came, via, queue = {}, {j: None}, [j]   # row -> column, column -> row
    for c in queue:
        for r, z in enumerate(zeros):
            if c not in z and r not in came:
                came[r] = c
                if r not in mate:
                    while r is not None:
                        mate[r] = came[r]
                        r = via[came[r]]
                    return True
                via[mate[r]] = r
                queue.append(mate[r])
    return False


def gm_check(pattern):
    """GM condition at dimension k; returns None or a violating row set.

    The set is the least Omega that contains the first violating anchor row
    and minimizes |union Y| - |Omega|.
    """
    for i in range(pattern.k):
        surplus, omega = _anchored_surplus(pattern.zeros, pattern.n, i)
        if surplus < pattern.n - pattern.k:
            return omega
    return None


def ktilde(pattern):
    """max over nonempty Omega of |intersection| + |Omega|."""
    best = 0
    for i in range(pattern.k):
        surplus, _ = _anchored_surplus(pattern.zeros, pattern.n, i)
        best = max(best, pattern.n - surplus)
    return best


def pad_pattern(pattern):
    """Grow every Z_i to size k-1 while keeping the GM condition intact.

    Greedy over j = 1..n.  Adding j to Z_i only shrinks Y_i, so only the
    surplus anchored at row i can fall, and with k rows it stays >= n - k
    iff every column of Z_i stays matched (see _anchored_surplus); _pad_row
    keeps one such matching per row.  With k <= n this pads every row, so
    a row left short is a bug; k > n is refused.
    """
    k = pattern.k
    if k > pattern.n:
        raise ValueError(f"a pattern of k = {k} rows pads only when "
                         f"k <= n = {pattern.n}")
    violation = gm_check(pattern)
    if violation is not None:
        raise ValueError(f"GM condition violated by rows {violation}")
    zeros = [set(z) for z in pattern.zeros]
    for i in range(k):
        if len(zeros[i]) < k - 1:
            _pad_row(zeros, pattern.n, i)
        if len(zeros[i]) != k - 1:
            raise AssertionError(f"could not pad row {i + 1} to size {k - 1}")
    return ZeroPattern(pattern.n, zeros)


def _pad_row(zeros, n, i):
    """Add to zeros[i] each j = 1..n that keeps the surplus anchored at i at
    n - k, until it holds k - 1 positions.

    With GM, every column of Z_i is matched (see _anchored_surplus).  Adding
    j to Z_i drops j from Y_i and makes j a column to match, so one
    augmenting search from j decides; a failed search leaves the matching
    as it was.
    """
    k = len(zeros)
    mate = _matching(zeros, i)
    for j in range(1, n + 1):
        if len(zeros[i]) >= k - 1:
            return
        if j in zeros[i]:
            continue
        zeros[i].add(j)
        if not _augment(zeros, mate, j):
            zeros[i].discard(j)


def field_size_bound(k, q, lengths):
    """Minimal extension degree m for a k-dimensional design: max(k, n_l).

    This is the value the dissertation's tables use.  The theorem's
    sufficient value max(k - 1 + log_q(k), n_l) is usually larger; see
    sufficient_extension_degree.
    """
    ell = len(lengths)
    if q <= ell:
        raise ValueError("need q >= ell + 1 for distinct conjugacy classes")
    return max(k, max(lengths))


def sufficient_extension_degree(k, q, lengths):
    """Smallest integer m with m >= max(k - 1 + log_q k, n_l) (theorem form)."""
    ell = len(lengths)
    if q <= ell:
        raise ValueError("need q >= ell + 1 for distinct conjugacy classes")
    m = max(k - 1, max(lengths))
    while q ** (m - k + 1) < k:
        m += 1
    return m


@dataclass
class ConstrainedResult:
    t_matrix: list             # k x k transform, rows = minpoly coefficients
    generator: list            # G = T * G_LRS with the prescribed zeros
    spec: lrs.LrsSpec
    pattern: ZeroPattern       # the padded pattern actually realized
    attempts: int


def _try_build(spec, padded):
    fld = spec.field
    ring = spec.ring
    k = padded.k
    locs = lrs.code_locators(spec)
    t_rows = []
    for z in padded.zeros:
        roots = [locs[j - 1] for j in sorted(z)]
        f = skew.minimal_polynomial(ring, roots) if roots else ring.one()
        t_rows.append(f.coeffs + [0] * (k - len(f.coeffs)))
    if gf.rank(fld, t_rows) != k:
        return None
    return t_rows, gf.mat_mul(fld, t_rows, lrs.generator_matrix(spec))


def _resample_multipliers(spec, rng):
    fld = spec.field
    blocks = []
    for nl in spec.lengths:
        while True:
            cand = [fld.random_nonzero(rng) for _ in range(nl)]
            if gf.rank_q(fld, cand) == nl:
                blocks.append(cand)
                break
    return lrs.LrsSpec(fld, spec.lengths, spec.k,
                       representatives=list(spec.representatives),
                       multipliers=blocks)


def check_pattern_length(pattern, n):
    """A zero pattern fits a code of length n only if it has n columns."""
    if pattern.n != n:
        raise ValueError(f"pattern has n = {pattern.n} columns, the code "
                         f"has n = {n}")


def build_constrained_generator(spec, pattern, rng=None):
    """Full-rank T and G = T * G_LRS with zeros exactly at the padded pattern.

    Multipliers are resampled (fresh per-block independent tuples) whenever
    T comes out singular; the Nullstellensatz argument keeps the success
    probability bounded away from zero at valid field sizes.
    """
    rng = rng or random.Random(0)
    if pattern.k != spec.k:
        raise ValueError("pattern must have k rows")
    check_pattern_length(pattern, spec.n)
    padded = pad_pattern(pattern)
    need_m = field_size_bound(spec.k, spec.field.q, spec.lengths)
    if spec.field.m < need_m:
        raise ValueError(f"field too small: need extension degree {need_m}")
    attempt_spec = spec
    for attempt in range(1, MAX_RESAMPLES + 1):
        built = _try_build(attempt_spec, padded)
        if built is not None:
            t_mat, g = built
            _assert_zero_placement(g, padded)
            return ConstrainedResult(t_mat, g, attempt_spec, padded, attempt)
        attempt_spec = _resample_multipliers(spec, rng)
    raise RuntimeError(f"transform still singular after {MAX_RESAMPLES} "
                       "multiplier resamples")


def _assert_zero_placement(g, pattern):
    for i, row in enumerate(g):
        zeros = {j + 1 for j, x in enumerate(row) if x == 0}
        if zeros != set(pattern.zeros[i]):
            raise AssertionError(
                f"row {i + 1} zeros {sorted(zeros)} differ from the "
                f"prescribed {sorted(pattern.zeros[i])}")


def build_subcode_generator(pattern, spec, rng=None):
    """First k rows of the [n, ktilde] constrained generator.

    Pads the pattern with empty rows Z_{k+1..ktilde}; the resulting code has
    sum-rank distance >= n - ktilde + 1.
    """
    kt = ktilde(pattern)
    if spec.k != kt:
        raise ValueError(f"spec dimension must be ktilde = {kt}")
    return _padded_generator(pattern, spec, rng)


def _padded_generator(pattern, spec, rng):
    """build_subcode_generator for a spec whose k is known to be ktilde."""
    extended = ZeroPattern(pattern.n,
                           list(pattern.zeros)
                           + [frozenset()] * (spec.k - pattern.k))
    result = build_constrained_generator(spec, extended, rng)
    return result.generator[:pattern.k], result


# ---------------------------------------------------------------------------
# distributed multi-source designs

@dataclass
class NetworkInstance:
    lengths: list              # message lengths r_1..r_h
    access: list               # access sets J_1..J_s, subsets of [h]
    t: int
    rho: int
    ell: int

    def __post_init__(self):
        for i, r in enumerate(self.lengths, 1):
            if r < 1:
                raise ValueError(f"message length r_{i} = {r} must be >= 1")
        if self.ell < 1:
            raise ValueError(f"ell = {self.ell} must be >= 1")
        for name, value in (("t", self.t), ("rho", self.rho)):
            if value < 0:
                raise ValueError(f"{name} = {value} must be >= 0")
        h = self.h
        if h > 12:
            raise ValueError("designer guard: h <= 12")
        access = [frozenset(j) for j in self.access]
        for idx, j in enumerate(access, 1):
            if not j or any(not 1 <= i <= h for i in j):
                raise ValueError(f"access set J_{idx} = {sorted(j)} must be "
                                 f"a nonempty subset of [1, {h}]")
        # sources with one access set enter every constraint together, so
        # they merge into one (its first place kept) with the optimum unchanged
        self.access = list(dict.fromkeys(access))

    @property
    def h(self):
        return len(self.lengths)

    @property
    def s(self):
        return len(self.access)


@dataclass
class DesignResult:
    instance: NetworkInstance
    source_lengths: dict       # J -> n_J
    n: int
    ktilde: int
    d: int
    q: int
    m: int
    block_lengths: tuple
    pattern: ZeroPattern
    spec: lrs.LrsSpec
    t_matrix: list
    generator: list


class InfeasibleDesign(ValueError):
    def __init__(self, subset, msg):
        super().__init__(msg)
        self.subset = subset


def _covering_rows(instance):
    """{touch: rhs}: for each message set Omega the sources whose access
    sets meet it (its touch) must carry r(Omega) + 2t + rho symbols
    (capacity) and r(Omega) + 2*ell*t + rho (zero constraint); with ell >= 1
    the latter dominates, and a touch keeps the largest rhs of its Omegas,
    the only one of them that can bind."""
    extra = 2 * instance.ell * instance.t + instance.rho
    rows = {}
    for size in range(1, instance.h + 1):
        for omega in itertools.combinations(range(1, instance.h + 1), size):
            touch = tuple(i for i, j in enumerate(instance.access)
                          if not j.isdisjoint(omega))
            rhs = sum(instance.lengths[i - 1] for i in omega) + extra
            rows[touch] = max(rows.get(touch, 0), rhs)
    return rows


def solve_source_lengths(instance):
    """Exact ILP by branch and bound: minimize sum n_J subject to the rows
    of _covering_rows.  Any optimal point is accepted (non-unique optima
    are fine); every n_J in an optimum is at most the largest RHS.
    """
    for msg in range(1, instance.h + 1):
        if not any(msg in j for j in instance.access):
            raise InfeasibleDesign(
                frozenset({msg}), f"capacity constraint for messages [{msg}] "
                "cannot be met: no source covers them")
    rows = _covering_rows(instance)
    s = instance.s
    touches, deficits = list(rows), list(rows.values())
    cap = max(deficits)
    last_var = [max(t) for t in touches]
    rows_of = [[ri for ri, t in enumerate(touches) if i in t]
               for i in range(s)]
    best = [None, s * cap + 1]
    assign = [0] * s

    def dfs(idx, total):
        need = 0
        for ri, d in enumerate(deficits):
            if d > 0:
                if last_var[ri] < idx:
                    return          # dead: no future variable can help
                if d > need:
                    need = d
        if total + need >= best[1]:
            return
        if idx == s:
            best[:] = [list(assign), total]
            return
        for val in range(min(cap, best[1] - 1 - total), -1, -1):
            assign[idx] = val
            for ri in rows_of[idx]:
                deficits[ri] -= val
            dfs(idx + 1, total + val)
            for ri in rows_of[idx]:
                deficits[ri] += val
        assign[idx] = 0

    dfs(0, 0)     # every message is covered: n_J = cap for all J is feasible
    return {instance.access[i]: best[0][i] for i in range(s)}, best[1]


def split_blocks(n, ell):
    """Near-equal split; extra symbols go to the ends, alternating inward."""
    base, extra = divmod(n, ell)
    sizes = [base] * ell
    lo, hi = 0, ell - 1
    at_front = True
    for _ in range(extra):
        if at_front:
            sizes[lo] += 1
            lo += 1
        else:
            sizes[hi] += 1
            hi -= 1
        at_front = not at_front
    return tuple(sizes)


def design_pattern(instance, source_lengths):
    """Zero pattern of the k x n encoding matrix (rows by message, columns
    by source, in the access-list order)."""
    col = 1
    col_ranges = {}
    for j in instance.access:
        nj = source_lengths[j]
        col_ranges[j] = range(col, col + nj)
        col += nj
    n = col - 1
    zeros = []
    for msg in range(1, instance.h + 1):
        for _ in range(instance.lengths[msg - 1]):
            z = set()
            for j in instance.access:
                if msg not in j:
                    z.update(col_ranges[j])
            zeros.append(z)
    return ZeroPattern(n, zeros)


def distributed_design(instance, rng=None):
    """Designs and constructs a distributed LRS code for the instance."""
    source_lengths, n = solve_source_lengths(instance)
    pattern = design_pattern(instance, source_lengths)
    kt = ktilde(pattern)
    d = 2 * instance.ell * instance.t + instance.rho + 1
    blocks = split_blocks(n, instance.ell)
    q = gf.next_prime_power(instance.ell + 1)
    m = field_size_bound(kt, q, blocks)
    fld = gf.field_q(q, m)
    spec = lrs.default_spec(fld, blocks, kt)
    generator, result = _padded_generator(pattern, spec, rng)
    return DesignResult(instance, source_lengths, n, kt, d, q, m, blocks,
                        pattern, result.spec, result.t_matrix, generator)


# ---------------------------------------------------------------------------
# lifting

def lift(field, codeword_blocks):
    """X = [block-diagonal identities | stacked expanded-block transposes].

    codeword_blocks is a list of F_{q^m}-vectors c_J; the result is the
    n x (n + m) matrix over F_q whose rows are the transmitted packets.
    """
    n = sum(len(c) for c in codeword_blocks)
    rows = []
    for c in codeword_blocks:
        expanded = gf.expand_matrix(field, c)   # m x n_J over F_q
        for t in range(len(c)):
            row = [0] * n + [coords[t] for coords in expanded]
            row[len(rows)] = 1                  # the identity part
            rows.append(row)
    return rows
