"""Reference implementations that only the tests use.

Each one is the slow, direct form of something the library computes
faster; the tests compare the two.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

from skewcodes import (gf, grscode, ilbounds, lrs, metric, netgap, skew,
                       support)


def add(field, x, y):
    """x + y: XOR in characteristic 2, else digit-wise mod p."""
    if field.p == 2:
        return x ^ y
    p = field.p
    if field.dim == 1:
        return (x + y) % p
    out, scale = 0, 1
    for _ in range(field.dim):
        out += (x % p + y % p) % p * scale
        x //= p
        y //= p
        scale *= p
    return out


def neg(field, x):
    """-x: x in characteristic 2, else digit-wise mod p."""
    if field.p == 2:
        return x
    p = field.p
    if field.dim == 1:
        return -x % p
    out, scale = 0, 1
    for _ in range(field.dim):
        out += -x % p * scale
        x //= p
        scale *= p
    return out


def sub(field, x, y):
    return add(field, x, neg(field, y))


def mul(field, x, y):
    """x * y by one log/antilog lookup with tables, else Field._poly_mul."""
    if x == 0 or y == 0:
        return 0
    if field.has_tables:
        return field.exp[(field.log[x] + field.log[y]) % (field.order - 1)]
    return field._poly_mul(x, y)


def axpy(field, dst, f, src, start=0):
    """The row kernel cell by cell: dst[j] += f * src[j] for j >= start."""
    for j in range(start, len(src)):
        if src[j]:
            dst[j] = add(field, dst[j], mul(field, f, src[j]))


def rref(field, rows):
    """gf.rref by Gauss-Jordan elimination, one pivot column at a time."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = rows[r]
        f = field.inv(pr[c])
        if f != 1:
            for j in range(c, ncols):
                if pr[j]:
                    pr[j] = field.mul(pr[j], f)
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                field.axpy(rows[i], field.neg(rows[i][c]), pr, c)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def mat_vec(field, a, v):
    """The product a * v of a row list and a vector, summed cell by cell."""
    add, mul = field.add, field.mul
    out = []
    for row in a:
        acc = 0
        for x, y in zip(row, v):
            if x and y:
                acc = add(acc, mul(x, y))
        out.append(acc)
    return out


def solve(field, rows, rhs):
    """Solve rows * x = rhs; returns (particular, kernel_basis) or None.

    A None return signals an inconsistent system.  One rref of the augmented
    system gives both parts: its pivots in the first columns are those of
    rows alone, so the kernel is the one right_kernel(rows) reads.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = gf.rref(field, aug)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    kernel = []
    for fcol in range(ncols):
        if fcol not in pivots:
            vec = [0] * ncols
            vec[fcol] = 1
            for r, pc in enumerate(pivots):
                vec[pc] = field.neg(red[r][fcol])
            kernel.append(vec)
    return x, kernel


def rank_bruteforce(field, rows):
    """Rank via exhaustive minor search, for matrices up to 4x4."""
    n, m = len(rows), len(rows[0]) if rows else 0
    if n > 4 or m > 4:
        raise ValueError("oracle limited to 4x4")
    for k in range(min(n, m), 0, -1):
        for ri in itertools.combinations(range(n), k):
            for ci in itertools.combinations(range(m), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det(field, sub) != 0:
                    return k
    return 0


def det(field, rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    add, mul, neg = field.add, field.mul, field.neg
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = mul(rows[0][j], det(field, minor))
            total = add(total, term if j % 2 == 0 else neg(term))
    return total


def locator_roots(field, spec, x, t):
    """Positions p with g(alpha_p) = 0 for g(y) = y^t + sum x_l y^l, by
    Horner's rule at each locator; None unless exactly t roots exist."""
    add, mul = field.add, field.mul
    coeffs = list(x) + [1]
    roots = []
    for j, a in enumerate(spec.locators):
        acc = 0
        for c in reversed(coeffs):
            acc = add(mul(acc, a), c)
        if acc == 0:
            roots.append(j)
    return roots if len(roots) == t else None


def gm_check_exhaustive(pattern):
    """A violating row set of the GM condition, or None, by enumerating
    unions of the groups of rows that share one Z value."""
    by_value = {}
    for i, z in enumerate(pattern.zeros):
        by_value.setdefault(z, []).append(i + 1)
    groups = list(by_value.items())
    full = frozenset(range(1, pattern.n + 1))
    for size in range(1, len(groups) + 1):
        for subset in itertools.combinations(range(len(groups)), size):
            inter = full
            rows = []
            for gi in subset:
                inter = inter & groups[gi][0]
                rows.extend(groups[gi][1])
            if len(inter) + len(rows) > pattern.k:
                return sorted(rows)
    return None


def covering_rows(instance):
    """Both constraint families of the designer's ILP, from the
    definitions: for every nonempty message set Omega, the sources J whose
    access sets meet it carry sum n_J >= r(Omega) + 2t + rho (capacity) and
    >= r(Omega) + 2*ell*t + rho (zero constraint).  Rows are
    (touch, rhs, tag, Omega), touch the tuple of those sources' indices."""
    h, ell, t, rho = instance.h, instance.ell, instance.t, instance.rho
    rows = []
    for size in range(1, h + 1):
        for omega in itertools.combinations(range(1, h + 1), size):
            oset = frozenset(omega)
            touch = tuple(i for i, j in enumerate(instance.access) if j & oset)
            r_sum = sum(instance.lengths[i - 1] for i in omega)
            rows.append((touch, r_sum + 2 * t + rho, "capacity", oset))
            rows.append((touch, r_sum + 2 * ell * t + rho, "zero", oset))
    return rows


def solve_source_lengths(instance):
    """The designer's branch and bound over every row of both families:
    the same DFS order, max-deficit bound and dead-row test as
    support.solve_source_lengths, so the two return the same optimum.  An
    uncovered row raises InfeasibleDesign with its Omega."""
    rows = covering_rows(instance)
    for touch, rhs, tag, omega in rows:
        if not touch and rhs > 0:
            raise support.InfeasibleDesign(
                omega, f"{tag} constraint for messages {sorted(omega)} "
                "cannot be met: no source covers them")
    s = instance.s
    cap = max(rhs for _, rhs, _, _ in rows)
    touches = [r[0] for r in rows]
    last_var = [max(t) for t in touches]
    rows_of = [[ri for ri, t in enumerate(touches) if i in t]
               for i in range(s)]
    deficits = [r[1] for r in rows]
    best = [None, s * cap + 1]
    assign = [0] * s

    def dfs(idx, total):
        need = 0
        for ri, d in enumerate(deficits):
            if d > 0:
                if last_var[ri] < idx:
                    return
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

    dfs(0, 0)
    if best[0] is None:
        raise support.InfeasibleDesign(frozenset(),
                                       "no feasible assignment found")
    return {instance.access[i]: best[0][i] for i in range(s)}, best[1]


def compositions(s, parts, cap=None):
    """Ordered tuples of `parts` nonnegative integers summing to s, each at
    most cap if one is given."""
    cap = s if cap is None else cap
    if s > parts * cap:
        return
    if parts == 1:
        yield (s,)
        return
    for first in range(min(s, cap) + 1):
        for rest in compositions(s - first, parts - 1, cap):
            yield (first,) + rest


def sumrank_ball(partition, m, radius, q):
    """metric.sumrank_ball by one term per composition s_1 + ... + s_ell of
    each s <= radius: the product of the blocks' rank-s_l counts.  Parts
    above min(m, n_l) count zero, so none above min(m, max n_l) is made."""
    cap = min(m, max(partition.parts))
    total = 0
    for s in range(radius + 1):
        for comp in compositions(s, partition.ell, cap):
            term = 1
            for nl, sl in zip(partition.parts, comp):
                term *= metric.rank_count(nl, m, sl, q)
            total += term
    return total


def exhaustive_min_total(instance):
    """Smallest feasible total of the designer's ILP by direct enumeration
    over both families (h <= 5)."""
    if instance.h > 5:
        raise ValueError("oracle limited to h <= 5")
    rows = covering_rows(instance)
    s = instance.s
    cap = max(rhs for _, rhs, _, _ in rows)
    for total in range(0, s * cap + 1):
        for comp in compositions(total, s):
            ok = all(sum(comp[i] for i in touch) >= rhs
                     for touch, rhs, _, _ in rows)
            if ok:
                return total
    return None


def encode_by_evaluation(spec, message):
    """LRS encoding by evaluation: b_j * f(alpha_j) for
    f = sum message_i X^i."""
    fld = spec.field
    f = spec.ring.poly(list(message))
    locs = lrs.code_locators(spec)
    mults = spec.flat_multipliers()
    return [fld.mul(b, f.evaluate(a)) for a, b in zip(locs, mults)]


def vandermonde(ring, omega):
    """(theta,delta)-Vandermonde matrix V_k(omega), k = |omega|: row i holds
    N_i(a_j)."""
    omega = list(omega)
    k = len(omega)
    cols = [ring.norm_sequence(k, a) for a in omega]
    return [[col[i] for col in cols] for i in range(k)]


def is_p_independent(ring, omega):
    """|omega| == rank of the square (theta,delta)-Vandermonde matrix."""
    omega = list(omega)
    if not omega:
        return True
    return gf.rank(ring.field, vandermonde(ring, omega)) == len(omega)


def minimal_polynomial_lclm(ring, omega):
    """The minimal polynomial of omega as the lclm of the X - alpha."""
    omega = list(omega)
    if not omega:
        raise ValueError("minimal polynomial of the empty set")
    acc = ring.x_minus(omega[0])
    for a in omega[1:]:
        _, acc, _ = skew.gcrd_lclm(acc, ring.x_minus(a))
    return acc


def to_right_form(f):
    """Coefficients g_i with f = sum X^i g_i (right form).

    Peels one coefficient per step from f = g_0 + X*h, solving
    f_j = theta(h_{j-1}) + delta(h_j) top-down for h.
    """
    ring = f.ring
    fld = ring.field
    rem = list(f.coeffs)
    out = []
    while rem and any(rem):
        d = len(rem) - 1
        if d == 0:
            out.append(rem[0])
            break
        h = [0] * d
        h[d - 1] = ring.theta_inv(rem[d])
        for j in range(d - 1, 0, -1):
            h[j - 1] = ring.theta_inv(fld.sub(rem[j], ring.delta(h[j])))
        out.append(fld.sub(rem[0], ring.delta(h[0])))
        rem = h
    return out


def from_right_form(ring, right_coeffs):
    """The left form of sum X^i g_i."""
    total = ring.zero()
    for i, g in enumerate(right_coeffs):
        if g:
            total = total + ring.monomial(i) * ring.poly([g])
    return total


def bound_consistent(bound, rel_tol=1e-9):
    """The exact value and the log2 of a NetBound agree within rel_tol when
    both exist."""
    if bound.applicable and bound.value is not None and bound.value > 0:
        exact = netgap._log2_fraction(bound.value)
        return abs(exact - bound.log2) <= rel_tol * max(1.0, abs(exact))
    return True


def min_qt_satisfying_necessary(params):
    """netgap.min_qt_satisfying_necessary by a scan over every prime power
    up to the t = 1 threshold, each raising t until q^t meets the necessary
    condition or reaches the best value so far."""
    holds = netgap._necessary_holds
    t1_threshold = 2
    while not holds(params, t1_threshold, 1):
        t1_threshold = gf.next_prime_power(t1_threshold + 1)
    best = t1_threshold  # q = threshold, t = 1
    q = 2
    while q <= best:
        t = 1
        while q ** t < best and not holds(params, q, t):
            t += 1
        if q ** t <= best and holds(params, q, t):
            best = min(best, q ** t)
        q = gf.next_prime_power(q + 1)
    return best


def gap_bounds(params):
    """netgap.gap_bounds with the prime-power scan above and t_A and t_delta
    found by counting t up from 1."""
    p = params
    netgap._require_solvable_window(params)
    qs_ub_log2 = netgap.qt_sufficient_log2(params, 1)
    a_value = min_qt_satisfying_necessary(params)
    gap_ub = qs_ub_log2 - math.log2(a_value)
    t_a = 1
    while not netgap._necessary_holds(params, 2, t_a):
        t_a += 1
    if p.h >= 2 * p.ell + p.eps:
        if p.alpha * p.ell + 2 * p.eps - p.h == 0:
            raise ValueError("f(t) = 1 does not grow with t, so t_delta is "
                             "undefined")
        target = math.log2(p.r) - math.log2(p.beta)
        t_delta = 1
        while p.f(t_delta) / (p.alpha - 1) < target:
            t_delta += 1
    else:
        ratio = Fraction(p.r, p.alpha - 1)
        t_delta = 1
        while Fraction(2) ** p.g(t_delta) < ratio:
            t_delta += 1
    gap_lb = netgap.qt_necessary_log2(params, 1) - t_delta
    return {"gap_lb": gap_lb, "gap_ub": gap_ub, "t_A": t_a,
            "t_delta": t_delta, "A_log2": math.log2(a_value),
            "A_value": a_value}


def flow_graph(zeros, n, anchor):
    """Residual graph source -> row i -> columns Y_i -> sink, Y_i = [n] \\ Z_i.

    Node 0 is the source, 1..k the rows, k + 1..k + n the columns and
    k + n + 1 the sink.  An arc is [head, residual capacity, index of the
    reverse arc in graph[head]].  The source arc of the anchor row and every
    row -> column arc are unbounded; the others have capacity 1.
    """
    nrows = len(zeros)
    graph = [[] for _ in range(nrows + n + 2)]

    def arc(u, v, cap):
        graph[u].append([v, cap, len(graph[v])])
        graph[v].append([u, 0, len(graph[u]) - 1])

    inf = nrows + n + 10
    for i in range(nrows):
        arc(0, 1 + i, inf if i == anchor else 1)
        for y in range(1, n + 1):
            if y not in zeros[i]:
                arc(1 + i, nrows + y, inf)
    for y in range(1, n + 1):
        arc(nrows + y, nrows + n + 1, 1)
    return graph


def _augment(graph, src, snk):
    """Push one unit along a shortest augmenting path, found by breadth-first
    search; every arc into snk has capacity 1.  Returns the nodes reached;
    snk is among them iff a unit was pushed."""
    came = {src: None}
    queue = [src]
    for u in queue:
        for edge in graph[u]:
            if edge[1] > 0 and edge[0] not in came:
                came[edge[0]] = (u, edge)
                queue.append(edge[0])
        if snk in came:
            break
    if snk in came:
        v = snk
        while v != src:
            v, edge = came[v]
            edge[1] -= 1
            graph[edge[0]][edge[2]][1] += 1
    return came


def max_flow(graph, src, snk):
    """Max flow by augmenting paths (Ford & Fulkerson 1956), one unit per
    search.  Returns the flow and the nodes reached by the last, failed
    search: the source side of the least minimum cut."""
    flow = 0
    while True:
        reached = _augment(graph, src, snk)
        if snk not in reached:
            return flow, reached
        flow += 1


def anchored_surplus(zeros, n, anchor):
    """support._anchored_surplus read from a min cut of max_flow on
    flow_graph: (flow - k, the rows on the source side, 1-based)."""
    nrows = len(zeros)
    flow, reached = max_flow(flow_graph(zeros, n, anchor), 0, nrows + n + 1)
    return flow - nrows, sorted(u for u in reached if 1 <= u <= nrows)


def pad_pattern(pattern):
    """support.pad_pattern by one fresh max flow per candidate position:
    greedy over j = 1..n, keeping j in Z_i iff the surplus anchored at
    row i stays >= n - k."""
    k, n = pattern.k, pattern.n
    if k > n:
        raise ValueError(f"a pattern of k = {k} rows pads only when "
                         f"k <= n = {n}")
    zeros = [set(z) for z in pattern.zeros]
    for i in range(k):
        surplus, omega = anchored_surplus(zeros, n, i)
        if surplus < n - k:
            raise ValueError(f"GM condition violated by rows {omega}")
    for i in range(len(zeros)):
        for j in range(1, n + 1):
            if len(zeros[i]) >= k - 1:
                break
            if j in zeros[i]:
                continue
            zeros[i].add(j)
            surplus, _ = anchored_surplus(zeros, n, i)
            if surplus < n - k:
                zeros[i].discard(j)
        if len(zeros[i]) != k - 1:
            raise ValueError(f"could not pad row {i + 1} to size {k - 1}")
    return support.ZeroPattern(pattern.n, zeros)


def factorize(n):
    """gf.factorize by trial division, as a {prime: exponent} dict."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def poly_powmod(F, a, n, mod):
    """a^n modulo mod on coefficient lists over F, by square-and-multiply."""
    result = [1]
    a = gf._poly_rem(F, a, mod)
    while n:
        if n & 1:
            result = gf._poly_mulmod(F, result, a, mod)
        a = gf._poly_mulmod(F, a, a, mod)
        n >>= 1
    return result


def irreducible(F, f):
    """gf._irreducible on coefficient lists: Rabin's test for a monic f of
    degree d over F, with |F| = q: x^(q^d) = x mod f, and
    gcd(x^(q^(d/r)) - x, f) = 1 for each prime r | d."""
    d = len(f) - 1
    x = gf._poly_rem(F, [0, 1], f)
    if gf._poly_sub(F, poly_powmod(F, x, F.order ** d, f), x):
        return False
    for r in factorize(d):
        diff = gf._poly_sub(F, poly_powmod(F, x, F.order ** (d // r), f), x)
        if len(gf._poly_gcd(F, diff, f)) != 1:
            return False
    return True


def rank_q(field, vector):
    """gf.rank_q as the rank over F_q of the m x n coordinate expansion."""
    return gf.rank(field.base, gf.expand_matrix(field, vector))


def b_mds_total(n, d, q, m):
    """grscode.b_mds_total as (q^m - 1)^n plus b_mds summed over the weights
    w = d..n, each from mds_weight_enum's own alternating sum."""
    return (q ** m - 1) ** n + sum(grscode.b_mds(n, d, w, q, m)
                                   for w in range(d, n + 1))


def la_terms(inputs, singleton, simplified):
    """One alternant bound by its own pass over the weights w = d-t..t, for
    t < d, with B^MDS from b_mds_total above: L.A is (False, False), L.A1
    (True, False), which bounds each subcode size by the Singleton bound
    q^(w - (d-t) + 1) in place of q^(k_q^opt), and L.A2 (False, True), which
    drops the |L_0| correction."""
    q, m, d, s, t = inputs.q, inputs.m, inputs.d, inputs.s, inputs.t
    total = Fraction(0)
    for w in range(d - t, t + 1):
        a_w = q ** max(0, w - (d - t - 1) * m)
        b_w = q ** (w - (d - t) + 1 if singleton
                    else ilbounds.kopt(q, w, d - t))
        c_w = (q ** m - 1) ** w
        big_b = b_mds_total(w, d - t, q, m)
        max_sum = ilbounds.maximize_convex_sum(a_w, b_w, c_w, big_b, s)
        if simplified:
            inner = max_sum - c_w
        else:
            b_ww = grscode.b_mds(w, d - t, w, q, m)
            inner = (Fraction(q ** s - 1, q - 1) * (c_w + b_ww - big_b)
                     - c_w + max_sum)
        total += Fraction(math.comb(t, w),
                          (q ** m - 1) * (q ** s - 1) ** w) * inner
    return max(Fraction(0), min(Fraction(1), 1 - total))


def all_bounds(inputs):
    """ilbounds.all_bounds with L.A, L.A1 and L.A2 from three la_terms
    passes."""
    alternant = (None, None, None)
    if inputs.t < inputs.d:
        alternant = (la_terms(inputs, False, False),
                     la_terms(inputs, True, False),
                     la_terms(inputs, False, True))
    return dict(zip(ilbounds.BOUND_NAMES,
                    (ilbounds.bound_l_rs(inputs), *alternant,
                     ilbounds.bound_l_t(inputs), ilbounds.bound_u(inputs))))


def verify_spread(family):
    """aad.verify_spread pair by pair: the stacked generators of every two
    subspaces have rank 2k."""
    return all(gf.rank(family.field, g1 + g2) == 2 * family.k
               for g1, g2 in itertools.combinations(family.generators, 2))


def coset_table(family, i, reduce):
    """aad._coset_table word by word: for each nonzero coset u + S_i, the
    number of j != i whose S_j it meets, from all q^k words of every
    reduced S_j; the set counts each coset once per j even when the
    reduced rows are dependent."""
    field = family.field
    table = Counter()
    for j, rows in enumerate(family.generators):
        if j != i:
            words = gf.span(field, [reduce(r) for r in rows])
            table.update(set(map(tuple, words)))
    del table[reduce((0,) * family.n)]
    return table


def griesmer_k(q, n, d):
    """ilbounds._griesmer_k with the Griesmer sum taken afresh for each k:
    the least k with sum_{i <= k} ceil(d / q^i) > n."""
    k = 0
    while sum(-(-d // q ** i) for i in range(k + 1)) <= n:
        k += 1
    return k
