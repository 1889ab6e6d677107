"""Acceptance suite: one test per criterion, at the stated tolerances.

The statistical criteria run at fixed seeds; the randomized grids cover the
stated parameter ranges with at least the stated trial counts.
"""

import math

import pytest

from skewcodes import (aad, bench, gf, grscode, ilbounds, ildec, lrs, metric,
                       netgap, qlrs, skew, support)

from oracles import bound_consistent

MASTER_SEED = 20240817


# -- criterion 1 -------------------------------------------------------------

def test_criterion_01_skew_evaluation_exact():
    """F_4[X; sigma, delta]: f(alpha) = alpha + 1, quotient X^2 + alpha X."""
    f4 = gf.field(2, 1, 2)
    ring = skew.SkewRing(f4, beta=1)    # delta(a) = a - sigma(a) = sigma(a)+a
    alpha = f4.gamma
    f = ring.poly([1, 1, 0, 1])         # X^3 + X + 1
    assert skew.eval_remainder(f, alpha) == f4.add(alpha, 1)
    q, r = skew.right_divide(f, ring.x_minus(alpha))
    assert q == ring.poly([0, alpha, 1])           # X^2 + alpha X
    assert r == ring.poly([f4.add(alpha, 1)])


# -- criterion 2 -------------------------------------------------------------

def test_criterion_02_lrs_generator_exact():
    """[12,3] LRS over F_{4^4}: the printed gamma-power matrix, exactly."""
    fld = gf.field(2, 2, 4)
    spec = lrs.default_spec(fld, (4, 4, 4), 3)
    gen = lrs.generator_matrix(spec)
    # row 3 entry gamma^58 corrects the source's gamma^59 misprint (the
    # row's own +16 exponent progression confirms)
    exponents = [
        [0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5],
        [0, 4, 8, 12, 5, 9, 13, 17, 10, 14, 18, 22],
        [0, 16, 32, 48, 21, 37, 53, 69, 42, 58, 74, 90],
    ]
    g = fld.gamma
    assert gen == [[fld.power(g, e) for e in row] for row in exponents]
    locs = lrs.code_locators(spec)
    assert locs == [fld.power(g, e) for e in
                    [0, 3, 6, 9, 4, 7, 10, 13, 8, 11, 14, 17]]


# -- criterion 3 -------------------------------------------------------------

def test_criterion_03_msrd_bruteforce():
    """Default [4,2] LRS over F_{3^2}, partition (2,2): d_SR = 3 exactly."""
    fld = gf.field(3, 1, 2)
    spec = lrs.default_spec(fld, (2, 2), 2)
    gen = lrs.generator_matrix(spec)
    d = metric.min_distance_bruteforce(fld, gen, metric.SUMRANK,
                                       spec.partition)
    assert d == 3 == spec.n - spec.k + 1
    assert lrs.is_msrd(spec)


# -- criterion 4 -------------------------------------------------------------

TOY_INSTANCE = support.NetworkInstance(
    lengths=[1, 3, 2, 3],
    access=[{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}],
    t=2, rho=2, ell=3)


def toy_pattern():
    lengths = {frozenset({1, 2, 3}): 6, frozenset({1, 2, 4}): 7,
               frozenset({1, 3, 4}): 2, frozenset({2, 3, 4}): 8}
    return support.design_pattern(TOY_INSTANCE, lengths)


def test_criterion_04_gm_msrd_construction():
    """9x23 toy pattern over F_{4^9}: full-rank T, zeros exactly as padded."""
    pattern = toy_pattern()
    assert pattern.k == 9 and pattern.n == 23
    fld = gf.field(2, 2, 9)
    spec = lrs.default_spec(fld, (8, 7, 8), 9)
    rng = bench.SplitMix64(MASTER_SEED)
    result = support.build_constrained_generator(spec, pattern, rng)
    assert result.attempts <= 64
    assert gf.rank(fld, result.t_matrix) == 9
    # rows of T are monic minimal-polynomial coefficient vectors
    assert all(row[-1] == 1 for row in result.t_matrix)
    for i, row in enumerate(result.generator):
        zeros = {j + 1 for j, x in enumerate(row) if x == 0}
        assert zeros == set(result.pattern.zeros[i])      # exact placement
        assert set(pattern.zeros[i]) <= zeros             # covers the toy


# -- criterion 5 -------------------------------------------------------------

def _assert_feasible(instance, source_lengths, n):
    import itertools
    h = instance.h
    assert sum(source_lengths.values()) == n
    for size in range(1, h + 1):
        for omega in itertools.combinations(range(1, h + 1), size):
            oset = frozenset(omega)
            r_sum = sum(instance.lengths[i - 1] for i in omega)
            covered = sum(v for j, v in source_lengths.items() if j & oset)
            assert covered >= r_sum + 2 * instance.t + instance.rho
            assert covered >= r_sum + 2 * instance.ell * instance.t \
                + instance.rho


@pytest.mark.parametrize("ell,want", [
    (1, dict(n=15, ktilde=9, d=7, q=2, m=15)),
    (2, dict(n=19, ktilde=9, d=11, q=3, m=10)),
    (3, dict(n=23, ktilde=9, d=15, q=4, m=9, blocks=(8, 7, 8))),
])
def test_criterion_05_distributed_design_rows(ell, want):
    """Table rows: (n, ktilde, d, q, m) per ell, blocks (8,7,8) at ell=3."""
    inst = support.NetworkInstance(TOY_INSTANCE.lengths, TOY_INSTANCE.access,
                                   TOY_INSTANCE.t, TOY_INSTANCE.rho, ell)
    res = support.distributed_design(inst, bench.SplitMix64(MASTER_SEED))
    assert res.n == want["n"]
    assert res.ktilde == want["ktilde"]
    assert res.d == want["d"]
    assert res.q == want["q"]
    assert res.m == want["m"]
    if "blocks" in want:
        assert res.block_lengths == want["blocks"]
    _assert_feasible(inst, res.source_lengths, res.n)
    assert len(res.generator) == sum(inst.lengths)
    assert len(res.generator[0]) == res.n


def test_criterion_05_distributed_design_singleton_sets():
    """Singleton access sets, ell = 1: the [33, 27, 7] design."""
    inst = support.NetworkInstance([1, 3, 2, 3], [{1}, {2}, {3}, {4}],
                                   t=2, rho=2, ell=1)
    res = support.distributed_design(inst, bench.SplitMix64(MASTER_SEED))
    assert (res.n, res.ktilde, res.d) == (33, 27, 7)
    assert (res.q, res.m) == (2, 33)
    _assert_feasible(inst, res.source_lengths, res.n)


# -- criterion 6 -------------------------------------------------------------

def test_criterion_06_interleaved_threshold():
    """GRS and binary alternant over F_{2^5}, n=31, d=11, s=3: t_thr = 7."""
    f32 = gf.field(2, 1, 5)
    expected = ildec.t_max_radius(11, 3)
    assert expected == 7
    for kind in ("grs", "alternant"):
        cfg = bench.ExperimentConfig(kind=kind, field=f32, n=31, d=11, s=3,
                                     trials=100, seed=MASTER_SEED)
        assert bench.threshold_scan(cfg, target=0.9, trials=100) == 7


# -- criteria 7 and 8 (shared simulation grid) --------------------------------

GRID_TRIALS = 65    # 156 grid points x 65 trials >= 10^4


def _grid_points():
    points = []
    for q, m in ((2, 2), (2, 5), (8, 2), (8, 5)):
        for d in (5, 11):
            n = min(q ** m - 1, 63)
            if d > n:
                continue        # infeasible (q, m, d) combos are excluded
            for s in (1, 2, 3, 5):
                tmax = ildec.t_max_radius(d, s)
                for t in range(1, tmax + 3):
                    points.append((q, m, n, d, s, t))
    return points


@pytest.fixture(scope="module")
def grid_results():
    results = []
    total_trials = 0
    for idx, (q, m, n, d, s, t) in enumerate(_grid_points()):
        fld = gf.field_q(q, m)
        spec = grscode.default_spec(fld, n, d)
        successes = 0
        agree = True
        for trial in range(GRID_TRIALS):
            rng = bench.trial_rng(MASTER_SEED + idx, trial)
            err = ildec.sample_burst(fld, s, n, t, rng, subfield=True)
            rows = err.full_matrix(s, n)
            out = ildec.joint_decode(rows, spec)
            zero = [[0] * n for _ in range(s)]
            got = ildec.classify(out, zero) == ildec.SUCCESS
            if got != ildec.rank_oracle(err, spec, s) or \
               got != ildec.crux_oracle(err, spec, s):
                agree = False
            successes += got
        total_trials += GRID_TRIALS
        results.append(dict(q=q, m=m, n=n, d=d, s=s, t=t,
                            successes=successes, trials=GRID_TRIALS,
                            agree=agree))
    assert total_trials >= 10 ** 4
    return results


def test_criterion_07_oracle_equivalence(grid_results):
    """decoder == rank oracle == crux oracle on every trial of the grid."""
    assert all(point["agree"] for point in grid_results)


def test_criterion_08_bound_sandwich(grid_results):
    """L.A - 3 sigma <= P_hat <= U + 3 sigma; L.A2 <= L.A exactly."""
    for point in grid_results:
        inputs = ilbounds.BoundInputs(q=point["q"], m=point["m"],
                                      n=point["n"], d=point["d"],
                                      s=point["s"], t=point["t"])
        la = ilbounds.bound("L.A", inputs)
        la2 = ilbounds.bound("L.A2", inputs)
        ub = ilbounds.bound("U", inputs)
        p_hat = point["successes"] / point["trials"]
        sigma = math.sqrt(p_hat * (1 - p_hat) / point["trials"]) \
            + 1 / point["trials"]
        if la is not None:
            assert float(la) <= p_hat + 3 * sigma, (point, float(la))
        if ub is not None:
            assert p_hat <= float(ub) + 3 * sigma, (point, float(ub))
        if la is not None and la2 is not None:
            assert la2 <= la


# -- criterion 9 -------------------------------------------------------------

def test_criterion_09_counting_identities():
    """MDS enumerator sums, the exhaustive B^MDS identity, and N(s,t,r)."""
    for n in range(1, 7):
        for k in range(1, n + 1):
            for Q in (2, 3, 4, 8, 9):
                assert sum(grscode.mds_weight_enum(n, k, Q, w)
                           for w in range(n + 1)) == Q ** k
    # exhaustive subfield-subcode cardinality sum at (n,d,q,m) = (3,2,2,2)
    import itertools
    f4 = gf.field(2, 1, 2)
    locs = [x for x in f4.elements() if x]
    total = 0
    for mults in itertools.product(locs, repeat=3):
        spec = grscode.GrsSpec(f4, locs, list(mults), 2)
        total += 2 ** grscode.subfield_subcode(spec).dimension
    assert total == grscode.b_mds_total(3, 2, 2, 2)
    # rank-count partition of E_B
    for s in range(1, 5):
        for t in range(1, 5):
            assert sum(ilbounds.count_matrices(s, t, r, 2)[1]
                       for r in range(min(s, t) + 1)) == (2 ** s - 1) ** t


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_qlrs_machinery():
    """Dimension = rank; recursion = enumeration; closed forms; ij example."""
    for ell in (2, 3):
        q = 1 << ell
        for r in range(1, q):
            params = qlrs.QlrsParams(ell, r)
            assert qlrs.dimension(params) == qlrs.evaluation_rank(params)
    for r in (1, 3):
        for ell in range(qlrs.min_valid_ell(r), 7):
            want = tuple(len(qlrs.s_t_exhaustive(ell, r, t))
                         for t in range(3))
            assert qlrs.s_counts_recursive(ell, r) == want
    for r in (1, 3):
        for ell in range(qlrs.min_valid_ell(r), 21):
            exact = qlrs.s_counts_recursive(ell, r)[0]
            assert abs(qlrs.s0_closed_form(ell, r) - exact) \
                <= 1e-6 * max(1, exact)
    # the (a,b) = (12,14) reduction example (integers i=4, j=10)
    assert qlrs.ij_reduce(4, 4, 10) == (0, 2)
    assert not qlrs.is_good_monomial(12, 14, qlrs.QlrsParams(4, 2))
    d = qlrs.min_distance_bruteforce(qlrs.QlrsParams(2, 1))
    assert 5 <= d <= 8


# -- criterion 11 ------------------------------------------------------------

def test_criterion_11_qlrs_local_recovery():
    """q=8 at tau=0.5: QLRS failure rate <= matched lifted-RS closed form."""
    trials = 4000
    # (QLRS r, matched lifted-RS r) pairs for dimensions 10 and 6
    for qlrs_r, lrs_r, dim in ((3, 4, 10), (4, 5, 6)):
        params = qlrs.QlrsParams(3, qlrs_r)
        assert qlrs.dimension(params) == dim
        rng = bench.SplitMix64(MASTER_SEED + qlrs_r)
        rate = qlrs.simulate_local(params, 0.5, trials, rng)
        bound = qlrs.lrs_fail_prob(8, lrs_r, 0.5)
        sigma = math.sqrt(rate * (1 - rate) / trials) + 1 / trials
        assert rate <= bound + 3 * sigma


# -- criterion 12 ------------------------------------------------------------

def test_criterion_12_aad():
    """Sizes, exhaustive spread at (5,2,11), exhaustive AAD at (4,1,5)."""
    fam = aad.construct(5, 2, 11)
    assert fam.size == 11 ** (5 - 4)
    assert aad.verify_spread(fam)
    fam2 = aad.construct(4, 1, 5)
    assert fam2.size == 5 ** 2
    assert aad.guaranteed_l(4, 1) == 3
    assert aad.verify_aad(fam2, 3)
    for n, k in ((4, 1), (5, 1), (6, 1), (7, 1), (5, 2), (6, 2), (7, 2),
                 (8, 2), (9, 2), (10, 2)):
        q = gf.next_prime_power(n * k)
        upper, _ = aad.bounds(n, k, aad.guaranteed_l(n, k), q)
        assert q ** (n - 2 * k) <= upper


# -- criterion 13 ------------------------------------------------------------

def test_criterion_13_netgap():
    """Dual representations, windows, figure curves, gap ordering."""
    fig = netgap.CombNetParams(h=12, r=8 * 10 ** 5, alpha=18, ell=1, eps=2,
                               q=2)
    grid = [fig]
    for alpha in (2, 3, 18):
        for ell in (1, 2):
            for eps in (1, 2):
                for h in (ell + eps + 1, 2 * ell + eps, 2 * ell + eps + 2):
                    if ell + eps < h <= alpha * ell + eps:
                        grid.append(netgap.CombNetParams(
                            h=h, r=10 ** 5, alpha=alpha, ell=ell, eps=eps,
                            q=2))
    for p in grid:
        for b in netgap.rmax_upper(p) + netgap.rmax_lower(p):
            assert bound_consistent(b, 1e-9)
    # validity window: the general UB is not applicable when h - eps < 2 ell
    small = netgap.CombNetParams(h=4, r=10, alpha=3, ell=2, eps=1, q=2)
    names = {b.name: b for b in netgap.rmax_upper(small)}
    assert not names["UB.N.gamma"].applicable
    # figure curves: necessary decreasing, both curves finite
    curves = netgap.qt_conditions(fig, 8)
    assert len(curves) == 8
    nec = [c[1] for c in curves]
    assert all(a > b for a, b in zip(nec, nec[1:]))
    assert all(math.isfinite(c[2]) for c in curves)
    # gap ordering across a 20-point grid
    count = 0
    for p in grid:
        if p.alpha < 2 or not p.nontrivial:
            continue
        res = netgap.gap_bounds(p)
        assert res["gap_lb"] <= res["gap_ub"] + 1e-9
        count += 1
    assert count >= 20
