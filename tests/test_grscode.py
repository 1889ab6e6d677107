import itertools
import random

from hypothesis import given, strategies as st

from skewcodes import gf, grscode, ilbounds, metric

import oracles

F4 = gf.field(2, 1, 2)
F16 = gf.field(2, 2, 2)      # q = 4, m = 2
F8 = gf.field(2, 1, 3)


def test_parity_check_d1_empty():
    spec = grscode.default_spec(F4, 3, 1)
    assert grscode.parity_check(spec) == []


def test_parity_check_first_row_plain():
    spec = grscode.default_spec(F4, 3, 2)
    assert grscode.parity_check(spec) == [[1, 1, 1]]


def test_parity_kernel_dimension_mds():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randrange(2, 7)
        d = rng.randrange(1, n + 1)
        mults = [F8.random_nonzero(rng) for _ in range(n)]
        locs = rng.sample([x for x in F8.elements() if x], n)
        spec = grscode.GrsSpec(F8, locs, mults, d)
        h = grscode.parity_check(spec)
        if not h:
            continue
        kern = gf.right_kernel(F8, h)
        assert len(kern) == n - d + 1


def test_generator_annihilated_by_parity():
    spec = grscode.default_spec(F8, 6, 4)
    g = grscode.generator_matrix(spec)
    h = grscode.parity_check(spec)
    g_t = [[row[j] for row in g] for j in range(spec.n)]
    prod = gf.mat_mul(F8, h, g_t)
    assert all(all(x == 0 for x in row) for row in prod)


def test_subfield_subcode_m1_is_grs():
    fld = gf.field(2, 2, 1)    # F_4 with m = 1: alternant = GRS itself
    spec = grscode.default_spec(fld, 3, 2)
    alt = grscode.subfield_subcode(spec)
    assert alt.dimension == spec.n - spec.d + 1


def test_subfield_subcode_annihilation_and_bounds():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randrange(2, 7)
        d = rng.randrange(1, n + 1)
        locs = rng.sample([x for x in F16.elements() if x], n)
        mults = [F16.random_nonzero(rng) for _ in range(n)]
        spec = grscode.GrsSpec(F16, locs, mults, d)
        alt = grscode.subfield_subcode(spec)
        lower, upper = ilbounds.alternant_dimension_bounds(spec)
        assert lower <= alt.dimension <= upper
        expanded = grscode.expanded_parity_check(spec)
        for vec in alt.generator:
            for row in expanded:
                acc = 0
                for a, b in zip(row, vec):
                    acc = F16.base.add(acc, F16.base.mul(a, b))
                assert acc == 0


def test_subfield_subcode_vs_exhaustive_f2():
    # n=3, q=2, m=2, d=2: dimension equals brute-force count of binary
    # kernel vectors, log 2
    rng = random.Random(2)
    for _ in range(20):
        locs = rng.sample([x for x in F4.elements() if x], 3)
        mults = [F4.random_nonzero(rng) for _ in range(3)]
        spec = grscode.GrsSpec(F4, locs, mults, 2)
        alt = grscode.subfield_subcode(spec)
        count = 0
        hrow = grscode.parity_check(spec)[0]
        for vec in itertools.product((0, 1), repeat=3):
            acc = 0
            for h, c in zip(hrow, vec):
                if c:
                    acc = F4.add(acc, h)
            count += acc == 0
        assert 2 ** alt.dimension == count


def test_mds_weight_enum_sums_to_size():
    # sum_w A_w = Q^k for all n <= 6
    for n in range(1, 7):
        for k in range(1, n + 1):
            for Q in (2, 3, 4, 8):
                total = sum(grscode.mds_weight_enum(n, k, Q, w)
                            for w in range(n + 1))
                assert total == Q ** k


def test_mds_weight_enum_concrete_32():
    # [3,2] over Q=4: 1 + 9 + 6 = 16, verified against a concrete GRS code
    assert grscode.mds_weight_enum(3, 2, 4, 0) == 1
    assert grscode.mds_weight_enum(3, 2, 4, 1) == 0   # below d = 2
    assert grscode.mds_weight_enum(3, 2, 4, 2) == 9
    assert grscode.mds_weight_enum(3, 2, 4, 3) == 6
    spec = grscode.default_spec(F4, 3, 2)
    gen = grscode.generator_matrix(spec)
    counts = {}
    for msg in itertools.product(F4.elements(), repeat=2):
        word = [0] * 3
        for c, row in zip(msg, gen):
            for j, g in enumerate(row):
                word[j] = F4.add(word[j], F4.mul(c, g))
        w = metric.weight(F4, word)
        counts[w] = counts.get(w, 0) + 1
    assert counts == {0: 1, 2: 9, 3: 6}


def test_b_mds_zero_below_distance():
    assert grscode.b_mds(4, 3, 1, 2, 2) == 0
    assert grscode.b_mds(4, 3, 2, 2, 2) == 0
    # w = n uses A_n and (q-1)^n exactly
    n, d, q, m = 4, 3, 2, 2
    a_n = grscode.mds_weight_enum(n, n - d + 1, q ** m, n)
    assert grscode.b_mds(n, d, n, q, m) == a_n * (q - 1) ** n


def test_b_mds_total_exhaustive_322():
    # sum over all 27 multiplier vectors of |subfield subcode| at
    # (n, d, q, m) = (3, 2, 2, 2)
    n, d = 3, 2
    locs = [x for x in F4.elements() if x]
    nonzero = locs
    total = 0
    kernels = {}
    for mults in itertools.product(nonzero, repeat=n):
        spec = grscode.GrsSpec(F4, locs, list(mults), d)
        alt = grscode.subfield_subcode(spec)
        total += 2 ** alt.dimension
        words = frozenset(
            tuple(_combine(F4.base, msg, alt.generator, n))
            for msg in itertools.product((0, 1), repeat=alt.dimension))
        kernels[words] = kernels.get(words, 0) + 1
    assert total == grscode.b_mds_total(n, d, 2, 2) == 60
    # every alternant code appears with multiplicity >= q^m - 1 = 3
    assert all(mult >= 3 for mult in kernels.values())


def test_b_mds_total_matches_per_weight_sum():
    # the vanishing-set sum against (q^m - 1)^n + sum_w b_mds on 3,360
    # cases, many with n > q^m + 1 where no MDS code exists
    cases = beyond = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in range(1, 5):
            for n in range(1, 16):
                for d in range(1, n + 1):
                    assert (grscode.b_mds_total(n, d, q, m)
                            == oracles.b_mds_total(n, d, q, m)), (n, d, q, m)
                    cases += 1
                    beyond += n > q ** m + 1
    assert cases == 3360 and beyond > 0


@given(st.integers(2, 300), st.integers(0, 40), st.integers(-2, 2))
def test_log_floor_matches_scan(q, e, delta):
    # x next to a power of q, where an off-by-one would show
    x = max(1, q ** e + delta)
    k = 0
    while q ** (k + 1) <= x:
        k += 1
    assert ilbounds._log_floor(q, x) == k


def _combine(base, msg, gen, n):
    word = [0] * n
    for c, row in zip(msg, gen):
        if c:
            for j, g in enumerate(row):
                word[j] = base.add(word[j], base.mul(c, g))
    return word
