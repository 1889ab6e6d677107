import random

import pytest
from hypothesis import given, settings, strategies as st

from skewcodes import gf, qlrs


def mod_star_reference(a, q):
    if a <= q - 1:
        return a
    if a % (q - 1) == 0 and a != 0:
        return q - 1
    return a % (q - 1)


def test_mod_star_table_q8():
    for a in range(0, 3 * 7 + 2):
        assert qlrs.mod_star(a, 8) == mod_star_reference(a, 8)


def test_constant_monomial_always_good():
    for ell in (2, 3, 4):
        for r in range(1, (1 << ell)):
            assert qlrs.is_good_monomial(0, 0, qlrs.QlrsParams(ell, r))


def test_large_a_bad_with_zero_ij():
    for ell in (2, 3):
        q = 1 << ell
        for r in range(1, q):
            params = qlrs.QlrsParams(ell, r)
            for a in range(q - r, q):
                assert not qlrs.is_good_monomial(a, 0, params)


def test_paper_toy_monomial_bad():
    # q = 16, r = 2: (a, b) = (12, 14) is bad
    assert not qlrs.is_good_monomial(12, 14, qlrs.QlrsParams(4, 2))


def test_good_condition_matches_naive_enumeration():
    for ell in (2, 3):
        q = 1 << ell
        for r in (1, 2, q - 1):
            params = qlrs.QlrsParams(ell, r)
            for b in range(q):
                subs_i = [i for i in range(q) if i & b == i]
                for a in range(q):
                    naive = all(
                        qlrs.mod_star(2 * i + j + a, q) < q - r
                        for i in subs_i
                        for j in range(q) if j & (b - i) == j)
                    assert qlrs.is_good_monomial(a, b, params) == naive


def test_dimension_equals_evaluation_rank():
    for ell in (2, 3):
        q = 1 << ell
        for r in range(1, q):
            params = qlrs.QlrsParams(ell, r)
            assert qlrs.dimension(params) == qlrs.evaluation_rank(params)


def test_figure_dimensions_q8():
    # the dissertation's local-recovery comparison uses dimensions 10 and 6
    assert qlrs.dimension(qlrs.QlrsParams(3, 3)) == 10
    assert qlrs.dimension(qlrs.QlrsParams(3, 4)) == 6


def test_dimension_monotone_in_r_q32():
    dims = [qlrs.dimension(qlrs.QlrsParams(5, r)) for r in range(1, 17)]
    assert all(a >= b for a, b in zip(dims, dims[1:]))
    # bracketed by the bad-count bounds for r <= q/4
    for r in range(1, 9):
        params = qlrs.QlrsParams(5, r)
        lo, hi = qlrs.bad_star_bounds(params)
        bad = qlrs.bad_star_count(params)
        assert lo * r * r <= bad <= hi * r * r if r & (r - 1) == 0 else True


def test_ij_reduce_paper_example():
    # the paper's LSB-first strings (0010), (0101) are the integers 4, 10
    assert qlrs.ij_reduce(4, 4, 10) == (0, 2)
    a, b = 12, 14
    i, j = 4, 10
    assert i & b == i and j & (b - i) == j
    assert 2 * i + j + a == 2 * 16 - 2
    ip, jp = qlrs.ij_reduce(4, i, j)
    assert 2 * ip + jp + a == 16 - 2


def test_ij_reduce_shadow_property_exhaustive():
    ell = 4
    q = 1 << ell
    for i in range(q):
        for j in range(q):
            ip, jp = qlrs.ij_reduce(ell, i, j)
            assert ip & i == ip and jp & j == jp


def test_ij_reduce_deducts_q_on_s1_witnesses():
    # whenever 2i+j+a = 2q - r' with a < q - r', the output satisfies
    # 2i'+j'+a = q - r'
    ell = 4
    q = 1 << ell
    for b in range(q):
        for i in range(q):
            if i & b != i:
                continue
            for j in range(q):
                if j & (b - i) != j:
                    continue
                for rp in (1, 2, 3):
                    a = 2 * q - rp - 2 * i - j
                    if not 0 <= a < q - rp:
                        continue
                    ip, jp = qlrs.ij_reduce(ell, i, j)
                    assert 2 * ip + jp + a == q - rp


def test_noop_branch():
    # inputs below q come back unchanged (no deduction performed)
    assert qlrs.ij_reduce(4, 0, 1) == (0, 1)
    assert qlrs.ij_reduce(4, 1, 0) == (1, 0)
    assert qlrs.ij_reduce(4, 3, 9) == (3, 9)


def test_ij_reduce_deducts_exactly_q_whenever_feasible():
    ell = 4
    q = 1 << ell
    for i in range(q):
        for j in range(q):
            if 2 * i + j >= q:
                ip, jp = qlrs.ij_reduce(ell, i, j)
                assert (2 * i + j) - (2 * ip + jp) == q


def s_t_reference(ell, r, t):
    # per-(a, b) scan over the targets tq + q - r'
    q = 1 << ell
    targets = {q - rp + t * q for rp in range(1, r + 1)}
    out = set()
    for b in range(q):
        sums = qlrs._achievable_sums(b)
        for a in range(q):
            if any(v >= a and (sums >> (v - a)) & 1 for v in targets):
                out.add((a, b))
    return out


def _ell_and_r(data, max_ell):
    ell = data.draw(st.integers(1, max_ell), label="ell")
    r = data.draw(st.integers(1, (1 << ell) - 1), label="r")
    return ell, r


@settings(max_examples=40)
@given(st.data())
def test_good_monomials_match_oracle_in_order(data):
    ell, r = _ell_and_r(data, 7)
    params = qlrs.QlrsParams(ell, r)
    q = params.q
    want = [(a, b) for b in range(q) for a in range(q)
            if qlrs.is_good_monomial(a, b, params)]
    assert qlrs.good_monomials(params) == want


@settings(max_examples=40)
@given(st.data())
def test_s_t_masks_match_reference(data):
    ell, r = _ell_and_r(data, 6)
    t = data.draw(st.integers(0, 2), label="t")
    assert qlrs.s_t_exhaustive(ell, r, t) == s_t_reference(ell, r, t)


def test_s_t_recursion_matches_exhaustive():
    for r in (1, 3):
        ell0 = qlrs.min_valid_ell(r)
        for ell in range(ell0, 11):
            want = tuple(len(qlrs.s_t_exhaustive(ell, r, t))
                         for t in range(3))
            assert qlrs.s_counts_recursive(ell, r) == want


def test_s2_constant_in_ell():
    for r in (1, 3):
        ell0 = qlrs.min_valid_ell(r)
        vals = [qlrs.s_counts_recursive(ell, r)[2]
                for ell in range(ell0, 12)]
        assert len(set(vals)) == 1


def test_closed_forms_match_recursion():
    for r in (1, 3):
        ell0 = qlrs.min_valid_ell(r)
        for ell in range(ell0, 21):
            exact = qlrs.s_counts_recursive(ell, r)[0]
            approx = qlrs.s0_closed_form(ell, r)
            assert abs(approx - exact) <= 1e-6 * max(1, exact)


def test_star_bad_bracket_power_of_two():
    # r^2 S0^(1)(l-s) <= |S*| <= r^2 S0^(3)(l-s) for r a power of 2
    params = qlrs.QlrsParams(5, 2)
    lo, hi = qlrs.bad_star_bounds(params)
    bad = qlrs.bad_star_count(params)
    assert 4 * lo <= bad <= 4 * hi


def test_star_bad_bracket_every_r():
    # r^2 lo <= |S*| <= r^2 hi for every r <= q/4, not only powers of two
    for ell in range(2, 9):
        for r in range(1, (1 << ell) // 4 + 1):
            params = qlrs.QlrsParams(ell, r)
            lo, hi = qlrs.bad_star_bounds(params)
            bad = qlrs.bad_star_count(params)
            assert r * r * lo <= bad <= r * r * hi, (ell, r)


def test_bad_star_equals_exhaustive_star_set():
    for ell in (2, 3):
        q = 1 << ell
        for r in range(1, q):
            params = qlrs.QlrsParams(ell, r)
            star = {(a, b) for b in range(q) for a in range(q)
                    if not qlrs.is_good_monomial(a, b, params)}
            assert len(star) == qlrs.bad_star_count(params)


def test_distance_bounds_and_max_weight_codeword():
    for ell in (2, 3):
        q = 1 << ell
        field = gf.field(2, ell, 1)
        for r in range(1, q):
            params = qlrs.QlrsParams(ell, r)
            lo, hi = qlrs.distance_bounds(params)
            assert (lo, hi) == (q * r + 1, q * r + q)
            # f = prod_{a in A}(x - a), |A| = q-r-1 has weight exactly qr+q
            subset = list(field.elements())[:q - r - 1]
            coeffs = _poly_to_bivariate(field, subset)
            word = qlrs.encode(params, coeffs)
            assert sum(1 for x in word if x) == q * r + q


def _poly_to_bivariate(field, roots):
    poly = [1]
    for a in roots:
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] = field.add(nxt[i + 1], c)
            nxt[i] = field.add(nxt[i], field.mul(c, field.neg(a)))
        poly = nxt
    return {(i, 0): c for i, c in enumerate(poly) if c}


def test_min_distance_bruteforce_in_bracket():
    d = qlrs.min_distance_bruteforce(qlrs.QlrsParams(2, 1))
    assert 5 <= d <= 8
    # all feasible (q, r) with q <= 8
    for ell in (1, 2, 3):
        q = 1 << ell
        for r in range(1, q):
            params = qlrs.QlrsParams(ell, r)
            k = qlrs.dimension(params)
            if q ** k > 1 << 18:
                continue
            dist = qlrs.min_distance_bruteforce(params)
            lo, hi = qlrs.distance_bounds(params)
            assert lo <= dist <= hi


def test_restriction_to_curve_is_low_degree():
    # any codeword restricted to any quadratic curve interpolates below q-r
    rng = random.Random(0)
    params = qlrs.QlrsParams(3, 3)
    field = gf.field(2, 3, 1)
    q = field.order
    monos = qlrs.good_monomials(params)
    for _ in range(10):
        coeffs = {m: rng.randrange(q) for m in
                  rng.sample(monos, rng.randrange(1, len(monos)))}
        word = qlrs.encode(params, coeffs)
        for _ in range(10):
            al, be, ga = (rng.randrange(q) for _ in range(3))
            xs = list(field.elements())
            ys = [field.add(field.add(field.mul(al, field.mul(x, x)),
                                      field.mul(be, x)), ga) for x in xs]
            vals = [word[x * q + y] for x, y in zip(xs, ys)]
            assert _interp_degree(field, xs, vals) < q - params.r


def _interp_degree(field, xs, vals):
    # Lagrange interpolation, returning the degree of the result
    n = len(xs)
    coeffs = [0] * n
    for i in range(n):
        num = [1]
        den = 1
        for j in range(n):
            if i == j:
                continue
            num = _poly_mul_linear(field, num, xs[j])
            den = field.mul(den, field.sub(xs[i], xs[j]))
        scale = field.mul(vals[i], field.inv(den))
        for idx, c in enumerate(num):
            coeffs[idx] = field.add(coeffs[idx], field.mul(scale, c))
    deg = -1
    for idx, c in enumerate(coeffs):
        if c:
            deg = idx
    return deg


def _poly_mul_linear(field, poly, root):
    out = [0] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] = field.add(out[i + 1], c)
        out[i] = field.add(out[i], field.mul(c, field.neg(root)))
    return out


def test_local_recover_on_codeword():
    rng = random.Random(1)
    params = qlrs.QlrsParams(3, 3)
    field = gf.field(2, 3, 1)
    monos = qlrs.good_monomials(params)
    coeffs = {m: rng.randrange(8) for m in rng.sample(monos, 5)}
    word = qlrs.encode(params, coeffs)
    for _ in range(30):
        pos = rng.randrange(64)
        erased = {pos} | {rng.randrange(64) for _ in range(5)}
        got = qlrs.local_recover(params, word, erased, pos)
        if got is not None:
            assert got == word[pos]


def test_simulate_local_extremes():
    rng = random.Random(2)
    params = qlrs.QlrsParams(3, 3)
    assert qlrs.simulate_local(params, 0.0, 50, rng) == 0.0
    assert qlrs.simulate_local(params, 1.0, 50, rng) == 1.0


def test_lrs_fail_prob_value():
    # q = 8, r = 4, tau = 0.5: inner sum is exactly 1/2 -> (1/2)^9
    assert abs(qlrs.lrs_fail_prob(8, 4, 0.5) - 0.5 ** 9) < 1e-15


def test_curves_through_count_and_size():
    curves = qlrs.curves_through(qlrs.QlrsParams(3, 1), (0, 0))
    assert len(curves) == 64
    assert all(len(c) == 7 for c in curves)
    assert len({tuple(c) for c in curves}) == 64


def test_enumerations_refused_beyond_guard():
    guard = qlrs.ENUMERATION_GUARD
    qlrs._check_enumeration_guard(guard, "size")
    with pytest.raises(ValueError, match="size = 4194305 > 2"):
        qlrs._check_enumeration_guard(guard + 1, "size")
    # ell = 12 lists q^2 = 2^24 monomials, ell = 8 q^2 (q - 1) > 2^23 cells
    for fn in (qlrs.good_monomials, qlrs.dimension, qlrs.bad_star_count):
        with pytest.raises(ValueError, match="q\\^2 monomials"):
            fn(qlrs.QlrsParams(12, 16))
    with pytest.raises(ValueError, match="curve cells"):
        qlrs.curves_through(qlrs.QlrsParams(8, 2), (0, 0))
    with pytest.raises(ValueError, match="curve cells"):
        qlrs.simulate_local(qlrs.QlrsParams(8, 2), 0.1, 10, random.Random(0))
