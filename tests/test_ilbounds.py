import itertools
from fractions import Fraction

import pytest

from skewcodes import gf, ilbounds, ildec

import oracles


def test_kopt_basics():
    assert ilbounds.kopt(2, 7, 1) == 7            # d = 1 -> n
    assert ilbounds.kopt(2, 7, 3) == 4            # Hamming bound: 2^7/8
    assert ilbounds.kopt(2, 6, 6) == 1            # d = n -> repetition
    assert ilbounds.kopt(3, 5, 5) == 1
    assert ilbounds.kopt(2, 10, 10) == 1


def test_griesmer_running_sum_matches_resummed():
    for q in (2, 3, 4, 5, 7, 256):
        for n in range(1, 41):
            for d in range(1, n + 1):
                assert (ilbounds._griesmer_k(q, n, d)
                        == oracles.griesmer_k(q, n, d)), (q, n, d)


def test_kopt_dominates_real_codes():
    # known optimal binary codes: [7,4,3] Hamming, [23,12,7] Golay
    assert ilbounds.kopt(2, 7, 3) >= 4
    assert ilbounds.kopt(2, 23, 7) >= 12


def test_maximize_convex_sum_plugin():
    a, b, c, s = 2, 5, 3, 2
    bb = c * a   # B = ca
    got = ilbounds.maximize_convex_sum(a, b, c, bb, s)
    assert got == Fraction(0 + 1) * (b ** s - a ** s) + c * a ** s


def test_maximize_degenerate_equal():
    assert ilbounds.maximize_convex_sum(3, 3, 4, 12, 5) == 4 * 3 ** 5


def test_maximize_dominates_exhaustive_multisets():
    for a, b, c, s in ((1, 3, 3, 2), (2, 4, 4, 3), (1, 5, 5, 2)):
        for bb in range(c * a, c * b + 1):
            best = 0
            for multiset in itertools.combinations_with_replacement(
                    range(a, b + 1), c):
                if sum(multiset) == bb:
                    best = max(best, sum(m ** s for m in multiset))
            assert ilbounds.maximize_convex_sum(a, b, c, bb, s) >= best


def test_maximize_window_violation():
    with pytest.raises(ValueError):
        ilbounds.maximize_convex_sum(2, 1, 3, 6, 2)
    with pytest.raises(ValueError):
        ilbounds.maximize_convex_sum(1, 3, 3, 100, 2)


def test_count_matrices_basics():
    assert ilbounds.count_matrices(1, 1, 1, 3) == (2, 2)   # nonzero scalars
    m, n = ilbounds.count_matrices(2, 2, 2, 2)
    assert n == 6


def test_count_matrices_partition_of_eb():
    for q in (2, 3):
        for s in range(1, 5):
            for t in range(1, 5):
                total = sum(ilbounds.count_matrices(s, t, r, q)[1]
                            for r in range(0, min(s, t) + 1))
                assert total == (q ** s - 1) ** t


def test_count_matrices_exhaustive_f2():
    fld = gf.field(2, 1, 1)
    for s, t in ((2, 2), (2, 3), (3, 2)):
        by_rank = {}
        for flat in itertools.product((0, 1), repeat=s * t):
            mat = [list(flat[i * t:(i + 1) * t]) for i in range(s)]
            cols_ok = all(any(mat[i][j] for i in range(s)) for j in range(t))
            r = gf.rank(fld, mat)
            m_cnt, n_cnt = by_rank.get(r, (0, 0))
            by_rank[r] = (m_cnt + 1, n_cnt + (1 if cols_ok else 0))
        for r, (m_cnt, n_cnt) in by_rank.items():
            assert ilbounds.count_matrices(s, t, r, 2) == (m_cnt, n_cnt)


def test_z_xi_exhaustive_counts():
    # q = 2, s = 2, t <= 4, all xi: inclusion-exclusion vs direct counting
    for t in range(1, 5):
        for xi in range(1, t + 1):
            count = 0
            nonzero = [(0, 1), (1, 0), (1, 1)]
            for cols in itertools.product(nonzero, repeat=t):
                if any(sum(1 for c in cols if _collinear_f2(c, e)) == xi
                       for e in nonzero):
                    count += 1
            assert ilbounds.z_xi(2, 2, t, xi) == count


def _collinear_f2(c, e):
    return c == e   # over F_2 scalar multiples are equality


def test_bound_l_rs_at_tmax():
    inp = ilbounds.BoundInputs(q=2, m=5, n=31, d=11, s=3, t=7)
    val = ilbounds.bound("L.RS", inp)
    q_m = 2 ** 5
    assert val >= 1 - Fraction(1, q_m - 1)
    assert val < 1


def test_bound_l_rs_increases_below_radius():
    vals = []
    for t in range(3, 8):
        inp = ilbounds.BoundInputs(q=2, m=5, n=31, d=11, s=3, t=t)
        vals.append(ilbounds.bound("L.RS", inp))
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_la1_below_la():
    # Singleton-based kopt can only weaken the bound
    for t in (26, 28, 30, 33):
        inp = ilbounds.BoundInputs(q=2, m=10, n=1023, d=51, s=5, t=t)
        la = ilbounds.bound("L.A", inp)
        la1 = ilbounds.bound("L.A1", inp)
        assert la1 <= la


def test_la2_below_la_pointwise():
    for q, m, d, s in ((2, 5, 11, 3), (2, 5, 5, 2), (8, 2, 5, 5)):
        n = q ** m - 1 if q ** m - 1 < 64 else 63
        for t in range(1, min(d + 1, n)):
            inp = ilbounds.BoundInputs(q=q, m=m, n=n, d=d, s=s, t=t)
            la = ilbounds.bound("L.A", inp)
            la2 = ilbounds.bound("L.A2", inp)
            if la is None:
                assert la2 is None
                continue
            assert la2 <= la


def test_bound_lt_window_and_value():
    inp = ilbounds.BoundInputs(q=2, m=5, n=31, d=11, s=3, t=5)
    assert ilbounds.bound("L.T", inp) is None     # s < t
    inp2 = ilbounds.BoundInputs(q=2, m=5, n=31, d=11, s=6, t=5)
    val = ilbounds.bound("L.T", inp2)
    assert val is not None and 0 <= val <= 1
    # for t <= (d-1)/2 every pattern is correctable: rank >= 2t-d+2 trivially
    inp3 = ilbounds.BoundInputs(q=2, m=5, n=31, d=11, s=6, t=4)
    assert ilbounds.bound("L.T", inp3) == 1


def test_bound_u_window_and_spot_value():
    inp = ilbounds.BoundInputs(q=2, m=5, n=31, d=11, s=2, t=3)
    assert ilbounds.bound("U", inp) is None       # t < d/2
    # spot value vs exhaustive at q=2, s=2, t=3, d=4 (xi range 1..3)
    inp2 = ilbounds.BoundInputs(q=2, m=3, n=7, d=4, s=2, t=3)
    val = ilbounds.bound("U", inp2)
    best = max(ilbounds.z_xi(2, 2, 3, xi) for xi in range(1, 4))
    assert val == 1 - Fraction(best, (2 ** 2 - 1) ** 3)


def test_figure_scale_bounds_behave():
    # q=2, m=10, n=1023, d=51: big-integer paths stay exact and ordered;
    # the alternant lower bounds die before t_max while U and L.RS persist
    for s in (2, 5):
        t_max = (s * 50) // (s + 1)
        for t in (26, 30, t_max, t_max + 1):
            inp = ilbounds.BoundInputs(q=2, m=10, n=1023, d=51, s=s, t=t)
            vals = ilbounds.all_bounds(inp)
            for v in vals.values():
                assert v is None or 0 <= v <= 1
            if vals["L.A"] is not None:
                assert vals["L.A2"] <= vals["L.A"]
                assert vals["L.A1"] <= vals["L.A"]
    inp = ilbounds.BoundInputs(q=2, m=10, n=1023, d=51, s=2, t=26)
    one_minus_la = 1 - ilbounds.bound("L.A", inp)
    assert Fraction(1, 10 ** 9) < one_minus_la < Fraction(2, 10 ** 9)
    # L.RS is still essentially 1 at t_max - 1 and vacuous beyond t_max
    inp2 = ilbounds.BoundInputs(q=2, m=10, n=1023, d=51, s=2, t=33)
    assert ilbounds.bound("L.RS", inp2) > Fraction(999, 1000)
    inp3 = ilbounds.BoundInputs(q=2, m=10, n=1023, d=51, s=2, t=34)
    assert ilbounds.bound("L.RS", inp3) == 0


def test_all_bounds_clamped():
    for q, m, d, s, t in ((2, 5, 11, 3, 7), (2, 5, 11, 3, 10),
                          (8, 2, 5, 2, 3), (2, 2, 3, 1, 1)):
        n = min(q ** m - 1, 63)
        if d > n:
            continue
        inp = ilbounds.BoundInputs(q=q, m=m, n=n, d=d, s=s, t=t)
        for name, val in ilbounds.all_bounds(inp).items():
            if val is not None:
                assert 0 <= val <= 1, (name, val)


def test_all_bounds_match_three_pass_oracle():
    # every t of the bound table, exactly; the grid has rows with t >= d,
    # t < d/2 and s < t, and the il-gf256 and il-gf81-alt parameters
    seen = set()
    for q, m, n, d, s in ((2, 8, 255, 33, 3), (3, 4, 80, 21, 2),
                          (2, 5, 31, 11, 6), (4, 3, 63, 20, 1),
                          (5, 2, 24, 9, 12), (8, 2, 63, 5, 5),
                          (7, 1, 6, 5, 4), (2, 4, 15, 1, 2),
                          (3, 3, 26, 2, 1), (9, 1, 8, 8, 3)):
        for t in range(1, ildec.t_max_radius(d, s) + 3):
            inp = ilbounds.BoundInputs(q=q, m=m, n=n, d=d, s=s, t=t)
            assert ilbounds.all_bounds(inp) == oracles.all_bounds(inp), inp
            seen |= {t >= d and "t >= d", 2 * t < d and "t < d/2",
                     s < t and "s < t"}
    assert {"t >= d", "t < d/2", "s < t"} <= seen


def test_bound_names_one_value():
    inp = ilbounds.BoundInputs(q=2, m=5, n=31, d=11, s=3, t=6)
    vals = ilbounds.all_bounds(inp)
    assert list(vals) == list(ilbounds.BOUND_NAMES)
    for name in ilbounds.BOUND_NAMES:
        assert ilbounds.bound(name, inp) == vals[name]
    with pytest.raises(ValueError, match="unknown bound 'L.B'"):
        ilbounds.bound("L.B", inp)


@pytest.mark.parametrize("n, d, t, message", [
    (10, 11, 1, "designed distance d = 11 exceeds the length n = 10"),
    (0, 5, 1, "designed distance d = 5 exceeds the length n = 0"),
    (31, 11, 0, "number of errors t = 0 must be >= 1"),
    (31, 11, -2, "number of errors t = -2 must be >= 1")])
def test_bound_inputs_name_d_against_n_and_t(n, d, t, message):
    # one check used to refuse both as "need d <= n and t >= 1", naming t
    # where the caller passed no t
    with pytest.raises(ValueError, match=message):
        ilbounds.BoundInputs(q=2, m=5, n=n, d=d, s=3, t=t)
