import math
from fractions import Fraction

import pytest

from skewcodes import gf, netgap

import oracles
from oracles import bound_consistent

# the dissertation's figure network: (2,1)-N_{12, 8e5, 20} -> alpha = 18
FIG = netgap.CombNetParams(h=12, r=8 * 10 ** 5, alpha=18, ell=1, eps=2, q=2,
                           t=1)


def test_gamma_constant():
    assert netgap.GAMMA == Fraction(348, 100)
    assert float(netgap.GAMMA) == 3.48


def test_theta_plugin():
    p = netgap.CombNetParams(h=12, r=10, alpha=20, ell=1, eps=2, q=2)
    assert p.theta == 20 - 10 + 1 == 11


def test_beta_exceeds_one_from_alpha_seven():
    for alpha in range(7, 12):
        p = netgap.CombNetParams(h=alpha, r=10, alpha=alpha, ell=1, eps=1,
                                 q=2)
        assert p.beta > 1
    small = netgap.CombNetParams(h=3, r=10, alpha=2, ell=1, eps=1, q=2)
    assert small.beta < 1


def test_g_closed_form_h_le_2l():
    for ell in (1, 2, 3):
        for eps in (0, 1, 2):
            for h in range(ell + 1, 2 * ell + 1):   # h <= 2 ell
                for t in (1, 2, 3):
                    p = netgap.CombNetParams(h=h, r=10, alpha=4, ell=ell,
                                             eps=eps, q=2, t=t)
                    assert p.g(t) == ell * eps * t * t + ell * t


def test_alpha2_exponent_example():
    # alpha=2, eps=ell, h=2ell+1: exponent (ell^2-1)t^2 + (ell+1)t
    for ell in (1, 2, 3):
        for t in (1, 2):
            h = 2 * ell + 1
            p = netgap.CombNetParams(h=h, r=100, alpha=2, ell=ell, eps=ell,
                                     q=2, t=t)
            bounds = {b.name: b for b in netgap.rmax_upper(p)}
            b = bounds["UB.2.gamma"]
            assert b.applicable
            want = netgap.GAMMA * Fraction(2) ** (
                (ell * ell - 1) * t * t + (ell + 1) * t)
            assert b.value == want


def test_validity_windows_enforced():
    # requesting the general upper bound with h - eps < 2 ell: not applicable
    p = netgap.CombNetParams(h=3, r=10, alpha=3, ell=2, eps=0, q=2)
    bounds = {b.name: b for b in netgap.rmax_upper(p)}
    assert not bounds["UB.N.exact"].applicable
    assert not bounds["UB.N.gamma"].applicable


def test_exact_log_dual_agreement():
    grid = []
    for alpha in (2, 3, 18):
        for ell in (1, 2):
            for eps in (1, 2):
                for h in (ell + eps + 1, 2 * ell + eps, 2 * ell + eps + 2):
                    if h <= alpha * ell + eps:
                        grid.append(netgap.CombNetParams(
                            h=h, r=10 ** 5, alpha=alpha, ell=ell, eps=eps,
                            q=2, t=2))
    assert len(grid) >= 20
    for p in grid:
        for b in netgap.rmax_upper(p) + netgap.rmax_lower(p):
            assert bound_consistent(b, 1e-9)


def test_lll_bound_value_log_domain():
    # (2,1)-N_{12,r,20}: alpha=18, q=2, t=3 -- direct formula evaluation
    p = netgap.CombNetParams(h=12, r=8 * 10 ** 5, alpha=18, ell=1, eps=2,
                             q=2, t=3)
    lb = {b.name: b for b in netgap.rmax_lower(p)}["LB.LLL"]
    assert lb.applicable
    f3 = (18 * 1 + 2 - 12) * 2 * 9 + (18 * 1 + 4 - 12) * 3 + 1
    assert p.f(3) == f3
    want = f3 / 17 * math.log2(2) + math.log2(p.beta)
    assert abs(lb.log2 - want) < 1e-12


def test_necessary_curve_decreasing_and_r_shift():
    curves = netgap.qt_conditions(FIG, 6)
    nec = [c[1] for c in curves]
    assert all(a > b for a, b in zip(nec, nec[1:]))
    bigger = netgap.CombNetParams(h=12, r=8 * 10 ** 6, alpha=18, ell=1,
                                  eps=2, q=2, t=1)
    curves_big = netgap.qt_conditions(bigger, 6)
    for (t1, n1, s1), (t2, n2, s2) in zip(curves, curves_big):
        assert n2 > n1 and s2 > s1


def test_sufficient_exponent_linear_when_eps_zero():
    p = netgap.CombNetParams(h=5, r=10 ** 4, alpha=4, ell=2, eps=0, q=2)
    f1, f2, f3 = p.f(1), p.f(2), p.f(3)
    assert f3 - f2 == f2 - f1   # quadratic term vanished


def test_t_a_definition_by_direct_scan():
    res = netgap.gap_bounds(FIG)
    t_a = res["t_A"]
    assert netgap._necessary_holds(FIG, 2, t_a)
    assert not netgap._necessary_holds(FIG, 2, t_a - 1)


def test_gap_lb_le_gap_ub_grid():
    count = 0
    for alpha in (3, 5, 18):
        for ell in (1, 2):
            for eps in (1, 2):
                for h in (2 * ell + eps, 2 * ell + eps + 2, ell + eps + 1):
                    if not (ell + eps < h <= alpha * ell + eps):
                        continue
                    for r in (10 ** 4, 8 * 10 ** 5):
                        p = netgap.CombNetParams(h=h, r=r, alpha=alpha,
                                                 ell=ell, eps=eps, q=2)
                        res = netgap.gap_bounds(p)
                        assert res["gap_lb"] <= res["gap_ub"] + 1e-9
                        count += 1
    assert count >= 20


def test_gap_ub_growth_logarithmic():
    vals = []
    for i in range(11):
        r = 10 ** 4 * 2 ** i
        p = netgap.CombNetParams(h=12, r=r, alpha=18, ell=1, eps=2, q=2)
        vals.append(netgap.gap_bounds(p)["gap_ub"])
    # growth per doubling of r stays bounded by a constant
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    assert all(d <= (18 - 1) / FIG.f(1) * 1.0 + 1e-9 for d in diffs)
    assert vals[-1] > vals[0]


def test_best_bounds_regime_table():
    # alpha > 2, h >= 2l + eps -> UB.N.gamma / LB.LLL
    p1 = netgap.CombNetParams(h=12, r=10 ** 5, alpha=18, ell=1, eps=2, q=2)
    ub, lb = netgap.best_bounds(p1)
    assert ub.name == "UB.N.gamma" and lb.name == "LB.LLL"
    # alpha > 2, h < 2l + eps -> UB.EZ.gamma / LB.EK
    p2 = netgap.CombNetParams(h=4, r=10 ** 5, alpha=4, ell=2, eps=1, q=2)
    ub, lb = netgap.best_bounds(p2)
    assert ub.name == "UB.EZ.gamma" and lb.name == "LB.EK"
    # alpha = 2 -> min of the two gamma forms (non-trivial network)
    p3 = netgap.CombNetParams(h=4, r=10 ** 5, alpha=2, ell=2, eps=1, q=2)
    ub, lb = netgap.best_bounds(p3)
    assert ub.name in ("UB.2.gamma", "UB.EZ.gamma")


def test_covering_code_lower_window():
    assert netgap.covering_code_lower(6, 2, 1, 3, 2) == 2 * 2 ** (4 * 2)
    with pytest.raises(ValueError):
        netgap.covering_code_lower(3, 2, 2, 3, 2)


def test_least_is_the_first_true_of_a_monotone_predicate():
    for lo in (1, 2, 3, 7):
        for first in range(lo, 300):
            calls = []

            def holds(t):
                calls.append(t)
                return t >= first
            assert netgap._least(holds, lo) == first
            assert min(calls) >= lo
            assert len(calls) <= 2 * first.bit_length() + 1


def _outcome(fn, params):
    try:
        return fn(params)
    except ValueError as exc:
        return f"refused: {exc}"


def test_gap_bounds_match_scan_oracle():
    # the prime-power scan and the t counts that the least-integer searches
    # replaced, refusals included; q does not enter gap_bounds
    count = refused = 0
    for h in range(1, 10):
        for r in (1, 2, 5, 30, 1000, 20000):
            for alpha in (2, 3, 5, 8):
                for ell in (1, 2, 3):
                    for eps in range(4):
                        p = netgap.CombNetParams(h=h, r=r, alpha=alpha,
                                                 ell=ell, eps=eps, q=2)
                        got = _outcome(netgap.gap_bounds, p)
                        assert got == _outcome(oracles.gap_bounds, p), p
                        count += 1
                        refused += isinstance(got, str)
    assert count == 2592 and 0 < refused < count


def test_necessary_search_is_logarithmic_in_r(monkeypatch):
    # the scan made 27,059 calls already at r = 10^6
    calls = []
    holds = netgap._necessary_holds
    monkeypatch.setattr(netgap, "_necessary_holds",
                        lambda *args: calls.append(args) or holds(*args))
    p = netgap.CombNetParams(h=2, r=10 ** 12, alpha=3, ell=1, eps=0, q=2)
    res = netgap.gap_bounds(p)
    assert len(calls) < 1000
    assert gf.prime_power(res["A_value"]) is not None
    assert holds(p, 2, res["t_A"]) and not holds(p, 2, res["t_A"] - 1)


def test_gap_bounds_refuses_beyond_miller_rabin_range():
    # the t = 1 threshold is a 29-digit integer; its next prime power needs
    # a primality proof that Miller-Rabin to 13 bases does not give
    p = netgap.CombNetParams(h=2, r=10 ** 30, alpha=3, ell=1, eps=0, q=2)
    with pytest.raises(ValueError, match="deterministic Miller-Rabin"):
        netgap.gap_bounds(p)
