import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from skewcodes import gf, skew

from oracles import (from_right_form, is_p_independent, minimal_polynomial_lclm,
                     to_right_form)


F4 = gf.field(2, 1, 2)
F16 = gf.field(2, 1, 4)
F9 = gf.field(3, 1, 2)

R4 = skew.SkewRing(F4)                 # F_4[X; sigma], delta = 0
R4D = skew.SkewRing(F4, beta=1)        # delta(a) = a - sigma(a) = sigma(a)+a
R16 = skew.SkewRing(F16)
R9 = skew.SkewRing(F9)
R9D = skew.SkewRing(F9, beta=F9.gamma)
R16T3D = skew.SkewRing(F16, 3, beta=F16.gamma)   # theta = sigma^3


def rand_poly(ring, rng, max_deg=6):
    d = rng.randrange(max_deg + 1)
    coeffs = [rng.randrange(ring.field.order) for _ in range(d)]
    coeffs.append(1 + rng.randrange(ring.field.order - 1))
    return ring.poly(coeffs)


def test_mul_identity():
    rng = random.Random(0)
    for ring in (R4, R4D, R9D):
        for _ in range(20):
            f = rand_poly(ring, rng)
            assert f * ring.one() == f
            assert ring.one() * f == f


def test_commutation_rule_f4():
    # X * alpha = sigma(alpha) X = alpha^2 X in F_4[X; sigma]
    a = F4.gamma
    prod = R4.monomial(1) * R4.poly([a])
    assert prod == R4.poly([0, F4.mul(a, a)])


def test_product_example_f4():
    # (X + alpha)(X + alpha^2) = X^2 + 1 over F_4[X; sigma]
    a = F4.gamma
    a2 = F4.mul(a, a)
    f = R4.poly([a, 1])
    g = R4.poly([a2, 1])
    assert f * g == R4.poly([1, 0, 1])


def test_degree_of_product():
    rng = random.Random(1)
    for ring in (R4, R4D, R9, R9D, R16):
        for _ in range(30):
            f = rand_poly(ring, rng)
            g = rand_poly(ring, rng)
            assert (f * g).degree == f.degree + g.degree


def test_mul_associative_distributive():
    rng = random.Random(2)
    for ring in (R4D, R9D):
        for _ in range(15):
            f, g, h = (rand_poly(ring, rng, 3) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h


def test_paper_example_eval_and_division():
    # F_4[X; sigma, delta] with delta(a) = sigma(a) - a: f = X^3 + X + 1
    a = F4.gamma
    f = R4D.poly([1, 1, 0, 1])
    a_plus_1 = F4.add(a, 1)
    assert f.evaluate(a) == a_plus_1
    q, r = skew.right_divide(f, R4D.x_minus(a))
    assert q == R4D.poly([0, a, 1])       # X^2 + alpha X
    assert r == R4D.poly([a_plus_1])
    # plain plugging-in would give alpha^3 + alpha + 1 = alpha, not alpha+1
    plug = F4.add(F4.add(F4.power(a, 3), a), 1)
    assert plug != a_plus_1


def test_right_divide_self_and_contract():
    rng = random.Random(3)
    for ring in (R4, R4D, R9D, R16):
        for _ in range(250):
            f = rand_poly(ring, rng)
            g = rand_poly(ring, rng)
            q, r = skew.right_divide(f, g)
            assert r.is_zero() or r.degree < g.degree
            assert q * g + r == f
        f = rand_poly(ring, rng)
        q, r = skew.right_divide(f, f)
        assert q == ring.one() and r.is_zero()
    with pytest.raises(ZeroDivisionError):
        skew.right_divide(R4.one(), R4.zero())


def test_left_divide_reconstruction():
    rng = random.Random(4)
    for ring in (R4, R4D, R9D, R16):
        for _ in range(60):
            f = rand_poly(ring, rng)
            g = rand_poly(ring, rng)
            q, r = skew.left_divide(f, g)
            assert r.is_zero() or r.degree < g.degree
            assert g * q + r == f
    # zero remainder iff g left-divides f
    g = rand_poly(R4D, rng)
    q = rand_poly(R4D, rng)
    f = g * q
    _, r = skew.left_divide(f, g)
    assert r.is_zero()


def test_eval_equals_remainder_of_division():
    rng = random.Random(5)
    for ring in (R4D, R9D, R16, R4):
        for _ in range(250):
            f = rand_poly(ring, rng)
            a = rng.randrange(ring.field.order)
            _, r = skew.right_divide(f, ring.x_minus(a))
            want = r.coeffs[0] if r.coeffs else 0
            assert f.evaluate(a) == want
    # eval(X - a, a) = 0
    assert R9D.x_minus(5).evaluate(5) == 0


def test_norms_zero_derivation_closed_form():
    # N_i(a) = a^((q^i - 1)/(q - 1)) for delta = 0
    for ring in (R4, R16, R9):
        fld = ring.field
        q = fld.q
        for a in list(fld.elements())[:12]:
            want = [fld.power(a, (q ** i - 1) // (q - 1)) if a else (
                1 if i == 0 else 0) for i in range(11)]
            assert ring.norm_sequence(11, a) == want


def test_gcrd_lclm_contracts():
    rng = random.Random(6)
    for ring in (R4, R4D, R9D):
        for _ in range(40):
            f = rand_poly(ring, rng, 4)
            g = rand_poly(ring, rng, 4)
            gcrd, lclm, (s, t) = skew.gcrd_lclm(f, g)
            assert gcrd.lc() == 1 and lclm.lc() == 1
            # deg lclm + deg gcrd = deg f + deg g
            assert lclm.degree + gcrd.degree == f.degree + g.degree
            # gcrd right-divides both inputs
            for h in (f, g):
                _, r = skew.right_divide(h, gcrd)
                assert r.is_zero()
            # lclm is right-divisible by both inputs
            for h in (f, g):
                _, r = skew.right_divide(lclm, h)
                assert r.is_zero()
            # Bezout: s*f + t*g = gcrd
            assert s * f + t * g == gcrd
        f = rand_poly(ring, rng, 4)
        gcrd, _, _ = skew.gcrd_lclm(f, f)
        assert gcrd == f.monic()


def test_minimal_polynomial_singleton_and_newton_vs_lclm():
    rng = random.Random(7)
    for ring in (R4, R16, R9):
        a = ring.field.gamma
        assert skew.minimal_polynomial(ring, [a]) == ring.x_minus(a)
        for _ in range(25):
            size = rng.randrange(1, 4)
            omega = {rng.randrange(ring.field.order) for _ in range(size)}
            f1 = skew.minimal_polynomial(ring, sorted(omega))
            f2 = minimal_polynomial_lclm(ring, sorted(omega))
            assert f1 == f2
            for alpha in omega:
                assert f1.evaluate(alpha) == 0


def test_minpoly_union_is_lclm():
    rng = random.Random(8)
    ring = R16
    for _ in range(25):
        o1 = {rng.randrange(16) for _ in range(rng.randrange(1, 3))}
        o2 = {rng.randrange(16) for _ in range(rng.randrange(1, 3))}
        f1 = skew.minimal_polynomial(ring, sorted(o1))
        f2 = skew.minimal_polynomial(ring, sorted(o2))
        fu = skew.minimal_polynomial(ring, sorted(o1 | o2))
        _, lclm, _ = skew.gcrd_lclm(f1, f2)
        assert fu == lclm


def test_p_independence_degree_criterion():
    rng = random.Random(9)
    ring = R16
    for _ in range(40):
        omega = sorted({rng.randrange(1, 16) for _ in range(rng.randrange(1, 5))})
        f = skew.minimal_polynomial(ring, omega)
        assert (f.degree == len(omega)) == is_p_independent(ring, omega)
    assert is_p_independent(ring, [ring.field.gamma])


def test_lclm_of_linears_equals_minpoly():
    ring = R4
    a = ring.field.gamma
    _, lclm, _ = skew.gcrd_lclm(ring.x_minus(1), ring.x_minus(a))
    assert lclm == skew.minimal_polynomial(ring, [1, a])


def test_conjugate_identity_and_classes_f16():
    ring = R16
    fld = F16
    for a in fld.elements():
        assert ring.conjugate(a, 1) == a
    with pytest.raises(ZeroDivisionError):
        ring.conjugate(1, 0)
    # q = 4, m = 2: class sizes (q^m-1)/(q-1) = 5, q classes total
    f16_q4 = gf.field(2, 2, 2)
    ring4 = skew.SkewRing(f16_q4)
    classes = {}
    for a in f16_q4.elements():
        classes.setdefault(ring4.conjugacy_class(a), set()).add(a)
    assert len(classes) == f16_q4.q
    assert sorted(len(v) for v in classes.values()) == [1, 5, 5, 5]
    # representatives 1, gamma, ..., gamma^(q-2) pairwise sigma-distinct
    reps = [f16_q4.power(f16_q4.gamma, i) for i in range(f16_q4.q - 1)]
    assert len({ring4.conjugacy_class(r) for r in reps}) == len(reps)
    for r in reps:
        assert ring4.conjugacy_class(r) == r
    # exhaustive: a^c = a c^(q-1) for delta = 0
    for a in list(f16_q4.elements())[:6]:
        for c in range(1, f16_q4.order):
            assert ring4.conjugate(a, c) == f16_q4.mul(
                a, f16_q4.power(c, f16_q4.q - 1))


def test_within_class_independence_iff_linear_independence():
    # q=4, m=2: {g^l b1^(q-1), g^l b2^(q-1)} P-independent iff b1, b2
    # linearly independent over F_q
    fld = gf.field(2, 2, 2)
    ring = skew.SkewRing(fld)
    g = fld.gamma
    for b1, b2 in itertools.product(range(1, fld.order), repeat=2):
        locs = [fld.mul(g, fld.power(b1, fld.q - 1)),
                fld.mul(g, fld.power(b2, fld.q - 1))]
        lin_indep = gf.rank_q(fld, [b1, b2]) == 2
        assert is_p_independent(ring, locs) == lin_indep


def test_no_more_zeros_on_independent_sets():
    # roots of minpoly(Z) within a P-independent ambient set are exactly Z
    rng = random.Random(10)
    ring = R16
    fld = F16
    # ambient set: Gabidulin-style locators built from a basis
    ambient = [fld.power(b, fld.q - 1) for b in fld.basis]
    assert is_p_independent(ring, ambient)
    for _ in range(20):
        size = rng.randrange(1, len(ambient))
        z = rng.sample(ambient, size)
        f = skew.minimal_polynomial(ring, z)
        for a in ambient:
            assert (f.evaluate(a) == 0) == (a in z)


def test_right_form_round_trip():
    rng = random.Random(11)
    for ring in (R4D, R9D, R16):
        for _ in range(40):
            f = rand_poly(ring, rng, 5)
            right = to_right_form(f)
            back = from_right_form(ring, right)
            assert back == f


PROPERTY_RINGS = (R4, R4D, R9, R9D, R16, R16T3D)


def draw_poly(data, ring, max_deg, nonzero=False):
    coeffs = data.draw(st.lists(st.integers(0, ring.field.order - 1),
                                min_size=0, max_size=max_deg + 1))
    if nonzero:
        coeffs.append(data.draw(st.integers(1, ring.field.order - 1)))
    return ring.poly(coeffs)


@settings(max_examples=300)
@given(st.data())
def test_mul_associative_property(data):
    ring = data.draw(st.sampled_from(PROPERTY_RINGS), label="ring")
    f, g, h = (draw_poly(data, ring, 4) for _ in range(3))
    assert (f * g) * h == f * (g * h)
    assert (f + g) * h == f * h + g * h


@settings(max_examples=300)
@given(st.data())
def test_division_identities_property(data):
    ring = data.draw(st.sampled_from(PROPERTY_RINGS), label="ring")
    f = draw_poly(data, ring, 7)
    g = draw_poly(data, ring, 4, nonzero=True)
    q, r = skew.right_divide(f, g)
    assert q * g + r == f and (r.is_zero() or r.degree < g.degree)
    q, r = skew.left_divide(f, g)
    assert g * q + r == f and (r.is_zero() or r.degree < g.degree)
    # an exact multiple divides with zero remainder on its side
    assert skew.right_divide(f * g, g) == (f, ring.zero())
    assert skew.left_divide(g * f, g) == (f, ring.zero())
