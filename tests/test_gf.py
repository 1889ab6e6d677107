import copy
import functools
import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from skewcodes import gf

import oracles
from oracles import mat_vec, rank_bruteforce, solve


F4 = gf.field(2, 1, 2)   # F_4 with q=2, m=2: sigma(a) = a^2
F8 = gf.field(2, 1, 3)
F16 = gf.field(2, 2, 2)   # GF(4^2)
F9 = gf.field(3, 1, 2)


def test_additive_identity():
    for fld in (F4, F8, F16, F9):
        for a in fld.elements():
            assert fld.add(a, 0) == a


def test_f4_primitive_order_three():
    # alpha * alpha^2 = alpha^3 = 1 by multiplicative order 3
    a = F4.gamma
    assert F4.mul(a, F4.mul(a, a)) == 1
    assert F4.power(a, 3) == 1


def test_lagrange_power():
    for fld in (F4, F8, F9, F16):
        n1 = fld.order - 1
        for a in fld.elements():
            if a:
                assert fld.power(a, n1) == 1


def test_inverse_and_errors():
    for fld in (F4, F9, F16):
        for a in fld.elements():
            if a:
                assert fld.mul(a, fld.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            fld.inv(0)


def test_frobenius_basics():
    for fld in (F8, F16, F9):
        for a in fld.elements():
            assert fld.frob(0, 1) == 0
            assert fld.frob(a, fld.m) == a
            assert fld.frob(a, 1) == fld.power(a, fld.q)


def test_frobenius_f4_square():
    a = F4.gamma
    assert F4.frob(a, 1) == F4.mul(a, a)


def test_frobenius_is_field_automorphism():
    rng = random.Random(1)
    for fld in (F16, F9, gf.field(2, 3, 2)):
        for _ in range(200):
            a = rng.randrange(fld.order)
            b = rng.randrange(fld.order)
            j = rng.randrange(fld.m)
            assert fld.frob(fld.mul(a, b), j) == fld.mul(fld.frob(a, j),
                                                         fld.frob(b, j))
            assert fld.frob(fld.add(a, b), j) == fld.add(fld.frob(a, j),
                                                         fld.frob(b, j))


def test_expand_matrix_zero_and_basis():
    fld = F16
    m = fld.m
    zeros = gf.expand_matrix(fld, [0] * 3)
    assert all(all(x == 0 for x in row) for row in zeros)
    ident = gf.expand_matrix(fld, list(fld.basis))
    assert ident == [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def test_expand_rank_f8_polynomial_basis():
    fld = F8
    g = fld.gamma
    vec = [1, g, fld.mul(g, g)]
    assert gf.rank_q(fld, vec) == 3


def test_expand_linearity():
    fld = F16
    rng = random.Random(7)
    for _ in range(100):
        u = [rng.randrange(fld.order) for _ in range(4)]
        v = [rng.randrange(fld.order) for _ in range(4)]
        lam = rng.choice(fld.base_elements())
        left = gf.expand_matrix(fld, [fld.add(a, b) for a, b in zip(u, v)])
        eu = gf.expand_matrix(fld, u)
        ev = gf.expand_matrix(fld, v)
        assert left == [[fld.base.add(a, b) for a, b in zip(ru, rv)]
                        for ru, rv in zip(eu, ev)]
        lam_base = lam  # base codes embed as themselves
        scaled = gf.expand_matrix(fld, [fld.mul(lam, x) for x in u])
        assert scaled == [[fld.base.mul(lam_base, x) for x in row]
                          for row in eu]


def test_rank_identity_and_kernel():
    f2 = gf.field(2, 1, 1)
    for n in range(1, 5):
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert gf.rank(f2, ident) == n
    kern = gf.right_kernel(f2, [[1, 1]])
    assert kern == [[1, 1]]


def test_solve_grs_kernel_dimension():
    # [3,2] GRS parity check over F_4 with all-one multipliers: one row (1,1,1)
    fld = F4
    rows = [[1, 1, 1]]
    basis = gf.right_kernel(fld, rows)
    assert len(basis) == 2
    for vec in basis:
        assert mat_vec(fld, rows, vec) == [0]


def test_solve_inconsistent_returns_none():
    f2 = gf.field(2, 1, 1)
    assert solve(f2, [[1, 1], [1, 1]], [1, 0]) is None


def test_solve_roundtrip_random():
    rng = random.Random(3)
    for fld in (F16, F9, gf.field(5, 1, 2), gf.field(7, 1, 1)):
        for _ in range(50):
            nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 6)
            a = [[rng.randrange(fld.order) for _ in range(ncols)]
                 for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.3:
                a[-1] = list(a[0])            # a dependent row
            x = [rng.randrange(fld.order) for _ in range(ncols)]
            b = mat_vec(fld, a, x)
            sol = solve(fld, a, b)
            assert sol is not None
            x0, kern = sol
            assert mat_vec(fld, a, x0) == b
            # the kernel read from the augmented rref is right_kernel's
            assert kern == gf.right_kernel(fld, a)
            assert len(kern) == ncols - gf.rank(fld, a)
            for vec in kern:
                assert mat_vec(fld, a, vec) == [0] * nrows


def test_rank_matches_minor_oracle():
    rng = random.Random(11)
    for fld in (F4, F9):
        for _ in range(60):
            n = rng.randrange(1, 5)
            m = rng.randrange(1, 5)
            rows = [[rng.randrange(fld.order) for _ in range(m)]
                    for _ in range(n)]
            assert gf.rank(fld, rows) == rank_bruteforce(fld, rows)


# a prime field, char-2 and odd product tables, char-2 log tables, Zech
# tables, and no tables (odd and char 2)
RANK_FIELDS = (gf.field(7, 1, 1), gf.field(2, 1, 4), gf.field(3, 1, 3),
               gf.field(2, 1, 9), gf.field(3, 1, 6), gf.field(7, 1, 11),
               gf.field(2, 1, 33))


@settings(max_examples=300)
@given(st.data())
def test_rank_matches_rref_pivots(data):
    fld = data.draw(st.sampled_from(RANK_FIELDS), label="field")
    ncols = data.draw(st.integers(1, 6), label="ncols")
    shape = data.draw(st.sampled_from(("tall", "wide", "square")),
                      label="shape")
    nrows = {"tall": data.draw(st.integers(ncols + 1, ncols + 5)),
             "wide": data.draw(st.integers(0, ncols - 1)) if ncols > 1 else 0,
             "square": ncols}[shape]
    elem = st.integers(0, fld.order - 1)
    vec = st.lists(elem, min_size=ncols, max_size=ncols)
    # rows drawn from the span of a few generators, so that every rank
    # occurs, with zero and repeated rows mixed in; a tall matrix of random
    # rows usually reaches full column rank before its last row
    gens = data.draw(st.lists(vec, min_size=1, max_size=ncols + 1),
                     label="generators")
    rows = []
    for _ in range(nrows):
        kind = data.draw(st.sampled_from(("span", "random", "zero", "dup")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "dup" and rows:
            rows.append(list(data.draw(st.sampled_from(rows))))
        elif kind == "span":
            row = [0] * ncols
            for g in gens:
                fld.axpy(row, data.draw(elem), g)
            rows.append(row)
        else:
            rows.append(data.draw(vec))
    before = copy.deepcopy(rows)
    assert gf.rank(fld, rows) == len(gf.rref(fld, rows)[1])
    assert rows == before


def test_norm_lands_in_base():
    for fld in (F16, F9, gf.field(2, 3, 2)):
        base_codes = set(fld.base_elements())
        for a in fld.elements():
            assert fld.norm(a) in base_codes


def test_base_embedding_is_subfield():
    fld = F16
    codes = fld.base_elements()
    assert len(codes) == fld.q
    for a, b in itertools.product(codes, repeat=2):
        assert fld.mul(a, b) in codes
        assert fld.add(a, b) in codes


def test_base_elements_are_the_eta_powers():
    # F_q* inside F_{q^m} is generated by eta = gamma^((q^m-1)/(q-1)); the
    # last two fields have no tables
    for fld in (F4, F9, F16, F8, gf.field(2, 3, 2), gf.field(3, 2, 2),
                gf.field(5, 1, 2), gf.field(7, 1, 1), gf.field(3, 1, 5),
                gf.field(2, 3, 7), gf.field(3, 2, 7)):
        eta = fld.power(fld.gamma, (fld.order - 1) // (fld.q - 1))
        powers = {fld.power(eta, i) for i in range(fld.q - 1)}
        assert set(fld.base_elements()) == powers | {0}
        assert len(fld.base_elements()) == fld.q


def test_no_table_field_matches_table_field(monkeypatch):
    # build small fields without tables, so that construction binds the
    # polynomial-arithmetic ops, and cross-check them with the table field,
    # in characteristic 2 and in odd characteristic over one and two levels
    rng = random.Random(5)
    for p, e, m in ((2, 1, 4), (3, 1, 4), (3, 2, 2)):
        small = gf.field(p, e, m)
        with monkeypatch.context() as patch:
            patch.setattr(gf, "TABLE_LIMIT", 1)
            poly = gf.Field(p, m, small.base)
        assert not poly.has_tables
        for _ in range(300):
            a = rng.randrange(small.order)
            b = rng.randrange(small.order)
            assert small.mul(a, b) == poly.mul(a, b)
            assert small.add(a, b) == poly.add(a, b)
            assert small.sub(a, b) == poly.sub(a, b)
            assert small.neg(a) == poly.neg(a)
            if a:
                assert small.inv(a) == poly.inv(a)
                assert small.frob(a, 3) == poly.frob(a, 3)
                assert small.power(a, 7) == poly.power(a, 7)


def test_buffer_tables_match_list_tables(monkeypatch):
    # with the list limit at 1 every table is a 4-byte buffer, as in fields
    # above 2^16 elements, and with the small-field limit at 1 the XOR/log
    # and Zech ops run on them; each op agrees with the list-table field on
    # every element or pair, x + (-x) = 0 (the Zech sentinel) included
    for p, e, m in ((2, 1, 4), (2, 2, 2), (3, 1, 4), (5, 1, 2), (3, 2, 2)):
        small = gf.field(p, e, m)
        els = list(small.elements())
        with monkeypatch.context() as patch:
            patch.setattr(gf, "_LIST_LIMIT", 1)
            patch.setattr(gf, "_SMALL_LIMIT", 1)
            buf = gf.Field(p, m, small.base)
            assert _family(buf) == ("_xor_table_ops" if p == 2
                                    else "_zech_ops")
            assert isinstance(buf.exp, memoryview)
            assert list(buf.exp) == small.exp
            assert list(buf.log) == small.log
            for a in els:
                assert buf.neg(a) == small.neg(a)
                assert buf.add(a, buf.neg(a)) == 0
                assert buf.power(a, 5) == small.power(a, 5)
                if a:
                    assert buf.inv(a) == small.inv(a)
                    assert buf.power(a, -3) == small.power(a, -3)
                    for j in range(1, m + 1):
                        assert buf.frob(a, j) == small.frob(a, j)
                for b in els:
                    assert buf.add(a, b) == small.add(a, b)
                    assert buf.sub(a, b) == small.sub(a, b)
                    assert buf.mul(a, b) == small.mul(a, b)
            rng = random.Random(p * m)
            for f in els:
                for dst in ([rng.choice(els) for _ in els],
                            [small.neg(small.mul(f, y)) for y in els]):
                    for start in (0, len(els) // 2):
                        want, got = list(dst), list(dst)
                        small.axpy(want, f, els, start)
                        buf.axpy(got, f, els, start)
                        assert got == want


def _family(fld):
    """The closure family that Field._bind_ops bound on fld."""
    return fld._ops["axpy"].__qualname__.split(".")[0]


@pytest.mark.parametrize("key, family", [
    ((7, 1, 1), "_prime_ops"), ((3, 1, 5), "_small_ops"),
    ((2, 1, 8), "_small_ops"), ((2, 2, 4), "_small_ops"),
    ((2, 1, 9), "_xor_table_ops"), ((3, 1, 6), "_zech_ops"),
    ((7, 1, 11), "_no_table_ops")])
def test_bind_ops_picks_family_by_order(key, family):
    assert _family(gf.field(*key)) == family


# every field of dim > 1 and at most 2^8 elements: each field with the
# small-field limit at 1, so that it binds the XOR/log or Zech closures, is
# the oracle of its product and sum tables
SMALL_FIELDS = ((2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4), (5, 1, 2),
                (2, 2, 3), (3, 1, 4), (5, 1, 3), (3, 1, 5), (2, 1, 8))


@pytest.mark.parametrize("key", SMALL_FIELDS, ids=str)
def test_small_ops_match_log_and_zech_ops(monkeypatch, key):
    p, e, m = key
    small = gf.field(p, e, m)
    with monkeypatch.context() as patch:
        patch.setattr(gf, "_SMALL_LIMIT", 1)
        old = gf.Field(p, m, small.base)
    assert _family(small) == "_small_ops"
    assert _family(old) == ("_xor_table_ops" if p == 2 else "_zech_ops")
    els = list(small.elements())
    for a in els:
        assert small.neg(a) == old.neg(a)
        for op in ("add", "sub", "mul"):
            mine, want = getattr(small, op), getattr(old, op)
            assert [mine(a, b) for b in els] == [want(a, b) for b in els]
    # src holds every element once; dst is random, longer than src, or
    # cancels f * src to zero from the first cell
    rng = random.Random(small.order)
    src = rng.sample(els, len(els))
    for f in els:
        cancel = [old.neg(old.mul(f, y)) for y in src]
        for dst in ([rng.choice(els) for _ in src],
                    [rng.choice(els) for _ in range(len(src) + 3)], cancel):
            for start in (0, 1, len(src) // 2):
                want, got = list(dst), list(dst)
                old.axpy(want, f, src, start)
                small.axpy(got, f, src, start)
                assert got == want
                if dst is cancel:
                    assert not any(got[start:])


def test_small_tables_hold_cached_ints():
    # the 2^16 entries of GF(2^8)'s product table are CPython's cached small
    # ints, so each costs one 8-byte pointer (512 KiB in all); an int object
    # per entry would add 28 bytes each
    tracemalloc.start()
    try:
        fld = gf.Field(2, 8, gf.Field(2))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _family(fld) == "_small_ops"
    assert retained < 600 * 1024


@pytest.mark.parametrize("p, m, per_element", [(2, 17, 16), (5, 7, 16),
                                                (7, 6, 24)])
def test_large_tables_traced_peak_per_element(p, m, per_element):
    # tables as lists cost 80-84 traced bytes per element: a pointer and an
    # int object per entry of exp and log; as 4-byte buffers 8 bytes, plus
    # the temporaries of the gamma-walk (8.2 bytes per element on GF(2^17),
    # 11.2 on GF(5^7)).  In odd characteristic the walk's digit-wise sum
    # table holds p^(2 * (dim // 2)) list entries, one pointer per element
    # when dim is even, so GF(7^6) peaks at 17.4
    base = gf.Field(p)
    tracemalloc.start()
    try:
        fld = gf.Field(p, m, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < per_element * fld.order
    assert fld.order > gf._LIST_LIMIT


def test_order_factored_before_modulus_search(monkeypatch):
    # 7^172 - 1 needs more Pollard-Brent steps than one factorization may
    # spend, so GF(7^172) is refused, and the modulus search it needs no
    # longer runs first (5 s); few steps keep the refusal quick here
    base = gf.Field(7)
    monkeypatch.setattr(gf, "_RHO_STEPS", 1 << 10)
    monkeypatch.setattr(gf.Field, "_find_modulus",
                        lambda self: pytest.fail("modulus searched"))
    with pytest.raises(ValueError, match="cannot be factored"):
        gf.Field(7, 172, base)


def test_factorize_matches_trial_division():
    # below 10^5 every path runs: trial division by the Miller-Rabin bases,
    # Miller-Rabin itself and Pollard-Brent splits of products of primes > 41
    for n in range(1, 10 ** 5):
        assert list(gf.factorize(n).items()) == list(oracles.factorize(n)
                                                     .items())


@pytest.mark.parametrize("q, m", [(2, 33), (2, 48), (2, 64), (3, 12), (3, 40),
                                  (4, 10), (5, 30), (7, 11)])
def test_factorize_group_orders_match_trial_division(q, m):
    n = q ** m - 1
    assert list(gf.factorize(n).items()) == list(oracles.factorize(n).items())


def test_factorize_large_group_orders():
    # trial division needs about 10^8 steps for 2^67 - 1 (Cole 1903)
    assert gf.factorize(2 ** 61 - 1) == {2 ** 61 - 1: 1}
    assert gf.factorize(2 ** 67 - 1) == {193707721: 1, 761838257287: 1}
    assert gf.is_prime(2 ** 61 - 1)
    assert not gf.is_prime(2 ** 67 - 1)
    # small factors of any size are stripped before any primality proof
    assert gf.factorize(2 ** 100 * 3 ** 5) == {2: 100, 3: 5}


@pytest.mark.parametrize("n", [43 ** 16, 2 ** 92 - 1, 1000003 ** 5],
                         ids=["43^16", "2^92-1", "1000003^5"])
def test_factorize_composites_beyond_miller_rabin_range(n):
    # above the range a Miller-Rabin witness still proves a part composite,
    # so these split by Pollard-Brent; trial division is quick on each
    assert n >= gf._MR_LIMIT
    assert list(gf.factorize(n).items()) == list(oracles.factorize(n).items())
    assert not gf.is_prime(n)


def test_factorize_refuses_parts_beyond_miller_rabin_range():
    # 2^89 - 1 is prime, but above the bound where the 13 bases decide it;
    # the bound itself is composite, the smallest strong pseudoprime to
    # all 13 bases, so they cannot tell it from a prime
    assert gf._MR_LIMIT == 1287836182261 * 2575672364521
    for n in (gf._MR_LIMIT, 2 ** 89 - 1, 43 * (2 ** 89 - 1)):
        with pytest.raises(ValueError, match="Miller-Rabin range"):
            gf.factorize(n)
    with pytest.raises(ValueError, match="Miller-Rabin range"):
        gf.is_prime(2 ** 89 - 1)


def test_factorize_refuses_when_rho_steps_run_out(monkeypatch):
    # splitting 2^67 - 1 takes 13,719 steps
    monkeypatch.setattr(gf, "_RHO_STEPS", 13718)
    with pytest.raises(ValueError, match="13718 Pollard-Brent steps"):
        gf.factorize(2 ** 67 - 1)
    monkeypatch.setattr(gf, "_RHO_STEPS", 13719)
    assert gf.factorize(2 ** 67 - 1) == {193707721: 1, 761838257287: 1}


def test_gf2_67_builds_on_few_rho_steps(monkeypatch):
    # the whole build, gamma search included, factors within 2^14 rho steps
    monkeypatch.setattr(gf, "_RHO_STEPS", 1 << 14)
    fld = gf.Field(2, 67, gf.Field(2))
    assert not fld.has_tables
    assert fld.gamma == 2
    assert fld.power(fld.gamma, fld.order - 1) == 1


def test_big_field_no_tables_basic():
    fld = gf.field(2, 1, 33)
    assert not fld.has_tables
    g = fld.gamma
    assert fld.mul(g, fld.inv(g)) == 1
    assert fld.frob(g, fld.m) == g
    x = fld.power(g, 12345)
    assert fld.mul(x, fld.power(g, 55)) == fld.power(g, 12400)


def _mobius(k):
    f = oracles.factorize(k)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


@pytest.mark.parametrize("F, top", [
    (gf.Field(2), 8), (gf.Field(3), 5), (gf.Field(5), 3), (gf.Field(7), 3),
    (gf.field(2, 1, 2), 3), (gf.field(3, 1, 2), 3)], ids=repr)
def test_rabin_on_codes_matches_list_oracle(F, top):
    # every monic candidate of each degree: the test on codes of F[z]/(f)
    # agrees with Rabin's test on coefficient lists, the count of
    # irreducibles is Gauss's (1/d) sum_{k | d} mu(k) q^(d/k), and every
    # p-th power, which the modulus search skips untested, is reducible
    q, p = F.order, F.p
    for d in range(1, top + 1):
        count = 0
        for code in range(q ** d):
            f = gf._digits(code, q, d) + [1]
            irreducible = gf._irreducible(F, f)
            assert irreducible == oracles.irreducible(F, f), f
            if not any(c for i, c in enumerate(f) if i % p):
                assert not irreducible, f
            count += irreducible
        assert count * d == sum(_mobius(k) * q ** (d // k)
                                for k in range(1, d + 1) if d % k == 0)


# moduli (nonzero coefficients below the leading one) and gamma of fields
# without tables, recorded with the list-based Rabin test (6.4, 2.1, 4.0,
# 0.4 and 1.1 s to build with it).  GF((2^14)^2) is a tower whose gamma
# search walked F_q; the modulus searches of GF(64^4) and GF(16^8) run 4,098
# and 3,859 Rabin tests, because every z^m + a z + b is reducible there.
# GF((2^21)^2) was recorded while its modulus search still stepped over the
# 2^21 squares z^2 + b one code at a time (3.3 s to build).  GF((2^21)^3)
# builds since the search skips the binomials z^3 + b, all reducible there
# (it was refused after 2^17 Rabin tests before)
@pytest.mark.parametrize("key, low, gamma", [
    ((2, 1, 100), {0: 1, 2: 1, 5: 1, 6: 1}, 7),
    ((7, 1, 23), {0: 5, 1: 1, 2: 3}, 9),
    ((2, 14, 2), {0: 512, 1: 1}, 16392),
    ((2, 6, 4), {0: 1, 1: 2, 2: 1}, 67),
    ((2, 4, 8), {0: 2, 1: 1, 3: 1}, 16),
    ((2, 21, 2), {0: 1, 1: 1}, 2097158),
    ((2, 21, 3), {0: 11, 1: 1}, 2097152)],
    ids=["2^100", "7^23", "(2^14)^2", "64^4", "16^8", "(2^21)^2",
         "(2^21)^3"])
def test_large_field_modulus_and_gamma_pinned(key, low, gamma):
    fld = gf.field(*key)
    assert not fld.has_tables
    want = [0] * fld.m + [1]
    for i, c in low.items():
        want[i] = c
    assert fld.modulus == tuple(want)
    assert fld.gamma == gamma


def test_modulus_search_refused_after_rabin_budget(monkeypatch):
    # GF(2^8) takes 20 Rabin tests, and GF(256^4) 65,545: every z^4 + a z + b
    # is reducible there; a smaller budget than _RABIN_TESTS keeps the
    # refusal quick here
    monkeypatch.setattr(gf, "_RABIN_TESTS", 19)
    with pytest.raises(ValueError, match="degree 8 over GF\\(2\\) in 19"):
        gf.Field(2, 8, gf.Field(2))
    monkeypatch.setattr(gf, "_RABIN_TESTS", 20)
    assert gf.Field(2, 8, gf.Field(2)).modulus == gf.field(2, 1, 8).modulus
    monkeypatch.setattr(gf, "_RABIN_TESTS", 1024)
    with pytest.raises(ValueError,
                       match="degree 4 over GF\\(256\\) in 1024 Rabin"):
        gf.field_q(256, 4)


def test_skipped_binomials_are_reducible():
    # the modulus search skips every z^m + b over GF(q) when a prime r | m
    # does not divide q - 1 (Lidl & Niederreiter, Thm 3.75); Rabin's test
    # finds each of them reducible for q <= 32 and m <= 6
    skipped = 0
    for q in range(2, 33):
        if gf.prime_power(q) is None:
            continue
        p, e = gf.prime_power(q)
        F = gf.field(p, 1, e)
        for m in range(2, 7):
            if all((q - 1) % r == 0 for r in gf.factorize(m)):
                continue
            for b in range(q):
                assert not gf._irreducible(F, [b] + [0] * (m - 1) + [1])
                skipped += 1
    assert skipped == 699


# SHA-256 digests of the field tables, recorded before the field classes
# were merged into one tower class; moduli and gamma must never drift.
def _digest(*parts):
    text = ";".join(str(x) if isinstance(x, int) else ",".join(map(str, x))
                    for x in parts)
    return hashlib.sha256(text.encode()).hexdigest()


PINNED_TABLES = {
    (2, 1, 1): "ef0790289da7fc699224a2e9994cbbf0"
               "1d9975b32ff72e05c6d321dad182d45b",
    (2, 1, 8): "2cb4b404c7aea671f24a6e6d9e8bc030"
               "79b6d34c2c521c330f880650e589c829",
    (2, 2, 3): "5bf9403c7a25a6a117f2d03398548872"
               "0852c155a0ccac90a51e1aee590662da",
    (2, 3, 2): "24615e479ba98cf588ff9d1f61976429"
               "1664210595b1f24cba5855dc6e85df23",
    (3, 1, 1): "84088705d209b37e8ac313b7c1503599"
               "a9a9cd3cc6b380b042a892ed666199a0",
    (3, 1, 4): "0f51538037cc827dd8bf3272db3214f0"
               "c236865e537dcedbe04472cde3366bed",
    (3, 2, 2): "40aa603f896b9aea7a4f1d601814d9a1"
               "b852cbc727e3235efc038e9c653ee7da",
    (5, 2, 1): "1a229d0f880fd09593dacba7f372f8a7"
               "f46def838b67d1d50987c45398f62b0e",
    (7, 2, 2): "550b8fe0f66010e8cdf38858402aa969"
               "0937064715ca5966efd5bd8a203dfcb7",
    (11, 1, 1): "bab36833730ff537fb89caa0bba36fec"
                "f2adb4ceabea3e1382fe0087ac9c350b",
    (13, 1, 2): "2b7d70c0c31dbc7f072022dde38a4730"
                "23a0cf110386cdf0900842cebb10a2c1",
    # the large tables, recorded from the per-element digit-loop build
    (2, 1, 20): "c7427a749ccbb6db4562e5a60e496819"
                "31be8350dc236d68fdb214bab1615b5e",
    (2, 2, 10): "db61474524061f57e9632029685eb837"
                "db6f56d06e5fd73e6c2c4b8d0cea8d6f",
    (3, 1, 12): "42b002de737569d4401f6afe1473799f"
                "e56e49f0b2980c488c0386280ed12615",
    (3, 1, 11): "ac6d397a55d0af2d6ddea891daa3ce67"
                "5b530fd20101de870cc33df02a4735dd",
    (5, 2, 4): "90366d95dba9cc2d717c14a9cdf3f1a3"
               "c368a41863a0b9d4f60378d8f4b6b258",
}

PINNED_NO_TABLES = {
    (2, 1, 33): (3, "0a25af871f38867dac32f1e1aa3115a2"
                    "18b24ca8a5d036498dc6b911178bcf84"),
    (7, 1, 11): (9, "abaf3d5bb9294647828851d1fdf8b761"
                    "45ee4ea482db553eb2938e41021f4d8d"),
}


@pytest.mark.parametrize("key", sorted(PINNED_TABLES))
def test_tables_pinned(key):
    fld = gf.field(*key)
    base = fld.base
    assert _digest(fld.gamma, fld.exp, fld.log,
                   base.gamma, base.exp, base.log) == PINNED_TABLES[key]


def _digit_loop_tables(fld):
    """exp and log by the per-element digit loop that the chunked gamma-walk
    of Field._build_tables replaced: each step recombines the dim digit
    images of gamma * p^j."""
    n1, p, dim = fld.order - 1, fld.p, fld.dim
    exp = [0] * n1
    log = [0] * fld.order
    x = 1
    images = [gf._digits(fld._poly_mul(p ** j, fld.gamma), p, dim)
              for j in range(dim)]
    vec = gf._digits(1, p, dim)
    for i in range(n1):
        exp[i] = x
        log[x] = i
        acc = [0] * dim
        for j, c in enumerate(vec):
            if c:
                for t in range(dim):
                    acc[t] = (acc[t] + c * images[j][t]) % p
        vec = acc
        x = gf._undigits(acc, p)
    return exp, log


# Chunk shapes of the walk: dim 1 (prime fields and degree-1 extensions),
# even dim, odd dim (a one-digit top chunk), in characteristic 2 and odd,
# and towers over a non-prime base.
TABLE_ORACLE_FIELDS = (
    gf.Field(2), gf.Field(7), gf.Field(101), gf.field(7, 1, 1),
    gf.field(2, 1, 2), gf.field(3, 1, 2), gf.field(2, 1, 8), gf.field(3, 1, 6),
    gf.field(5, 2, 2), gf.field(2, 1, 7), gf.field(3, 1, 5), gf.field(5, 1, 3),
    gf.field(7, 1, 3), gf.field(3, 2, 3), gf.field(2, 2, 5), gf.field(7, 1, 5),
)


@pytest.mark.parametrize("fld", TABLE_ORACLE_FIELDS, ids=repr)
def test_tables_match_digit_loop(fld):
    assert fld.has_tables
    exp, log = _digit_loop_tables(fld)
    assert fld.exp == exp
    assert fld.log == log


@pytest.mark.parametrize("key", [(7, 1, 11), (2, 1, 33), (3, 2, 7)])
def test_no_table_frobenius_matches_powering(key):
    fld = gf.field(*key)
    assert not fld.has_tables
    rng = random.Random(17)
    for a in [0, 1, fld.gamma] + [rng.randrange(fld.order) for _ in range(4)]:
        want = a
        powers = []                   # a^(q^j) for j = 0, ..., m - 1
        for _ in range(fld.m):
            powers.append(want)
            want = fld.power(want, fld.q)
        for j in range(-fld.m, 2 * fld.m):
            assert fld.frob(a, j) == powers[j % fld.m]


@pytest.mark.parametrize("key", [(7, 1, 11), (2, 1, 33), (3, 2, 7),
                                 (2, 3, 7), (2, 1, 67)])
def test_no_table_inverse_matches_fermat(key):
    fld = gf.field(*key)
    assert not fld.has_tables
    rng = random.Random(23)
    for a in [1, fld.gamma] + [rng.randrange(1, fld.order) for _ in range(30)]:
        inv = fld.inv(a)
        assert inv == fld.power(a, fld.order - 2)
        assert fld.mul(a, inv) == 1


@pytest.mark.parametrize("key", sorted(PINNED_NO_TABLES))
def test_no_table_arithmetic_pinned(key):
    fld = gf.field(*key)
    assert not fld.has_tables
    rng = random.Random(2024)
    pairs = [(rng.randrange(1, fld.order), rng.randrange(1, fld.order))
             for _ in range(8)]
    out = []
    for a, b in pairs:
        out += [fld.mul(a, b), fld.inv(a), fld.frob(a, 1),
                fld.frob(b, fld.m - 1)]
    base = fld.base
    gamma, digest = PINNED_NO_TABLES[key]
    assert fld.gamma == gamma
    assert _digest(fld.gamma, out, base.gamma, base.exp, base.log) == digest


# no-table fields over an odd prime field, multiplied by Kronecker
# substitution; GF(1031^2) needs slots wider than 16 bits
KRONECKER_FIELDS = (gf.field(3, 1, 13), gf.field(5, 1, 9), gf.field(7, 1, 11),
                    gf.field(1031, 1, 2))


def _schoolbook_mul(fld, x, y):
    q, m = fld.q, fld.m
    return gf._undigits(gf._poly_mulmod(fld.base, gf._digits(x, q, m),
                                        gf._digits(y, q, m), fld.modulus), q)


@settings(max_examples=200)
@given(st.data())
def test_kronecker_mul_matches_schoolbook(data):
    fld = data.draw(st.sampled_from(KRONECKER_FIELDS), label="field")
    assert not fld.has_tables
    top = fld.order - 1
    code = st.sampled_from([0, 1, top]) | st.integers(0, top)
    x, y = data.draw(code, label="x"), data.draw(code, label="y")
    assert fld.mul(x, y) == _schoolbook_mul(fld, x, y)


@pytest.mark.parametrize("fld", KRONECKER_FIELDS, ids=repr)
def test_kronecker_mul_corners(fld):
    # x = y = order - 1 has every digit p - 1: the largest slot sums
    top = fld.order - 1
    corners = [0, 1, fld.gamma, top - 1, top]
    for x, y in itertools.product(corners, repeat=2):
        assert fld.mul(x, y) == _schoolbook_mul(fld, x, y)


@pytest.mark.parametrize("key", [(3, 1, 4), (7, 1, 3)])
def test_kronecker_mul_matches_tables(key):
    fld = gf.field(*key)
    assert fld.has_tables
    ys = sorted(set(range(0, fld.order, 7)) | {1, fld.order - 1})
    for x in fld.elements():
        for y in ys:
            assert fld._poly_mul(x, y) == fld.mul(x, y)


# no-table fields over an odd prime field: gf.mat_mul runs Kronecker's
# lazily reduced matrix product on them
MAT_MUL_FIELDS = (gf.field(7, 1, 11), gf.field(5, 1, 9), gf.field(3, 1, 15))


def _mat_mul_oracle(fld, a, b):
    """a * b cell by cell with oracles.mul and oracles.add."""
    return [[functools.reduce(lambda acc, xy: oracles.add(
                fld, acc, oracles.mul(fld, *xy)), zip(row, col), 0)
             for col in zip(*b)] for row in a]


@settings(max_examples=120)
@given(st.data())
def test_kronecker_mat_mul_matches_cell_oracle(data):
    fld = data.draw(st.sampled_from(MAT_MUL_FIELDS), label="field")
    top = fld.order - 1
    code = st.sampled_from([0, 0, 1, top]) | st.integers(0, top)
    k = data.draw(st.integers(1, 70), label="K")
    nrows = data.draw(st.integers(0, 3), label="rows")
    ncols = data.draw(st.integers(1, 3), label="cols")
    row = st.lists(code, min_size=k, max_size=k) | st.just([0] * k)
    a = data.draw(st.lists(row, min_size=nrows, max_size=nrows), label="a")
    b = data.draw(st.lists(st.lists(code, min_size=ncols, max_size=ncols)
                           | st.just([0] * ncols), min_size=k, max_size=k),
                  label="b")
    assert "mat_mul" in fld._ops
    assert gf.mat_mul(fld, a, b) == _mat_mul_oracle(fld, a, b)


@pytest.mark.parametrize("fld", MAT_MUL_FIELDS, ids=repr)
@pytest.mark.parametrize("k", [1, 2, 63, 64, 65, 200])
def test_kronecker_mat_mul_largest_slot_sums(fld, k):
    # every digit p - 1 in every entry: each slot of the unreduced sum is as
    # large as K allows
    top = fld.order - 1
    a = [[top] * k, [0] * k, [1] * k]
    b = [[top, 0, fld.gamma]] * k
    assert gf.mat_mul(fld, a, b) == _mat_mul_oracle(fld, a, b)
    assert gf.mat_mul(fld, [], b) == []


def test_kronecker_mat_mul_makes_no_per_cell_call():
    # a fall back to the row kernel (one mul or axpy per cell) fails here
    fld = gf.field(7, 1, 11)
    rng = random.Random(5)
    a = [[rng.randrange(fld.order) for _ in range(11)] for _ in range(11)]
    b = [[rng.randrange(fld.order) for _ in range(33)] for _ in range(11)]
    want = _mat_mul_oracle(fld, a, b)
    calls = []
    for op in ("mul", "axpy", "add"):
        setattr(fld, op, _counting(getattr(fld, op), calls))
    try:
        got = gf.mat_mul(fld, a, b)
    finally:
        for op in ("mul", "axpy", "add"):
            delattr(fld, op)
    assert calls == []
    assert got == want


def test_kronecker_built_once_per_field(monkeypatch):
    # one (mul, mat_mul) pair per Rabin test of the modulus search, and one
    # for the field, which serves both its product and its mat_mul
    kronecker, irreducible = gf._kronecker, gf._irreducible
    built, tested = [], []
    monkeypatch.setattr(gf, "_kronecker", lambda *a: built.append(a[2])
                        or kronecker(*a))
    monkeypatch.setattr(gf, "_irreducible", lambda *a: tested.append(a[1])
                        or irreducible(*a))
    fld = gf.Field(7, 11, gf.Field(7))
    assert len(built) == len(tested) + 1
    assert list(built[-1]) == list(fld.modulus)
    assert "mat_mul" in fld._ops


@pytest.mark.parametrize("key", [(3, 2, 7), (2, 1, 33)])
def test_mat_mul_row_kernel_path(key):
    # GF(9^7) and GF(2^33) have no Kronecker product: one axpy per nonzero
    # entry of a, with the same product
    fld = gf.field(*key)
    assert not fld.has_tables and "mat_mul" not in fld._ops
    rng = random.Random(9)
    a = [[rng.randrange(fld.order) for _ in range(6)], [0] * 6,
         [0, 1, 0, 2, 0, fld.gamma]]
    b = [[rng.randrange(fld.order) for _ in range(4)] for _ in range(6)]
    calls = []
    fld.axpy = _counting(fld.axpy, calls)
    try:
        got = gf.mat_mul(fld, a, b)
    finally:
        del fld.axpy
    assert len(calls) == 6 + 3
    assert got == _mat_mul_oracle(fld, a, b)


@settings(max_examples=120)
@given(st.data())
def test_chunked_frobenius_matches_powering(data):
    fld = data.draw(st.sampled_from(MAT_MUL_FIELDS), label="field")
    top = fld.order - 1
    x = data.draw(st.sampled_from([0, 1, top]) | st.integers(0, top),
                  label="x")
    for j in range(1, fld.m):
        assert fld.frob(x, j) == fld._poly_pow(x, fld.q ** j)


# product tables in characteristic 2 and 3, the two-level GF(9^2), a prime
# field
SPAN_FIELDS = (F8, F16, F9, gf.field(3, 2, 2), gf.field(7, 1, 1))


def _span_oracle(field, rows, offset):
    """Every word offset + sum c_i rows[i], summed directly per message."""
    if offset is None:
        offset = [0] * (len(rows[0]) if rows else 0)
    words = []
    for msg in itertools.product(field.elements(), repeat=len(rows)):
        word = list(offset)
        for c, row in zip(msg, rows):
            for j, g in enumerate(row):
                word[j] = field.add(word[j], field.mul(c, g))
        words.append(word)
    return words


@settings(max_examples=60)
@given(st.data())
def test_span_matches_product_sum(data):
    fld = data.draw(st.sampled_from(SPAN_FIELDS))
    k_max = max(k for k in range(6) if fld.order ** k <= 8000)
    k = data.draw(st.integers(0, k_max))
    n = data.draw(st.integers(0 if k == 0 else 1, 4))
    vec = st.lists(st.integers(0, fld.order - 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(vec, min_size=k, max_size=k))
    offset = data.draw(st.none() | vec)
    before = copy.deepcopy((rows, offset))
    words = list(gf.span(fld, rows, offset))
    assert words == _span_oracle(fld, rows, offset)
    # nothing is mutated and every word is its own list
    assert (rows, offset) == before
    assert len({id(w) for w in words}) == len(words)
    assert all(w is not offset for w in words)


LINE_FIELDS = (gf.field(2, 1, 1), gf.field(3, 1, 1), F4, gf.field(5, 1, 1),
               F8, F9)


@settings(max_examples=100)
@given(st.data())
def test_lines_are_the_normalised_words_of_the_span(data):
    fld = data.draw(st.sampled_from(LINE_FIELDS), label="field")
    q = fld.order
    n = data.draw(st.integers(1, 4), label="n")
    vec = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(vec, max_size=3), label="rows")
    if rows and data.draw(st.booleans(), label="dependent"):
        rows.append([fld.add(a, b) for a, b in zip(rows[0], rows[-1])])
    if data.draw(st.booleans(), label="zero row"):
        rows.insert(data.draw(st.integers(0, len(rows))), [0] * n)
    before = copy.deepcopy(rows)
    words = [tuple(w) for w in gf.lines(fld, rows)]
    assert rows == before
    assert len(set(words)) == len(words)
    assert all(next(x for x in w if x) == 1 for w in words)
    assert set(words) == {tuple(w) for w in gf.span(fld, rows)
                          if any(w) and next(x for x in w if x) == 1}
    assert len(words) == (q ** gf.rank(fld, rows) - 1) // (q - 1)


# fields of every closure family of Field._bind_ops: product tables up to
# 2^8 elements (odd characteristic with even and odd dim, p = 5, the tower
# GF(9^2); characteristic 2 over GF(2) and the tower GF(4^3)), a prime
# field, characteristic-2 log tables above 2^8 (GF(2^9), the tower GF(4^5)),
# odd-characteristic tables with Zech logarithms (GF(3^6), GF(3^7), GF(5^4),
# the tower GF(9^3)), and no tables (Kronecker and carry-less)
OP_FIELDS = (gf.field(3, 1, 4), gf.field(3, 1, 5), gf.field(5, 1, 3),
             gf.field(3, 2, 2), gf.field(7, 1, 1), gf.field(2, 1, 8),
             gf.field(2, 2, 3), gf.field(2, 1, 9), gf.field(2, 2, 5),
             gf.field(3, 1, 6), gf.field(3, 1, 7), gf.field(5, 1, 4),
             gf.field(3, 2, 3), gf.field(7, 1, 11), gf.field(2, 1, 33))


def _codes(fld):
    top = fld.order - 1
    return st.sampled_from([0, 1, top]) | st.integers(0, top)


# oracles.add, sub, neg, mul and axpy are the digit-wise reference ops that
# the bound closures are checked against
@settings(max_examples=300)
@given(st.data())
def test_bound_ops_match_class_methods(data):
    fld = data.draw(st.sampled_from(OP_FIELDS), label="field")
    x, y = data.draw(_codes(fld), label="x"), data.draw(_codes(fld), label="y")
    assert fld.add(x, y) == oracles.add(fld, x, y)
    assert fld.sub(x, y) == oracles.sub(fld, x, y)
    assert fld.neg(x) == oracles.neg(fld, x)
    assert fld.mul(x, y) == oracles.mul(fld, x, y) == fld._poly_mul(x, y)
    # the Zech sentinel: x + (-x) = 0
    assert fld.add(x, fld.neg(x)) == 0
    assert fld.add(fld.neg(x), x) == 0
    assert fld.sub(x, x) == 0


@settings(max_examples=200)
@given(st.data())
def test_axpy_matches_class_methods(data):
    fld = data.draw(st.sampled_from(OP_FIELDS), label="field")
    n = data.draw(st.integers(0, 6), label="n")
    vec = st.lists(_codes(fld), min_size=n, max_size=n)
    dst, src = data.draw(vec, label="dst"), data.draw(vec, label="src")
    f = data.draw(_codes(fld), label="f")
    start = data.draw(st.integers(0, n), label="start")
    # cancel some cells exactly: dst[j] = -f * src[j]
    for j in data.draw(st.sets(st.integers(0, max(n - 1, 0))), label="zero"):
        if j < n:
            dst[j] = oracles.neg(fld, oracles.mul(fld, f, src[j]))
    want = list(dst)
    oracles.axpy(fld, want, f, src, start)
    before = list(src)
    fld.axpy(dst, f, src, start)
    assert dst == want
    assert src == before


def _matrix_rows(data, fld, ncols):
    """Up to five rows: random, zero, duplicate and combinations of earlier
    rows, so that every rank occurs."""
    rows = []
    for _ in range(data.draw(st.integers(0, 5), label="nrows")):
        kind = data.draw(st.sampled_from(("random", "zero", "dup", "comb")))
        if kind == "zero" or not ncols:
            rows.append([0] * ncols)
        elif kind == "dup" and rows:
            rows.append(list(data.draw(st.sampled_from(rows))))
        elif kind == "comb" and rows:
            row = [0] * ncols
            for prev in rows:
                oracles.axpy(fld, row, data.draw(_codes(fld)), prev)
            rows.append(row)
        else:
            rows.append(data.draw(st.lists(_codes(fld), min_size=ncols,
                                           max_size=ncols)))
    return rows


@settings(max_examples=300)
@given(st.data())
def test_rref_and_rank_match_gauss_jordan_oracle(data):
    fld = data.draw(st.sampled_from(OP_FIELDS), label="field")
    rows = _matrix_rows(data, fld, data.draw(st.integers(0, 6), label="n"))
    before = copy.deepcopy(rows)
    red, pivots = gf.rref(fld, rows)
    assert (red, pivots) == oracles.rref(fld, rows)
    assert gf.rank(fld, rows) == len(pivots)
    # the echelon basis: a unit pivot, zeros before it and at the pivots of
    # the rows inserted before it
    basis = gf.echelon(fld, rows)
    assert sorted(c for c, _ in basis) == pivots
    for k, (c, row) in enumerate(basis):
        assert row[c] == 1 and not any(row[:c])
        assert all(row[prev] == 0 for prev, _ in basis[:k])
    assert rows == before


# fields of every family for rank_q: a prime field, product tables (GF(2^8),
# GF(3^4), the tower GF(4^3)), char-2 log tables (GF(2^9), the tower
# GF(4^5)), Zech tables (GF(3^6), the tower GF(9^3)), and no tables
# (Kronecker and carry-less)
RANK_Q_FIELDS = (gf.field(7, 1, 1), gf.field(2, 1, 8), gf.field(3, 1, 4),
                 gf.field(2, 2, 3), gf.field(2, 1, 9), gf.field(2, 2, 5),
                 gf.field(3, 1, 6), gf.field(3, 2, 3), gf.field(7, 1, 11),
                 gf.field(2, 1, 33))


@settings(max_examples=300)
@given(st.data())
def test_rank_q_matches_expansion_oracle(data):
    fld = data.draw(st.sampled_from(RANK_Q_FIELDS), label="field")
    n = data.draw(st.integers(0, fld.m + 3), label="n")
    # entries drawn from the F_q-span of a few elements, so that every rank
    # occurs, with zero and repeated entries mixed in
    gens = data.draw(st.lists(_codes(fld), min_size=1, max_size=3),
                     label="generators")
    scalar = st.integers(0, fld.q - 1)
    vec = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(("span", "random", "zero", "dup")))
        if kind == "zero":
            vec.append(0)
        elif kind == "dup" and vec:
            vec.append(data.draw(st.sampled_from(vec)))
        elif kind == "span":
            x = 0
            for g in gens:
                x = fld.add(x, fld.mul(data.draw(scalar), g))
            vec.append(x)
        else:
            vec.append(data.draw(_codes(fld)))
    before = list(vec)
    assert gf.rank_q(fld, vec) == oracles.rank_q(fld, vec)
    assert vec == before


@pytest.mark.parametrize("fld", RANK_Q_FIELDS, ids=repr)
def test_rank_q_empty_zero_and_basis(fld):
    assert gf.rank_q(fld, []) == 0
    assert gf.rank_q(fld, [0] * (fld.m + 1)) == 0
    # the basis and its reverse, scaled by the largest F_q scalar, then
    # repeated: rank m, reached before the repeats
    top = fld.q - 1
    vec = list(fld.basis) + [fld.mul(top, b) for b in reversed(fld.basis)]
    assert gf.rank_q(fld, vec) == fld.m
    assert gf.rank_q(fld, [top, fld.gamma, top]) == min(fld.m, 2)


# towers over a non-prime base (tables) and fields without tables
AXIOM_FIELDS = (gf.field(2, 2, 5), gf.field(3, 2, 3), gf.field(7, 1, 11),
                gf.field(2, 1, 33))


@settings(max_examples=200)
@given(st.data())
def test_field_axioms_towers_and_no_tables(data):
    fld = data.draw(st.sampled_from(AXIOM_FIELDS), label="field")
    x, y, z = (data.draw(_codes(fld), label=name) for name in "xyz")
    add, sub, neg, mul = fld.add, fld.sub, fld.neg, fld.mul
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert add(x, y) == add(y, x)
    assert mul(x, y) == mul(y, x)
    assert add(x, 0) == x == mul(x, 1)
    assert mul(x, 0) == 0
    assert sub(x, y) == add(x, neg(y))
    assert add(sub(x, y), y) == x
    assert add(x, neg(x)) == 0
    assert neg(neg(x)) == x
    if x:
        assert mul(x, fld.inv(x)) == 1
        assert fld.inv(fld.inv(x)) == x


def _counting(fn, calls):
    def op(*args):
        calls.append(fn)
        return fn(*args)
    return op


@pytest.mark.parametrize("key", [(3, 1, 4), (2, 1, 8), (5, 1, 1),
                                 (7, 1, 11)])
def test_wrapped_ops_fall_back_to_class_methods(key):
    # A wrapper that counts calls is set on the field object and removed by
    # delattr; the same bound closure comes back and the arithmetic is the
    # same.  inv is a method, so the class method shows through.
    p, e, m = key
    prime = gf.Field(p)
    fld = gf.Field(p, m, prime if e == 1 else gf.Field(p, e, prime))
    rng = random.Random(31)
    pairs = [(rng.randrange(fld.order), rng.randrange(1, fld.order))
             for _ in range(50)]
    rows = [[rng.randrange(fld.order) for _ in range(5)] for _ in range(4)]

    def results():
        return ([(fld.add(a, b), fld.mul(a, b), fld.neg(a), fld.inv(b))
                 for a, b in pairs], gf.rref(fld, rows))

    bound = results()
    ops = ("add", "mul", "neg", "inv")
    closures = {op: getattr(fld, op) for op in ops}
    calls = []
    for op in ops:
        setattr(fld, op, _counting(getattr(fld, op), calls))
    assert results() == bound
    assert len(calls) >= 4 * len(pairs)
    for op in ops:
        delattr(fld, op)
        if op == "inv":
            assert fld.inv.__func__ is gf.Field.inv
        else:
            assert getattr(fld, op) is closures[op]
    assert results() == bound
    assert [(oracles.add(fld, a, b), oracles.mul(fld, a, b),
             oracles.neg(fld, a)) for a, b in pairs] == \
        [r[:3] for r in bound[0]]
    assert not any(hasattr(gf.Field, op)
                   for op in ("add", "sub", "neg", "mul", "axpy"))


def test_inverse_without_tables_prime_and_degree_one(monkeypatch):
    # a prime field inverts by pow(x, -1, p), a degree-1 extension by its
    # base; both must agree with the table fields
    with monkeypatch.context() as patch:
        patch.setattr(gf, "TABLE_LIMIT", 1)
        prime = gf.Field(7)
        over_prime = gf.Field(7, 1, prime)
        over_f9 = gf.Field(3, 1, gf.Field(3, 2, gf.Field(3)))
    for fld, table in ((prime, gf.field(7, 1, 1)),
                       (over_prime, gf.field(7, 1, 1)),
                       (over_f9, gf.field(3, 2, 1))):
        assert not fld.has_tables and fld.order == table.order
        for a in range(1, fld.order):
            assert fld.mul(a, fld.inv(a)) == 1
            assert fld.inv(a) == table.inv(a)
        with pytest.raises(ZeroDivisionError):
            fld.inv(0)


def test_field_refusals():
    for p in (1, 4, 9, 15):
        with pytest.raises(ValueError, match=f"p = {p} is not prime"):
            gf.Field(p)
    with pytest.raises(ValueError, match="bad extension degree m = 0"):
        gf.Field(2, 0, gf.Field(2))
    # the prime field has no base, so its degree must be 1
    with pytest.raises(ValueError, match="bad extension degree m = 3"):
        gf.Field(2, 3)
