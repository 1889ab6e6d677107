import itertools
import random

import pytest

from skewcodes import gf, lrs, metric, skew

from oracles import encode_by_evaluation, is_p_independent

F9 = gf.field(3, 1, 2)       # q = 3, m = 2
F256 = gf.field(2, 2, 4)     # q = 4, m = 4, the Example (GLRS) field


def test_gabidulin_style_locators():
    # ell = 1, multipliers a basis, a = 1: locators beta_t^(q-1)
    fld = F9
    spec = lrs.LrsSpec(fld, (2,), 2, representatives=[1],
                       multipliers=[list(fld.basis)])
    locs = lrs.code_locators(spec)
    assert locs == [fld.power(b, fld.q - 1) for b in fld.basis]


def test_glrs_example_locators_and_matrix():
    # [12,3] LRS over F_{4^4} with 3 blocks of length 4
    fld = F256
    g = fld.gamma
    spec = lrs.default_spec(fld, (4, 4, 4), 3)
    locs = lrs.code_locators(spec)
    want = [0, 3, 6, 9, 4, 7, 10, 13, 8, 11, 14, 17]
    assert locs == [fld.power(g, e) for e in want]
    gen = lrs.generator_matrix(spec)
    want_rows = [
        [0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5],
        [0, 4, 8, 12, 5, 9, 13, 17, 10, 14, 18, 22],
        # the dissertation prints gamma^59 for the entry below at position
        # (3, 10); the construction and the row's +16 progression give 58
        [0, 16, 32, 48, 21, 37, 53, 69, 42, 58, 74, 90],
    ]
    assert gen == [[fld.power(g, e) for e in row] for row in want_rows]


def test_locator_set_p_independent():
    spec = lrs.default_spec(F256, (4, 4, 4), 3)
    ring = skew.SkewRing(F256)
    assert is_p_independent(ring, lrs.code_locators(spec))


def _accepted(fld, lengths, reps, mults):
    """The LrsSpec of these arguments, or None if LrsSpec rejects them."""
    try:
        return lrs.LrsSpec(fld, lengths, 1, representatives=list(reps),
                           multipliers=[list(b) for b in mults])
    except ValueError:
        return None


def _locators_p_independent(spec):
    return is_p_independent(spec.ring, lrs.code_locators(spec))


def test_accepted_specs_have_p_independent_locators_gf16():
    # every LrsSpec over GF(4^2) with one block (any a, any one or two
    # multipliers), and every representative tuple for two and three blocks
    fld = gf.field(2, 2, 2)
    accepted = 0
    for a in fld.elements():
        for nl in (1, 2):
            for block in itertools.product(fld.elements(), repeat=nl):
                spec = _accepted(fld, (nl,), [a], [block])
                if spec is not None:
                    accepted += 1
                    assert _locators_p_independent(spec)
    for lengths in ((2, 2), (2, 1, 2)):
        mults = lrs.default_multipliers(fld, lengths)
        for reps in itertools.product(fld.elements(), repeat=len(lengths)):
            spec = _accepted(fld, lengths, reps, mults)
            if spec is not None:
                accepted += 1
                assert _locators_p_independent(spec)
    # 3 classes of 5 nonzero elements: 15 * (15 + 15 * 12) one-block specs,
    # 5^2 * 3 * 2 two-block and 5^3 * 3! three-block tuples
    assert accepted == 15 * 15 + 15 * 180 + 150 + 750


@pytest.mark.parametrize("p, e, m", [(3, 1, 2), (3, 1, 3), (5, 1, 2),
                                     (2, 2, 3), (7, 1, 2), (3, 2, 2),
                                     (2, 1, 5)])
def test_accepted_specs_have_p_independent_locators_random(p, e, m):
    fld = gf.field(p, e, m)
    rng = random.Random(p * 100 + e * 10 + m)
    accepted = 0
    for _ in range(300):
        ell = rng.randrange(1, fld.q)
        lengths = tuple(rng.randrange(1, m + 1) for _ in range(ell))
        reps = [rng.randrange(fld.order) for _ in range(ell)]
        mults = [[rng.randrange(fld.order) for _ in range(nl)]
                 for nl in lengths]
        spec = _accepted(fld, lengths, reps, mults)
        if spec is not None:
            accepted += 1
            assert _locators_p_independent(spec)
    assert accepted >= 90


def test_k1_generator_is_multiplier_row():
    spec = lrs.default_spec(F9, (2, 2), 1)
    gen = lrs.generator_matrix(spec)
    assert gen == [spec.flat_multipliers()]


def test_unit_message_and_zero_message():
    spec = lrs.default_spec(F9, (2, 2), 2)
    assert lrs.encode(spec, [0, 0]) == [0, 0, 0, 0]
    assert lrs.encode(spec, [1, 0]) == spec.flat_multipliers()


def test_encode_matrix_equals_evaluation_route():
    rng = random.Random(0)
    spec = lrs.default_spec(F9, (2, 2), 2)
    for _ in range(40):
        msg = [rng.randrange(F9.order) for _ in range(2)]
        assert lrs.encode(spec, msg) == encode_by_evaluation(spec, msg)


def test_encoding_linear():
    rng = random.Random(1)
    fld = F9
    spec = lrs.default_spec(fld, (2, 2), 2)
    for _ in range(20):
        m1 = [rng.randrange(fld.order) for _ in range(2)]
        m2 = [rng.randrange(fld.order) for _ in range(2)]
        lam = rng.randrange(fld.order)
        summed = [fld.add(a, b) for a, b in zip(m1, m2)]
        assert lrs.encode(spec, summed) == [
            fld.add(a, b) for a, b in zip(lrs.encode(spec, m1),
                                          lrs.encode(spec, m2))]
        scaled = [fld.mul(lam, a) for a in m1]
        assert lrs.encode(spec, scaled) == [fld.mul(lam, c)
                                            for c in lrs.encode(spec, m1)]


def test_msrd_42_over_f9():
    spec = lrs.default_spec(F9, (2, 2), 2)
    assert lrs.is_msrd(spec)
    gen = lrs.generator_matrix(spec)
    d = metric.min_distance_bruteforce(F9, gen, metric.SUMRANK,
                                       spec.partition)
    assert d == 3 == spec.n - spec.k + 1


def test_full_code_is_msrd():
    spec = lrs.default_spec(F9, (2,), 2)
    assert lrs.is_msrd(spec)   # d = 1 trivially


def test_repeated_multiplier_rejected():
    with pytest.raises(ValueError):
        lrs.LrsSpec(F9, (2,), 1, representatives=[1],
                    multipliers=[[1, 1]])


def test_dependent_multipliers_rejected():
    fld = F9
    # 1 and 2 are both in the prime field -> F_3-dependent
    with pytest.raises(ValueError):
        lrs.LrsSpec(fld, (2,), 1, representatives=[1], multipliers=[[1, 2]])


def test_multiplier_blocks_must_match_each_length():
    # the right total in the wrong blocks used to pass, and the code's
    # blocks then differed from its sum-rank partition
    with pytest.raises(ValueError, match="must match the lengths"):
        lrs.LrsSpec(F256, (2, 1), 1, representatives=[1, F256.gamma],
                    multipliers=[[1], [1, F256.gamma]])


@pytest.mark.parametrize("lengths, k, named", [
    ((1, 1, 1, 1), 1, "ell = 4, q = 4"), ((5,), 1, "n_l = 5, m = 4"),
    ((2, 0), 1, "n_l = 0, m = 4"), ((2, 2), 5, "k = 5, n = 4"),
    ((2,), 0, "k = 0, n = 2")])
def test_shape_errors_name_their_values(lengths, k, named):
    with pytest.raises(ValueError, match=named):
        lrs.check_shape(F256.q, F256.m, lengths, k)
    with pytest.raises(ValueError, match=named):
        lrs.default_spec(F256, lengths, k)


def test_conjugate_representatives_rejected():
    fld = F9
    g = fld.gamma
    # gamma and gamma * c^(q-1) are sigma-conjugate
    conj = fld.mul(g, fld.power(5, fld.q - 1))
    with pytest.raises(ValueError):
        lrs.LrsSpec(fld, (1, 1), 1, representatives=[g, conj])


def test_representatives_distinct_iff_classes_distinct():
    # LrsSpec compares norms; conjugacy_class reads the class off the log
    # of the norm, so both accept the same pairs
    fld = gf.field(2, 2, 3)
    ring = skew.SkewRing(fld)
    for a, b in itertools.product(range(0, fld.order, 3), repeat=2):
        classes = {ring.conjugacy_class(a), ring.conjugacy_class(b)}
        distinct = 0 not in classes and len(classes) == 2
        try:
            lrs.LrsSpec(fld, (1, 1), 1, representatives=[a, b])
        except ValueError:
            assert not distinct
        else:
            assert distinct


def test_spec_over_a_base_without_tables():
    # GF(2^21) as F_q with m = 1: conjugacy_class cannot read a log table,
    # and LrsSpec no longer needs one
    fld = gf.field(2, 21, 1)
    spec = lrs.default_spec(fld, (1,), 1)
    assert lrs.generator_matrix(spec) == [[1]]
    with pytest.raises(ValueError, match=r"base field GF\(2\^21\)"):
        spec.ring.conjugacy_class(fld.gamma)
    with pytest.raises(ValueError, match="nonzero"):
        lrs.LrsSpec(fld, (1,), 1, representatives=[0])


def test_punctured_blocks_are_mrd():
    # each block submatrix generates an MRD code: rank distance n_l - k + 1
    fld = F9
    spec = lrs.default_spec(fld, (2, 2), 2)
    gen = lrs.generator_matrix(spec)
    start = 0
    for nl in spec.lengths:
        block = [row[start:start + nl] for row in gen]
        d = metric.min_distance_bruteforce(fld, block, metric.RANK)
        assert d == nl - spec.k + 1
        start += nl


def test_identity_theta_single_columns_degenerates_to_grs():
    # ell = n, n_l = 1, theta = Id: rows are powers of locators times
    # multipliers (checked structurally on the zero-derivation m=1 field)
    fld = gf.field(2, 2, 1)    # m = 1 => sigma = Id, q = 4
    spec = lrs.LrsSpec(fld, (1, 1, 1), 2,
                       representatives=[1, fld.gamma,
                                        fld.mul(fld.gamma, fld.gamma)],
                       multipliers=[[1], [1], [1]])
    gen = lrs.generator_matrix(spec)
    locs = lrs.code_locators(spec)
    for i, row in enumerate(gen):
        assert row == [fld.power(a, i) for a in locs]
