import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from skewcodes import aad, bench, gf

import oracles


def test_construct_family_sizes():
    fam = aad.construct(4, 1, 5)
    assert fam.size == 5 ** 2
    fam2 = aad.construct(5, 2, 11)
    assert fam2.size == 11 ** 1


def test_family_guard():
    # q^(n-2k) codewords are listed, one subspace each; 7^4 is the largest
    # family the tests build
    with pytest.raises(ValueError, match=r"101\^8 > 2\^16"):
        aad.construct(10, 1, 101)
    assert 7 ** 4 <= aad.FAMILY_GUARD < 11 ** 5
    assert aad.construct(6, 1, 7).size == 7 ** 4


def test_subspace_dimension_exact():
    fam = aad.construct(5, 2, 11)
    for gen in fam.generators:
        assert gf.rank(fam.field, gen) == 2
        # first k coordinates are unit rows
        for t, row in enumerate(gen):
            assert row[:2] == [1 if i == t else 0 for i in range(2)]


def test_spread_5_2_11():
    fam = aad.construct(5, 2, 11)
    assert aad.verify_spread(fam)


def test_spread_various_windows():
    for n, k, q in ((4, 1, 5), (5, 1, 7), (3, 1, 4), (5, 2, 11), (6, 2, 13)):
        fam = aad.construct(n, k, q)
        assert fam.size == q ** (n - 2 * k)
        assert aad.verify_spread(fam)


def test_identical_subspaces_not_spread():
    fam = aad.construct(4, 1, 5)
    fake = aad.AadFamily(fam.field, 4, 1,
                         [fam.generators[0], fam.generators[0]])
    assert not aad.verify_spread(fake)


def test_spread_matches_pairwise_oracle():
    # random small families, with duplicate and rank-deficient generators;
    # a single subspace passes whatever its rank
    rng = random.Random(5)
    fields = [gf.field(2, 1, 1), gf.field(3, 1, 1), gf.field(2, 2, 1),
              gf.field(5, 1, 1)]
    verdicts = set()
    for _ in range(400):
        fld = rng.choice(fields)
        k = rng.choice((1, 2))
        n = rng.randint(2 * k, 2 * k + 2)
        gens = []
        for _ in range(rng.randint(0, 5)):
            kind = rng.random()
            if gens and kind < 0.15:
                gens.append([list(r) for r in rng.choice(gens)])
            else:
                gen = [[rng.randrange(fld.order) for _ in range(n)]
                       for _ in range(k)]
                if kind > 0.85:
                    gen[-1] = [0] * n if k == 1 else list(gen[0])
                gens.append(gen)
        fam = aad.AadFamily(fld, n, k, gens)
        want = oracles.verify_spread(fam)
        assert aad.verify_spread(fam) == want, gens
        verdicts.add((fam.size >= 2, want))
    assert verdicts == {(True, True), (True, False), (False, True)}
    lone = aad.AadFamily(fields[0], 2, 1, [[[0, 0]]])
    assert aad.verify_spread(lone) and oracles.verify_spread(lone)


def test_aad_exhaustive_4_1_5():
    fam = aad.construct(4, 1, 5)
    assert aad.verify_aad(fam, aad.guaranteed_l(4, 1))
    assert aad.guaranteed_l(4, 1) == 3


def test_sampled_mode_agrees():
    fam = aad.construct(5, 1, 7)
    rng = random.Random(0)
    assert aad.verify_aad(fam, aad.guaranteed_l(5, 1), mode="sample",
                          samples=200, rng=rng)


def test_negative_control_random_family_can_violate_small_l():
    # a spread that is not the construction can exceed a tiny L
    fam = _negative_control_family()
    assert aad.verify_spread(fam)
    assert not aad.verify_aad(fam, 1)


def _negative_control_family():
    field = gf.field(5, 1, 1)
    gens = [[[1, 0, x, y]] for x in range(5) for y in range(5)]
    return aad.AadFamily(field, 4, 1, gens)


@pytest.mark.parametrize("family", [aad.construct(4, 1, 5),
                                    aad.construct(5, 1, 7),
                                    aad.construct(5, 2, 11),
                                    _negative_control_family()],
                         ids=["construct-4-1-5", "construct-5-1-7",
                              "construct-5-2-11", "negative-control"])
def test_line_table_matches_full_word_table(family):
    # every nonzero coset counts as its line's normalised word does
    field = family.field
    for i, gen in enumerate(family.generators):
        reduce = aad._reducer(field, gen)
        lines = aad._coset_table(family, i, reduce)
        words = oracles.coset_table(family, i, reduce)
        for coset, count in words.items():
            scale = field.inv(next(x for x in coset if x))
            assert lines[tuple(field.mul(scale, x) for x in coset)] == count
        assert all(lines[c] == words[c] for c in lines)


def _smallest_l_by_rank(family):
    """Largest count, over i and u outside S_i, of the j != i with
    (u + S_i) meeting S_j, i.e. u in S_i + S_j, decided by rank tests."""
    field, k = family.field, family.k
    gens = family.generators
    sum_rank = {(i, j): gf.rank(field, gi + gj)
                for i, gi in enumerate(gens) for j, gj in enumerate(gens)}
    worst = 0
    for i, gi in enumerate(gens):
        for u in itertools.product(field.elements(), repeat=family.n):
            if gf.rank(field, gi + [list(u)]) == k:
                continue
            count = sum(1 for j, gj in enumerate(gens)
                        if j != i and gf.rank(field, gi + gj + [list(u)])
                        == sum_rank[i, j])
            worst = max(worst, count)
    return worst


def _full_rank(field, rows, n, k):
    """k independent rows: rows first, then unit vectors, in order."""
    units = [[int(c == t) for c in range(n)] for t in range(n)]
    picked = []
    for row in rows + units:
        if len(picked) < k and gf.rank(field, picked + [row]) > len(picked):
            picked.append(row)
    return picked


@settings(max_examples=100)
@given(st.data())
def test_coset_count_matches_rank_brute_force(data):
    # repeated and intersecting subspaces, where the rows reduced modulo
    # S_i are dependent and the old 2k-rank test miscounted
    q = data.draw(st.sampled_from([2, 3, 4, 5]))
    k = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(k + 1, 4))
    field = gf.field_q(q, 1)
    word = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    gens = []
    for _ in range(data.draw(st.integers(2, 6))):
        if gens and data.draw(st.booleans()):
            gens.append(data.draw(st.sampled_from(gens)))
        else:
            rows = data.draw(st.lists(word, min_size=k, max_size=k))
            gens.append(_full_rank(field, rows, n, k))
    family = aad.AadFamily(field, n, k, gens)
    worst = _smallest_l_by_rank(family)
    for l_bound in range(max(worst - 1, 0), worst + 2):
        exhaustive = aad.verify_aad(family, l_bound)
        assert exhaustive == (l_bound >= worst)
        sample = aad.verify_aad(family, l_bound, mode="sample", samples=20,
                                rng=bench.SplitMix64(l_bound))
        assert sample or not exhaustive


def test_duplicate_subspaces_agree_in_both_modes():
    # u + S_0 never meets S_1 = S_0 for u outside S_0; sample mode used to
    # count S_1 by rank(S_0 + S_1 + [u]) == 2k and return False
    fam = aad.AadFamily(gf.field(5, 1, 1), 4, 1,
                        [[[1, 0, 0, 0]], [[1, 0, 0, 0]]])
    assert aad.verify_aad(fam, 0)
    assert aad.verify_aad(fam, 0, mode="sample", samples=50,
                          rng=bench.SplitMix64(1))


def test_sample_mode_rejects_whole_space():
    # with k = n no u lies outside S_i, and the draw loop never ended
    whole = aad.AadFamily(gf.field(5, 1, 1), 1, 1, [[[1]], [[2]]])
    assert aad.verify_aad(whole, 0)
    with pytest.raises(ValueError, match="k < n"):
        aad.verify_aad(whole, 0, mode="sample", samples=5,
                       rng=bench.SplitMix64(1))


@settings(max_examples=100)
@given(st.data())
def test_reducer_kernel_is_the_row_span(data):
    field = data.draw(st.sampled_from((gf.field(5, 1, 1), gf.field(2, 1, 2),
                                       gf.field(3, 1, 2))), label="field")
    n = data.draw(st.integers(1, 4), label="n")
    vec = st.lists(st.integers(0, field.order - 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(vec, min_size=1, max_size=3), label="rows")
    # the sum of the first and last rows makes the rows dependent
    if data.draw(st.booleans(), label="dependent"):
        rows.append([field.add(a, b) for a, b in zip(rows[0], rows[-1])])
    reduce = aad._reducer(field, rows)
    free = n - gf.rank(field, rows)
    assert {reduce(w) for w in gf.span(field, rows)} == {(0,) * free}
    # and only span(rows): one name per coset
    names = {reduce(u) for u in itertools.product(field.elements(), repeat=n)}
    assert len(names) == field.order ** free


@pytest.mark.parametrize("family", [aad.construct(4, 1, 5),
                                    _negative_control_family()],
                         ids=["construct-4-1-5", "negative-control"])
def test_exhaustive_agrees_with_rank_oracle(family):
    smallest = _smallest_l_by_rank(family)
    for l_bound in range(smallest + 1):
        assert aad.verify_aad(family, l_bound) == (l_bound == smallest)


def test_construction_size_vs_upper_bound_grid():
    points = 0
    for n, k in ((4, 1), (5, 1), (6, 1), (7, 1), (5, 2), (6, 2), (7, 2),
                 (8, 2), (9, 2), (10, 2)):
        q = gf.next_prime_power(n * k)
        upper, _ = aad.bounds(n, k, aad.guaranteed_l(n, k), q)
        assert q ** (n - 2 * k) <= upper
        points += 1
    assert points == 10


def test_upper_bound_l_zero_and_monotone():
    upper0, _ = aad.bounds(5, 1, 0, 7)
    assert upper0 == 1
    prev = upper0
    for l_bound in range(1, 6):
        upper, _ = aad.bounds(5, 1, l_bound, 7)
        assert upper > prev
        prev = upper


def test_parameter_windows():
    with pytest.raises(ValueError):
        aad.construct(4, 2, 11)      # n <= 2k
    with pytest.raises(ValueError):
        aad.construct(5, 2, 7)       # q < nk
    with pytest.raises(ValueError):
        aad.construct(7, 3, 23)      # k >= 3 not constructed
    with pytest.raises(ValueError):
        aad.verify_aad(aad.construct(5, 2, 31), 5)  # 31^5 > 2^22 guard
