import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from skewcodes import gf, metric

import oracles

F4 = gf.field(2, 1, 2)
F16 = gf.field(2, 2, 2)
F9 = gf.field(3, 1, 2)


def test_zero_weight_every_metric():
    part = metric.OrderedPartition((2, 2))
    zero = [0, 0, 0, 0]
    assert metric.weight(F16, zero, metric.HAMMING) == 0
    assert metric.weight(F16, zero, metric.RANK) == 0
    assert metric.weight(F16, zero, metric.SUMRANK, part) == 0


def test_sumrank_with_unit_blocks_is_hamming():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(1, 7)
        vec = [rng.randrange(F16.order) for _ in range(n)]
        part = metric.OrderedPartition((1,) * n)
        assert metric.weight(F16, vec, metric.SUMRANK, part) == \
            metric.weight(F16, vec, metric.HAMMING)


def test_weight_ordering_rank_sumrank_hamming():
    rng = random.Random(1)
    for _ in range(1000):
        n = rng.randrange(2, 8)
        vec = [rng.randrange(F9.order) for _ in range(n)]
        cuts = sorted(rng.sample(range(1, n), rng.randrange(0, n - 1)))
        parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        part = metric.OrderedPartition(parts)
        wr = metric.weight(F9, vec, metric.RANK)
        ws = metric.weight(F9, vec, metric.SUMRANK, part)
        wh = metric.weight(F9, vec, metric.HAMMING)
        assert wr <= ws <= wh


def test_partition_mismatch_raises():
    with pytest.raises(ValueError):
        metric.weight(F16, [1, 2, 3], metric.SUMRANK,
                      metric.OrderedPartition((2, 2)))


def test_min_distance_full_code():
    f4 = F4
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert metric.min_distance_bruteforce(f4, ident) == 1


def test_min_distance_grs_32_over_f4():
    # [3,2] GRS over F_4: generator from two rows of locator powers
    fld = F4
    locs = [1, fld.gamma, fld.mul(fld.gamma, fld.gamma)]
    gen = [[1, 1, 1], locs]
    assert metric.min_distance_bruteforce(fld, gen) == 2


def test_min_distance_rejects_no_rows():
    # used to return None: the code {0} has no nonzero codeword
    with pytest.raises(ValueError, match="no generator rows"):
        metric.min_distance_bruteforce(F4, [])


def test_min_distance_dependent_rows_is_zero():
    # a nonzero message that encodes to the zero word has weight 0
    assert metric.min_distance_bruteforce(F4, [[1, 1], [0, 0]]) == 0
    assert metric.min_distance_bruteforce(F4, [[0, 0]]) == 0
    assert metric.min_distance_bruteforce(F4, [[1, 0, 0], [0, 1, 1],
                                               [1, 1, 1]]) == 0


def _min_distance_oracle(field, rows, metric_name, partition):
    """Minimum weight over the words of every nonzero message, not only of
    the projective ones."""
    best = None
    for msg in itertools.product(field.elements(), repeat=len(rows)):
        if not any(msg):
            continue
        word = [0] * len(rows[0])
        for c, row in zip(msg, rows):
            if c:
                for j, g in enumerate(row):
                    word[j] = field.add(word[j], field.mul(c, g))
        w = metric.weight(field, word, metric_name, partition)
        if best is None or w < best:
            best = w
    return best


@settings(max_examples=60)
@given(st.data())
def test_min_distance_projective_matches_full_enumeration(data):
    fld = data.draw(st.sampled_from((F4, gf.field(2, 1, 3), F9, F16)))
    name = data.draw(st.sampled_from((metric.HAMMING, metric.RANK,
                                      metric.SUMRANK)))
    k = data.draw(st.integers(1, 3 if fld.order < 9 else 2))
    n = data.draw(st.integers(1, 5))
    vec = st.lists(st.integers(0, fld.order - 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(vec, min_size=k, max_size=k))
    part = None
    if name == metric.SUMRANK:
        cuts = data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
        bounds = [0] + sorted(cuts) + [n]
        part = metric.OrderedPartition(tuple(b - a for a, b in
                                             zip(bounds, bounds[1:])))
    assert metric.min_distance_bruteforce(fld, rows, name, part) == \
        _min_distance_oracle(fld, rows, name, part)


def test_q_binomial_basics():
    assert metric.q_binomial(5, 0, 2) == 1
    assert metric.q_binomial(2, 1, 2) == 3
    # subspace count by brute force for F_2^3, dim 1: 7 lines
    assert metric.q_binomial(3, 1, 2) == 7


def test_rank_ball_tau1_enumerated():
    # 2x2 binary matrices of rank <= 1: 1 + [2 1]_2 (2^2 - 1) = 10
    assert metric.rank_ball(2, 2, 1, 2) == 10
    fld = gf.field(2, 1, 2)
    count = 0
    for vec in itertools.product(fld.elements(), repeat=2):
        if metric.weight(fld, list(vec), metric.RANK) <= 1:
            count += 1
    assert count == 10


def test_ball_monotone_and_full():
    part = metric.OrderedPartition((2, 1))
    prev = 0
    for r in range(4):
        b = metric.sumrank_ball(part, 2, r, 2)
        assert b >= prev
        prev = b
    assert metric.sumrank_ball(part, 2, 3, 2) == 2 ** (2 * 3)
    assert metric.hamming_ball(4, 4, 3) == 3 ** 4
    assert metric.rank_ball(2, 3, 2, 2) == 2 ** 6


def test_sumrank_ball_unit_blocks_matches_hamming():
    for n in range(1, 5):
        part = metric.OrderedPartition((1,) * n)
        for m in (1, 2, 3):
            for r in range(n + 1):
                assert metric.sumrank_ball(part, m, r, 2) == \
                    metric.hamming_ball(n, r, 2 ** m)


def test_sumrank_ball_exhaustive_small():
    fld = F9
    part = metric.OrderedPartition((2, 1))
    for r in range(4):
        count = sum(
            1 for vec in itertools.product(fld.elements(), repeat=3)
            if metric.weight(fld, list(vec), metric.SUMRANK, part) <= r)
        assert count == metric.sumrank_ball(part, 2, r, 3)


def test_classical_bounds_hamming():
    reports = {r.name: r.value for r in
               metric.classical_bounds(metric.HAMMING, 7, 3, 2)}
    assert reports["sphere_packing"] == 16          # perfect Hamming code
    assert reports["singleton"] == 2 ** 5
    reports_d1 = {r.name: r.value for r in
                  metric.classical_bounds(metric.HAMMING, 5, 1, 3)}
    assert reports_d1["singleton"] == 3 ** 5


def test_classical_bounds_sumrank_toy():
    part = metric.OrderedPartition((8, 7, 8))
    reports = {r.name: r.value for r in
               metric.classical_bounds(metric.SUMRANK, 23, 15, 4, 9, part)}
    # Singleton: k <= n - d + 1, i.e. 15 <= 23 - 9 + 1 holds for the toy code
    assert reports["singleton"] == 4 ** (9 * (23 - 15 + 1))
    assert 15 <= 23 - 9 + 1


def test_gv_le_max_size_le_sphere_packing_tiny():
    # exhaustive max code size for n <= 4, q = 2 in the Hamming metric
    import math as m
    for n in range(2, 5):
        for d in range(1, n + 1):
            words = list(itertools.product(range(2), repeat=n))
            best = 1
            # greedy-complete search over cliques is expensive; use the exact
            # search on the small space
            def extend(chosen, rest):
                nonlocal best
                best = max(best, len(chosen))
                for i, w in enumerate(rest):
                    if all(sum(a != b for a, b in zip(w, c)) >= d
                           for c in chosen):
                        extend(chosen + [w], rest[i + 1:])
            extend([words[0]], words[1:])
            reports = {r.name: r.value for r in
                       metric.classical_bounds(metric.HAMMING, n, d, 2)}
            assert reports["gilbert_varshamov"] <= best
            assert best <= reports["sphere_packing"]


def test_classical_bounds_reject_bad_q_and_partition():
    for name in (metric.HAMMING, metric.RANK):
        with pytest.raises(ValueError, match="q = 6 is not a prime power"):
            metric.classical_bounds(name, 8, 3, 6)
    with pytest.raises(ValueError, match=r"\[4, 3\] sums to 7, not n = 8"):
        metric.classical_bounds(metric.SUMRANK, 8, 3, 2, 4,
                                metric.OrderedPartition((4, 3)))


def test_ball_guard():
    # ell * radius = 42 was refused by the composition enumeration's guard
    part = metric.OrderedPartition((3,) * 21)
    assert metric.sumrank_ball(part, 2, 2, 2) == \
        oracles.sumrank_ball(part, 2, 2, 2)


@settings(max_examples=150)
@given(st.data())
def test_sumrank_ball_matches_composition_oracle(data):
    parts = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    part = metric.OrderedPartition(tuple(parts))
    m = data.draw(st.integers(1, 5))
    q = data.draw(st.sampled_from((2, 3, 4, 5)))
    radius = data.draw(st.integers(0, part.n + 1))
    assert metric.sumrank_ball(part, m, radius, q) == \
        oracles.sumrank_ball(part, m, radius, q)


def test_sumrank_bounds_hold_for_lrs_shapes():
    # an LRS code of ell <= q - 1 blocks of length n_l <= m exists for every
    # d and is MSRD, so it has q^(m(n - d + 1)) words: a ball counted too
    # large can put that size above sphere-packing, one too small GV above
    # Singleton
    rng = random.Random(29)
    names = ["singleton", "sphere_packing", "gilbert_varshamov"]
    past_old_guard = 0
    for _ in range(400):
        q = rng.choice((2, 3, 4, 5, 7, 8, 9, 16))
        m = rng.randint(1, 5)
        part = metric.OrderedPartition(tuple(
            rng.randint(1, m) for _ in range(rng.randint(1, q - 1))))
        for d in range(1, part.n + 1):
            reports = metric.classical_bounds(metric.SUMRANK, part.n, d, q,
                                              m, part)
            assert [r.name for r in reports] == names
            singleton, sphere, gv = (r.value for r in reports)
            assert q ** (m * (part.n - d + 1)) <= sphere
            assert gv <= singleton and gv <= sphere
            past_old_guard += part.ell * (d - 1) > 40
    # 678 of the 2,450 cases lie past the old guard ell * (d - 1) <= 40
    assert past_old_guard == 678


def test_bound_report_log10():
    r = metric.BoundReport("singleton", metric.Fraction(10 ** 50))
    assert abs(r.log10 - 50.0) < 1e-9


def test_rank_ball_matches_rank_q_count():
    # every vector of F_{2^m}^n, counted by its F_2-rank
    for m in (1, 2, 3):
        fld = gf.field(2, 1, m)
        for n in (1, 2, 3):
            ranks = [gf.rank_q(fld, list(vec))
                     for vec in itertools.product(fld.elements(), repeat=n)]
            for radius in range(n + 2):
                assert metric.rank_ball(n, m, radius, 2) == \
                    sum(1 for r in ranks if r <= radius)


def test_classical_bounds_rank():
    for q in (2, 3, 4):
        for m in range(1, 5):
            for n in range(1, 6):
                for d in range(1, n + 1):
                    reports = metric.classical_bounds(metric.RANK, n, d, q, m)
                    values = {r.name: r.value for r in reports}
                    assert list(values) == ["singleton", "sphere_packing",
                                            "gilbert_varshamov"]
                    # MRD size q^(max(n,m)(min(n,m) - d + 1)); one word
                    # past d = min(n, m)
                    k = min(n, m) - d + 1
                    assert values["singleton"] == \
                        (q ** (max(n, m) * k) if k >= 1 else 1)
                    gv = values["gilbert_varshamov"]
                    assert gv <= values["sphere_packing"]
                    assert gv <= values["singleton"]
