import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from skewcodes import bench, gf, lrs, metric, support

import oracles
from oracles import (anchored_surplus, exhaustive_min_total,
                     gm_check_exhaustive, pad_pattern)

TOY = support.NetworkInstance(
    lengths=[1, 3, 2, 3],
    access=[{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}],
    t=2, rho=2, ell=3)


def toy_pattern():
    # rows grouped by message (1, 3, 2, 3), columns by source (6, 7, 2, 8)
    lengths = {frozenset({1, 2, 3}): 6, frozenset({1, 2, 4}): 7,
               frozenset({1, 3, 4}): 2, frozenset({2, 3, 4}): 8}
    return support.design_pattern(TOY, lengths)


def test_gm_check_empty_ok():
    pattern = support.ZeroPattern(5, [set(), set(), set()])
    assert support.gm_check(pattern) is None


def test_gm_check_duplicate_full_rows_violate():
    for k in (2, 3, 5):
        zeros = [set(range(1, k))] * 2 + [set()] * (k - 2)
        pattern = support.ZeroPattern(k + 2, zeros)
        assert support.gm_check(pattern) == [1, 2]


def test_gm_check_monotone():
    rng = random.Random(0)
    for _ in range(60):
        n, k = 8, 4
        zeros = [set(rng.sample(range(1, n + 1), rng.randrange(0, k)))
                 for _ in range(k)]
        pattern = support.ZeroPattern(n, zeros)
        if support.gm_check(pattern) is not None:
            grown = [set(z) | {rng.randrange(1, n + 1)} for z in zeros]
            assert support.gm_check(support.ZeroPattern(n, grown)) is not None


def test_gm_check_flow_matches_subset_oracle():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randrange(2, 8)
        k = rng.randrange(1, 6)
        zeros = [set(rng.sample(range(1, n + 1), rng.randrange(0, n + 1)))
                 for _ in range(k)]
        pattern = support.ZeroPattern(n, zeros)
        got = support.gm_check(pattern)
        want = gm_check_exhaustive(pattern)
        assert (got is None) == (want is None)
        if got is not None:
            inter = set(range(1, n + 1))
            for i in got:
                inter &= set(pattern.zeros[i - 1])
            assert len(inter) + len(got) > pattern.k


@settings(max_examples=300)
@given(st.data())
def test_gm_check_rows_and_ktilde_match_brute_force(data):
    # gm_check names the least Omega that contains the first violating
    # anchor and minimizes |union of Y_i| - |Omega|, Y_i = [n] \ Z_i; this
    # is the CLI's violating_rows, so it must not depend on the flow's paths
    n = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(1, 5))
    zeros = data.draw(st.lists(st.sets(st.integers(1, n)), min_size=k,
                               max_size=k))
    pattern = support.ZeroPattern(n, zeros)
    full = set(range(1, n + 1))
    subsets = [set(omega) for size in range(1, k + 1)
               for omega in itertools.combinations(range(1, k + 1), size)]

    def surplus(omega):
        return len(set().union(*(full - pattern.zeros[i - 1]
                                 for i in omega))) - len(omega)

    want = None
    for anchor in range(1, k + 1):
        anchored = [omega for omega in subsets if anchor in omega]
        least = min(surplus(omega) for omega in anchored)
        if least < n - k:
            minimizers = [omega for omega in anchored
                          if surplus(omega) == least]
            least_set = set.intersection(*minimizers)
            assert least_set in minimizers   # minimizers are closed under &
            want = sorted(least_set)
            break
    assert support.gm_check(pattern) == want
    assert support.ktilde(pattern) == max(n - surplus(omega)
                                          for omega in subsets)


def test_ktilde_flow_matches_subset_maximum():
    rng = random.Random(98)
    for _ in range(80):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, 5)
        zeros = [set(rng.sample(range(1, n + 1), rng.randrange(0, n + 1)))
                 for _ in range(k)]
        pattern = support.ZeroPattern(n, zeros)
        best = 0
        for size in range(1, k + 1):
            for omega in itertools.combinations(range(k), size):
                inter = set(range(1, n + 1))
                for i in omega:
                    inter &= set(zeros[i])
                best = max(best, len(inter) + size)
        assert support.ktilde(pattern) == best


def test_toy_pattern_satisfies_gm():
    pattern = toy_pattern()
    assert pattern.k == 9 and pattern.n == 23
    assert support.gm_check(pattern) is None
    assert support.ktilde(pattern) == 9


def test_ktilde_examples():
    ok = support.ZeroPattern(6, [{1}, {2}, {3}])
    assert support.ktilde(ok) == 3      # pattern satisfying GM: ktilde = k
    bad = support.ZeroPattern(6, [{1}, {1}])
    assert support.ktilde(bad) == 3     # Z_1 = Z_2 = {1}, k = 2 -> 3


def test_pad_pattern():
    n, k = 8, 4
    empty = support.ZeroPattern(n, [set() for _ in range(k)])
    padded = support.pad_pattern(empty)
    assert all(len(z) == k - 1 for z in padded.zeros)
    assert support.gm_check(padded) is None
    # already-full patterns are unchanged; padding never removes indices
    again = support.pad_pattern(padded)
    assert again.zeros == padded.zeros
    partial = support.ZeroPattern(n, [{1}, {2}, {3}, set()])
    grown = support.pad_pattern(partial)
    for old, new in zip(partial.zeros, grown.zeros):
        assert old <= new
    # GM holds, but two rows cannot both hold the one column of n = 1
    with pytest.raises(ValueError, match="k <= n = 1"):
        support.pad_pattern(support.ZeroPattern(1, [set(), set()]))


def _pad_outcome(pad, pattern):
    try:
        return pad(pattern).zeros
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400)
@given(st.data())
def test_pad_pattern_matches_per_candidate_flows(data):
    # one kept max flow per row decides every candidate as a fresh max flow
    # does: the same padded zeros, or the same error
    n = data.draw(st.integers(1, 8), label="n")
    k = data.draw(st.integers(0, n + 1), label="k")
    zeros = data.draw(st.lists(st.sets(st.integers(1, n),
                                       max_size=max(k - 1, 0)),
                               min_size=k, max_size=k), label="zeros")
    pattern = support.ZeroPattern(n, zeros)
    got = _pad_outcome(support.pad_pattern, pattern)
    assert got == _pad_outcome(pad_pattern, pattern)
    if not isinstance(got, str):
        assert support.gm_check(support.ZeroPattern(n, got)) is None


def test_pad_pattern_matches_oracle_on_design_patterns():
    # larger than the random ones: designer patterns with the empty rows
    # that build_subcode_generator adds up to ktilde
    patterns = [toy_pattern()]
    for lengths, access in (([1, 3, 2, 3], TOY.access),
                            ([2, 1], [{1}, {2}, {1, 2}])):
        inst = support.NetworkInstance(lengths, access, t=1, rho=1, ell=2)
        source_lengths, _ = support.solve_source_lengths(inst)
        pattern = support.design_pattern(inst, source_lengths)
        patterns.append(support.ZeroPattern(
            pattern.n, list(pattern.zeros)
            + [set()] * (support.ktilde(pattern) - pattern.k)))
    for pattern in patterns:
        assert (_pad_outcome(support.pad_pattern, pattern)
                == _pad_outcome(pad_pattern, pattern))


@settings(max_examples=400)
@given(st.data())
def test_anchored_surplus_matches_max_flow(data):
    # the matching gives the flow's surplus and the least minimizing Omega
    n = data.draw(st.integers(1, 9), label="n")
    k = data.draw(st.integers(1, 7), label="k")
    zeros = data.draw(st.lists(st.sets(st.integers(1, n)),
                               min_size=k, max_size=k), label="zeros")
    for anchor in range(k):
        assert (support._anchored_surplus(zeros, n, anchor)
                == anchored_surplus(zeros, n, anchor))


def test_anchored_surplus_matches_max_flow_on_design_patterns():
    pattern = toy_pattern()
    zeros = list(pattern.zeros) + [frozenset(), {1, 2, 3}]
    for anchor in range(len(zeros)):
        assert (support._anchored_surplus(zeros, pattern.n, anchor)
                == anchored_surplus(zeros, pattern.n, anchor))


def test_field_size_bound():
    assert support.field_size_bound(1, 4, (3, 2)) == 3     # k=1: max n_l
    assert support.field_size_bound(9, 4, (8, 7, 8)) == 9  # toy ell = 3
    assert support.field_size_bound(9, 2, (15,)) == 15     # toy ell = 1
    with pytest.raises(ValueError):
        support.field_size_bound(3, 3, (2, 2, 2))          # q <= ell


def test_constrained_generator_tiny():
    # k=2, Z_1={1}, Z_2={2}, [3,2] LRS over F_{3^2}
    fld = gf.field(3, 1, 2)
    spec = lrs.default_spec(fld, (2, 1), 2)
    pattern = support.ZeroPattern(3, [{1}, {2}])
    result = support.build_constrained_generator(spec, pattern,
                                                 random.Random(1))
    g = result.generator
    for i, row in enumerate(g):
        zeros = {j + 1 for j, x in enumerate(row) if x == 0}
        assert zeros == set(result.pattern.zeros[i])
        assert set(pattern.zeros[i]) <= zeros
    # T invertible and row spaces agree: <G> = <G_LRS>
    assert gf.rank(fld, result.t_matrix) == 2
    stacked = g + lrs.generator_matrix(result.spec)
    assert gf.rank(fld, stacked) == 2


def _singular_default_case():
    # the default multipliers give a singular T for this pattern
    spec = lrs.default_spec(gf.field(3, 1, 3), (3, 3), 3)
    return spec, support.ZeroPattern(6, [{2, 3}, {4, 5}, {6}])


def test_constrained_generator_resamples_singular_transform():
    spec, pattern = _singular_default_case()
    for seed in (1, 2, 3):
        result = support.build_constrained_generator(spec, pattern,
                                                     bench.SplitMix64(seed))
        assert result.attempts >= 2
        assert result.spec.multipliers != spec.multipliers
        assert gf.rank(spec.field, result.t_matrix) == 3
        for i, row in enumerate(result.generator):
            zeros = {j + 1 for j, x in enumerate(row) if x == 0}
            assert zeros == set(result.pattern.zeros[i])
            assert set(pattern.zeros[i]) <= zeros


def test_constrained_generator_gives_up_after_max_resamples(monkeypatch):
    spec, pattern = _singular_default_case()
    specs = []
    monkeypatch.setattr(support, "_try_build",
                        lambda spec, padded: specs.append(spec))
    with pytest.raises(RuntimeError, match=f"after {support.MAX_RESAMPLES} "
                       "multiplier resamples"):
        support.build_constrained_generator(spec, pattern, random.Random(0))
    assert len(specs) == support.MAX_RESAMPLES
    assert specs[0] is spec


def test_constrained_generator_rejects_gm_violation():
    fld = gf.field(3, 1, 2)
    spec = lrs.default_spec(fld, (2, 1), 2)
    bad = support.ZeroPattern(3, [{1}, {1}])
    with pytest.raises(ValueError):
        support.build_constrained_generator(spec, bad)


def test_subcode_generator_distance():
    # Z_1 = Z_2 = {1} with k = 2 -> ktilde = 3; subcode distance
    # >= n - ktilde + 1, brute-forced on a tiny instance
    fld = gf.field(3, 1, 3)
    pattern = support.ZeroPattern(4, [{1}, {1}])
    kt = support.ktilde(pattern)
    assert kt == 3
    spec = lrs.default_spec(fld, (3, 1), kt)
    gen, _ = support.build_subcode_generator(pattern, spec, random.Random(2))
    for i, row in enumerate(gen):
        for j in pattern.zeros[i]:
            assert row[j - 1] == 0
    d = metric.min_distance_bruteforce(fld, gen, metric.SUMRANK,
                                       spec.partition)
    assert d >= pattern.n - kt + 1


def test_subcode_generator_rejects_other_dimension():
    pattern = support.ZeroPattern(4, [{1}, {1}])
    spec = lrs.default_spec(gf.field(3, 1, 3), (3, 1), 2)
    with pytest.raises(ValueError, match="spec dimension must be ktilde = 3"):
        support.build_subcode_generator(pattern, spec, random.Random(2))


def test_distributed_design_computes_ktilde_once(monkeypatch):
    calls = []

    def counted(pattern):
        calls.append(pattern)
        return ktilde(pattern)

    ktilde = support.ktilde
    monkeypatch.setattr(support, "ktilde", counted)
    inst = support.NetworkInstance(TOY.lengths, TOY.access, TOY.t, TOY.rho,
                                   ell=1)
    res = support.distributed_design(inst, random.Random(4))
    assert len(calls) == 1
    assert res.ktilde == ktilde(res.pattern) == res.spec.k


def test_solver_matches_exhaustive_oracle():
    rng = random.Random(3)
    for _ in range(12):
        h = rng.randrange(2, 5)
        lengths = [rng.randrange(1, 3) for _ in range(h)]
        access = []
        for _ in range(rng.randrange(2, 4)):
            size = rng.randrange(1, h + 1)
            access.append(set(rng.sample(range(1, h + 1), size)))
        # ensure every message is covered so the instance is feasible
        for msg in range(1, h + 1):
            if not any(msg in a for a in access):
                access[rng.randrange(len(access))].add(msg)
        inst = support.NetworkInstance(lengths, access, t=1, rho=1,
                                       ell=rng.randrange(1, 3))
        _, n = support.solve_source_lengths(inst)
        assert n == exhaustive_min_total(inst)


def random_network(rng):
    """An instance with h <= 7, s <= 6, ell <= 4 and t, rho <= 2; about a
    fifth of them leave some message uncovered."""
    h = rng.randrange(1, 8)
    access = [rng.sample(range(1, h + 1), rng.randrange(1, h + 1))
              for _ in range(rng.randrange(1, 7))]
    return support.NetworkInstance(
        [rng.randrange(1, 3) for _ in range(h)], access, t=rng.randrange(3),
        rho=rng.randrange(3), ell=rng.randrange(1, 5))


def solver_outcome(solve, instance):
    """(the assignment's items in dict order, total), or the subset and
    message of the InfeasibleDesign raised."""
    try:
        assignment, total = solve(instance)
    except support.InfeasibleDesign as exc:
        return "infeasible", exc.subset, str(exc)
    return list(assignment.items()), total


def test_solver_matches_two_family_reference():
    # the reference scans every row of both constraint families at every
    # node; one row per touch must give the same optimum, order and errors
    rng = random.Random(1)
    infeasible = 0
    for _ in range(1500):
        inst = random_network(rng)
        got = solver_outcome(support.solve_source_lengths, inst)
        assert got == solver_outcome(oracles.solve_source_lengths, inst)
        infeasible += got[0] == "infeasible"
    assert 200 < infeasible < 500


def test_solver_matches_two_family_reference_at_h_12():
    inst = support.NetworkInstance(
        [1, 3, 1, 2, 1, 2, 2, 2, 3, 2, 1, 1],
        [{1, 2, 3, 6, 7, 8, 11, 12}, {1, 2, 3, 4, 5, 6, 8, 9, 10, 11},
         {1, 4, 7, 9}, {2, 4, 6, 8, 9, 10, 11, 12}, {1, 2, 3, 7, 9}],
        t=2, rho=2, ell=3)
    assert len(oracles.covering_rows(inst)) == 8190
    assert len(support._covering_rows(inst)) == 13
    got = solver_outcome(support.solve_source_lengths, inst)
    assert got == solver_outcome(oracles.solve_source_lengths, inst)
    assert [n for _, n in got[0]] == [13, 17, 3, 2, 0] and got[1] == 35


def test_covering_rows_keep_one_row_per_touch():
    # the benchmark's GF(7^11) instance: any two messages meet all four
    # sources, and message i alone meets the three sources that hold it
    inst = support.NetworkInstance(TOY.lengths, TOY.access, TOY.t, TOY.rho,
                                   ell=5)
    extra = 2 * 5 * 2 + 2
    assert support._covering_rows(inst) == {
        (0, 1, 2): 1 + extra, (0, 1, 3): 3 + extra,
        (0, 1, 2, 3): 9 + extra, (0, 2, 3): 2 + extra,
        (1, 2, 3): 3 + extra}
    assert len(oracles.covering_rows(inst)) == 30


def test_infeasible_reports_subset():
    inst = support.NetworkInstance([1, 1], [{1}], t=1, rho=0, ell=1)
    with pytest.raises(support.InfeasibleDesign) as err:
        support.solve_source_lengths(inst)
    assert 2 in err.value.subset


def test_split_blocks():
    assert support.split_blocks(23, 3) == (8, 7, 8)
    assert support.split_blocks(19, 2) == (10, 9)
    assert support.split_blocks(15, 1) == (15,)
    assert support.split_blocks(33, 1) == (33,)
    assert sum(support.split_blocks(43, 7)) == 43


def test_all_design_table_rows():
    # every printed row of both parameter tables: the toy access structure
    # for ell = 1..7 plus two alternative access structures for ell = 1..3
    toy_access = [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]
    pair_access = [{1, 2}, {1, 3}, {2, 4}, {3, 4}]
    single_access = [{1}, {2}, {3}, {4}]
    rows = [
        (toy_access, 1, (15, 9, 7, 2, 15)),
        (toy_access, 2, (19, 9, 11, 3, 10)),
        (toy_access, 3, (23, 9, 15, 4, 9)),
        (toy_access, 4, (27, 9, 19, 5, 9)),
        (toy_access, 5, (33, 11, 23, 7, 11)),
        (toy_access, 6, (38, 12, 27, 7, 12)),
        (toy_access, 7, (43, 13, 31, 8, 13)),
        (single_access, 1, (33, 27, 7, 2, 33)),
        (single_access, 2, (49, 39, 11, 3, 39)),
        (single_access, 3, (65, 51, 15, 4, 51)),
        (pair_access, 1, (17, 11, 7, 2, 17)),
        (pair_access, 2, (25, 15, 11, 3, 15)),
        (pair_access, 3, (33, 19, 15, 4, 19)),
    ]
    for access, ell, want in rows:
        inst = support.NetworkInstance([1, 3, 2, 3], access, t=2, rho=2,
                                       ell=ell)
        lengths, n = support.solve_source_lengths(inst)
        kt = support.ktilde(support.design_pattern(inst, lengths))
        d = 2 * ell * inst.t + inst.rho + 1
        q = gf.next_prime_power(ell + 1)
        m = support.field_size_bound(kt, q, support.split_blocks(n, ell))
        assert (n, kt, d, q, m) == want, (access, ell)


def test_toy_design_rows_ell_1_and_2():
    for ell, want_n, want_d, want_q, want_m in ((1, 15, 7, 2, 15),
                                                (2, 19, 11, 3, 10)):
        inst = support.NetworkInstance(TOY.lengths, TOY.access, TOY.t,
                                       TOY.rho, ell)
        lengths, n = support.solve_source_lengths(inst)
        assert n == want_n
        kt = support.ktilde(support.design_pattern(inst, lengths))
        assert kt == 9
        d = 2 * ell * inst.t + inst.rho + 1
        assert d == want_d
        blocks = support.split_blocks(n, ell)
        q = gf.next_prime_power(ell + 1)
        assert q == want_q
        assert support.field_size_bound(kt, q, blocks) == want_m


def test_lift_shapes_and_zero_blocks():
    fld = gf.field(2, 1, 3)
    blocks = [[0, 0], [0]]
    x = support.lift(fld, blocks)
    n, m = 3, 3
    assert len(x) == n and len(x[0]) == n + m
    for i, row in enumerate(x):
        assert row[:n] == [1 if j == i else 0 for j in range(n)]
        assert all(v == 0 for v in row[n:])
    # nonzero payload appears for nonzero codewords
    y = support.lift(fld, [[fld.gamma, 1], [3]])
    assert any(any(v for v in row[n:]) for row in y)


def test_lift_error_sumrank_bound():
    # wt_SR of a rank <= t error is at most ell * t for any row partition
    rng = random.Random(4)
    base = gf.field(2, 1, 1)
    for _ in range(30):
        bign, m, t, ell = 6, 3, 2, 3
        a = [[rng.randrange(2) for _ in range(t)] for _ in range(bign)]
        b = [[rng.randrange(2) for _ in range(m)] for _ in range(t)]
        err = gf.mat_mul(base, a, b)    # rank <= t
        part = metric.OrderedPartition((2, 2, 2))
        total = 0
        start = 0
        for p in part.parts:
            total += gf.rank(base, err[start:start + p])
            start += p
        assert total <= ell * t
