import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import event, given, settings, strategies as st

from skewcodes import gf, grscode, ildec

from oracles import locator_roots, mat_vec, solve

F8 = gf.field(2, 1, 3)
F32 = gf.field(2, 1, 5)
F64 = gf.field(2, 3, 2)     # q = 8, m = 2


def add_rows(field, a, b):
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def random_codeword_rows(field, spec, s, rng):
    gen = grscode.generator_matrix(spec)
    rows = []
    for _ in range(s):
        word = [0] * spec.n
        for row in gen:
            c = rng.randrange(field.order)
            if c:
                for j, g in enumerate(row):
                    word[j] = field.add(word[j], field.mul(c, g))
        rows.append(word)
    return rows


def _combinations(fld, basis, count, rng):
    """count random nonzero combinations of the basis columns."""
    columns = []
    while len(columns) < count:
        col = [0] * len(basis[0])
        for b in basis:
            c = rng.randrange(fld.order)
            col = [fld.add(x, fld.mul(c, y)) for x, y in zip(col, b)]
        if any(col):
            columns.append(col)
    return columns


def test_sample_burst_full_support_and_nonzero_columns():
    rng = random.Random(0)
    err = ildec.sample_burst(F8, 2, 5, 5, rng)
    assert err.support == [1, 2, 3, 4, 5]
    for _ in range(2000):
        err = ildec.sample_burst(F8, 2, 6, 3, rng)
        assert len(err.support) == 3
        assert all(any(col) for col in err.columns)


def test_sample_burst_fixed_support():
    # il-sim --support-mode fixed passes the support 1..t
    rng = random.Random(3)
    for t in range(1, 6):
        err = ildec.sample_burst(F8, 2, 6, t, rng,
                                 support=list(range(t, 0, -1)))
        assert err.support == list(range(1, t + 1))
        assert len(err.columns) == t and all(any(c) for c in err.columns)
    with pytest.raises(ValueError, match="support size must equal t"):
        ildec.sample_burst(F8, 2, 6, 3, rng, support=[1, 2])


def test_sample_burst_subfield_draws_index_the_base_elements():
    # base_elements() is range(q), so a draw below q is the element drawn
    # by indexing them
    for seed in range(20):
        got = ildec.sample_burst(F64, 3, 9, 4, random.Random(seed),
                                 subfield=True)
        rng, alphabet, columns = random.Random(seed), F64.base_elements(), []
        rng.sample(range(1, 10), 4)
        while len(columns) < 4:
            col = [alphabet[rng.randrange(len(alphabet))] for _ in range(3)]
            if any(col):
                columns.append(col)
        assert got.columns == columns
        assert all(x < F64.q for col in got.columns for x in col)


def test_sample_burst_rejects_s_below_one():
    # with s = 0 every column is empty, so no nonzero column exists
    with pytest.raises(ValueError, match="s = 0"):
        ildec.sample_burst(F8, 0, 5, 2, random.Random(0))


def test_sample_burst_column_marginal_uniform():
    # s = 2, q = 2: three nonzero columns, counts roughly equal
    rng = random.Random(1)
    counts = {}
    for _ in range(9000):
        err = ildec.sample_burst(gf.field(2, 1, 1), 2, 4, 1, rng)
        counts[tuple(err.columns[0])] = counts.get(tuple(err.columns[0]),
                                                   0) + 1
    assert set(counts) == {(0, 1), (1, 0), (1, 1)}
    for v in counts.values():
        assert abs(v - 3000) < 3 * (9000 * (1 / 3) * (2 / 3)) ** 0.5 + 60


def test_syndromes_zero_on_codewords_and_error_only():
    rng = random.Random(2)
    spec = grscode.default_spec(F8, 7, 5)
    for _ in range(20):
        rows = random_codeword_rows(F8, spec, 3, rng)
        assert all(all(x == 0 for x in syn)
                   for syn in ildec.syndromes(F8, rows, spec))
        err = ildec.sample_burst(F8, 3, 7, 2, rng)
        noisy = add_rows(F8, rows, err.full_matrix(3, 7))
        assert ildec.syndromes(F8, noisy, spec) == \
            ildec.syndromes(F8, err.full_matrix(3, 7), spec)


def test_syndromes_hand_computed_single_error():
    spec = grscode.default_spec(F8, 7, 5)
    err = [[0] * 7]
    pos, val = 3, F8.gamma
    err[0][pos] = val
    syn = ildec.syndromes(F8, err, spec)[0]
    a = spec.locators[pos]
    want = [F8.mul(val, F8.power(a, r)) for r in range(4)]
    assert syn == want


def test_zero_error_returns_word_unchanged():
    rng = random.Random(3)
    spec = grscode.default_spec(F8, 7, 5)
    rows = random_codeword_rows(F8, spec, 2, rng)
    out = ildec.joint_decode(rows, spec)
    assert out.tag == ildec.SUCCESS and out.t_star == 0
    assert out.decoded == rows


@pytest.mark.parametrize("rows,match", [
    ([], "at least one row"),
    ([[0] * 13, [0] * 13], r"row lengths \[13\]: every row .* n = 15"),
    ([[1] + [0] * 16], r"row lengths \[17\]: every row .* n = 15"),
    ([[0] * 16 + [1]], r"row lengths \[17\]: every row .* n = 15"),
    ([[0] * 15, [0] * 14], r"row lengths \[14, 15\]: "),
])
def test_joint_decode_rejects_malformed_rows(rows, match):
    # these once returned success with a word of the wrong shape, or raised
    # IndexError on a nonzero entry past n
    spec = grscode.default_spec(gf.field(2, 1, 4), 15, 9)
    with pytest.raises(ValueError, match=match):
        ildec.joint_decode(rows, spec)


def test_single_row_classical_correction_vs_nearest_codeword():
    # s = 1, errors within floor((d-1)/2): exact correction, checked against
    # exhaustive nearest-codeword search on n = 7, q = 8, d = 5
    rng = random.Random(4)
    spec = grscode.default_spec(F8, 7, 5)
    gen = grscode.generator_matrix(spec)
    codewords = []
    for msg in itertools.product(F8.elements(), repeat=spec.k):
        word = [0] * 7
        for c, row in zip(msg, gen):
            if c:
                for j, g in enumerate(row):
                    word[j] = F8.add(word[j], F8.mul(c, g))
        codewords.append(word)
    for _ in range(40):
        true = list(codewords[rng.randrange(len(codewords))])
        err = ildec.sample_burst(F8, 1, 7, rng.randrange(1, 3), rng)
        noisy = add_rows(F8, [true], err.full_matrix(1, 7))
        out = ildec.joint_decode(noisy, spec)
        assert out.tag == ildec.SUCCESS
        nearest = min(codewords,
                      key=lambda c: sum(a != b for a, b in zip(c, noisy[0])))
        assert out.decoded[0] == nearest == true


def test_never_succeeds_beyond_radius():
    rng = random.Random(5)
    spec = grscode.default_spec(F32, 31, 11)
    s = 3
    tmax = ildec.t_max_radius(11, 3)
    assert tmax == 7
    for _ in range(30):
        err = ildec.sample_burst(F32, s, 31, tmax + 1, rng)
        rows = err.full_matrix(s, 31)
        out = ildec.joint_decode(rows, spec)
        zero = [[0] * 31 for _ in range(s)]
        assert ildec.classify(out, zero) != ildec.SUCCESS


def test_decoding_invariant_under_codeword_addition():
    rng = random.Random(6)
    spec = grscode.default_spec(F8, 7, 5)
    s = 2
    for _ in range(30):
        cw = random_codeword_rows(F8, spec, s, rng)
        err = ildec.sample_burst(F8, s, 7, rng.randrange(1, 5), rng)
        noisy = add_rows(F8, cw, err.full_matrix(s, 7))
        out_cw = ildec.joint_decode(noisy, spec)
        out_raw = ildec.joint_decode(err.full_matrix(s, 7), spec)
        assert (out_cw.tag == ildec.FAILURE) == (out_raw.tag == ildec.FAILURE)
        zero = [[0] * 7 for _ in range(s)]
        assert ildec.classify(out_cw, cw) == ildec.classify(out_raw, zero)


def test_rank_oracle_single_error():
    rng = random.Random(7)
    spec = grscode.default_spec(F8, 7, 5)
    err = ildec.sample_burst(F8, 1, 7, 1, rng)
    assert ildec.rank_oracle(err, spec, 1)


def test_crux_oracle_full_rank_errors_succeed():
    # rank(E) >= 2t - d + 2 implies success; random full-rank E at s >= t
    rng = random.Random(8)
    spec = grscode.default_spec(F64, 9, 7)
    s, t = 5, 5
    for _ in range(20):
        while True:
            err = ildec.sample_burst(F64, s, 9, t, rng, subfield=True)
            cols = [[err.columns[c][i] for c in range(t)] for i in range(s)]
            if gf.rank(F64.base, cols) == t:
                break
        assert ildec.crux_oracle(err, spec, s)
        assert ildec.rank_oracle(err, spec, s)


def test_crux_oracle_collinear_columns_fail():
    # d - t columns scalar multiples of one vector -> non-success predicted
    spec = grscode.default_spec(F64, 9, 7)
    s, t = 3, 4
    d_minus_t = spec.d - t
    base_col = [1, F64.base.gamma, 1]
    columns = []
    for c in range(t):
        if c < d_minus_t:
            columns.append(list(base_col))
        else:
            columns.append([1, 0, 0])
    err = ildec.BurstError(list(range(1, t + 1)), columns)
    assert not ildec.crux_oracle(err, spec, s)
    assert not ildec.rank_oracle(err, spec, s)


def test_oracles_match_decoder_small_exhaustive():
    # q = 2, s = 2, n = 7: exhaustive over supports and many E patterns
    rng = random.Random(9)
    spec = grscode.default_spec(F8, 7, 5)
    s = 2
    zero = [[0] * 7 for _ in range(s)]
    for t in (1, 2, 3, 4):
        for _ in range(60):
            err = ildec.sample_burst(F8, s, 7, t, rng, subfield=True)
            out = ildec.joint_decode(err.full_matrix(s, 7), spec)
            got = ildec.classify(out, zero) == ildec.SUCCESS
            assert got == ildec.rank_oracle(err, spec, s)
            assert got == ildec.crux_oracle(err, spec, s)


def test_oracles_match_decoder_extension_errors():
    rng = random.Random(10)
    spec = grscode.default_spec(F32, 31, 11)
    s = 3
    zero = [[0] * 31 for _ in range(s)]
    for t in (3, 6, 7, 8):
        for _ in range(15):
            err = ildec.sample_burst(F32, s, 31, t, rng)
            out = ildec.joint_decode(err.full_matrix(s, 31), spec)
            got = ildec.classify(out, zero) == ildec.SUCCESS
            assert got == ildec.rank_oracle(err, spec, s)
            assert got == ildec.crux_oracle(err, spec, s)


# char-2, odd and tower fields, and GF(7) with m = 1, where subfield errors
# are full-field errors
PROPERTY_FIELDS = (gf.field(2, 1, 3), gf.field(2, 1, 4), gf.field(2, 2, 2),
                   gf.field(3, 1, 2), gf.field(5, 1, 2), gf.field(7, 1, 1))


@settings(max_examples=500)
@given(st.data())
def test_decoder_matches_rank_and_crux_oracles(data):
    fld = data.draw(st.sampled_from(PROPERTY_FIELDS), label="field")
    n = data.draw(st.integers(3, min(fld.order - 1, 15)), label="n")
    d = data.draw(st.integers(3, n), label="d")
    s = data.draw(st.integers(1, 3), label="s")
    radius = ildec.t_max_radius(d, s)
    t = data.draw(st.sampled_from(range(1, min(n, radius + 2) + 1)),
                  label="t")
    errors = data.draw(st.sampled_from(("subfield", "full", "rank one")),
                       label="errors")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    # random distinct locators and multipliers, not only default_spec's
    locs = rng.sample(range(1, fld.order), n)
    mults = [fld.random_nonzero(rng) for _ in range(n)]
    spec = grscode.GrsSpec(fld, locs, mults, d)
    err = ildec.sample_burst(fld, s, n, t, rng, subfield=errors == "subfield")
    if errors == "rank one":
        # every column a multiple of the first, so the decoder fails beyond
        # (d - 1) / 2 even inside its radius
        first = err.columns[0]
        scalars = [fld.random_nonzero(rng) for _ in err.columns]
        err.columns = [[fld.mul(c, x) for x in first] for c in scalars]
    out = ildec.joint_decode(err.full_matrix(s, n), spec)
    got = ildec.classify(out, [[0] * n for _ in range(s)]) == ildec.SUCCESS
    assert got == ildec.rank_oracle(err, spec, s) == \
        ildec.crux_oracle(err, spec, s)


def _scan_recurrence_length(field, syns):
    """Least t at which S(t) x = -T(t) is solvable, by an upward scan."""
    t = 0
    while True:
        system = ildec._key_system(syns, t)
        if solve(field, system, _neg_rhs(field, syns, t)) is not None:
            return t
        t += 1


def _neg_rhs(field, syns, t):
    """-T(t), in the row order of ildec._key_system."""
    return [field.neg(syn[j + t]) for syn in syns
            for j in range(len(syn) - t)]


SYNDROME_FIELDS = (gf.field(2, 1, 1), gf.field(3, 1, 1), gf.field(2, 1, 2),
                   gf.field(5, 1, 1), F8)


@settings(max_examples=400)
@given(st.data())
def test_recurrence_length_is_least_solvable_t(data):
    fld = data.draw(st.sampled_from(SYNDROME_FIELDS))
    s = data.draw(st.integers(1, 4))
    length = data.draw(st.integers(1, 12))
    elem = st.integers(0, fld.order - 1)
    # near-recurrent rows follow one shared recurrence of a drawn order
    # from drawn initial values, then get up to two entries overwritten
    order = data.draw(st.integers(0, length))
    conn = data.draw(st.lists(elem, min_size=order, max_size=order))
    syns = []
    for _ in range(s):
        kind = data.draw(st.sampled_from(("zero", "random", "recurrent")))
        if kind == "zero":
            row = [0] * length
        elif kind == "random":
            row = data.draw(st.lists(elem, min_size=length,
                                     max_size=length))
        else:
            row = data.draw(st.lists(elem, min_size=order, max_size=order))
            while len(row) < length:
                acc = 0
                for c, x in zip(conn, row[len(row) - order:]):
                    acc = fld.add(acc, fld.mul(c, x))
                row.append(acc)
            for _ in range(data.draw(st.integers(0, 2))):
                row[data.draw(st.integers(0, length - 1))] = data.draw(elem)
        syns.append(row)
    lam, length, profile = ildec._recurrence_length(fld, syns)
    assert length == _scan_recurrence_length(fld, syns)
    # the profile: its entry P is the answer on the rows cut to P terms
    assert len(profile) == len(syns[0]) + 1 and profile[-1] == length
    assert profile == [_scan_recurrence_length(fld, [syn[:p] for syn in syns])
                       for p in range(len(syns[0]) + 1)]
    # lam is the recurrence itself: x_l = lam[length - l] solves the system
    assert lam[0] == 1 and not any(lam[length + 1:])
    x = (lam + [0] * length)[length:0:-1]
    assert mat_vec(fld, ildec._key_system(syns, length), x) == \
        _neg_rhs(fld, syns, length)


def _rank_verdicts(fld, syns):
    """(profile verdict, rank verdict) at every t in 1..N."""
    *_, profile = ildec._recurrence_length(fld, syns)
    return [(ildec._unique(profile, t),
             gf.rank(fld, ildec._key_system(syns, t)) == t)
            for t in range(1, len(syns[0]) + 1)]


@pytest.mark.parametrize("q,s", [(2, 2), (3, 1)])
def test_profile_uniqueness_matches_rank_exhaustive(q, s):
    # every s x N syndrome matrix over GF(q), N <= 6, at every t, t* included
    fld = gf.field(q, 1, 1)
    seen = set()
    for n in range(1, 7):
        for flat in itertools.product(range(q), repeat=s * n):
            syns = [list(flat[i * n:(i + 1) * n]) for i in range(s)]
            t_star = ildec._recurrence_length(fld, syns)[1]
            for t, (got, want) in enumerate(_rank_verdicts(fld, syns), 1):
                assert got == want, (syns, t)
                if t == t_star:
                    seen.add((got, 2 * t <= n))
    # both verdicts at t*, the non-unique ones only past (d - 1) / 2; one
    # row is never unique there, as S(t*) has N - t* < t* rows
    assert seen == {(True, True), (False, False)} | (
        {(True, False)} if s > 1 else set())


@settings(max_examples=300)
@given(st.data())
def test_profile_uniqueness_matches_rank_on_bursts(data):
    fld = data.draw(st.sampled_from(PROPERTY_FIELDS), label="field")
    n = data.draw(st.integers(3, min(fld.order - 1, 15)), label="n")
    d = data.draw(st.integers(3, n), label="d")
    s = data.draw(st.integers(1, 3), label="s")
    t = data.draw(st.integers(1, min(n, ildec.t_max_radius(d, s) + 2)),
                  label="t")
    errors = data.draw(st.sampled_from(("subfield", "full", "rank one")),
                       label="errors")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    spec = grscode.default_spec(fld, n, d)
    err = ildec.sample_burst(fld, s, n, t, rng, subfield=errors == "subfield")
    if errors == "rank one":
        err.columns = _combinations(fld, err.columns[:1], t, rng)
    syns = ildec.syndromes(fld, err.full_matrix(s, n), spec)
    t_star = ildec._recurrence_length(fld, syns)[1]
    verdicts = _rank_verdicts(fld, syns)
    assert all(got == want for got, want in verdicts)
    if t_star:
        unique = verdicts[t_star - 1][0]
        # Massey's lemma: non-unique only past 2 t* = d - 1
        assert unique or 2 * t_star > d - 1
        event(f"unique={unique}, 2t* <= d-1: {2 * t_star <= d - 1}")


# ---------------------------------------------------------------------------
# the earlier decoder, kept as the reference: key equation read from its own
# rref, roots by Horner's rule, error values by Forney's formula, syndromes
# from a power table

def _reference_decode(rows, spec):
    field = spec.field
    add, mul, neg = field.add, field.mul, field.neg
    d1, s = spec.d - 1, len(rows)
    table = []
    for a, v in zip(spec.locators, spec.multipliers):
        row = [v]
        for _ in range(d1 - 1):
            row.append(mul(row[-1], a))
        table.append(row)
    syns = []
    for row in rows:
        syn = [0] * d1
        for j, x in enumerate(row):
            if x:
                for r in range(d1):
                    syn[r] = add(syn[r], mul(x, table[j][r]))
        syns.append(syn)
    if not any(any(syn) for syn in syns):
        return ildec.DecodeOutcome(ildec.SUCCESS, [list(r) for r in rows], 0)
    tmax = ildec.t_max_radius(spec.d, s)
    for t in range(1, tmax + 1):
        aug = [syn[j:j + t] + [neg(syn[j + t])]
               for syn in syns for j in range(d1 - t)]
        red, pivots = gf.rref(field, aug)
        if t in pivots:
            continue
        if len(pivots) < t:
            return ildec.DecodeOutcome(ildec.FAILURE, None, t,
                                       "non-unique key-equation solution")
        x = [0] * t
        for r, pc in enumerate(pivots):
            x[pc] = red[r][t]
        positions = locator_roots(field, spec, x, t)
        if positions is None:
            return ildec.DecodeOutcome(
                ildec.FAILURE, None, t,
                "error locator roots not in the locator set")
        err = _reference_forney(field, spec, syns, x, positions)
        if err is None:
            return ildec.DecodeOutcome(
                ildec.FAILURE, None, t,
                "zero error column at a claimed position")
        decoded = [[field.sub(rows[i][j], err[i][j]) for j in range(spec.n)]
                   for i in range(s)]
        return ildec.DecodeOutcome(ildec.SUCCESS, decoded, t)
    return ildec.DecodeOutcome(ildec.FAILURE, None, None,
                               f"no solvable key equation within the radius "
                               f"{tmax}")


def _reference_forney(field, spec, syns, x, positions):
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    t, d1 = len(positions), spec.d - 1
    lam = [1] + [x[t - u] for u in range(1, t + 1)]
    lam_deriv = []
    for u in range(1, t + 1):
        scaled = 0
        for _ in range(u % field.p):
            scaled = add(scaled, lam[u])
        lam_deriv.append(scaled)
    err = [[0] * spec.n for _ in syns]
    for p in positions:
        a_inv = inv(spec.locators[p])
        dval = 0
        for c in reversed(lam_deriv):
            dval = add(mul(dval, a_inv), c)
        if dval == 0:
            return None
        col = []
        for syn in syns:
            oval = 0
            for idx in range(min(t, d1) - 1, -1, -1):
                acc = 0
                for u in range(idx + 1):
                    if lam[u] and idx - u < d1 and syn[idx - u]:
                        acc = add(acc, mul(lam[u], syn[idx - u]))
                oval = add(mul(oval, a_inv), acc)
            y = neg(mul(spec.locators[p], mul(oval, inv(dval))))
            col.append(mul(y, inv(spec.multipliers[p])))
        if not any(col):
            return None
        for i, e in enumerate(col):
            err[i][p] = e
    return err


# char 2 (with and without an intermediate F_4) and characteristic 3, 5, 7
REFERENCE_FIELDS = (F8, gf.field(2, 1, 4), gf.field(2, 2, 2),
                    gf.field(3, 1, 2), gf.field(3, 1, 3), gf.field(5, 1, 2),
                    gf.field(7, 1, 2))


@settings(max_examples=300)
@given(st.data())
def test_decoder_matches_scan_forney_reference(data):
    fld = data.draw(st.sampled_from(REFERENCE_FIELDS))
    n = data.draw(st.integers(3, min(fld.order - 1, 14)))
    d = data.draw(st.integers(1, n))
    s = data.draw(st.integers(1, 4))
    nonzero = st.integers(1, fld.order - 1)
    mults = data.draw(st.lists(nonzero, min_size=n, max_size=n))
    spec = dataclasses.replace(grscode.default_spec(fld, n, d),
                               multipliers=mults)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    if data.draw(st.booleans()):
        t = data.draw(st.integers(1, min(n, ildec.t_max_radius(d, s) + 2)))
        err = ildec.sample_burst(fld, s, n, t, rng,
                                 subfield=data.draw(st.booleans()))
        rows = add_rows(fld, random_codeword_rows(fld, spec, s, rng),
                        err.full_matrix(s, n))
    else:
        rows = [[rng.randrange(fld.order) for _ in range(n)]
                for _ in range(s)]
    expected = _reference_decode(rows, spec)
    # joint_decode proves this failure unreachable and no longer reports it
    assert expected.reason != "zero error column at a claimed position"
    assert ildec.joint_decode(rows, spec) == expected


# product tables (over GF(2), GF(3), GF(5) and the tower GF(4^2)), char-2
# log tables (GF(2^9), the tower GF(4^5)), odd tables with Zech logarithms
# (GF(3^6)), a prime field, and an odd field without tables
ROOT_FIELDS = (F8, gf.field(2, 2, 2), gf.field(3, 1, 2), gf.field(3, 1, 3),
               gf.field(5, 1, 2), gf.field(2, 1, 9), gf.field(2, 2, 5),
               gf.field(3, 1, 6), gf.field(7, 1, 1), gf.field(7, 1, 11))


@settings(max_examples=300)
@given(st.data())
def test_locator_roots_match_horner(data):
    fld = data.draw(st.sampled_from(ROOT_FIELDS), label="field")
    nonzero = st.integers(1, fld.order - 1)
    n = data.draw(st.integers(3, min(fld.order - 1, 14)), label="n")
    locs = data.draw(st.lists(nonzero, min_size=n, max_size=n, unique=True),
                     label="locators")
    mults = data.draw(st.lists(nonzero, min_size=n, max_size=n),
                      label="multipliers")
    d = data.draw(st.integers(3, n), label="d")
    spec = grscode.GrsSpec(fld, locs, mults, d)
    t = data.draw(st.integers(1, d - 2), label="t")
    kind = data.draw(st.sampled_from(("locators", "repeated", "outside",
                                      "random")), label="kind")
    if kind == "random":
        x = data.draw(st.lists(st.integers(0, fld.order - 1), min_size=t,
                               max_size=t), label="x")
    else:
        # g = prod (y - r) over t roots: distinct locators, or one of them
        # repeated, or one element outside the locator set (0 included)
        picks = data.draw(st.lists(st.integers(0, n - 1), min_size=t,
                                   max_size=t, unique=True), label="picks")
        roots = [locs[p] for p in picks]
        if kind == "repeated" and t > 1:
            roots[-1] = roots[0]
        elif kind == "outside":
            others = ([0] if fld.order > 1000 else
                      sorted(set(range(fld.order)) - set(locs)))
            roots[-1] = data.draw(st.sampled_from(others), label="outside")
        g = [1]
        for r in roots:
            g = [fld.sub(a, fld.mul(r, b)) for a, b in zip([0] + g, g + [0])]
        x = g[:t]
        if kind == "locators":
            assert ildec._locator_roots(fld, spec, x, t) == sorted(picks)
    assert ildec._locator_roots(fld, spec, x, t) == \
        locator_roots(fld, spec, x, t)


# ---------------------------------------------------------------------------
# a seeded grid of decodes whose (tag, t*, reason) are pinned: the il-sim
# outputs show only success rates, so a swap between two failure reasons
# would pass them unseen

# (p, e, m) of the field, n, d, s, and bursts per (t, kind)
OUTCOME_GRID = (((2, 1, 4), 15, 9, 2, 20), ((3, 1, 2), 8, 7, 5, 20),
                ((2, 1, 8), 255, 33, 3, 3))
# recorded from the decoder that decided uniqueness by gf.rank
OUTCOME_DIGEST = ("f60161d45538ff304ab569f5462b1c63"
                  "cdf0222650406cb483c1e9eeae57ea31")
NONUNIQUE = "non-unique key-equation solution"


def _grid_outcomes():
    """(field, tag, t*, reason) of every decode of the grid: bursts of each
    weight up to two past the radius, with full-field, subfield, rank-one
    and rank-two columns (the low-rank ones reach non-unique solutions)."""
    for seed, (key, n, d, s, trials) in enumerate(OUTCOME_GRID):
        fld = gf.field(*key)
        spec = grscode.default_spec(fld, n, d)
        rng = random.Random(seed)
        for t in range(1, min(n, ildec.t_max_radius(d, s) + 2) + 1):
            for kind in ("full", "subfield", "rank one", "rank two"):
                for _ in range(trials):
                    err = ildec.sample_burst(fld, s, n, t, rng,
                                             subfield=kind == "subfield")
                    if kind == "rank one":
                        err.columns = _combinations(fld, err.columns[:1], t,
                                                    rng)
                    elif kind == "rank two":
                        err.columns = _combinations(
                            fld, [err.columns[0], err.columns[-1]], t, rng)
                    out = ildec.joint_decode(err.full_matrix(s, n), spec)
                    yield key, out.tag, out.t_star, out.reason


def _outcome_digest():
    outcomes = list(_grid_outcomes())
    # every field of the grid reaches a non-unique key equation
    assert {key for key, _, _, reason in outcomes if reason == NONUNIQUE} \
        == {key for key, *_ in OUTCOME_GRID}
    text = "\n".join(map(repr, outcomes))
    return hashlib.sha256(text.encode()).hexdigest()


def test_decode_outcomes_match_the_pinned_digest():
    assert _outcome_digest() == OUTCOME_DIGEST


def test_decoder_computes_no_rank(monkeypatch):
    def refuse(*args):
        raise AssertionError("the decoder computed a rank")
    monkeypatch.setattr(gf, "rank", refuse)
    assert _outcome_digest() == OUTCOME_DIGEST
