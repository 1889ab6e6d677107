"""Cross-module and edge-case checks beyond the per-module suites."""

import ast
import importlib.util
import itertools
import pathlib
import random

import pytest

import skewcodes
from skewcodes import bench, gf, grscode, ildec, lrs, metric, skew, support


def test_field_cache_identity():
    assert gf.field(2, 1, 3) is gf.field(2, 1, 3)
    assert gf.field_q(8, 2) is gf.field(2, 3, 2)
    with pytest.raises(ValueError):
        gf.field_q(6, 1)


def test_odd_prime_tower_smoke():
    fld = gf.field(3, 2, 2)      # F_{9^2}
    assert fld.q == 9 and fld.order == 81
    rng = random.Random(0)
    for _ in range(100):
        a = rng.randrange(81)
        b = rng.randrange(81)
        assert fld.mul(a, b) == fld.mul(b, a)
        if a:
            assert fld.mul(a, fld.inv(a)) == 1
            assert fld.power(a, 80) == 1
        assert fld.frob(fld.add(a, b), 1) == fld.add(fld.frob(a, 1),
                                                     fld.frob(b, 1))


def test_large_table_field_lagrange():
    fld = gf.field(2, 1, 10)
    rng = random.Random(1)
    for _ in range(30):
        a = 1 + rng.randrange(fld.order - 1)
        assert fld.power(a, fld.order - 1) == 1


def test_skew_ring_higher_frobenius_power():
    # theta = sigma^2 over F_{2^4}: contracts still hold
    fld = gf.field(2, 1, 4)
    ring = skew.SkewRing(fld, theta_power=2)
    rng = random.Random(2)
    for _ in range(60):
        f = ring.poly([rng.randrange(16) for _ in range(3)] + [1])
        g = ring.poly([rng.randrange(16) for _ in range(2)] + [1])
        assert (f * g).degree == f.degree + g.degree
        q, r = skew.right_divide(f, g)
        assert q * g + r == f
        ql, rl = skew.left_divide(f, g)
        assert g * ql + rl == f
        a = rng.randrange(16)
        _, rem = skew.right_divide(f, ring.x_minus(a))
        assert f.evaluate(a) == (rem.coeffs[0] if rem.coeffs else 0)


def test_identical_error_columns_rank_deficiency_exhaustive():
    # exhaustive search at q=2, s=2, n=7 over two-identical-column errors:
    # oracles and decoder still agree on every pattern, and rank-deficient
    # cases exist once t exceeds the unique radius
    f8 = gf.field(2, 1, 3)
    spec = grscode.default_spec(f8, 7, 5)
    s = 2
    zero = [[0] * 7 for _ in range(s)]
    nonzero_cols = [(0, 1), (1, 0), (1, 1)]
    deficient = 0
    for t in (3, 4):
        for supp in itertools.combinations(range(1, 8), t):
            col = (1, 1)
            cols = [col, col] + [nonzero_cols[(i * 7) % 3]
                                 for i in range(t - 2)]
            err = ildec.BurstError(list(supp), cols)
            pred = ildec.rank_oracle(err, spec, s)
            assert pred == ildec.crux_oracle(err, spec, s)
            out = ildec.joint_decode(err.full_matrix(s, 7), spec)
            assert (ildec.classify(out, zero) == ildec.SUCCESS) == pred
            deficient += not pred
    assert deficient > 0


def test_msrd_more_shapes():
    f64 = gf.field(2, 2, 3)      # q = 4, m = 3
    for lengths, k in (((2, 2, 2), 2), ((3, 2), 2), ((3, 3), 3)):
        spec = lrs.default_spec(f64, lengths, k)
        assert lrs.is_msrd(spec)


def test_sumrank_distance_matches_hamming_of_diagonal_transforms():
    # d_SR(C) = min over invertible block-diagonal A of d_H(C A) on a tiny
    # code (the sum-rank Singleton equality condition, checked directly)
    fld = gf.field(3, 1, 2)
    spec = lrs.default_spec(fld, (2, 2), 2)
    gen = lrs.generator_matrix(spec)
    part = spec.partition
    d_sr = metric.min_distance_bruteforce(fld, gen, metric.SUMRANK, part)
    base = fld.base
    invertibles = []
    for flat in itertools.product(range(3), repeat=4):
        mat = [[flat[0], flat[1]], [flat[2], flat[3]]]
        if gf.rank(base, mat) == 2:
            invertibles.append(mat)
    best = None
    rng = random.Random(3)
    for _ in range(40):
        a1 = invertibles[rng.randrange(len(invertibles))]
        a2 = invertibles[rng.randrange(len(invertibles))]
        transformed = []
        for row in gen:
            new = []
            for blk, amat in ((row[:2], a1), (row[2:], a2)):
                for j in range(2):
                    acc = 0
                    for i in range(2):
                        acc = fld.add(acc, fld.mul(blk[i],
                                                   amat[i][j]))
                    new.append(acc)
            transformed.append(new)
        d_h = metric.min_distance_bruteforce(fld, transformed,
                                             metric.HAMMING)
        best = d_h if best is None else min(best, d_h)
        assert d_h >= d_sr
    assert best == d_sr


def test_sufficient_extension_degree_vs_design_value():
    # the theorem's sufficient m exceeds the design value when k > q
    assert support.sufficient_extension_degree(9, 4, (8, 7, 8)) == 10
    assert support.field_size_bound(9, 4, (8, 7, 8)) == 9
    # k = 1: both reduce to max n_l
    assert support.sufficient_extension_degree(1, 2, (5,)) == 5
    assert support.field_size_bound(1, 2, (5,)) == 5


def test_build_constrained_generator_field_too_small():
    fld = gf.field(3, 1, 2)
    spec = lrs.default_spec(fld, (2, 1), 3)
    pattern = support.ZeroPattern(3, [{1}, {2}, {3}])
    with pytest.raises(ValueError):
        support.build_constrained_generator(spec, pattern)


def test_emit_curves_full_cli_style():
    f8 = gf.field(2, 1, 3)
    cfg = bench.ExperimentConfig(kind="alternant", field=f8, n=7, d=5, s=2,
                                 trials=30, seed=99)
    text = bench.emit_curves(cfg)
    lines = text.strip().split("\n")
    tmax = ildec.t_max_radius(5, 2)
    assert len(lines) == tmax + 3
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 8
        sim = float(cells[-1])
        assert 0.0 <= sim <= 1.0


def test_oracles_match_decoder_odd_characteristic():
    # sign handling in the key equation and Forney step, char 3 and 5
    for (p, m, n, d) in ((3, 2, 8, 5), (5, 2, 12, 7)):
        fld = gf.field(p, 1, m)
        rng = random.Random(p * 10 + m)
        mults = [fld.random_nonzero(rng) for _ in range(n)]
        locs = rng.sample([x for x in fld.elements() if x], n)
        spec = grscode.GrsSpec(fld, locs, mults, d)
        for s in (1, 2):
            zero = [[0] * n for _ in range(s)]
            tmax = ildec.t_max_radius(d, s)
            for t in range(1, tmax + 2):
                for i in range(25):
                    err = ildec.sample_burst(fld, s, n, t, rng,
                                             subfield=i % 2 == 0)
                    out = ildec.joint_decode(err.full_matrix(s, n), spec)
                    got = ildec.classify(out, zero) == ildec.SUCCESS
                    assert got == ildec.rank_oracle(err, spec, s)
                    assert got == ildec.crux_oracle(err, spec, s)


def test_decode_with_true_codewords_and_errors_end_to_end():
    # full pipeline: encode alternant rows, corrupt, decode, compare
    rng = random.Random(4)
    f32 = gf.field(2, 1, 5)
    spec = grscode.default_spec(f32, 31, 11)
    alt = grscode.subfield_subcode(spec)
    assert alt.dimension > 0
    s = 2
    for trial in range(10):
        rows = []
        for _ in range(s):
            word = [0] * 31
            for vec in alt.generator:
                c = rng.randrange(2)
                if c:
                    word = [f32.add(w, v) for w, v in zip(word, vec)]
            rows.append(word)
        t = rng.randrange(1, ildec.t_max_radius(11, s) + 1)
        err = ildec.sample_burst(f32, s, 31, t, rng, subfield=True)
        noisy = [[f32.add(a, b) for a, b in zip(r, e)]
                 for r, e in zip(rows, err.full_matrix(s, 31))]
        out = ildec.joint_decode(noisy, spec)
        verdict = ildec.classify(out, rows)
        assert verdict == (
            ildec.SUCCESS if ildec.rank_oracle(err, spec, s)
            else verdict)   # oracle success forces decoder success
        if verdict == ildec.SUCCESS:
            assert out.decoded == rows


def test_src_imports_only_at_module_level():
    # an import inside a function hid the grscode -> ilbounds -> grscode
    # cycle; imports at the top keep the module graph in plain sight
    nested = set()
    for path in pathlib.Path(skewcodes.__file__).parent.glob("*.py"):
        for scope in ast.walk(ast.parse(path.read_text())):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                nested |= {f"{path.name}:{node.lineno}"
                           for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert nested == set()


def test_code_line_counter(tmp_path):
    # tools/code_lines.py leaves out blank, comment and docstring lines and
    # counts every line a multi-line expression spans
    spec = importlib.util.spec_from_file_location(
        "code_lines",
        pathlib.Path(__file__).parents[1] / "tools" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    module = tmp_path / "sample.py"
    module.write_text('"""Module docstring,\n\nthree lines."""\n'
                      "\n"
                      "# a comment\n"
                      "X = [1,\n"
                      "     2]  # trailing comment\n"
                      "\n"
                      "\n"
                      "class C:\n"
                      '    """Class docstring."""\n'
                      "\n"
                      "    def f(self):\n"
                      "        '''One\n"
                      "        two.'''\n"
                      '        return """a\n'
                      'b"""\n')
    # X = [1, / 2] / class C: / def f / return """a / b"""
    assert code_lines.code_lines(module) == 6
