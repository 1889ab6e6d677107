import math

import pytest

from skewcodes import bench, gf

F8 = gf.field(2, 1, 3)
F32 = gf.field(2, 1, 5)


def config(**kw):
    base = dict(kind="grs", field=F8, n=7, d=5, s=2, trials=40, seed=11)
    base.update(kw)
    return bench.ExperimentConfig(**base)


def test_splitmix_deterministic_and_spread():
    a = bench.SplitMix64(42)
    b = bench.SplitMix64(42)
    seq = [a.next_u64() for _ in range(10)]
    assert seq == [b.next_u64() for _ in range(10)]
    c = bench.SplitMix64(43)
    assert seq != [c.next_u64() for _ in range(10)]


def test_splitmix_randrange_uniform_smoke():
    rng = bench.SplitMix64(7)
    counts = [0] * 5
    for _ in range(5000):
        counts[rng.randrange(5)] += 1
    for c in counts:
        assert abs(c - 1000) < 150


def test_trial_rng_streams_differ():
    r0 = bench.trial_rng(5, 0)
    r1 = bench.trial_rng(5, 1)
    assert [r0.next_u64() for _ in range(4)] != \
        [r1.next_u64() for _ in range(4)]


def test_wilson_interval_contains_estimate():
    lo, hi = bench.wilson_interval(90, 100)
    assert lo < 0.9 < hi
    assert bench.wilson_interval(0, 100)[0] == 0.0
    assert bench.wilson_interval(100, 100)[1] == 1.0


def test_mc_psuc_t_zero_like_and_determinism():
    cfg = config()
    assert bench.mc_psuc(cfg, 0).estimate == 1.0
    est1 = bench.mc_psuc(cfg, 1)
    est2 = bench.mc_psuc(cfg, 1)
    assert est1 == est2
    assert est1.estimate == 1.0     # single errors always correct at d = 5


def test_mc_psuc_t_equals_n_fails():
    cfg = config(trials=30)
    est = bench.mc_psuc(cfg, 7)
    assert est.estimate == 0.0


def test_emit_curves_deterministic_and_header():
    cfg = config(trials=20)
    csv1 = bench.emit_curves(cfg)         # t = 1..t_max + 2 = 1..4
    csv2 = bench.emit_curves(cfg)
    assert csv1 == csv2
    lines = csv1.strip().split("\n")
    assert lines[0] == "t,RS,LA,LA1,LA2,LT,U,Sim"
    assert len(lines) == 5
    # LT inapplicable at s < t leaves an empty cell
    row4 = lines[4].split(",")
    assert row4[0] == "4" and row4[5] == ""


def test_emit_curves_bounds_passthrough():
    from skewcodes import ilbounds
    cfg = config(trials=10)
    lines = bench.emit_curves(cfg).strip().split("\n")[1:]
    for line in lines:
        cells = line.split(",")
        t = int(cells[0])
        inputs = ilbounds.BoundInputs(q=8, m=1, n=7, d=5, s=2, t=t)
        want = ilbounds.bound("L.RS", inputs)
        assert cells[1] == format(float(want), ".12g")


def test_sim_within_bound_sandwich():
    from skewcodes import ilbounds
    cfg = bench.ExperimentConfig(kind="alternant", field=gf.field(2, 1, 5),
                                 n=31, d=11, s=2, trials=60, seed=3)
    for t in (5, 6, 7):
        est = bench.mc_psuc(cfg, t)
        sigma = math.sqrt(est.estimate * (1 - est.estimate)
                          / cfg.trials) + 1 / cfg.trials
        inputs = ilbounds.BoundInputs(q=2, m=5, n=31, d=11, s=2, t=t)
        la = ilbounds.bound("L.A", inputs)
        ub = ilbounds.bound("U", inputs)
        if la is not None:
            assert float(la) <= est.estimate + 3 * sigma
        if ub is not None:
            assert est.estimate <= float(ub) + 3 * sigma


def test_threshold_scan_small():
    # s = 1 on a d = 5 code: unique decoding radius 2
    cfg = config(s=1, trials=50)
    assert bench.threshold_scan(cfg, trials=50) == 2


@pytest.mark.parametrize("target", [-1.0, 1.0, 1.5, float("nan")])
def test_threshold_scan_rejects_target_outside_unit_interval(target):
    # -1 and nan used to scan every t and return n, and 1.5 to return 0
    with pytest.raises(ValueError, match=f"target = {target} must lie in"):
        bench.threshold_scan(config(), target=target, trials=1)
    assert 0 <= bench.threshold_scan(config(), target=0.0, trials=1) <= 7
