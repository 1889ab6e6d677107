"""Monte Carlo harness: success-probability estimation, threshold scans and
CSV emission for the interleaved-decoding experiments.

Determinism: every trial draws from its own SplitMix64 stream derived from
(master seed, trial index), so identical configs reproduce byte-identical
output and trials could run in any order.
"""

import io
import math
from dataclasses import dataclass, field as dc_field, replace

from . import grscode, ilbounds, ildec

CSV_HEADER = "t,RS,LA,LA1,LA2,LT,U,Sim"

MASK64 = (1 << 64) - 1


class SplitMix64:
    """Small, stable RNG; the per-trial streams come from split()."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randrange(self, n):
        if n <= 0:
            raise ValueError("empty range")
        # rejection sampling keeps the draw exactly uniform
        limit = MASK64 - (MASK64 + 1) % n
        while True:
            v = self.next_u64()
            if v <= limit:
                return v % n

    def sample(self, population, k):
        pool = list(population)
        out = []
        for _ in range(k):
            out.append(pool.pop(self.randrange(len(pool))))
        return out

    def random(self):
        return self.next_u64() / (MASK64 + 1)


def trial_rng(master_seed, index):
    """Independent per-trial stream: seed scrambled with the trial index."""
    mixer = SplitMix64((master_seed ^ (index * 0xA5A5A5A5A5A5A5A5)) & MASK64)
    mixer.next_u64()
    return mixer


@dataclass
class ExperimentConfig:
    """One interleaved-decoding experiment.

    kind 'alternant' draws error entries from the subfield F_q; kind 'grs'
    draws them from F_{q^m}.  support_mode 'fixed' pins the error support to
    1..t (the lemmas' setting); 'random' draws uniform t-subsets.
    """
    kind: str
    field: object
    n: int
    d: int
    s: int
    trials: int
    seed: int
    support_mode: str = "random"
    spec: object = dc_field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("grs", "alternant"):
            raise ValueError("kind must be 'grs' or 'alternant'")
        if self.s < 1:
            raise ValueError(f"interleaving order s = {self.s} must be >= 1")
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        if self.seed is None:
            raise ValueError("a master seed is mandatory")
        if self.spec is None:
            self.spec = grscode.default_spec(self.field, self.n, self.d)


@dataclass
class PsucEstimate:
    successes: int
    trials: int
    estimate: float
    wilson_low: float
    wilson_high: float


def wilson_interval(successes, trials):
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    z = 1.96                    # the two-sided 95% normal quantile
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    lo, hi = center - half, center + half
    if abs(lo) < 1e-12:
        lo = 0.0
    if abs(hi - 1.0) < 1e-12:
        hi = 1.0
    return max(0.0, lo), min(1.0, hi)


def run_trial(config, t, index):
    """One decode of a random weight-t burst against the zero codeword."""
    if t == 0:
        return True    # zero syndromes: the decoder returns R = C
    rng = trial_rng(config.seed, index)
    spec = config.spec
    support = list(range(1, t + 1)) if config.support_mode == "fixed" else None
    err = ildec.sample_burst(config.field, config.s, config.n, t, rng,
                             support=support,
                             subfield=config.kind == "alternant")
    rows = err.full_matrix(config.s, config.n)
    out = ildec.joint_decode(rows, spec)
    zero = [[0] * config.n for _ in range(config.s)]
    return ildec.classify(out, zero) == ildec.SUCCESS


def mc_psuc(config, t):
    """Success-rate estimate with a Wilson 95% interval; deterministic."""
    successes = sum(run_trial(config, t, i) for i in range(config.trials))
    lo, hi = wilson_interval(successes, config.trials)
    return PsucEstimate(successes, config.trials,
                        successes / config.trials, lo, hi)


def threshold_scan(config, target=0.9, trials=100):
    """Largest t such that P_suc(t') > target for every t' <= t; target
    must lie in [0, 1)."""
    if not 0 <= target < 1:
        raise ValueError(f"target = {target} must lie in [0, 1)")
    scan_cfg = replace(config, trials=trials)
    t = 0
    while t + 1 <= config.n:
        est = mc_psuc(scan_cfg, t + 1)
        if est.estimate <= target:
            break
        t += 1
    return t


def _fmt(x):
    return format(float(x), ".12g")


def csv_row(t, bounds, sim=None):
    """One CSV line: t, the six bounds in CSV_HEADER order, then Sim.

    A bound that does not apply (None) and a missing sim give empty cells.
    """
    cells = [str(t)] + ["" if bounds[name] is None else _fmt(bounds[name])
                        for name in ilbounds.BOUND_NAMES]
    cells.append("" if sim is None else _fmt(sim))
    return ",".join(cells)


def bound_rows(q, m, n, d, s):
    """(t, ilbounds.all_bounds) for each row t = 1..t_max + 2 of the bound
    table.  The inputs are checked at t = 1 first: that range is empty for
    some bad d."""
    first = ilbounds.BoundInputs(q=q, m=m, n=n, d=d, s=s, t=1)
    return [(t, ilbounds.all_bounds(replace(first, t=t)))
            for t in range(1, ildec.t_max_radius(d, s) + 3)]


def emit_curves(config):
    """One CSV row per t = 1..t_max + 2 with all applicable bounds and the
    simulated rate."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for t, vals in bound_rows(config.field.q, config.field.m, config.n,
                              config.d, config.s):
        buf.write(csv_row(t, vals, mc_psuc(config, t).estimate) + "\n")
    return buf.getvalue()
