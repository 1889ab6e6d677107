"""skewcodes benchmark: one workload, one process, one thread, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(median over fresh processes), the median wall time of one pass over the
workload's operations (passes repeat for S seconds), and peak RSS.
``--trace 1`` runs one untraced pass, one traced pass and one pass with
field-operation counters, and reports the per-layer metrics.

Every operation's stdout is checked against a pinned SHA-256 (at the
workload's default seed, or the seed-independent part at any other seed)
and against every other pass; il-sim trials are sampled and checked
against the rank and crux oracles.  The last stdout line is the JSON
result; the exit code is 0 only when every check passed.
"""

import argparse
import contextlib
import importlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import setup_probe      # sibling modules: the script's directory is on sys.path
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

ORACLE_SAMPLES = 32
MIN_SETUP_SAMPLES, MAX_SETUP_SAMPLES, SETUP_BUDGET_S = 3, 25, 1.0
PROBE_TIMEOUT_S = 150

# Per-layer metric prefixes that do not name the wrapped function directly.
SOURCES = {
    "ildec.outcome": "ildec.classify",
    "ildec": "ildec.joint_decode",           # ildec.rref_per_decode
    "support.build": "support.build_constrained_generator",
    "gf.ops": None,                          # OpCounter
    "trace": None,                           # the harness itself
}


def source(metric):
    """The wrapped function whose calls a per-layer metric is read from."""
    prefix = metric.rsplit(".", 1)[0]
    return SOURCES.get(prefix, prefix)


@dataclass
class OpResult:
    op: workloads.Op
    rc: object
    out: str
    err: str
    seconds: float


def run_op(cli, op, seed):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.call is not None:
                out.write(op.call())
                rc = 0
            else:
                rc = cli.main(op.argv_for(seed))
    except Exception:    # noqa: BLE001 - recorded as a failed operation
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_pass(cli, wl, seed):
    """All of the workload's operations once; returns (wall s, results)."""
    results = []
    t0 = time.perf_counter()
    for op in wl.ops:
        a = time.perf_counter()
        rc, out, err = run_op(cli, op, seed)
        results.append(OpResult(op, rc, out, err, time.perf_counter() - a))
    return time.perf_counter() - t0, results


def check_passes(wl, seed, passes):
    """Failure messages over every operation of every pass, and the count."""
    failures = []
    attempted = 0
    first = {}
    for _, results in passes:
        for r in results:
            attempted += 1
            op = r.op
            if r.rc != 0:
                failures.append(f"{op.name}: exit {r.rc}: {r.err.strip()}")
                continue
            digest = workloads.sha256(r.out)
            if op.seed_free is None or seed == wl.default_seed:
                ok = digest == workloads.PINNED[op.name]
            else:
                ok = (workloads.sha256(op.seed_free(r.out))
                      == workloads.PINNED_SEED_FREE[op.name])
            if not ok:
                failures.append(f"{op.name}: stdout differs from the pinned "
                                f"digest (sha256 {digest})")
            elif first.setdefault(op.name, digest) != digest:
                failures.append(f"{op.name}: stdout differs between passes")
    return attempted, failures


def il_args(op, seed):
    """Parsed CLI arguments of an il-sim operation, else None."""
    if "il-sim" not in op.argv:
        return None
    from skewcodes import cli
    return cli.build_parser().parse_args(op.argv_for(seed))


def decodes_per_pass(wl, seed):
    """Trials x t rows, summed over the workload's il-sim operations."""
    from skewcodes import ildec
    total = 0
    for op in wl.ops:
        args = il_args(op, seed)
        if args is not None:
            total += args.trials * (ildec.t_max_radius(args.d, args.s) + 2)
    return total


def oracle_check(wl, seed):
    """Sampled trials: decoder success == rank oracle == crux oracle.

    The error is drawn from the same per-trial stream as bench.run_trial,
    and run_trial's own verdict must agree as well.
    """
    from skewcodes import bench, gf, ildec
    attempted, failures = 0, []
    rng = random.Random(seed)
    for op in wl.ops:
        args = il_args(op, seed)
        if args is None:
            continue
        fld = gf.field_q(args.q, args.m)
        cfg = bench.ExperimentConfig(kind=args.kind, field=fld, n=args.n,
                                     d=args.d, s=args.s, trials=args.trials,
                                     seed=args.seed,
                                     support_mode=args.support_mode)
        zero = [[0] * args.n for _ in range(args.s)]
        t_rows = range(1, ildec.t_max_radius(args.d, args.s) + 3)
        for _ in range(ORACLE_SAMPLES):
            t, index = rng.choice(t_rows), rng.randrange(args.trials)
            support = (list(range(1, t + 1))
                       if args.support_mode == "fixed" else None)
            err = ildec.sample_burst(fld, args.s, args.n, t,
                                     bench.trial_rng(args.seed, index),
                                     support=support,
                                     subfield=args.kind == "alternant")
            out = ildec.joint_decode(err.full_matrix(args.s, args.n),
                                     cfg.spec)
            got = ildec.classify(out, zero) == ildec.SUCCESS
            verdicts = (got, bench.run_trial(cfg, t, index),
                        ildec.rank_oracle(err, cfg.spec, args.s),
                        ildec.crux_oracle(err, cfg.spec, args.s))
            attempted += 1
            if len(set(verdicts)) != 1:
                failures.append(f"{op.name}: t={t} trial={index}: decoder, "
                                f"run_trial, rank and crux oracles say "
                                f"{verdicts}")
    return attempted, failures


def setup_samples(wl, first):
    """Set-up seconds: this process first, then fresh processes.

    At least three samples; more, up to 25, while they total under 1 s.
    """
    samples = [first]
    fields = [",".join(map(str, f)) for f in wl.fields]
    while len(samples) < MAX_SETUP_SAMPLES and not (
            len(samples) >= MIN_SETUP_SAMPLES
            and sum(samples) >= SETUP_BUDGET_S):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *fields],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT_S)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_untraced(wl, seed, seconds):
    setup = setup_probe.measure(wl.fields)
    from skewcodes import cli
    passes = []
    needs_repeat = (seed != wl.default_seed
                    and any(op.seed_free is not None for op in wl.ops))
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(cli, wl, seed))
        if time.perf_counter() - t0 >= seconds and (
                len(passes) >= 2 or not needs_repeat):
            break
    attempted, failures = check_passes(wl, seed, passes)
    oa, of = oracle_check(wl, seed)
    attempted, failures = attempted + oa, failures + of
    setups = setup_samples(wl, setup)
    run_s = statistics.median(wall for wall, _ in passes)
    metrics = {"setup_s": statistics.median(setups), "run_s": run_s,
               "peak_rss_mb": peak_rss_mb()}
    lines = [f"passes {len(passes)}; set-up samples {len(setups)}"]
    for i, op in enumerate(wl.ops):
        op_s = statistics.median(results[i].seconds for _, results in passes)
        lines.append(f"  op {op.name}: median {op_s:.4f} s")
    decodes = decodes_per_pass(wl, seed)
    if decodes:
        lines.append(f"decodes_per_s {decodes / run_s:.4f} 1/s "
                     f"({decodes} decodes per pass)")
    return metrics, attempted, failures, lines, []


def measure_traced(wl, seed, per_layer):
    functions = sorted({source(m) for m in per_layer} - {None})
    holder = {}

    def install():
        import tracing     # imports skewcodes, so not before the timed import
        holder["tracing"] = tracing
        modules = {name: importlib.import_module(f"skewcodes.{name}")
                   for name in {f.split(".")[0] for f in functions}}
        holder["tracer"] = tracing.Tracer(modules, functions)
        holder["tracer"].install()

    setup_probe.measure(wl.fields, after_import=install)
    tracer, tracing = holder["tracer"], holder["tracing"]
    tracer.uninstall()
    from skewcodes import cli, gf
    untraced = run_pass(cli, wl, seed)
    tracer.install()
    try:
        traced = run_pass(cli, wl, seed)
    finally:
        tracer.uninstall()
    counter = tracing.OpCounter([gf.field(*f) for f in wl.fields])
    counter.install()
    try:
        counted = run_pass(cli, wl, seed)
    finally:
        counter.uninstall()
    attempted, failures = check_passes(wl, seed, [untraced, traced, counted])
    oa, of = oracle_check(wl, seed)
    attempted, failures = attempted + oa, failures + of

    calls, self_s, durations = tracer.stats()
    counts = Counter(tracer.counts) + counter.counts
    counts["trace.overhead_s"] = traced[0] - untraced[0]
    counts["trace.spans"] = len(tracer.start)
    decode_times = durations.get("ildec.joint_decode", [])
    metrics = {}
    for name in per_layer:
        prefix, stat = name.rsplit(".", 1)
        if stat == "calls":
            value = calls[prefix]
        elif stat == "self_s":
            value = self_s[prefix]
        elif stat in ("p50_ms", "p95_ms"):
            value = tracing.percentile_ms(durations.get(prefix, []),
                                          int(stat[1:3]))
        elif name == "ildec.rref_per_decode":
            decodes = calls["ildec.joint_decode"]
            value = calls["gf.rref"] / decodes if decodes else 0.0
        else:
            value = counts[name]
        metrics[name] = value

    missing = []
    for name, (_, on) in workloads.PREDICTIONS.items():
        if wl.name not in on:
            continue
        fn = source(name)
        if fn is None and counts[name] == 0:
            missing.append(name)
        elif fn is not None and calls[fn] == 0:
            missing.append(f"{name} ({fn} never called)")
    if counts["ildec.outcome.fail_unknown"]:
        missing.append("ildec.outcome.*: unrecognised failure reason")
    spans_path = HERE / "out" / f"spans-{wl.name}-seed{seed}.csv.gz"
    tracer.write(spans_path)
    lines = [f"untraced pass {untraced[0]:.4f} s, traced pass "
             f"{traced[0]:.4f} s, counted pass {counted[0]:.4f} s",
             f"ildec.joint_decode p50/p95 over {len(decode_times)} samples",
             f"spans written to {spans_path.relative_to(ROOT)}"]
    return metrics, attempted, failures, lines, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "skewcodes" / "__init__.py").is_file():
        sys.stderr.write(f"no skewcodes sources under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    predicted = {m for m in per_layer if not m.startswith("trace.")}
    if set(workloads.PREDICTIONS) != predicted:
        sys.stderr.write("PREDICTIONS and BENCHMARK.json per_layer differ: "
                         f"{sorted(set(workloads.PREDICTIONS) ^ predicted)}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        units = per_layer
        metrics, attempted, failures, lines, missing = measure_traced(
            wl, args.seed, per_layer)
    else:
        units = end_to_end
        metrics, attempted, failures, lines, missing = measure_untraced(
            wl, args.seed, args.seconds)
    if Path(sys.modules["skewcodes"].__file__).resolve().parent \
            != SRC / "skewcodes":
        sys.stderr.write("skewcodes was not imported from this checkout\n")
        return 2
    for msg in failures:
        sys.stderr.write(f"FAILED {msg}\n")
    for msg in missing:
        sys.stderr.write(f"MISSING {msg}\n")
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"ops_failed_frac {len(failures) / attempted} "
          f"(base: {attempted} operations attempted)")
    correct = not failures and not missing
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
