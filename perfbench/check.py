"""Smoke check and one-command report for the benchmark.

Usage (from the repository root):

    python3 perfbench/check.py                       # every workload
    python3 perfbench/check.py --workload il-gf256   # fast smoke check

For each workload it runs ``run.py`` once with tracing off and twice with
tracing on, then asserts that

- every run exits 0 with ``correct`` true and no failed operation; a traced
  or counted pass whose stdout differs by one byte from the untraced pass
  counts as a failed operation inside run.py;
- the end-to-end and per-layer metrics are exactly those of BENCHMARK.json,
  each with its unit;
- every count metric (unit ``count`` or ``ratio``) repeats exactly between
  the two traced runs.

It ends with a table of the end-to-end metrics, ``decodes_per_s`` and
``ops_failed_frac`` of every workload.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

RUN_TIMEOUT_S = 300


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_result(result, declared, label):
    assert result["correct"] and result["failed"] == 0, (label, result)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared, (label, set(got) ^ set(declared))


def text_metric(lines, name):
    for line in lines:
        match = re.match(rf"{name} (\S+)", line)
        if match:
            return match.group(1)
    return "-"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int,
                        help="default: each workload's pinned seed")
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [m for m, unit in per_layer.items() if unit in ("count", "ratio")]
    rows = []
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        seed = (args.seed if args.seed is not None
                else workloads.WORKLOADS[name].default_seed)
        result, lines = run(name, seed, args.seconds, 0)
        check_result(result, end_to_end, f"{name} trace 0")
        traced = []
        for _ in range(2):
            res, _ = run(name, seed, args.seconds, 1)
            check_result(res, per_layer, f"{name} trace 1")
            traced.append(res["metrics"])
        moved = [m for m in counts
                 if traced[0][m]["value"] != traced[1][m]["value"]]
        assert not moved, (name, "counts differ between traced runs", moved)
        rows.append([name, str(seed)]
                    + [f"{result['metrics'][m]['value']:.4f}"
                       for m in end_to_end]
                    + [text_metric(lines, "decodes_per_s"),
                       text_metric(lines, "ops_failed_frac")])
        print(f"ok {name} seed {seed}", flush=True)
    header = (["workload", "seed"]
              + [f"{m} [{unit}]" for m, unit in end_to_end.items()]
              + ["decodes_per_s [1/s]", "ops_failed_frac [ratio]"])
    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
