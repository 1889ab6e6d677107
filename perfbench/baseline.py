"""Ungated timings at the ROADMAP hand-timing sizes, one run each.

Usage (from the repository root): python3 perfbench/baseline.py

Times three operations in one process through ``skewcodes.cli.main`` and
prints each wall time next to the ROADMAP hand timing.  Nothing here is
gated; the gated figures come from run.py.
"""

import sys
import time

import run
import workloads

# (label, argv, ROADMAP hand timing in seconds)
OPS = (
    ("il-sim grs GF(2^8) n=255 d=33 s=3, 100 trials",
     ["--seed", "11", "--format", "csv", "il-sim", "--kind", "grs", "--q",
      "2", "--m", "8", "--n", "255", "--d", "33", "--s", "3", "--trials",
      "100"], 25.1),
    ("qlrs-dim --ell 9 --r 16",
     ["qlrs-dim", "--ell", "9", "--r", "16"], 9.6),
    ("aad-verify --n 5 --k 2 --q 11",
     ["aad-verify", "--n", "5", "--k", "2", "--q", "11"], 7.3),
)


def main():
    run.setup_probe.measure([(2, 1, 8), (11, 1, 1)])
    from skewcodes import cli
    status = 0
    for label, argv, hand in OPS:
        t0 = time.perf_counter()
        rc, out, err = run.run_op(cli, workloads.Op(label, tuple(argv)), 0)
        seconds = time.perf_counter() - t0
        print(f"{label}: {seconds:.2f} s (hand timing {hand} s), exit {rc}",
              flush=True)
        if rc != 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
