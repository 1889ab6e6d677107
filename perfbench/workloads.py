"""The benchmark's workloads, their pinned outputs and the layer predictions.

Every workload is a fixed list of operations run one after another in one
process and one thread (a closed loop with one client).  An operation is a
``skewcodes.cli.main(argv)`` call with stdout captured, or the one library
call (``lrs.is_msrd``).  The workload seed enters only through the generated
argv, as ``--seed``.

This module must not import ``skewcodes`` at import time: the set-up metric
times that import.
"""

import hashlib
from dataclasses import dataclass

ACCESS = "1 2 3; 1 2 4; 1 3 4; 2 3 4"

# The three GF(4^3) shapes of tests/test_extras.py::test_msrd_more_shapes.
MSRD_SHAPES = (((2, 2, 2), 2), ((3, 2), 2), ((3, 3), 3))


def msrd_shapes():
    """The library call: brute-force MSRD verdicts over GF(4^3)."""
    from skewcodes import gf, lrs
    fld = gf.field(2, 2, 3)
    lines = [f"{lengths} k={k} "
             f"msrd={lrs.is_msrd(lrs.default_spec(fld, lengths, k))}"
             for lengths, k in MSRD_SHAPES]
    return "\n".join(lines) + "\n"


def strip_sim_column(text):
    """The seed-independent part of an il-sim CSV: every column but Sim."""
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Op:
    """One operation.

    ``argv`` is a CLI argument list in which ``{seed}`` stands for the
    workload seed; ``call`` replaces it for the library call.  ``seed_free``
    maps stdout to the part that does not depend on the seed; None means the
    whole stdout is seed-independent.
    """
    name: str
    argv: tuple = ()
    call: object = None
    seed_free: object = None

    def argv_for(self, seed):
        return [a.replace("{seed}", str(seed)) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""
    name: str
    default_seed: int
    fields: tuple          # (p, e, m) of every field built during set-up
    ops: tuple


def il_sim(name, args):
    return Op(name, ("--seed", "{seed}", "--format", "csv", "il-sim")
              + tuple(args.split()), seed_free=strip_sim_column)


# Trial counts keep one pass near 2-3 s with at least 200 decodes, so the
# decode-time p95 has ten samples beyond it.
IL_GF256 = Workload(
    "il-gf256",
    default_seed=11,
    fields=((2, 1, 8),),
    ops=(il_sim("il-sim-grs-gf256",
                "--kind grs --q 2 --m 8 --n 255 --d 33 --s 3 --trials 8"),),
)

IL_GF81_ALT = Workload(
    "il-gf81-alt",
    default_seed=11,
    fields=((3, 1, 4),),
    ops=(il_sim("il-sim-alternant-gf81",
                "--kind alternant --q 3 --m 4 --n 80 --d 21 --s 2 "
                "--trials 14"),),
)

CONSTRUCT = Workload(
    "construct",
    default_seed=7,
    fields=((7, 1, 11), (2, 2, 10), (3, 1, 12), (2, 2, 3), (11, 1, 1)),
    ops=(
        # GF(7^11) has no tables: polynomial-fallback arithmetic
        Op("dist-design-gf7^11",
           ("--seed", "{seed}", "dist-design", "--lengths", "1 3 2 3",
            "--access", ACCESS, "--t", "2", "--rho", "2", "--ell", "5")),
        # GF(4^10) is the largest table field (2^20 elements)
        Op("dist-design-gf4^10",
           ("--seed", "{seed}", "dist-design", "--lengths", "2 3 2 3",
            "--access", ACCESS, "--t", "2", "--rho", "2", "--ell", "3")),
        Op("lrs-gen-gf3^12",
           ("lrs-gen", "--q", "3", "--m", "12", "--lengths", "12 12",
            "--k", "8")),
        # --ell 9 takes ~10 s; --ell 8 keeps a construct pass near 17 s
        Op("qlrs-dim", ("qlrs-dim", "--ell", "8", "--r", "16")),
        # --n 6 --k 1 --q 7 needs more than 7.6 GB: never scale this up
        Op("aad-verify", ("aad-verify", "--n", "5", "--k", "2", "--q", "11")),
        Op("lrs-is-msrd-gf4^3", call=msrd_shapes),
        Op("il-bounds", ("il-bounds", "--q", "2", "--m", "8", "--n", "255",
                         "--d", "33", "--s", "3")),
        Op("netgap", ("netgap", "--h", "12", "--r", "800000", "--alpha",
                      "18", "--ell", "1", "--eps", "2")),
        Op("bounds-table", ("bounds-table", "--metric", "sumrank", "--n", "8",
                            "--d", "3", "--q", "2", "--m", "4",
                            "--partition", "4 4")),
    ),
)

# SHA-256 of each operation's stdout at its workload's default seed,
# recorded from the code this benchmark was written against.  The
# dist-design stdout does not depend on the seed (the generator it builds
# is not printed).
PINNED = {
    "il-sim-grs-gf256":
        "54154909b914a7f34fecdec6fef4a9404dbb391ced0f8fe842d4d7f14245b2bd",
    "il-sim-alternant-gf81":
        "d19d8a28928ad83baad408a9152db43cc014de50e7ac91034be52f77bae619fd",
    "dist-design-gf7^11":
        "de55e3fdac6f5ca845733f6ecfd99737140d936cee5054cfd7313f40bbeb747d",
    "dist-design-gf4^10":
        "b53135294d427dca8c96548c1dd0780ec8f400e9891bd0d9a29e0996af2e0053",
    "lrs-gen-gf3^12":
        "ff4d6c6a8c6178bacb3d6d2baab0f82e661572dedafc32477cde98b5b75930af",
    "qlrs-dim":
        "c50ac56e1e523ca30fde76ed0c7b147a2e68581718cc51c10b4f35c8663e7370",
    "aad-verify":
        "3845fc22fea33ec74ea3e627d2eb7a1662e2a413315ee93816c2161a2f114584",
    "lrs-is-msrd-gf4^3":
        "b696fd55be58b185c0a28bb4db6dd7b250fb2367d0077e37807baae50fd6430b",
    "il-bounds":
        "24e568f6e66cd27a06203f96d05dbbc87bd06b23dc79b921dae741ce78cee948",
    "netgap":
        "55011213ddfef28d31e802f0f6e72d5c5de3b8b270e7b0b4b4be78f08bcddf66",
    "bounds-table":
        "291eb6532d4d5a1d3188ac63bab255295778accb3b16524b07745444f7426e23",
}

# SHA-256 of ``op.seed_free(stdout)``, which must hold at every seed.
PINNED_SEED_FREE = {
    "il-sim-grs-gf256":
        "5ef61350e6e3cf1fbf895533e359fdb25bbae7b9a089968d0b2f166b0a6bbdb9",
    "il-sim-alternant-gf81":
        "c60a49dd51ac9a99e3a8cfc0db7c6ff3e60dfe5d2187f577faf3a1c0c72d987c",
}

WORKLOADS = {w.name: w for w in (IL_GF256, IL_GF81_ALT, CONSTRUCT)}

IL = ("il-gf256", "il-gf81-alt")
ALL = IL + ("construct",)

# Per-layer metric -> (end-to-end metrics it should move, workloads).
# decodes_per_s is trials x t rows / run_s on the il-* workloads.
PREDICTIONS = {
    "gf.field.calls": (("setup_s",), ("construct",)),
    "gf.field.self_s": (("setup_s",), ("construct",)),
    "gf.rref.calls": (("decodes_per_s",), IL),
    "gf.rref.self_s": (("decodes_per_s",), IL),
    "gf.rref.cells": (("decodes_per_s",), IL),
    "gf.rank.calls": (("run_s",), ("construct",)),
    "gf.right_kernel.calls": (("run_s",), ("construct",)),
    "gf.mat_mul.self_s": (("run_s",), ("construct",)),
    "gf.ops.mul": (("decodes_per_s",), IL),
    "gf.ops.add": (("decodes_per_s",), IL),
    "gf.ops.neg": (("decodes_per_s",), IL),
    "gf.ops.inv": (("decodes_per_s",), IL),
    "ildec.joint_decode.calls": (("decodes_per_s",), IL),
    "ildec.joint_decode.self_s": (("decodes_per_s",), IL),
    "ildec.joint_decode.p50_ms": (("decodes_per_s",), IL),
    "ildec.joint_decode.p95_ms": (("decodes_per_s",), IL),
    "ildec.rref_per_decode": (("decodes_per_s",), IL),
    "ildec.syndromes.self_s": (("decodes_per_s",), IL),
    "ildec.sample_burst.self_s": (("decodes_per_s",), IL),
    "ildec.outcome.success": (("decodes_per_s",), IL),
    "ildec.outcome.miscorrection": (("decodes_per_s",), IL),
    "ildec.outcome.fail_nonunique": (("decodes_per_s",), IL),
    "ildec.outcome.fail_roots": (("decodes_per_s",), IL),
    "ildec.outcome.fail_zero_column": (("decodes_per_s",), IL),
    "ildec.outcome.fail_radius": (("decodes_per_s",), IL),
    "bench.run_trial.calls": (("decodes_per_s",), IL),
    "bench.run_trial.self_s": (("decodes_per_s",), IL),
    "grscode.default_spec.self_s": (("setup_s", "run_s"), IL),
    "ilbounds.all_bounds.calls": (("run_s",), ALL),
    "ilbounds.all_bounds.self_s": (("run_s",), ALL),
    "skew.minimal_polynomial.calls": (("run_s",), ("construct",)),
    "skew.minimal_polynomial.self_s": (("run_s",), ("construct",)),
    "skew.skew_mul.calls": (("run_s",), ("construct",)),
    "skew.skew_mul.self_s": (("run_s",), ("construct",)),
    "support.gm_check.calls": (("run_s",), ("construct",)),
    "support.gm_check.self_s": (("run_s",), ("construct",)),
    "support.solve_source_lengths.self_s": (("run_s",), ("construct",)),
    "support.build_constrained_generator.self_s": (("run_s",), ("construct",)),
    "support.build.attempts": (("run_s",), ("construct",)),
    "lrs.generator_matrix.self_s": (("run_s",), ("construct",)),
    "lrs.is_msrd.self_s": (("run_s",), ("construct",)),
    "metric.min_distance_bruteforce.calls": (("run_s",), ("construct",)),
    "metric.min_distance_bruteforce.self_s": (("run_s",), ("construct",)),
    "metric.classical_bounds.self_s": (("run_s",), ("construct",)),
    "qlrs.good_monomials.calls": (("run_s",), ("construct",)),
    "qlrs.good_monomials.self_s": (("run_s",), ("construct",)),
    "qlrs.bad_star_count.self_s": (("run_s",), ("construct",)),
    "aad.construct.self_s": (("run_s", "peak_rss_mb"), ("construct",)),
    "aad.verify_spread.self_s": (("run_s", "peak_rss_mb"), ("construct",)),
    "aad.verify_aad.self_s": (("run_s", "peak_rss_mb"), ("construct",)),
    "netgap.rmax_upper.self_s": (("run_s",), ("construct",)),
    "netgap.rmax_lower.self_s": (("run_s",), ("construct",)),
    "netgap.qt_conditions.self_s": (("run_s",), ("construct",)),
    "netgap.gap_bounds.self_s": (("run_s",), ("construct",)),
    "cli.main.self_s": (("run_s",), ALL),
}
