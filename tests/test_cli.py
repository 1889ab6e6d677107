import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from skewcodes import aad, cli, gf, metric, support


def run_cli(args, timeout=300):
    proc = subprocess.run([sys.executable, "-m", "skewcodes.cli"] + args,
                          capture_output=True, text=True, timeout=timeout)
    return proc


def test_skew_eval_paper_example(tmp_path):
    out = tmp_path / "eval.json"
    code = cli.main(["--out", str(out), "skew-eval", "--q", "2", "--m", "2",
                     "--beta", "1", "--coeffs", "1 1 0 1", "--points", "2"])
    assert code == 0
    payload = json.loads(out.read_text())
    # f(alpha) = alpha + 1; alpha is code 2 and alpha+1 is code 3 in F_4
    assert payload["values"]["2"] == 3


def test_skew_eval_rejects_out_of_range_codes(capsys):
    # GF(9) codes lie in [0, 9); -1 used to index the log table from the end
    # and print 6, and 100 used to exit 3 with "list index out of range"
    for option, value in (("--points", "-1"), ("--points", "100"),
                          ("--coeffs", "1 9"), ("--beta", "-1")):
        args = {"--coeffs": "1 1", "--points": "2", "--beta": "0"}
        args[option] = value
        argv = ["skew-eval", "--q", "9", "--m", "1"]
        for key, val in args.items():
            argv += [key, val]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert option in err
        assert value.split()[-1] in err


def test_lrs_gen_json_and_csv(tmp_path):
    out = tmp_path / "gen.csv"
    code = cli.main(["--format", "csv", "--out", str(out), "lrs-gen",
                     "--q", "3", "--m", "2", "--lengths", "2 2", "--k", "2"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert len(lines[0].split(",")) == 4


def test_lrs_gen_over_a_base_without_tables(capsys):
    # exited 3: the representative check read the log table of GF(2^21)
    argv = ["lrs-gen", "--q", "2097152", "--m", "1", "--lengths", "1",
            "--k", "1"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"] == [[1]]
    assert "matrix_gamma_exponents" not in payload      # no tables


def test_support_check():
    code = cli.main(["support-check", "--n", "4", "--zeros", "1; 2"])
    assert code == 0


@pytest.mark.parametrize("zeros, k", [("1;;2", 3), (";", 2)])
def test_support_check_keeps_blank_zero_rows(capsys, zeros, k):
    # a blank part is the row Z_i = {}; "1;;2" used to give k 2 and ";" k 0
    assert cli.main(["support-check", "--n", "3", "--zeros", zeros]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == k
    assert payload["ktilde"] == k


@pytest.mark.parametrize("n, zeros, message", [
    ("2", ";;", "--zeros gives k = 3 rows, more than --n 2"),
    ("0", "", "--n 0 must be >= 1"),
])
def test_support_check_rejects_impossible_patterns(capsys, n, zeros, message):
    assert cli.main(["support-check", "--n", n, "--zeros", zeros]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_support_build_keeps_blank_zero_rows(capsys):
    argv = ["--seed", "1", "support-build", "--n", "3", "--zeros", "1;;2",
            "--q", "3", "--m", "3", "--lengths", "2 1"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["generator"]) == 3
    # the generator vanishes on each row's zeros, including the padded ones
    for row, zeros in zip(payload["generator"], payload["padded_zeros"]):
        assert all(row[j - 1] == 0 for j in zeros)


@pytest.mark.parametrize("n, zeros, lengths, named", [
    ("5", "4; 5", "2 1", "pattern has n = 5 columns, the code has n = 3"),
    ("3", "1; 2", "2 2", "pattern has n = 3 columns, the code has n = 4"),
])
def test_support_build_rejects_pattern_of_other_length(capsys, n, zeros,
                                                       lengths, named):
    # the first used to exit 3 (list index out of range), the second to
    # print a 4-column generator for a 3-column pattern
    argv = ["--seed", "1", "support-build", "--n", n, "--zeros", zeros,
            "--q", "3", "--m", "2", "--lengths", lengths]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err


def test_support_build_unpadded_row_is_internal(monkeypatch, capsys):
    # a GM pattern can always be padded, so a row left short is a bug: it
    # used to exit 2 and print "infeasible"
    monkeypatch.setattr(support, "_pad_row", lambda zeros, n, i: None)
    argv = ["--seed", "1", "support-build", "--n", "3", "--zeros", "; 2",
            "--q", "3", "--m", "2", "--lengths", "2 1"]
    assert cli.main(argv) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert "internal: could not pad row 1 to size 1" in err


def test_support_build_requires_seed():
    code = cli.main(["support-build", "--n", "3", "--zeros", "1; 2",
                     "--q", "3", "--m", "2", "--lengths", "2 1"])
    assert code == cli.EXIT_USAGE


def test_dist_design_toy(tmp_path):
    out = tmp_path / "design.json"
    code = cli.main(["--seed", "7", "--out", str(out), "dist-design",
                     "--lengths", "1 3 2 3",
                     "--access", "1 2 3; 1 2 4; 1 3 4; 2 3 4",
                     "--t", "2", "--rho", "2", "--ell", "1"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert (payload["n"], payload["ktilde"], payload["d"]) == (15, 9, 7)
    assert (payload["q"], payload["m"]) == (2, 15)


def test_dist_design_infeasible_exit_code():
    code = cli.main(["--seed", "7", "dist-design", "--lengths", "1 1",
                     "--access", "1", "--t", "1", "--rho", "0",
                     "--ell", "1"])
    assert code == cli.EXIT_INFEASIBLE


@pytest.mark.parametrize("lengths, value", [("-1 2", "r_1 = -1"),
                                            ("0 0", "r_1 = 0")])
def test_dist_design_rejects_lengths_below_one(capsys, lengths, value):
    # "-1 2" gave a design for a message of length -1
    argv = ["--seed", "1", "dist-design", "--lengths", lengths, "--access",
            "1;2", "--t", "1", "--rho", "1", "--ell", "1"]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"message length {value} must be >= 1" in err


def test_dist_design_rejects_blank_access_part(capsys):
    # the blank part was dropped: a three-sink design (n 25, ktilde 11)
    argv = ["--seed", "1", "dist-design", "--lengths", "1 3 2 3",
            "--access", "1 2 3;;1 3 4; 2 3 4", "--t", "2", "--rho", "2",
            "--ell", "3"]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert "access set J_2 = [] must be a nonempty subset" in err


@pytest.mark.parametrize("access, sizes", [
    # the repeated "1 2" overwrote its twin: sizes summed to 3, not n = 6
    ("1; 2; 1 2; 1 2", {"1": 1, "2": 2, "1 2": 3}),
    ("1; 2; 1 2", {"1": 1, "2": 2, "1 2": 3}),
])
def test_dist_design_merges_repeated_access_sets(capsys, access, sizes):
    argv = ["--seed", "1", "dist-design", "--lengths", "1 2", "--access",
            access, "--t", "1", "--rho", "1", "--ell", "1"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["source_lengths"] == sizes
    assert sum(sizes.values()) == payload["n"] == 6


@pytest.mark.parametrize("option, value, message", [
    # --ell 0 divided by zero (exit 3); --t -1 blamed the block lengths
    ("--ell", "0", "ell = 0 must be >= 1"),
    ("--t", "-1", "t = -1 must be >= 0"),
    ("--rho", "-1", "rho = -1 must be >= 0"),
])
def test_dist_design_rejects_negative_parameters(capsys, option, value,
                                                 message):
    params = {"--t": "1", "--rho": "1", "--ell": "1", option: value}
    argv = ["--seed", "1", "dist-design", "--lengths", "1 2", "--access",
            "1; 2"] + [x for item in params.items() for x in item]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_netgap_command(tmp_path):
    out = tmp_path / "netgap.json"
    code = cli.main(["--out", str(out), "netgap", "--h", "12",
                     "--r", "800000", "--alpha", "18", "--ell", "1",
                     "--eps", "2"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["theta"] == 18 - 10 + 1
    assert len(payload["qt_curves"]) == 8
    assert payload["gap"]["gap_lb"] <= payload["gap"]["gap_ub"]


def test_netgap_rejects_constant_f(capsys):
    # alpha*ell + eps - h = 0 and eps = 0 make f(t) = 1, and the t_delta
    # search of gap_bounds used to run forever
    argv = ["netgap", "--h", "9", "--r", "4", "--alpha", "9", "--ell", "1",
            "--eps", "0", "--q", "9"]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert "does not grow with t" in err


@pytest.mark.parametrize("r", ["0", "-3"])
def test_netgap_rejects_r_below_one(capsys, r):
    # r reached math.log2 in gap_bounds and failed with "math domain error"
    argv = ["netgap", "--h", "9", "--r", r, "--alpha", "9", "--ell", "1",
            "--eps", "1", "--q", "9"]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"r = {r} must be >= 1" in err


@pytest.mark.parametrize("args, message", [
    # alpha = 1 and theta = 0 divided by zero (exit 3); h < 1 printed gaps
    (("--h", "1", "--r", "1", "--alpha", "1", "--ell", "1", "--eps", "0"),
     "alpha = 1 must be >= 2"),
    (("--h", "3", "--r", "1", "--alpha", "2", "--ell", "1", "--eps", "0"),
     "h = 3 exceeds alpha*ell + eps = 2"),
    (("--h", "-2", "--r", "10", "--alpha", "2", "--ell", "1", "--eps", "0"),
     "h = -2 must be >= 1"),
])
def test_netgap_rejects_unsolvable_window(capsys, args, message):
    assert cli.main(["netgap", *args]) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_netgap_rejects_alpha_beyond_float_factorial(capsys):
    # (alpha-1)! of beta overflowed a float: exit 3 with "int too large to
    # convert to float"
    argv = ["netgap", "--h", "3", "--r", "4", "--ell", "1", "--eps", "1"]
    assert cli.main([*argv, "--alpha", "171"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main([*argv, "--alpha", "172"]) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert "alpha = 172 exceeds 171" in err


@pytest.mark.parametrize("tmax", ["0", "-3"])
def test_netgap_rejects_tmax_below_one(capsys, tmax):
    # a t_max below 1 used to print an empty "qt_curves" list with exit 0
    argv = ["netgap", "--h", "12", "--r", "800000", "--alpha", "18",
            "--ell", "1", "--eps", "2", "--tmax", tmax]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"t_max = {tmax} must be >= 1" in err


def test_il_sim_scan(tmp_path):
    out = tmp_path / "scan.json"
    code = cli.main(["--seed", "5", "--out", str(out), "il-sim",
                     "--q", "8", "--m", "1", "--n", "7", "--d", "5",
                     "--s", "1", "--trials", "40", "--scan"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["threshold"] == 2 == payload["expected"]


@pytest.mark.parametrize("target", ["-1", "nan", "1.5"])
def test_il_sim_scan_rejects_target_outside_unit_interval(capsys, target):
    # -1 and nan used to print threshold 7 (= n), and 1.5 to print 0
    argv = ["--seed", "1", "il-sim", "--q", "2", "--m", "3", "--n", "7",
            "--d", "3", "--s", "2", "--trials", "2", "--scan",
            "--target", target]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"target = {float(target)} must lie in [0, 1)" in err


def test_il_bounds_csv(tmp_path):
    out = tmp_path / "bounds.csv"
    code = cli.main(["--format", "csv", "--out", str(out), "il-bounds",
                     "--q", "2", "--m", "5", "--n", "31", "--d", "11",
                     "--s", "3"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,RS,LA,LA1,LA2,LT,U,Sim"
    assert len(lines) == 10    # t = 1..9 = tmax + 2


@pytest.mark.parametrize("extra, bad", [
    (["--m", "8", "--q", "6", "--d", "5"], "q = 6 is not a prime power"),
    (["--m", "8", "--q", "2", "--d", "0"], "d = 0 must be >= 1"),
    (["--m", "8", "--q", "2", "--d", "-4"], "d = -4 must be >= 1"),
    (["--m", "0", "--q", "2", "--d", "5"], "m = 0 must be >= 1"),
    (["--m", "-1", "--q", "2", "--d", "5"], "m = -1 must be >= 1"),
    (["--m", "5", "--q", "2", "--d", "31"], "d = 31 exceeds the length n = 30"),
], ids=["q-6", "d-0", "d-4", "m-0", "m-1", "d-31"])
def test_il_bounds_rejects_impossible_inputs(capsys, extra, bad):
    # the first three used to exit 0: numbers for GF(6), the row
    # "1,,,,,0,," for d = 0 and a bare header for d = -4; m <= 0 used to
    # blame n, as "GRS needs n <= q^m - 1"
    argv = ["il-bounds", "--n", "30", "--s", "2"] + extra
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert bad in err


def test_il_bounds_refuses_q_beyond_factoring_range(capsys):
    # q = 2^89 - 1 is prime, but above the range where the 13 Miller-Rabin
    # bases decide primality; trial division of such a q used to run for
    # hours
    q = str(2 ** 89 - 1)
    argv = ["il-bounds", "--n", "30", "--s", "2", "--q", q, "--m", "1",
            "--d", "5"]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert q in err and "Miller-Rabin range" in err


def test_il_bounds_q_prime_power_of_large_prime(capsys):
    # 43^16 is beyond the Miller-Rabin range, but a witness proves it
    # composite and Pollard-Brent splits it
    argv = ["il-bounds", "--n", "30", "--s", "2", "--q", str(43 ** 16),
            "--m", "1", "--d", "5"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    bounds = json.loads(out)["bounds"]
    assert [row["t"] for row in bounds] == [1, 2, 3, 4]
    assert bounds[0]["L.RS"] == 1.0


def test_qlrs_dim(tmp_path):
    out = tmp_path / "dim.json"
    assert cli.main(["--out", str(out), "qlrs-dim", "--ell", "3",
                     "--r", "3"]) == 0
    payload = json.loads(out.read_text())
    assert payload["dimension"] == 10


def test_qlrs_local(tmp_path):
    out = tmp_path / "local.json"
    assert cli.main(["--seed", "3", "--out", str(out), "qlrs-local",
                     "--ell", "3", "--r", "3", "--tau", "0.5",
                     "--trials", "200"]) == 0
    payload = json.loads(out.read_text())
    assert 0 <= payload["empirical_failure_rate"] <= 1


@pytest.mark.parametrize("argv, named", [
    (["qlrs-dim", "--ell", "12", "--r", "16"], "q^2 monomials = 16777216"),
    (["--seed", "1", "qlrs-local", "--ell", "8", "--r", "2", "--tau", "0.1",
      "--trials", "10"], "q^2 (q - 1) curve cells = 16711680"),
])
def test_qlrs_enumerations_refused_beyond_guard(capsys, argv, named):
    # unguarded, qlrs-dim --ell 12 took about 1 GB and qlrs-local --ell 8
    # about 20 s, and each ell more multiplies that by 4 and 8
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"enumeration guard exceeded ({named} > 2^22)" in err


def test_aad_commands(tmp_path):
    out = tmp_path / "aad.json"
    assert cli.main(["--out", str(out), "aad-verify", "--n", "4", "--k", "1",
                     "--q", "5"]) == 0
    payload = json.loads(out.read_text())
    assert payload["spread"] and payload["aad_ok"]
    assert payload["size"] == 25
    assert cli.main(["aad-build", "--n", "15", "--k", "2", "--q", "7"]) \
        == cli.EXIT_INFEASIBLE      # q < nk guard


@pytest.mark.parametrize("argv, value", [
    (["aad-build", "--n", "5", "--k", "1", "--q", "6"], "q = 6"),
    (["aad-verify", "--n", "5", "--k", "1", "--q", "7", "--l-bound", "-1"],
     "L = -1"),
    (["aad-verify", "--n", "5", "--k", "1", "--q", "7", "--l-bound", "-2"],
     "L = -2"),
    (["--seed", "1", "aad-verify", "--n", "5", "--k", "1", "--q", "7",
      "--mode", "sample", "--samples", "0"], "samples = 0"),
    (["--seed", "1", "aad-verify", "--n", "5", "--k", "1", "--q", "7",
      "--mode", "sample", "--samples", "-5"], "samples = -5"),
    (["aad-verify", "--n", "-1", "--k", "1", "--q", "0"], "n = -1"),
], ids=["q-6", "l-bound-1", "l-bound-2", "samples-0", "samples-5", "n-1"])
def test_aad_rejects_bad_values(capsys, argv, value):
    # these exited 3 (q = 6, L = -1, and n = -1 with q = 0, whose guard
    # raised 0 to a negative power) or 0 with a meaningless verdict
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert value in err


def test_aad_verify_checks_samples_before_spread(monkeypatch, capsys):
    def no_spread(family):
        raise AssertionError("verify_spread ran before the argument checks")
    monkeypatch.setattr(aad, "verify_spread", no_spread)
    argv = ["--seed", "1", "aad-verify", "--n", "5", "--k", "1", "--q", "7",
            "--mode", "sample", "--samples", "0"]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    assert "samples = 0" in capsys.readouterr().err


def test_aad_verify_guard_exits_quickly(capsys):
    # 9^7 > 2^22: the spread check ran first and took hours, then
    # construct built all 59,049 subspaces (about 1 s) before the guard
    start = time.perf_counter()
    code = cli.main(["aad-verify", "--n", "7", "--k", "1", "--q", "9"])
    assert time.perf_counter() - start < 0.5
    assert code == cli.EXIT_INFEASIBLE
    assert "exhaustive guard exceeded" in capsys.readouterr().err



@pytest.mark.parametrize("argv", [
    ["aad-build", "--n", "10", "--k", "1", "--q", "101"],
    ["--seed", "1", "aad-verify", "--n", "10", "--k", "1", "--q", "101",
     "--mode", "sample"],
], ids=["build", "verify-sample"])
def test_aad_family_guard_exits_quickly(capsys, argv):
    # both listed all 101^8 codewords before this guard
    start = time.perf_counter()
    code = cli.main(argv)
    assert time.perf_counter() - start < 0.5
    assert code == cli.EXIT_INFEASIBLE
    assert "family guard exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("l_bound, ok, upper, as_lower", [
    ("2", False, "801", 1.912931182772389),
    ("3", True, "1201", 7.0),
])
def test_aad_verify_sample_seeded_output(capsys, l_bound, ok, upper,
                                         as_lower):
    # pins the draw order of sample mode: i, then u until u is outside S_i
    argv = ["--seed", "3", "aad-verify", "--n", "5", "--k", "1", "--q", "7",
            "--mode", "sample", "--samples", "300", "--l-bound", l_bound]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"size": 343, "spread": True, "aad_ok": ok,
                       "L": int(l_bound), "upper_bound": upper,
                       "asymptotic_lower": as_lower}


def test_bounds_table(tmp_path):
    out = tmp_path / "btable.json"
    assert cli.main(["--out", str(out), "bounds-table", "--metric",
                     "hamming", "--n", "7", "--d", "3", "--q", "2"]) == 0
    payload = json.loads(out.read_text())
    names = {b["name"] for b in payload["bounds"]}
    assert names == {"singleton", "sphere_packing", "gilbert_varshamov"}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
def test_bounds_table_prints_values_beyond_the_digit_limit(capsys):
    # GV's numerator has 48,165 digits: str() refused it past Python's
    # 4,300-digit limit and the command exited 2 as an infeasible instance
    argv = ["--metric", "rank", "--n", "400", "--d", "200", "--q", "2",
            "--m", "400"]
    limit = sys.get_int_max_str_digits()
    assert cli.main(["bounds-table", *argv]) == cli.EXIT_OK
    assert sys.get_int_max_str_digits() == limit
    printed = json.loads(capsys.readouterr().out)["bounds"]
    reports = metric.classical_bounds(metric.RANK, 400, 200, 2, 400)
    sys.set_int_max_str_digits(0)       # reading them back converts too
    try:
        assert [Fraction(b["value"]) for b in printed] == \
            [r.value for r in reports]
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(len(b["value"]) for b in printed) > limit


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
def test_argv_integer_beyond_the_digit_limit_refused(capsys):
    # the limit is lifted only while the output is formatted
    big = "1" + "0" * 4400
    argv = ["netgap", "--h", "2", "--r", big, "--alpha", "3", "--ell", "1",
            "--eps", "0"]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "--r" in err


def test_bounds_table_rejects_bad_partition_and_q(capsys):
    # the first two and m = 0 used to print bounds and exit 0, and m = -1
    # to exit 3 with "both arguments should be Rational instances"
    for args, bad in ((["--metric", "sumrank", "--n", "8", "--d", "3",
                        "--q", "2", "--m", "4", "--partition", "4 3"],
                       "[4, 3] sums to 7, not n = 8"),
                      (["--metric", "hamming", "--n", "7", "--d", "3",
                        "--q", "6"], "q = 6 is not a prime power"),
                      (["--metric", "rank", "--n", "9", "--d", "9",
                        "--q", "3", "--m", "-1"], "m = -1 must be >= 1"),
                      (["--metric", "rank", "--n", "3", "--d", "2",
                        "--q", "3", "--m", "0"], "m = 0 must be >= 1")):
        assert cli.main(["bounds-table"] + args) == cli.EXIT_INFEASIBLE
        out, err = capsys.readouterr()
        assert out == ""
        assert bad in err


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seed=9\ntrials=7\n")
    config = ["--config", str(cfg)]
    argv = ["qlrs-local", "--ell", "2", "--r", "1", "--tau", "0.2"]
    # trials=7 used to be ignored in favour of the default 1000; an
    # explicit flag still wins over the file, and the file's defaults end
    # with its call (calls without --config share one parser)
    for head, extra, want in ((config, [], 7), (config, ["--trials", "5"], 5),
                              (["--seed", "9"], [], 1000)):
        assert cli.main(head + argv + extra) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == want


def test_config_file_supplies_required_options(tmp_path, capsys):
    # used to exit 1 with "the following arguments are required: --q, --m"
    cfg = tmp_path / "field.cfg"
    cfg.write_text("q=4\nm=3\n")
    argv = ["lrs-gen", "--lengths", "2", "--k", "1"]
    assert cli.main(["--config", str(cfg)] + argv) == 0
    from_file = capsys.readouterr().out
    assert cli.main(argv + ["--q", "4", "--m", "3"]) == 0
    assert from_file == capsys.readouterr().out
    # a required option that neither the file nor argv sets is still missing
    assert cli.main(["--config", str(cfg), "lrs-gen", "--lengths", "2"]) \
        == cli.EXIT_USAGE
    assert "required: --k" in capsys.readouterr().err


QLRS_LOCAL = ["qlrs-local", "--ell", "2", "--r", "1", "--tau", "0.2"]
IL_SIM = ["il-sim", "--q", "2", "--m", "3", "--n", "7", "--d", "3", "--s",
          "1", "--trials", "2"]


@pytest.mark.parametrize("key, argv", [
    ("trails", QLRS_LOCAL), ("n", QLRS_LOCAL), ("scan", QLRS_LOCAL),
    ("scan", IL_SIM), ("help", IL_SIM)],
    ids=["typo", "other-subcommand", "flag-elsewhere", "flag", "help"])
def test_config_file_rejects_unknown_keys_and_flags(tmp_path, capsys, key,
                                                    argv):
    # trails=7 and scan=1 used to be dropped, and qlrs-local ran its default
    # 1000 trials and exited 0; --scan and -h take no value, so a file
    # cannot set them
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"seed=9\n{key}=1\n")
    assert cli.main(["--config", str(cfg)] + argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert (f"config: '{key}' is not an option of {argv[0]} that takes a "
            f"value") in err


def test_lrs_gen_refuses_a_field_without_a_modulus_in_budget(capsys,
                                                           monkeypatch):
    # GF(256) has no irreducible z^4 + a z + b, and the modulus search gives
    # up after its Rabin-test budget instead of walking 2^16 candidates; the
    # budget is lowered from 2^17 tests to keep this quick
    monkeypatch.setattr(gf, "_RABIN_TESTS", 1024)
    code = cli.main(["lrs-gen", "--q", "256", "--m", "4",
                     "--lengths", "3", "--k", "1"])
    assert code == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert "degree 4 over GF(256)" in err
    assert "GF(256^4) cannot be built" in err


def test_il_sim_and_il_bounds_reject_bad_s_and_n(capsys):
    # s = 0 used to exit 3 with "internal: Fraction(31, 0)", and n = 40
    # over GF(32) to blame the locators
    code = ["--q", "2", "--m", "5", "--d", "5"]
    for argv, bad in ((["--seed", "1", "il-sim", "--n", "10", "--s", "0"],
                       "s = 0"),
                      (["il-bounds", "--n", "10", "--s", "0"], "s = 0"),
                      (["--seed", "1", "il-sim", "--n", "40", "--s", "2"],
                       "n = 40 exceeds q^m - 1 = 31")):
        assert cli.main(argv + code) == cli.EXIT_INFEASIBLE
        out, err = capsys.readouterr()
        assert out == ""
        assert bad in err


def test_qlrs_local_rejects_bad_tau_and_trials(capsys):
    # tau = 1.5 used to exit 0 with failure rate 1.0, tau = -0.5 to report a
    # closed-form probability of 1.39e55, and --trials 0 to exit 3
    for extra, bad in ((["--tau", "1.5"], "tau = 1.5"),
                       (["--tau", "-0.5"], "tau = -0.5"),
                       (["--tau", "0.5", "--trials", "0"], "trials = 0")):
        argv = ["--seed", "1", "qlrs-local", "--ell", "4", "--r", "1"]
        assert cli.main(argv + extra) == cli.EXIT_INFEASIBLE
        out, err = capsys.readouterr()
        assert out == ""
        assert bad in err


@pytest.mark.parametrize("argv, named", [
    (["lrs-gen", "--lengths", "5", "--k", "16"], "k = 16, n = 5"),
    (["--seed", "1", "support-build", "--n", "30", "--zeros", "1; 2",
      "--lengths", "28 2"], "n_l = 28, m = 27"),
], ids=["lrs-gen", "support-build"])
def test_lrs_shape_rejected_before_building_the_field(capsys, argv, named):
    # both used to be rejected only after the degree-27 modulus search of
    # GF(9^27), which runs for more than 10 s
    start = time.perf_counter()
    code = cli.main(argv + ["--q", "9", "--m", "27"])
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err


@pytest.mark.parametrize("argv, code, named", [
    (["--seed", "8", "qlrs-local", "--ell", "172", "--r", "4", "--tau",
      "0.9"], cli.EXIT_INFEASIBLE, "enumeration guard exceeded"),
    (["--seed", "1", "il-sim", "--q", "7", "--m", "172", "--n", "10", "--d",
      "3", "--s", "-1", "--trials", "1"], cli.EXIT_INFEASIBLE, "s = -1"),
    (["--seed", "1", "il-sim", "--q", "7", "--m", "172", "--n", "10", "--d",
      "3", "--s", "2", "--trials", "0"], cli.EXIT_INFEASIBLE,
     "trial count must be >= 1"),
    (["il-sim", "--q", "7", "--m", "172", "--n", "10", "--d", "3", "--s",
      "2"], cli.EXIT_USAGE, "--seed is required"),
], ids=["qlrs-local", "il-sim-s", "il-sim-trials", "il-sim-seed"])
def test_field_free_arguments_rejected_before_any_field(monkeypatch, capsys,
                                                       argv, code, named):
    # each used to build GF(2^172) (about 3 s) or try to build GF(7^172)
    # (about 15 s, failing to factor 7^172 - 1) before the refusing check
    def no_field(*args):
        raise AssertionError("a field was built before the checks")
    monkeypatch.setattr(gf, "field", no_field)
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err


@pytest.mark.parametrize("argv, code, named", [
    (["skew-eval", "--q", "25", "--m", "40", "--beta", "1", "--coeffs", "x",
      "--points", "1"], cli.EXIT_USAGE, "--coeffs: 'x' is not an integer"),
    (["skew-eval", "--q", "7", "--m", "172", "--beta", "16", "--coeffs", ";",
      "--points", "1"], cli.EXIT_USAGE, "--coeffs: ';' is not an integer"),
    (["skew-eval", "--q", "25", "--m", "40", "--beta", "-1", "--coeffs", "x",
      "--points", "1"], cli.EXIT_INFEASIBLE,
     "--beta value -1 is not an element code of GF(5^80)[q=25,m=40]"),
    (["skew-eval", "--q", "25", "--m", "40", "--coeffs", "1",
      "--points", str(25 ** 40)], cli.EXIT_INFEASIBLE,
     f"--points value {25 ** 40} is not an element code"),
    (["skew-eval", "--q", "25", "--m", "0", "--coeffs", "1", "--points",
      "1"], cli.EXIT_INFEASIBLE, "--m 0 must be >= 1"),
    (["--seed", "1", "support-build", "--n", "11", "--zeros", "1;2", "--q",
      "8", "--m", "31", "--lengths", "2 3"], cli.EXIT_INFEASIBLE,
     "pattern has n = 11 columns, the code has n = 5"),
], ids=["skew-eval-coeffs", "skew-eval-semicolon", "skew-eval-beta",
        "skew-eval-points", "skew-eval-m", "support-build-n"])
def test_codes_and_pattern_length_rejected_before_the_field(monkeypatch,
                                                            capsys, argv,
                                                            code, named):
    # each used to build GF(25^40) (about 25 s), fail to build GF(7^172)
    # (about 8 s, exit 2) or build GF(8^31) (about 3.5 s) first
    def no_field(*args):
        raise AssertionError("a field was built before the checks")
    monkeypatch.setattr(gf, "field_q", no_field)
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err


def test_code_refusal_names_the_field_it_would_build(capsys):
    for q, m in ((9, 1), (4, 3), (5, 2), (2, 8)):
        argv = ["skew-eval", "--q", str(q), "--m", str(m), "--coeffs", "1",
                "--points", str(q ** m)]
        assert cli.main(argv) == cli.EXIT_INFEASIBLE
        assert f"element code of {gf.field_q(q, m)!r}: codes lie in " \
            f"[0, {q ** m})" in capsys.readouterr().err


def test_module_entry_point():
    proc = run_cli(["support-check", "--n", "3", "--zeros", "1; 2"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gm_ok"]


@pytest.mark.parametrize("argv, option, token", [
    (["support-check", "--n", "3", "--zeros", "a"], "--zeros", "a"),
    (["support-check", "--n", "3", "--zeros", "1;2 b"], "--zeros", "b"),
    (["--seed", "7", "dist-design", "--lengths", "1 x", "--access", "1;2",
      "--t", "1", "--rho", "1", "--ell", "2"], "--lengths", "x"),
    (["--seed", "7", "dist-design", "--lengths", "1 1", "--access", "1;2,y",
      "--t", "1", "--rho", "1", "--ell", "2"], "--access", "y"),
    (["bounds-table", "--metric", "sumrank", "--n", "8", "--d", "3", "--q",
      "2", "--m", "4", "--partition", "4 4.0"], "--partition", "4.0"),
    (["skew-eval", "--q", "9", "--m", "1", "--coeffs", "1 z", "--points",
      "2"], "--coeffs", "z"),
    (["skew-eval", "--q", "9", "--m", "1", "--coeffs", "1 1", "--points",
      "0x2"], "--points", "0x2"),
    (["lrs-gen", "--q", "3", "--m", "4", "--lengths", "2 two", "--k", "2"],
     "--lengths", "two"),
])
def test_malformed_integer_lists_name_the_flag(capsys, argv, option, token):
    # these used to exit 2 with "invalid literal for int() with base 10"
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert option in err and repr(token) in err
