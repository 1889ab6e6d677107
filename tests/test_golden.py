"""Golden outputs: the SHA-256 of whole CLI outputs at fixed seeds.

Each case runs ``cli.main`` in process and hashes its stdout, or the file
that ``--out`` names.  The cases are the README CLI examples, ``il-bounds``
at n = 255 and at n = 2000, ``aad-build``, one ``il-sim`` with a fixed error support and the GF(7^11)
``dist-design`` of the benchmark's ``construct`` workload.  A change that
alters any printed byte fails here; if the change is meant, it records the
old and new digests in CHANGES.md.
Two variants of README examples, with an explicit ``--format json`` and
with options moved into a ``--config`` file, must print the same bytes.
"""

import hashlib
import pathlib
import re
import shlex

import pytest

from skewcodes import cli

ACCESS = "1 2 3; 1 2 4; 1 3 4; 2 3 4"

# name -> (argv, SHA-256 of the output)
GOLDEN = {
    "readme-skew-eval": (
        ["skew-eval", "--q", "2", "--m", "2", "--beta", "1",
         "--coeffs", "1 1 0 1", "--points", "2"],
        "9dec81aeb7176c049ad42be128e69ea1"
        "df40be5b4b0a8d9cfcee7b4f7c084fd7"),
    "readme-lrs-gen": (
        ["lrs-gen", "--q", "4", "--m", "4", "--lengths", "4 4 4", "--k", "3"],
        "fa3761e7b7eaffebac597bc7ba9608ee"
        "d05bfbab90d61d453e6297c0fa0dc2cf"),
    "readme-support-check": (
        ["support-check", "--n", "4", "--zeros", "1; 2"],
        "2011770622d2abcfc9896e6b4dad919b"
        "a514a7f0936fa45b5dc1845abc22ea3c"),
    "readme-support-build": (
        ["--seed", "7", "support-build", "--n", "3", "--zeros", "1; 2",
         "--q", "3", "--m", "2", "--lengths", "2 1"],
        "4cb5385d4cbe7520676c0bdf7b174450"
        "64888048827a4594222f00728977a82f"),
    "readme-dist-design": (
        ["--seed", "7", "dist-design", "--lengths", "1 3 2 3",
         "--access", ACCESS, "--t", "2", "--rho", "2", "--ell", "3"],
        "a0a99812e47d7c95e562d4a91277e86c"
        "c1e5428f1216035954930ef36bf87e58"),
    "readme-netgap": (
        ["netgap", "--h", "12", "--r", "800000", "--alpha", "18",
         "--ell", "1", "--eps", "2"],
        "55011213ddfef28d31e802f0f6e72d5c"
        "5de3b8b270e7b0b4b4be78f08bcddf66"),
    "readme-il-sim-scan": (
        ["--seed", "11", "il-sim", "--kind", "grs", "--q", "2", "--m", "5",
         "--n", "31", "--d", "11", "--s", "3", "--trials", "100", "--scan"],
        "e47ab12ca5f60c014e5352892992c3a7"
        "79e06c0f5f4471eb422f9d01e01fbadc"),
    "readme-il-sim-curves-out": (
        ["--seed", "11", "--format", "csv", "il-sim", "--kind", "alternant",
         "--q", "2", "--m", "5", "--n", "31", "--d", "11", "--s", "2",
         "--trials", "100", "--out", "{out}"],
        "d6c54429408f952d18ff0e9f982d0d8e"
        "0b3da64392f94dd55c270a8c08ba7b72"),
    "readme-qlrs-dim": (
        ["qlrs-dim", "--ell", "5", "--r", "4"],
        "0a8b2981369d75e932a594970f358ab4"
        "e49a921878d4fd8f5c9a8542265485c1"),
    "readme-qlrs-local": (
        ["--seed", "3", "qlrs-local", "--ell", "3", "--r", "3",
         "--tau", "0.5", "--trials", "5000"],
        "c4ba1f30f970add225644d45af534681"
        "c4f3e0d511ae02d0c69edc3d5a5a1109"),
    "readme-aad-verify": (
        ["aad-verify", "--n", "4", "--k", "1", "--q", "5"],
        "02f95cc78e6f9f50039edaafdbb148d8"
        "96dfc5908a3a320c8248a6beec47c3ff"),
    "readme-bounds-table": (
        ["bounds-table", "--metric", "sumrank", "--n", "8", "--d", "3",
         "--q", "2", "--m", "4", "--partition", "4 4"],
        "291eb6532d4d5a1d3188ac63bab25529"
        "5778accb3b16524b07745444f7426e23"),
    "il-bounds": (
        ["il-bounds", "--q", "2", "--m", "8", "--n", "255", "--d", "33",
         "--s", "3"],
        "24e568f6e66cd27a06203f96d05dbbc8"
        "7bd06b23dc79b921dae741ce78cee948"),
    "il-bounds-n2000": (
        ["il-bounds", "--q", "2", "--m", "12", "--n", "2000", "--d", "151",
         "--s", "4"],
        "67181ea5be5cdcce726aa650414d825d"
        "adb77bfc76b5a22e4fb325edc6369196"),
    "aad-build": (
        ["aad-build", "--n", "5", "--k", "2", "--q", "11"],
        "201960945d713bf871f333dff021ecdf"
        "d642d2e407a2c97ca00320eae242baec"),
    "il-sim-fixed-support": (
        ["--seed", "5", "il-sim", "--kind", "alternant", "--q", "3",
         "--m", "2", "--n", "8", "--d", "5", "--s", "2", "--trials", "40",
         "--support-mode", "fixed"],
        "7dcb7fb1f6520567eafd13bb407111ff"
        "c3ee74070339d54d32319033294274bf"),
    "dist-design-ell5": (
        ["--seed", "7", "dist-design", "--lengths", "1 3 2 3",
         "--access", ACCESS, "--t", "2", "--rho", "2", "--ell", "5"],
        "de55e3fdac6f5ca845733f6ecfd99737"
        "140d936cee5054cfd7313f40bbeb747d"),
    "aad-verify-l1": (
        ["aad-verify", "--n", "4", "--k", "1", "--q", "5", "--l-bound", "1"],
        "06547261d04a74fa8f3c977538a738ff"
        "a7c7bb8eff07026c42e358050ac3b629"),
    "aad-verify-sample-k1": (
        ["--seed", "3", "aad-verify", "--n", "5", "--k", "1", "--q", "7",
         "--mode", "sample", "--samples", "300"],
        "046e0d56d157190535df1e7cb8a5a70d"
        "0326f5747d4103d0c00dd630971b800b"),
    "aad-verify-sample-k2-l3": (
        ["--seed", "5", "aad-verify", "--n", "5", "--k", "2", "--q", "11",
         "--mode", "sample", "--samples", "200", "--l-bound", "3"],
        "f377125a52db6a8ba1836aa86ce0fda6"
        "3d1715fe65904e1564b072c0f53c4a22"),
}


# name -> (the GOLDEN case it must match, its argv, the --config file text)
VARIANTS = {
    "readme-lrs-gen-format-json": (
        "readme-lrs-gen",
        ["--format", "json", "lrs-gen", "--q", "4", "--m", "4",
         "--lengths", "4 4 4", "--k", "3"], None),
    # the file sets the required --ell and the optional --trials
    "readme-qlrs-local-config": (
        "readme-qlrs-local",
        ["--seed", "3", "--config", "{config}", "qlrs-local", "--r", "3",
         "--tau", "0.5"], "ell=3\ntrials=5000\n"),
}


def golden_output(argv, tmp_path, capsys):
    """(exit code, the bytes the command printed or wrote to --out)."""
    out = tmp_path / "out.txt"
    argv = [a.replace("{out}", str(out))
             .replace("{config}", str(tmp_path / "golden.cfg")) for a in argv]
    code = cli.main(argv)
    printed = capsys.readouterr().out
    if "--out" in argv:
        assert printed == ""
        return code, out.read_bytes()
    return code, printed.encode()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    code, output = golden_output(argv, tmp_path, capsys)
    assert code == cli.EXIT_OK
    assert hashlib.sha256(output).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_golden_variant(name, tmp_path, capsys):
    case, argv, config = VARIANTS[name]
    if config is not None:
        (tmp_path / "golden.cfg").write_text(config)
    code, output = golden_output(argv, tmp_path, capsys)
    assert code == cli.EXIT_OK
    assert hashlib.sha256(output).hexdigest() == GOLDEN[case][1]


def readme_commands():
    """The argvs of the `skewcodes` commands in README.md's sh blocks, with
    backslash continuations joined and comments skipped."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["skewcodes"]:
                commands.append(argv[1:])
    return commands


def test_readme_cli_examples_are_the_golden_cases():
    readme = [["{out}" if a == "curves.csv" else a for a in argv]
              for argv in readme_commands()]
    golden = [argv for name, (argv, _) in GOLDEN.items()
              if name.startswith("readme-")]
    assert len(readme) == 12
    assert readme == golden
