"""Command-line interface binding every module.

Exit codes: 0 ok, 1 usage error, 2 infeasible instance or guard violation,
3 internal error.  Stochastic subcommands require --seed; --out writes the
payload to a file instead of stdout; --config FILE loads key=value defaults
that explicit flags override, and may supply required options.  Each key
must name a global option or an option of the subcommand that takes a value.
"""

import argparse
import functools
import json
import sys

from . import (aad, bench, gf, ilbounds, ildec, lrs, metric, netgap, qlrs,
               skew, support)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


class GuardError(Exception):
    pass


def _emit(args, payload, text=None):
    """JSON by default, with Fractions as strings; CSV/text payloads pass
    through as-is.  Exact values print in full: the int-to-str digit limit
    of Python >= 3.10.7 is lifted while the payload is formatted (before
    3.10.7 there is no limit, and int() stands in for its getter and
    setter)."""
    if args.format == "csv" and text is not None:
        out = text
    else:
        limit = getattr(sys, "get_int_max_str_digits", int)()
        set_limit = getattr(sys, "set_int_max_str_digits", int)
        set_limit(0)
        try:
            out = json.dumps(payload, indent=2, default=str) + "\n"
        finally:
            set_limit(limit)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _parse_ints(option, text):
    """The integers of a comma- or blank-separated list; a UsageError that
    names the option and the bad token otherwise."""
    out = []
    for token in text.replace(",", " ").split():
        try:
            out.append(int(token))
        except ValueError:
            raise UsageError(f"{option}: {token!r} is not an integer") \
                from None
    return out


def _parse_rows(option, text):
    """'1 2;;3' -> [{1,2}, set(), {3}]: every part is a row, blank is empty."""
    return [set(_parse_ints(option, part)) for part in text.split(";")]


def _load_config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _require_seed(args):
    if args.seed is None:
        raise UsageError("--seed is required for stochastic operations")
    return args.seed


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# subcommand implementations

def _check_codes(order, name, option, codes):
    """Element codes of the field `name` lie in [0, order)."""
    for c in codes:
        if not 0 <= c < order:
            raise GuardError(f"{option} value {c} is not an element code of "
                             f"{name}: codes lie in [0, {order})")
    return codes


def cmd_skew_eval(args):
    # before the field: a large m spends seconds in the modulus search
    p, e = gf.require_prime_power(args.q)
    if args.m < 1:
        raise GuardError(f"--m {args.m} must be >= 1")
    order, name = args.q ** args.m, gf.field_name(p, e, args.m)
    _check_codes(order, name, "--beta", [args.beta])
    coeffs = _check_codes(order, name, "--coeffs",
                          _parse_ints("--coeffs", args.coeffs))
    points = _check_codes(order, name, "--points",
                          _parse_ints("--points", args.points))
    fld = gf.field_q(args.q, args.m)
    ring = skew.SkewRing(fld, args.theta, args.beta)
    poly = ring.poly(coeffs)
    values = {str(a): poly.evaluate(a) for a in points}
    _emit(args, {"field": repr(fld), "values": values})


def _lrs_spec(args, k):
    """The default LRS spec of dimension k over --q, --m, --lengths."""
    lengths = tuple(_parse_ints("--lengths", args.lengths))
    # before the field: a large m spends seconds in the modulus search
    lrs.check_shape(args.q, args.m, lengths, k)
    return lrs.default_spec(gf.field_q(args.q, args.m), lengths, k)


def cmd_lrs_gen(args):
    spec = _lrs_spec(args, args.k)
    fld = spec.field
    gen = lrs.generator_matrix(spec)
    payload = {"n": spec.n, "k": spec.k, "blocks": list(spec.lengths),
               "locators": lrs.code_locators(spec), "matrix": gen}
    if fld.has_tables:
        payload["matrix_gamma_exponents"] = [
            [None if x == 0 else fld.log[x] for x in row]
            for row in gen]
    text = "\n".join(",".join(str(x) for x in row) for row in gen) + "\n"
    _emit(args, payload, text)


def _pattern_from_args(args):
    rows = _parse_rows("--zeros", args.zeros)
    if args.n < 1:
        raise GuardError(f"--n {args.n} must be >= 1")
    if len(rows) > args.n:
        raise GuardError(f"--zeros gives k = {len(rows)} rows, more than "
                         f"--n {args.n}")
    return support.ZeroPattern(args.n, rows)


def cmd_support_check(args):
    pattern = _pattern_from_args(args)
    violation = support.gm_check(pattern)
    payload = {"n": pattern.n, "k": pattern.k,
               "gm_ok": violation is None,
               "ktilde": support.ktilde(pattern)}
    if violation is not None:
        payload["violating_rows"] = violation
    _emit(args, payload)


def cmd_support_build(args):
    seed = _require_seed(args)
    pattern = _pattern_from_args(args)
    # before the field, like the shape checks of _lrs_spec
    support.check_pattern_length(
        pattern, sum(_parse_ints("--lengths", args.lengths)))
    spec = _lrs_spec(args, pattern.k)
    rng = bench.SplitMix64(seed)
    result = support.build_constrained_generator(spec, pattern, rng)
    _emit(args, {"attempts": result.attempts,
                 "padded_zeros": [sorted(z) for z in result.pattern.zeros],
                 "transform": result.t_matrix,
                 "generator": result.generator})


def cmd_dist_design(args):
    seed = _require_seed(args)
    inst = support.NetworkInstance(_parse_ints("--lengths", args.lengths),
                                   _parse_rows("--access", args.access),
                                   args.t, args.rho, args.ell)
    rng = bench.SplitMix64(seed)
    res = support.distributed_design(inst, rng)
    _emit(args, {
        "n": res.n, "ktilde": res.ktilde, "d": res.d,
        "q": res.q, "m": res.m, "blocks": list(res.block_lengths),
        "source_lengths": {" ".join(map(str, sorted(k))): v
                           for k, v in res.source_lengths.items()},
        "generator_rows": len(res.generator),
        "generator_cols": len(res.generator[0])})


def _net_bounds(bounds):
    return [{"name": b.name, "applicable": b.applicable, "value": b.value,
             "log2": b.log2} for b in bounds]


def cmd_netgap(args):
    params = netgap.CombNetParams(h=args.h, r=args.r, alpha=args.alpha,
                                  ell=args.ell, eps=args.eps, q=args.q,
                                  t=args.t)
    payload = {"theta": params.theta,
               "uppers": _net_bounds(netgap.rmax_upper(params)),
               "lowers": _net_bounds(netgap.rmax_lower(params)),
               "qt_curves": netgap.qt_conditions(params, args.tmax),
               "gap": netgap.gap_bounds(params)}
    _emit(args, payload)


def cmd_il_sim(args):
    seed = _require_seed(args)
    # before the field: a large m spends seconds in the modulus search
    ilbounds.BoundInputs(q=args.q, m=args.m, n=args.n, d=args.d, s=args.s,
                         t=1)
    if args.trials < 1:
        raise GuardError("trial count must be >= 1")
    cfg = bench.ExperimentConfig(kind=args.kind,
                                 field=gf.field_q(args.q, args.m), n=args.n,
                                 d=args.d, s=args.s, trials=args.trials,
                                 seed=seed, support_mode=args.support_mode)
    if args.scan:
        thr = bench.threshold_scan(cfg, target=args.target,
                                   trials=args.trials)
        _emit(args, {"threshold": thr,
                     "expected": ildec.t_max_radius(args.d, args.s)})
        return
    text = bench.emit_curves(cfg)
    _emit(args, {"csv": text}, text)


def cmd_il_bounds(args):
    rows = bench.bound_rows(args.q, args.m, args.n, args.d, args.s)
    lines = [bench.CSV_HEADER] + [bench.csv_row(t, vals) for t, vals in rows]
    _emit(args, {"bounds": [{"t": t, **{k: None if v is None else float(v)
                                        for k, v in vals.items()}}
                            for t, vals in rows]}, "\n".join(lines) + "\n")


def cmd_qlrs_dim(args):
    params = qlrs.QlrsParams(args.ell, args.r)
    bad = qlrs.bad_star_count(params)
    payload = {"q": params.q, "r": args.r,
               "dimension": params.q ** 2 - bad,
               "bad_monomials": bad,
               "distance_bounds": qlrs.distance_bounds(params)}
    _emit(args, payload)


def cmd_qlrs_local(args):
    seed = _require_seed(args)
    params = qlrs.QlrsParams(args.ell, args.r)
    rng = bench.SplitMix64(seed)
    rate = qlrs.simulate_local(params, args.tau, args.trials, rng)
    _emit(args, {"q": params.q, "r": args.r, "tau": args.tau,
                 "trials": args.trials, "empirical_failure_rate": rate,
                 "lrs_closed_form_matched_r":
                     qlrs.lrs_fail_prob(params.q, args.r + 1, args.tau)})


def cmd_aad_build(args):
    fam = aad.construct(args.n, args.k, args.q)
    _emit(args, {"size": fam.size, "n": args.n, "k": args.k, "q": args.q,
                 "guaranteed_L": aad.guaranteed_l(args.n, args.k),
                 "generators": fam.generators})


def cmd_aad_verify(args):
    if args.mode == "exhaustive":
        aad.check_exhaustive_guard(args.n, args.q)
    fam = aad.construct(args.n, args.k, args.q)
    l_bound = args.l_bound if args.l_bound is not None \
        else aad.guaranteed_l(args.n, args.k)
    upper, as_lower = aad.bounds(args.n, args.k, l_bound, args.q)
    # verify_aad checks its mode's arguments before any coset work, so it
    # runs first: a rejected call never pays for verify_spread
    rng = (bench.SplitMix64(_require_seed(args)) if args.mode == "sample"
           else None)
    ok = aad.verify_aad(fam, l_bound, args.mode, args.samples, rng)
    spread = aad.verify_spread(fam)
    _emit(args, {"size": fam.size, "spread": spread, "aad_ok": ok,
                 "L": l_bound, "upper_bound": upper,
                 "asymptotic_lower": as_lower})


def cmd_bounds_table(args):
    part = None
    if args.partition:
        part = metric.OrderedPartition(
            tuple(_parse_ints("--partition", args.partition)))
    reports = metric.classical_bounds(args.metric, args.n, args.d, args.q,
                                      args.m, part)
    _emit(args, {"bounds": [{"name": r.name, "value": r.value,
                             "log10": r.log10} for r in reports]})


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewcodes",
        description="Exact-arithmetic workbench for skew-polynomial codes")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (required for stochastic ops)")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--config", default=None,
                        help="key=value defaults file")
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    # the global flags are also accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("csv", "json"),
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("skew-eval", help="evaluate a skew polynomial")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--theta", type=int, default=1)
    p.add_argument("--beta", type=int, default=0)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--points", required=True)
    p.set_defaults(func=cmd_skew_eval)

    p = add_parser("lrs-gen", help="LRS generator matrix")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lengths", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_lrs_gen)

    p = add_parser("support-check", help="GM condition and ktilde")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--zeros", required=True,
                   help="semicolon-separated rows of zero positions; "
                   "a blank row is the empty set")
    p.set_defaults(func=cmd_support_check)

    p = add_parser("support-build",
                       help="support-constrained LRS generator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--zeros", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lengths", required=True)
    p.set_defaults(func=cmd_support_build)

    p = add_parser("dist-design", help="distributed LRS design")
    p.add_argument("--lengths", required=True, help="message lengths r_i")
    p.add_argument("--access", required=True,
                   help="semicolon-separated access sets")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_dist_design)

    p = add_parser("netgap", help="combination-network bounds")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--eps", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--tmax", type=int, default=8)
    p.set_defaults(func=cmd_netgap)

    p = add_parser("il-sim", help="interleaved decoding simulation")
    p.add_argument("--kind", choices=("grs", "alternant"), default="grs")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--support-mode", choices=("random", "fixed"),
                   default="random")
    p.add_argument("--scan", action="store_true",
                   help="threshold scan instead of curves")
    p.add_argument("--target", type=float, default=0.9)
    p.set_defaults(func=cmd_il_sim)

    p = add_parser("il-bounds", help="closed-form bound table")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_il_bounds)

    p = add_parser("qlrs-dim", help="QLRS dimension and bad counts")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_qlrs_dim)

    p = add_parser("qlrs-local", help="QLRS local-recovery simulation")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=cmd_qlrs_local)

    p = add_parser("aad-build", help="AAD family construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_aad_build)

    p = add_parser("aad-verify", help="verify spread/AAD properties")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l-bound", type=int, default=None)
    p.add_argument("--mode", choices=("exhaustive", "sample"),
                   default="exhaustive")
    p.add_argument("--samples", type=int, default=2000)
    p.set_defaults(func=cmd_aad_verify)

    p = add_parser("bounds-table", help="classical metric bounds")
    p.add_argument("--metric", choices=(metric.HAMMING, metric.RANK,
                                        metric.SUMRANK), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--partition", default=None)
    p.set_defaults(func=cmd_bounds_table)
    return parser


def _config_defaults(parser, config):
    """Make config (option dest -> string) the defaults of its options.

    Applied to parser and every subcommand parser before parsing, so that
    an explicit flag still wins and argparse converts each string with the
    option's own type=; an option that config sets is no longer required.
    Flags that take no value keep their defaults, and so do the global
    options repeated after the subcommand (their default SUPPRESS leaves the
    top-level value in place).
    """
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                _config_defaults(sub, config)
        elif (action.dest in config and action.nargs != 0
              and action.default is not argparse.SUPPRESS):
            action.default = config[action.dest]
            action.required = False


def _check_config_keys(parser, command, config):
    """A UsageError that names the first key of config that is not an option
    of `command` (the global options included) that takes a value."""
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    takes_value = {a.dest: a.nargs != 0
                   for a in sub.choices[command]._actions if a.option_strings}
    for key in config:
        if not takes_value.get(key):
            raise UsageError(f"config: {key!r} is not an option of {command} "
                             f"that takes a value")


@functools.cache
def _shared_parser():
    """One parser per process: building it leaves reference cycles behind."""
    return build_parser()


def _parse_args(argv):
    """The parsed argv, with the defaults of its --config file, if any."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")   # parse_args rejects a bare one
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return _shared_parser().parse_args(argv)
    # _config_defaults changes the defaults in place: use a fresh parser
    config = _load_config(path)
    parser = build_parser()
    _config_defaults(parser, config)
    args = parser.parse_args(argv)
    _check_config_keys(parser, args.command, config)
    return args


def main(argv=None):
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except OSError as exc:
        sys.stderr.write(f"config: {exc}\n")
        return EXIT_USAGE
    except UsageError as exc:
        sys.stderr.write(f"usage: {exc}\n")
        return EXIT_USAGE
    try:
        args.func(args)
        return EXIT_OK
    except UsageError as exc:
        sys.stderr.write(f"usage: {exc}\n")
        return EXIT_USAGE
    except (GuardError, support.InfeasibleDesign, ValueError) as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except OSError as exc:
        sys.stderr.write(f"io: {exc}\n")
        return EXIT_INFEASIBLE
    except Exception as exc:     # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"internal: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
