"""Seeded random argvs over every subcommand of the CLI.

Exit code 3 means a bug in skewcodes and nothing else, so no argv, however
malformed, may exit 3.  The argvs are drawn from the parser itself: each
option of the chosen subcommand gets a value from a small pool for its type
(ints, floats, its choices, or list-like strings).  --out and --config are
left out, so nothing is written or read.  Each call runs under an alarm
whose exception is a BaseException, because cli.main turns every Exception
into exit 3.  The alarm fires again every 0.1 s until the call ends: Python
drops an exception raised inside a gc callback as unraisable, so one alarm
that lands there would leave the call unbounded.
"""

import argparse
import contextlib
import io
import random
import signal
import time

from skewcodes import cli, gf

ARGVS = 300
ALARM_S = 1
REARM_S = 0.1

INTS = (-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 16, 25, 31, 172)
FLOATS = ("-0.5", "0", "0.1", "0.5", "0.9", "1", "1.5", "nan")
LISTS = ("", "0", "1", "-1 2", "2 3", "3 3", "4 4", "1,2", "1 2 3",
         "1 3 2 3", ";", "1;;2", "2;3", "2 3;4 5;6",
         "1 2 3; 1 2 4; 1 3 4; 2 3 4", "x")
SKIPPED = ("help", "seed", "out", "config", "format")


class Timeout(BaseException):
    """The alarm of one call."""


def fuzz_argv(rng, parser):
    """A random argv for one subcommand of parser."""
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    command = rng.choice(sorted(sub.choices))
    argv = []
    if rng.random() < 0.8:
        argv += ["--seed", str(rng.choice(INTS))]
    if rng.random() < 0.3:
        argv += ["--format", rng.choice(("csv", "json"))]
    argv.append(command)
    for action in sub.choices[command]._actions:
        if action.dest in SKIPPED:
            continue
        if rng.random() >= (0.95 if action.required else 0.5):
            continue
        argv.append(action.option_strings[0])
        if action.nargs == 0:
            continue
        if action.choices:
            argv.append(rng.choice(list(action.choices)))
        elif action.type is int:
            argv.append(str(rng.choice(INTS)))
        elif action.type is float:
            argv.append(rng.choice(FLOATS))
        else:
            argv.append(rng.choice(LISTS))
    return argv


def run_with_alarm(argv, seconds):
    """cli.main(argv)'s exit code, or None when the alarm cut it off.  The
    fields it built are dropped from the cache again, so that table fields
    of up to 2^20 elements do not pile up over the run."""
    cached = set(gf._FIELD_CACHE)

    def expire(signum, frame):
        raise Timeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds, REARM_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    except Timeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        for key in set(gf._FIELD_CACHE) - cached:
            del gf._FIELD_CACHE[key]


def test_fuzzed_argvs_never_exit_internal():
    rng = random.Random(2024)
    parser = cli.build_parser()
    codes, internal = [], []
    for _ in range(ARGVS):
        argv = fuzz_argv(rng, parser)
        code = run_with_alarm(argv, ALARM_S)
        codes.append(code)
        if code == cli.EXIT_INTERNAL:
            internal.append(argv)
    assert internal == []
    # the pools must reach past argument parsing
    assert codes.count(cli.EXIT_OK) >= ARGVS // 10


def test_alarm_fires_again_after_a_lost_timeout(monkeypatch):
    # a fake cli.main that loses the first Timeout, as a gc callback does,
    # and then spins for at most 5 s: only a repeated alarm cuts it off
    def lose_first_timeout(argv):
        deadline = time.monotonic() + 5
        try:
            while time.monotonic() < deadline:
                pass
        except Timeout:
            pass
        while time.monotonic() < deadline:
            pass
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "main", lose_first_timeout)
    assert run_with_alarm([], ALARM_S) is None
