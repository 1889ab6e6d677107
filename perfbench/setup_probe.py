"""Set-up time of one fresh process: import skewcodes, build the fields.

Usage: python3 perfbench/setup_probe.py P,E,M [P,E,M ...]
Prints the elapsed seconds.  run.py calls ``measure`` in its own process
first, then runs this script for the further samples.
"""

import importlib
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure(fields, after_import=None):
    """Seconds to import skewcodes and call gf.field for every (p, e, m).

    ``after_import`` runs between the import and the field builds, outside
    the measured time (the traced run installs its wrappers there).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    gf = importlib.import_module("skewcodes").gf
    pause = 0.0
    if after_import is not None:
        t1 = time.perf_counter()
        after_import()
        pause = time.perf_counter() - t1
    for p, e, m in fields:
        gf.field(p, e, m)
    return time.perf_counter() - t0 - pause


if __name__ == "__main__":
    fields = [tuple(int(x) for x in arg.split(",")) for arg in sys.argv[1:]]
    print(repr(measure(fields)))
