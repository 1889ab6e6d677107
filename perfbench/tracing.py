"""Spans and counters recorded from outside ``skewcodes``.

``Tracer`` replaces module-level functions (``gf.rref``, ``ildec.joint_decode``
...) by wrappers that record one span per call: name, start, end, parent
span and trace id.  Modules call each other through module attributes
(``gf.rref(...)``) or their own globals, and both resolve to the wrapper, so
no file under ``src/`` changes.  ``OpCounter`` counts field operations on
given field objects by shadowing their bound methods.  Both restore the
originals on ``uninstall``.
"""

import gzip
import statistics
import time
from array import array
from collections import Counter

from skewcodes import ildec

# Each CLI operation and each Monte Carlo trial starts its own trace.
TRACE_ROOTS = ("cli.main", "bench.run_trial")

FIELD_OPS = ("mul", "add", "neg", "inv")

# DecodeOutcome.reason prefixes of the four failure kinds of joint_decode.
FAILURE_REASONS = {
    "non-unique key-equation solution": "fail_nonunique",
    "error locator roots not in the locator set": "fail_roots",
    "zero error column at a claimed position": "fail_zero_column",
    "no solvable key equation within the radius": "fail_radius",
}


def _rref_cells(counts, args, result):
    rows = args[1]
    counts["gf.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _outcome(counts, args, result):
    if result != ildec.FAILURE:
        counts[f"ildec.outcome.{result}"] += 1
        return
    reason = args[0].reason
    kind = next((k for prefix, k in FAILURE_REASONS.items()
                 if reason.startswith(prefix)), "fail_unknown")
    counts[f"ildec.outcome.{kind}"] += 1


def _attempts(counts, args, result):
    counts["support.build.attempts"] += result.attempts


# Counts read from a wrapped call's arguments or result.
COUNT_HOOKS = {
    "gf.rref": _rref_cells,
    "ildec.classify": _outcome,
    "support.build_constrained_generator": _attempts,
}


class Tracer:
    """In-memory spans of the wrapped functions, written out at the end."""

    def __init__(self, modules, functions):
        self.targets = []          # (module, attribute, qualified name)
        for qualname in functions:
            mod, attr = qualname.split(".")
            self.targets.append((modules[mod], attr, qualname))
        self.names = [q for _, _, q in self.targets]
        self.name_ids = {q: i for i, q in enumerate(self.names)}
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")
        self.counts = Counter()
        self._stack = []
        self._traces = 0
        self._saved = []
        self.t0 = time.perf_counter()

    def install(self):
        for mod, attr, qualname in self.targets:
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, qualname))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, qualname):
        fid = self.name_ids[qualname]
        root = qualname in TRACE_ROOTS
        hook = COUNT_HOOKS.get(qualname)
        stack, counts = self._stack, self.counts
        fids, starts, ends = self.fid, self.start, self.end
        parents, traces = self.parent, self.trace
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            if root or parent < 0:
                self._traces += 1
                trace_id = self._traces
            else:
                trace_id = traces[parent]
            fids.append(fid)
            parents.append(parent)
            traces.append(trace_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def stats(self):
        """Per function: calls, self seconds and the list of durations.

        Self time is a span's duration minus that of its direct children;
        spans nest strictly in one thread, so the children never overlap.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        durations = {}
        for i in range(n):
            name = self.names[self.fid[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            durations.setdefault(name, []).append(dur)
        return calls, self_s, durations

    def write(self, path):
        """All spans as gzip CSV; times in seconds from tracer creation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,trace\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.fid[i]]},"
                         f"{self.start[i] - self.t0:.9f},"
                         f"{self.end[i] - self.t0:.9f},"
                         f"{self.parent[i]},{self.trace[i]}\n")


class OpCounter:
    """Counts mul/add/neg/inv calls on the given field objects."""

    def __init__(self, fields):
        self.fields = fields
        self.counts = Counter()
        self._cells = {op: [0] for op in FIELD_OPS}

    def install(self):
        for fld in self.fields:
            for op in FIELD_OPS:
                setattr(fld, op, _counting(getattr(fld, op), self._cells[op]))

    def uninstall(self):
        for fld in self.fields:
            for op in FIELD_OPS:
                delattr(fld, op)       # the class method shows through again
        for op, cell in self._cells.items():
            self.counts[f"gf.ops.{op}"] += cell[0]
            cell[0] = 0


def _counting(fn, cell):
    def op(*args):
        cell[0] += 1
        return fn(*args)
    return op


def percentile_ms(durations, pct):
    """Inclusive percentile of durations in seconds, as milliseconds."""
    if len(durations) < 2:
        return 1000.0 * (durations[0] if durations else 0.0)
    return 1000.0 * statistics.quantiles(durations, n=100,
                                         method="inclusive")[pct - 1]
