"""Span tracer that times cartan_lab's layers from outside.

The tracer replaces public functions of the program with wrappers, at every
binding site: the defining module, each module that imported the function by
name, or the class for a method.  A wrapper records one span per call: name,
start, end, parent span and op id.  Span stacks are kept per thread; a span
opened on a thread with an empty stack (a corpus pool worker) takes the op's
root span as its parent, so pool jobs nest under their batch.

Spans stay in memory until the run ends.  Self time is a span's duration
minus the part of it covered by its children's intervals; children on other
threads may overlap each other, so coverage is the union of the intervals.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (module, qualified name) of every wrapped function
WRAPPED = (
    ("cli", "main"),
    ("cli", "_run_one"),
    ("steinberg", "context_from_json"),
    ("groupoid", "from_json"),
    ("twist", "Cocycle.validate"),
    ("steinberg", "Context.canonical_hash"),
    ("steinberg", "Context.convolve"),
    ("steinberg", "Basis.extend"),
    ("steinberg", "Basis.reduce"),
    ("steinberg", "algebra_closure"),
    ("steinberg", "intersect_spans"),
    ("steinberg", "Context.conv_batch"),
    ("steinberg", "Context.conv_batch_single"),
    ("steinberg", "Context.conv_single_batch"),
    ("exactlin", "batch_solvable_mod_p"),
    ("exactlin", "solve_mod_p"),
    ("exactlin", "rref_mod_p"),
    ("exactlin", "nullspace_mod_p"),
    ("exactlin", "rref_frac"),
    ("exactlin", "solve_frac"),
    ("normalizers", "is_normalizer"),
    ("normalizers", "enumerate_normalizers"),
    ("normalizers", "phi_check"),
    ("inclusions", "galois"),
    ("inclusions", "pqc_scan"),
    ("inclusions", "classify"),
    ("inclusions", "bimodule_spectral"),
    ("expectation", "average_expectation"),
    ("expectation", "averaging_obstruction"),
)
NAMES = tuple(f"{mod}.{qual}" for mod, qual in WRAPPED)

PREFILTER = frozenset({"steinberg.Context.conv_batch", "steinberg.Context.conv_batch_single",
                       "steinberg.Context.conv_single_batch",
                       "exactlin.batch_solvable_mod_p"})
RESOLVE = frozenset({"normalizers.is_normalizer"})
ENUMERATE = "normalizers.enumerate_normalizers"
JOB = "cli._run_one"


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent, op]
        self.counts: dict = defaultdict(int)
        self.maxima: dict = {}
        self.op = None               # id of the op being run
        self.op_root = None          # span id of its cli.main call
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self.op_root = None

    def _wrap(self, name: str, fn, stat):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.op_root
            rec = [name, 0.0, 0.0, parent, tracer.op]
            with tracer._lock:
                sid = len(tracer.spans)
                tracer.spans.append(rec)
            if name == "cli.main" and not stack:
                tracer.op_root = sid
            if stat is not None:
                stat(tracer, args, kwargs, None, before=True)
            stack.append(sid)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if stat is not None:
                stat(tracer, args, kwargs, result, before=False)
            return result

        return traced

    def count(self, key: str, n=1) -> None:
        with self._lock:
            self.counts[key] += n

    def high(self, key: str, value) -> None:
        with self._lock:
            if key not in self.maxima or value > self.maxima[key]:
                self.maxima[key] = value

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in WRAPPED at each of its binding sites."""
        mods = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                if name.startswith("cartan_lab.") and mod is not None}
        for (modname, qual), name in zip(WRAPPED, NAMES):
            owner = mods[modname]
            parts = qual.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            fn = owner.__dict__[attr]
            wrapped = self._wrap(name, fn, STATS.get(name))
            sites = [(owner, attr)]
            if len(parts) == 1:
                sites += [(m, k) for m in mods.values() if m is not owner
                          for k, v in vars(m).items() if v is fn]
            for obj, key in sites:
                self._undo.append((obj, key, fn))
                setattr(obj, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, fn = self._undo.pop()
            setattr(obj, key, fn)


# -- per-function counters ----------------------------------------------------

def _rows(name, arg_index):
    def stat(tracer, args, kwargs, result, before):
        if before:
            tracer.count(f"{name}.rows", int(args[arg_index].shape[0]))
    return stat


def _matrices(tracer, args, kwargs, result, before):
    if before:
        tracer.count("exactlin.batch_solvable_mod_p.matrices", int(args[0].shape[0]))


def _closure(tracer, args, kwargs, result, before):
    if not before:
        tracer.count("steinberg.algebra_closure.out_dim", result.dim)


def _enumerate(tracer, args, kwargs, result, before):
    ctx = args[0]
    if not (ctx.ring.is_field and ctx.ring.is_finite):
        return
    if before:
        basis = args[1] if len(args) > 1 else kwargs.get("c_basis")
        guard = args[2] if len(args) > 2 else kwargs.get("guard")
        if guard is None:
            guard = sys.modules["cartan_lab.normalizers"].SCAN_GUARD
        dim = ctx.dim if basis is None else basis.dim
        candidates = ctx.ring.modulus ** dim
        tracer.count(f"{ENUMERATE}.candidates", candidates)
        tracer.high(f"{ENUMERATE}.guard_headroom", candidates / guard)
    else:
        tracer.count(f"{ENUMERATE}.certified", len(result))


def _job(tracer, args, kwargs, result, before):
    if before:
        tracer._local.classified = set()


def _classify(tracer, args, kwargs, result, before):
    """Count calls on a (context, basis) already classified in the same job.
    A job runs on one thread, so the set of keys seen is per thread."""
    if before:
        basis = args[1] if len(args) > 1 else kwargs.get("c_basis")
        key = (id(args[0]), None if basis is None else basis.key())
        seen = getattr(tracer._local, "classified", None)
        if seen is None:
            seen = tracer._local.classified = set()
        if key in seen:
            tracer.count("inclusions.classify.repeats")
        seen.add(key)


STATS = {
    "steinberg.Context.conv_batch": _rows("steinberg.Context.conv_batch", 1),
    "steinberg.Context.conv_batch_single": _rows("steinberg.Context.conv_batch_single", 1),
    "steinberg.Context.conv_single_batch": _rows("steinberg.Context.conv_single_batch", 2),
    "exactlin.batch_solvable_mod_p": _matrices,
    "steinberg.algebra_closure": _closure,
    ENUMERATE: _enumerate,
    "inclusions.classify": _classify,
    JOB: _job,
}


# -- analysis ------------------------------------------------------------------

def covered(parent_start: float, parent_end: float, intervals) -> float:
    """Length of the union of intervals, clipped to the parent's interval."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, parent_start), min(e, parent_end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Per name: (calls, total span time, self time)."""
    children = defaultdict(list)
    for name, s, e, parent, _ in spans:
        if parent is not None:
            children[parent].append((s, e))
    out = {}
    for sid, (name, s, e, _, _) in enumerate(spans):
        kids = children.get(sid)
        own = (e - s) - (covered(s, e, kids) if kids else 0.0)
        calls, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (e - s), self_s + own)
    return out


def under(spans, ancestor: str, names) -> float:
    """Total span time of the spans named in names that have an ancestor
    span called ancestor."""
    total = 0.0
    for name, s, e, parent, _ in spans:
        if name not in names:
            continue
        while parent is not None:
            if spans[parent][0] == ancestor:
                total += e - s
                break
            parent = spans[parent][3]
    return total


def chunks_per_scan(spans) -> list:
    """Batch-solve chunks under each enumerate_normalizers span."""
    per_scan = {sid: 0 for sid, rec in enumerate(spans) if rec[0] == ENUMERATE}
    for name, _, _, parent, _ in spans:
        if name != "exactlin.batch_solvable_mod_p":
            continue
        while parent is not None and spans[parent][0] != ENUMERATE:
            parent = spans[parent][3]
        if parent is not None:
            per_scan[parent] += 1
    return list(per_scan.values())
