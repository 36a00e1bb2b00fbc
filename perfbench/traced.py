"""The traced run: per-layer metrics from a fixed set of ops.

The op set is the first TRACE_ROUNDS rounds of the stream, so every pass
over it does the same work.  Untraced and traced passes alternate until
--seconds have gone by (at least two of each); the tracing overhead compares
their median rates.  Counts come from one traced pass and must repeat
exactly in every other; times are means per traced pass.  Spans are written
to DIR/spans.tsv when the run ends.

The counts of the first traced pass also go into a digest (count_digest),
which run.py compares with that of a second process on the same seed.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import tracer as tr
from workloads import BATCH_ID

# layers a workload must reach; zero calls on one fails the run
COMMON = ("cli.main", "cli._run_one", "steinberg.context_from_json", "groupoid.from_json",
          "twist.Cocycle.validate", "steinberg.Context.canonical_hash",
          "steinberg.Context.convolve", "steinberg.Basis.extend", "steinberg.Basis.reduce",
          "steinberg.algebra_closure", "steinberg.intersect_spans", "inclusions.classify")
SCAN = ("steinberg.Context.conv_batch", "steinberg.Context.conv_batch_single",
        "steinberg.Context.conv_single_batch", "exactlin.batch_solvable_mod_p",
        "exactlin.rref_mod_p", "exactlin.nullspace_mod_p",
        "normalizers.is_normalizer", "normalizers.enumerate_normalizers")
# the partner solve runs only for survivors that the closed-form partner of
# a unit-valued bisection does not certify, which sparse rounds may not have
REQUIRED = {
    "corpus": COMMON + SCAN + ("exactlin.solve_mod_p", "normalizers.phi_check",
                               "inclusions.galois", "inclusions.pqc_scan",
                               "inclusions.bimodule_spectral",
                               "expectation.average_expectation",
                               "expectation.averaging_obstruction"),
    "sparse": COMMON + SCAN,
    "dense": COMMON + SCAN + ("exactlin.solve_mod_p",),
    "spans": COMMON + ("exactlin.rref_frac", "inclusions.bimodule_spectral",
                       "expectation.average_expectation"),
}

# counters that must repeat exactly between passes
COUNTED = ("steinberg.algebra_closure.out_dim",
           "steinberg.Context.conv_batch.rows", "steinberg.Context.conv_batch_single.rows",
           "steinberg.Context.conv_single_batch.rows",
           "exactlin.batch_solvable_mod_p.matrices",
           f"{tr.ENUMERATE}.candidates", f"{tr.ENUMERATE}.certified",
           "inclusions.classify.repeats")


def op_set(manifest) -> list:
    """The rounds every pass of a traced run repeats."""
    return manifest["rounds"][:manifest["trace_rounds"]]


def _pass(loop, rounds) -> float:
    """Run the op set once; returns its wall time."""
    t0 = time.perf_counter()
    for index, ops in enumerate(rounds):
        loop.run_round(index, ops)
    return time.perf_counter() - t0


def pass_counts(tracer, first_span: int) -> dict:
    counts = {name: 0 for name in tr.NAMES}
    for rec in tracer.spans[first_span:]:
        counts[rec[0]] += 1
    return counts


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer times from the spans of all traced passes, per pass."""
    stats = tr.self_times(spans)
    out = {}
    for name in tr.NAMES:
        _, _, self_s = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.self_s"] = (self_s / passes, "s")
    enum_total = stats.get(tr.ENUMERATE, (0, 0.0, 0.0))[1]
    pre = tr.under(spans, tr.ENUMERATE, tr.PREFILTER)
    res = tr.under(spans, tr.ENUMERATE, tr.RESOLVE)
    out[f"{tr.ENUMERATE}.prefilter_s"] = (pre / passes, "s")
    out[f"{tr.ENUMERATE}.resolve_s"] = (res / passes, "s")
    out[f"{tr.ENUMERATE}.prefilter_share"] = (pre / enum_total if enum_total else 0.0, "ratio")
    out[f"{tr.ENUMERATE}.resolve_share"] = (res / enum_total if enum_total else 0.0, "ratio")
    chunks = tr.chunks_per_scan(spans)
    out[f"{tr.ENUMERATE}.min_chunks"] = (min(chunks, default=0), "count")
    out[f"{tr.ENUMERATE}.max_chunks"] = (max(chunks, default=0), "count")

    # the pool question: batch wall time against the jobs it ran in its pool
    batch_s = singles_s = jobs_s = 0.0
    batch_ids = set()
    for sid, (name, s, e, parent, op) in enumerate(spans):
        if name == "cli.main" and parent is None:
            if op == BATCH_ID:
                batch_s += e - s
                batch_ids.add(sid)
            else:
                singles_s += e - s
    for name, s, e, parent, op in spans:
        if name == tr.JOB and parent in batch_ids:
            jobs_s += e - s
    out["cli.corpus.batch_s"] = (batch_s / passes, "s")
    out["cli.corpus.singles_s"] = (singles_s / passes, "s")
    out["cli.corpus.overlap"] = (jobs_s / batch_s if batch_s else 0.0, "ratio")
    return out


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tname\tstart\tend\tparent\top\n")
        for sid, (name, s, e, parent, op) in enumerate(spans):
            fh.write(f"{sid}\t{name}\t{s:.9f}\t{e:.9f}\t"
                     f"{'' if parent is None else parent}\t{op}\n")


def _traced_pass(tracer, loop, rounds) -> tuple:
    """One pass under the tracer; returns (counts of the pass, wall time)."""
    first = len(tracer.spans)
    before = {k: tracer.counts.get(k, 0) for k in COUNTED}
    tracer.install()
    try:
        dt = _pass(loop, rounds)
    finally:
        tracer.uninstall()
    counts = pass_counts(tracer, first)
    for k in COUNTED:
        counts[k] = tracer.counts.get(k, 0) - before[k]
    return counts, dt


def pass_metrics(tracer, counts, passes: int) -> dict:
    """Per-layer metrics from the counts of one traced pass and the spans of
    all the traced passes."""
    metrics = {f"{name}.calls": (counts[name], "count") for name in tr.NAMES}
    metrics.update(layer_metrics(tracer.spans, passes))
    for k in COUNTED:
        metrics[k] = (counts[k], "count")
    cand = counts[f"{tr.ENUMERATE}.candidates"]
    cert = counts[f"{tr.ENUMERATE}.certified"]
    metrics[f"{tr.ENUMERATE}.yield"] = (cert / cand if cand else 0.0, "ratio")
    metrics[f"{tr.ENUMERATE}.guard_headroom"] = (
        tracer.maxima.get(f"{tr.ENUMERATE}.guard_headroom", 0.0), "ratio")
    classify_calls = counts["inclusions.classify"]
    metrics["inclusions.classify.repeat_ratio"] = (
        counts["inclusions.classify.repeats"] / classify_calls if classify_calls else 0.0,
        "ratio")
    return metrics


def count_digest(counts) -> str:
    """SHA-256 of a pass's counts, independent of their order."""
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()


def first_pass(cli, golden, manifest, loop_cls) -> tuple:
    """The start of a traced run: one untraced pass, then one traced pass.
    Returns (loop, tracer, counts of the traced pass)."""
    rounds = op_set(manifest)
    tracer = tr.Tracer()
    loop = loop_cls(cli, golden, tracer)
    _pass(loop, rounds)
    counts, _ = _traced_pass(tracer, loop, rounds)
    return loop, tracer, counts


def run(cli, golden, manifest, seconds: float, loop_cls, spans_path):
    """Alternate untraced and traced passes until --seconds have passed (two
    of each at least).  Returns (loop, metrics, problems, count digest)."""
    rounds = op_set(manifest)
    n_ops = sum(len(ops) for ops in rounds)
    tracer = tr.Tracer()
    loop = loop_cls(cli, golden, tracer)
    untraced, per_pass = [], []
    t0 = time.perf_counter()
    while len(per_pass) < 2 or time.perf_counter() - t0 < seconds:
        untraced.append(_pass(loop, rounds))
        per_pass.append(_traced_pass(tracer, loop, rounds))

    problems = []
    counts = per_pass[0][0]
    for i, (other, _) in enumerate(per_pass[1:], start=2):
        diff = sorted(k for k in counts if counts[k] != other[k])
        if diff:
            problems.append(f"counts of pass {i} differ from pass 1: {', '.join(diff)}")
    for name in REQUIRED[manifest["workload"]]:
        if counts[name] == 0:
            problems.append(f"{name} recorded no calls")

    passes = len(per_pass)
    metrics = pass_metrics(tracer, counts, passes)
    untraced_rate = statistics.median(n_ops / dt for dt in untraced)
    traced_rate = statistics.median(n_ops / dt for _, dt in per_pass)
    metrics["trace.ops_per_s_untraced"] = (untraced_rate, "ops/s")
    metrics["trace.ops_per_s_traced"] = (traced_rate, "ops/s")
    metrics["trace.overhead"] = (untraced_rate / traced_rate - 1.0, "ratio")
    metrics["trace.spans_per_pass"] = (len(tracer.spans) / passes, "count")
    write_spans(spans_path, tracer.spans)
    return loop, metrics, problems, count_digest(counts)
