"""cartan-lab benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload {corpus,sparse,dense,spans}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The runner writes the workload's job files
under .perfbench_work/, starts the workload process (perfbench/worker.py) a
few times only to time its set-up, then once for the measured run, and
prints that run's result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
is traced and the metrics are per layer.  A traced run starts one more
workload process, with another hash seed, that repeats the first passes of
the traced run; the run is not correct unless both processes count the same
calls, candidates, certified normalizers, rows and matrices.  Lines before
the last one carry the per-round report digests, the count digest of a
traced run and, on corpus, the pool comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 9      # set-up is timed in this many extra processes, plus the run's own
RUN_TIMEOUT_S = 170


def start_worker(workdir: Path, mode: str, seconds: float, env=None):
    """Start the worker and wait for its "ready" line.  Returns (process,
    seconds from spawn to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir),
         "--mode", mode, "--seconds", str(seconds)],
        stdout=subprocess.PIPE, text=True, encoding="utf-8", env=env)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up: {line!r}")
    return proc, setup


def finish(proc) -> str:
    """Wait for the worker and return its stdout; kill it when it overruns."""
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return out


def count_digest(lines) -> str:
    return next(line for line in lines if line.startswith("count-digest "))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cartan-lab benchmark runner")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cartan_lab" / "cli.py").is_file():
        print("run from the root of a cartan-lab checkout: src/cartan_lab is missing",
              file=sys.stderr)
        return 2
    workdir = Path(".perfbench_work") / f"{args.workload}-{args.seed}"
    workloads.write(args.workload, args.seed, root, workdir)

    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = start_worker(workdir, "setup", args.seconds)
        finish(proc)
        setups.append(setup)

    env = None
    if args.trace:
        # each traced process draws its own hash seed, so counts that hang
        # on set or dict order differ between them
        env = {**os.environ, "PYTHONHASHSEED": "random"}
        proc, _ = start_worker(workdir, "counts", args.seconds, env)
        other = count_digest(finish(proc).splitlines())

    mode = "trace" if args.trace else "time"
    proc, setup = start_worker(workdir, mode, args.seconds, env)
    setups.append(setup)
    lines = finish(proc).splitlines()
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    problems = result["problems"]
    if args.trace and count_digest(lines) != other:
        print("trace check: per-layer counts differ from those of another process "
              f"on the same seed ({other})", file=sys.stderr)
        problems += 1
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({
        "correct": result["failed"] == 0 and problems == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
