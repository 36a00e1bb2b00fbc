"""Write one commit's benchmark rows to BENCH_<label>.json.

    python3 tools/bench_rows.py --label L

Run from the root of a checkout.  For every workload the script runs
perfbench/run.py twice on seed 0, each run as long as BENCHMARK.json's
run_seconds: untraced (--trace 0, the end-to-end metrics) and traced
(--trace 1, the per-layer metrics).  It keeps each run's result line and the
traced run's count-digest line.  Seed and run length are fixed, so every
BENCH_<label>.json is recorded under the same conditions.  Counts are
deterministic, so rows from different machines compare; times hold only on
the machine recorded in the file.  Run the two commits of a comparison
interleaved, or at least back to back, so that a slow period of the machine
hits both.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("corpus", "sparse", "dense", "spans")
SEED = 0


def run(workload: str, seconds: float, trace: int, seed: int = SEED,
        cwd: Path | None = None) -> tuple[dict, str | None]:
    """One perfbench run in the checkout cwd (default: the current
    directory): (its result line, its count-digest line or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, encoding="utf-8", check=True)
    lines = proc.stdout.splitlines()
    digest = next((line for line in lines if line.startswith("count-digest ")), None)
    return json.loads(lines[-1]), digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="written to BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not Path("perfbench/run.py").is_file():
        print("run from the root of a cartan-lab checkout", file=sys.stderr)
        return 2
    seconds = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    rows = {}
    for workload in WORKLOADS:
        untraced, _ = run(workload, seconds, 0)
        traced, digest = run(workload, seconds, 1)
        rows[workload] = {"untraced": untraced, "traced": traced, "count_digest": digest}
        print(f"{workload}: correct {untraced['correct']} / {traced['correct']}", flush=True)
    out = {
        "label": args.label,
        "seed": SEED,
        "seconds": seconds,
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "workloads": rows,
    }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
