"""Measure the input properties of each workload's traced op set, per seed.

    python3 perfbench/properties.py > perfbench/properties.json

Run from the root of a checkout.  For each workload and each seed in
GOLDEN_SEEDS (seed 0 alone on corpus), the first passes of a traced run go
once over the op set (traced.first_pass), and the properties the program's
cost depends on are read off the per-layer metrics of that traced pass:

- yield: certified normalizers over enumeration candidates;
- scans, and batch-solve chunks per scan (min and max; BATCH_CHUNK = 4096
  monic candidates per chunk);
- the largest candidate count p^d of one scan, against SCAN_GUARD;
- the prefilter's and the re-solve's share of enumeration time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import traced  # noqa: E402
import workloads  # noqa: E402
from tracer import ENUMERATE  # noqa: E402
from worker import Golden, Loop  # noqa: E402


def measure(cli, workload: str, seed: int) -> dict:
    manifest = workloads.write(workload, seed, Path.cwd(),
                               Path(f".perfbench_work/properties-{workload}"))
    loop, tracer, counts = traced.first_pass(cli, Golden(workload, seed), manifest, Loop)
    if loop.failed:
        raise RuntimeError(f"{workload} seed {seed}: {loop.failures[0]}")
    m = {k: v for k, (v, _) in traced.pass_metrics(tracer, counts, 1).items()}
    scans = m[f"{ENUMERATE}.calls"]
    return {
        "ops": sum(len(ops) for ops in traced.op_set(manifest)),
        "scans": scans,
        "candidates": m[f"{ENUMERATE}.candidates"],
        "certified": m[f"{ENUMERATE}.certified"],
        "yield": round(m[f"{ENUMERATE}.yield"], 4) if scans else None,
        "chunks_per_scan": [m[f"{ENUMERATE}.min_chunks"], m[f"{ENUMERATE}.max_chunks"]]
        if scans else None,
        "largest_scan_over_guard": round(m[f"{ENUMERATE}.guard_headroom"], 6),
        "prefilter_share": round(m[f"{ENUMERATE}.prefilter_share"], 3) if scans else None,
        "resolve_share": round(m[f"{ENUMERATE}.resolve_share"], 3) if scans else None,
    }


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import cartan_lab.cli as cli
    out = {}
    for workload in workloads.WORKLOADS:
        seeds = [0] if workload == "corpus" else workloads.GOLDEN_SEEDS
        out[workload] = {str(seed): measure(cli, workload, seed) for seed in seeds}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
