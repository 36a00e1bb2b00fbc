"""Regenerate the golden reports under perfbench/golden/.

    python3 perfbench/freeze.py

Run from the root of a checkout, at the commit whose reports are to be
frozen.  Every workload is frozen: each op of each seed in GOLDEN_SEEDS
runs once through cli.main.  The corpus keeps the full report text of its
20 jobs and the batch summary; the generated workloads keep one hash of
exit code and report bytes per op.
An op that exits non-zero is reported, since no benchmark op should fail.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import GOLDEN, report_hash, run_op  # noqa: E402


def freeze_ops(cli, manifest: dict) -> tuple:
    """Run every op of the stream once; returns ({op id: (exit, text)}, failures)."""
    out, bad = {}, []
    for ops in manifest["rounds"]:
        for op in ops:
            if op["id"] in out:
                continue
            code, text, err = run_op(cli, op["argv"])
            if err is not None or code != 0:
                bad.append(f"{op['id']}: exit {code} {err or ''}")
            out[op["id"]] = (code, text)
    return out, bad


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import cartan_lab.cli as cli

    GOLDEN.mkdir(exist_ok=True)
    failures = []
    for workload in workloads.WORKLOADS:
        if workload == "corpus":
            manifest = workloads.write("corpus", 0, root, Path(".perfbench_work/freeze"))
            ops, bad = freeze_ops(cli, manifest)
            failures += bad
            golden = {k: {"exit": c, "report": t} for k, (c, t) in sorted(ops.items())}
        else:
            golden = {}
            for seed in workloads.GOLDEN_SEEDS:
                manifest = workloads.write(workload, seed, root,
                                           Path(f".perfbench_work/freeze-{seed}"))
                ops, bad = freeze_ops(cli, manifest)
                failures += [f"{workload} seed {seed} {b}" for b in bad]
                golden[str(seed)] = {k: report_hash(c, t) for k, (c, t) in sorted(ops.items())}
                print(f"{workload} seed {seed}: {len(ops)} ops", flush=True)
        path = GOLDEN / f"{workload}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True, ensure_ascii=False)
                        + "\n", encoding="utf-8")
        print(f"wrote {path}", flush=True)
    for line in failures:
        print(f"failing op: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
