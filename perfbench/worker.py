"""The workload process: one closed-loop client of cartan_lab.cli.main.

    python3 perfbench/worker.py --workdir DIR --mode {setup,time,trace,counts}
                                --seconds S

Run from the root of a checkout, after run.py has written DIR.  The worker
imports the program from src/, reads the manifest and the job files, and
prints "ready".  In setup mode it stops there.  Otherwise it runs ops one at
a time, each as cli.main(argv) with stdout captured, checks every report
against the golden files, and prints one JSON line of results last.  The
trace mode also prints a "count-digest" line of the per-layer counts; the
counts mode runs only the first passes of a traced run and prints that
line, for run.py to compare.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import BATCH_ID

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
MIN_OPS = 100        # at least ten ops beyond the p90
HARD_STOP_S = 120    # start no new round after this, whatever --seconds says


def quantile(values, q: float) -> float:
    """Inclusive-method quantile (statistics.quantiles, method="inclusive")."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def report_hash(exit_code: int, text: str) -> str:
    digest = hashlib.sha256(f"{exit_code}\n".encode() + text.encode("utf-8"))
    return digest.hexdigest()[:16]


class Golden:
    """Expected exit code and report bytes of every op.

    The corpus file holds the full report text of the 20 jobs and the batch;
    the generated workloads hold a hash of exit code and report per op, for
    each shipped seed.  On a seed that is not shipped, every op must exit 0
    and repeat its own bytes each time the stream comes round again.
    """

    def __init__(self, workload: str, seed: int, golden_dir: Path = GOLDEN):
        self.full = None
        self.hashes = None
        if workload == "corpus":
            self.full = json.loads((golden_dir / "corpus.json").read_text(encoding="utf-8"))
        else:
            path = golden_dir / f"{workload}.json"
            if path.exists():
                self.hashes = json.loads(path.read_text(encoding="utf-8")).get(str(seed))
        self.seen: dict = {}

    @property
    def shipped(self) -> bool:
        return self.full is not None or self.hashes is not None

    def check(self, op_id: str, exit_code: int, text: str) -> str | None:
        """None when the op's output is right, else why it is not."""
        got = report_hash(exit_code, text)
        if self.full is not None:
            want = self.full.get(op_id)
            if want is None:
                return "no golden report"
            if exit_code != want["exit"]:
                return f"exit {exit_code}, golden {want['exit']}"
            if text != want["report"]:
                return "report bytes differ from golden"
            return None
        if self.hashes is not None:
            want = self.hashes.get(op_id)
            if want is None:
                return "no golden report"
            return None if got == want else "exit code or report bytes differ from golden"
        if exit_code != 0:
            return f"exit {exit_code}"
        first = self.seen.setdefault(op_id, got)
        return None if first == got else "report differs from its earlier run"


def run_op(cli, argv):
    """One cli.main call; returns (exit code or None, report text, error)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:   # argparse refusing the argv
        return None, buf.getvalue(), f"SystemExit {exc.code}"
    except Exception as exc:    # noqa: BLE001 - a failed op is counted, not fatal
        return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), None


class Loop:
    """Runs ops, times them, checks them, and keeps per-round digests."""

    def __init__(self, cli, golden: Golden, tracer=None):
        self.cli = cli
        self.golden = golden
        self.tracer = tracer
        self.latencies: list = []
        self.failed = 0
        self.failures: list = []
        self.digests: dict = {}

    def run_round(self, index: int, ops) -> list:
        """Run one round; returns [(op id, seconds)]."""
        times = []
        digest = hashlib.sha256()
        for op in ops:
            if self.tracer is not None:
                self.tracer.begin_op(op["id"])
            t0 = time.perf_counter()
            code, text, err = run_op(self.cli, op["argv"])
            dt = time.perf_counter() - t0
            self.latencies.append(dt)
            times.append((op["id"], dt))
            why = err if err is not None else self.golden.check(op["id"], code, text)
            if why is not None:
                self.failed += 1
                self.failures.append(f"{op['id']}: {why}")
            digest.update(f"{op['id']}\n{code}\n".encode() + text.encode("utf-8"))
        self.digests.setdefault(index, digest.hexdigest())
        return times


def pool_line(index: int, times) -> str:
    """The pool question for one corpus pass: the batch against the same 20
    jobs run one at a time."""
    batch = sum(dt for op_id, dt in times if op_id == BATCH_ID)
    singles = sum(dt for op_id, dt in times if op_id != BATCH_ID)
    return f"pool pass={index} batch_s={batch:.4f} singles_s={singles:.4f}"


def timed(loop: Loop, manifest: dict, seconds: float) -> dict:
    rounds = manifest["rounds"]
    corpus = manifest["workload"] == "corpus"
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    index = 0
    while True:
        times = loop.run_round(index % len(rounds), rounds[index % len(rounds)])
        if corpus:
            print(pool_line(index, times), flush=True)
        index += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(loop.latencies) >= MIN_OPS:
            break
        if elapsed >= HARD_STOP_S:
            break
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    ops = len(loop.latencies)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    ms = [dt * 1000.0 for dt in loop.latencies]
    return {
        "ops_per_s": (ops / elapsed, "ops/s"),
        "op_ms.p50": (quantile(ms, 0.50), "ms"),
        "op_ms.p90": (quantile(ms, 0.90), "ms"),
        "cpu_s_per_op": (cpu / ops, "s"),
        "peak_rss_mb": (ru1.ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace", "counts"),
                        required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    import cartan_lab.cli as cli

    workdir = Path(args.workdir)
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    for path in sorted((workdir / "jobs").glob("*.json")):
        path.read_bytes()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    golden = Golden(manifest["workload"], manifest["seed"])
    problems = []
    metrics = {}
    if args.mode == "time":
        loop = Loop(cli, golden)
        metrics = timed(loop, manifest, args.seconds)
    else:
        import traced
        if args.mode == "trace":
            loop, metrics, problems, digest = traced.run(
                cli, golden, manifest, args.seconds, Loop, workdir / "spans.tsv")
        else:
            loop, _, counts = traced.first_pass(cli, golden, manifest, Loop)
            digest = traced.count_digest(counts)
        print(f"count-digest workload={manifest['workload']} seed={manifest['seed']} "
              f"sha256={digest}", flush=True)
    for index, hexdigest in sorted(loop.digests.items()):
        print(f"report-digest workload={manifest['workload']} seed={manifest['seed']} "
              f"round={index} golden={'yes' if golden.shipped else 'no'} "
              f"sha256={hexdigest}", flush=True)
    for line in loop.failures[:20]:
        print(f"failed {line}", file=sys.stderr)
    for line in problems:
        print(f"trace check: {line}", file=sys.stderr)
    print(json.dumps({
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "problems": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
