"""Compare a parent checkout with this one in interleaved benchmark pairs.

    python3 tools/bench_pairs.py --parent DIR --workload W --seed N [--pairs 10]

Run from the root of this checkout; DIR is the root of the parent commit's
checkout (for example one made with git archive).  Each pair runs
perfbench/run.py --trace 0 once in each checkout, one after the other, the
parent first in the first pair and in every other pair after it, so that a
slow period of the machine hits both sides alike.  Every run is as long as
BENCHMARK.json's run_seconds.

Each pair prints one line as it finishes, with both sides' value of the
first end-to-end metric of BENCHMARK.json.  At the end, for every end-to-end
metric of BENCHMARK.json, the script prints each side's median and quartiles,
the number of pairs in which this checkout did better, by the metric's
"better", and two verdicts: whether a claimed gain holds (this checkout won
at least 9 in 10 of the pairs, and its median beats the parent's by more than
the distance between the parent's quartiles), and whether this checkout is
worse than the bound (its median trails the parent's by more than the
metric's "bound", a fraction of the parent's median).  It exits 1 when any
run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_rows import run


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def spread(values: list) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def verdicts(parent: list, change: list, metric: dict) -> tuple[int, bool, bool]:
    """For one end-to-end metric of BENCHMARK.json and its values in
    matching pairs: (pairs the change won, whether a claimed gain holds,
    whether the change is worse than the bound), as the module docstring
    defines them; ties count for neither side."""
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gain = quartiles(change)[1] - median
    if not higher:
        gain = -gain
    return wins, 10 * wins >= 9 * len(parent) and gain > q3 - q1, -gain > metric["bound"] * median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    here = Path.cwd()
    if not all((root / "perfbench/run.py").is_file() for root in (here, args.parent)):
        print("run from the root of a cartan-lab checkout, with --parent another",
              file=sys.stderr)
        return 2
    bench = json.loads((here / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    sides: dict = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = [("parent", args.parent), ("change", here)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            sides[side].append(run(args.workload, seconds, 0, args.seed, checkout)[0])
        print(f"pair {i + 1} ({order[0][0]} first): " + ", ".join(
            f"{side} {sides[side][-1]['metrics'][metrics[0]['name']]['value']:.4g}"
            f"{'' if sides[side][-1]['correct'] else ' NOT CORRECT'}"
            for side in ("parent", "change")), flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s: "
          "median [quartiles], parent -> change, pairs the change won")
    for metric in metrics:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in sides["parent"]]
        change = [r["metrics"][name]["value"] for r in sides["change"]]
        wins, holds, worse = verdicts(parent, change, metric)
        print(f"  {name} ({metric['unit']}, {metric['better']} is better): "
              f"{spread(parent)} -> {spread(change)}, won {wins}/{len(parent)}; "
              f"claim holds: {'yes' if holds else 'no'}; "
              f"worse than bound {metric['bound']:g}: {'yes' if worse else 'no'}")
    return 0 if all(r["correct"] for runs in sides.values() for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
