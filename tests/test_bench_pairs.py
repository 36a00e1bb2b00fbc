"""The verdicts of tools/bench_pairs.py, on made-up values: no benchmark runs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import verdicts  # noqa: E402

RATE = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "op_ms.p50", "better": "lower", "bound": 0.25}
PARENT = [100.0, 98.0, 102.0, 99.0, 101.0, 100.0, 97.0, 103.0, 100.0, 99.0]


def test_a_clear_gain_holds():
    change = [v * 1.3 for v in PARENT]
    assert verdicts(PARENT, change, RATE) == (10, True, False)
    assert verdicts(change, PARENT, LATENCY) == (10, True, False)


def test_eight_wins_in_ten_do_not_hold():
    change = [v * 1.3 for v in PARENT[:8]] + [v * 0.99 for v in PARENT[8:]]
    assert verdicts(PARENT, change, RATE) == (8, False, False)


def test_a_gap_inside_the_parents_quartiles_does_not_hold():
    # every pair won, but by less than the parent's own spread
    change = [v + 0.5 for v in PARENT]
    wins, holds, _ = verdicts(PARENT, change, RATE)
    assert wins == 10 and not holds


def test_ties_count_for_neither_side():
    assert verdicts(PARENT, list(PARENT), RATE) == (0, False, False)


def test_worse_than_the_bound():
    # medians 100 -> 70 and 100 -> 80: 30 % and 20 % worse, against a 25 % bound
    assert verdicts(PARENT, [v * 0.7 for v in PARENT], RATE)[2]
    assert not verdicts(PARENT, [v * 0.8 for v in PARENT], RATE)[2]
    assert verdicts(PARENT, [v * 1.3 for v in PARENT], LATENCY)[2]
    assert not verdicts(PARENT, [v * 1.2 for v in PARENT], LATENCY)[2]
