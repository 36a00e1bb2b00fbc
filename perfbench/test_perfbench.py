"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Run from the root of a checkout.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import traced  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from worker import Golden, report_hash  # noqa: E402


def job_files(workdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted((workdir / "jobs").glob("*.json"))}


def job_files_for(workdir: Path, workload: str, seed: int) -> dict:
    workloads.write(workload, seed, ROOT, workdir)
    return job_files(workdir)


@pytest.mark.parametrize("workload", ["sparse", "dense", "spans"])
def test_same_seed_same_job_files_other_seed_other_files(tmp_path, workload):
    a = job_files_for(tmp_path / "a", workload, 7)
    b = job_files_for(tmp_path / "b", workload, 7)
    c = job_files_for(tmp_path / "c", workload, 8)
    assert a == b
    assert a.keys() == c.keys()
    assert a != c


def test_corpus_seed_changes_only_the_op_order(tmp_path):
    m1 = workloads.write("corpus", 1, ROOT, tmp_path / "a")
    m2 = workloads.write("corpus", 2, ROOT, tmp_path / "b")
    assert job_files(tmp_path / "a") == job_files(tmp_path / "b")
    order1 = [op["id"] for op in m1["rounds"][0]]
    order2 = [op["id"] for op in m2["rounds"][0]]
    assert sorted(order1) == sorted(order2) and order1 != order2


def test_generated_contexts_stay_under_the_scan_guard():
    from cartan_lab.normalizers import SCAN_GUARD
    for space in workloads.SPARSE_SPACES + workloads.DENSE_SPACES:
        assert int(space.ring[1:]) ** space.arrows <= SCAN_GUARD


# -- self time -------------------------------------------------------------------

def test_self_time_on_nested_multithread_spans():
    # a batch on the main thread; two pool jobs on other threads overlap in
    # time, one has a child, and one child pokes out past its parent's end
    spans = [
        ["batch", 0.0, 10.0, None, "op"],     # 0
        ["job", 1.0, 5.0, 0, "op"],           # 1, thread A
        ["solve", 2.0, 3.0, 1, "op"],         # 2, under job 1
        ["job", 3.0, 8.0, 0, "op"],           # 3, thread B, overlaps job 1
        ["solve", 7.5, 8.5, 3, "op"],         # 4, ends after its parent
    ]
    stats = tr.self_times(spans)
    # batch: children cover [1, 8], union 7, so 3 of its 10 s are its own
    assert stats["batch"] == (1, 10.0, pytest.approx(3.0))
    # jobs: 4 - 1 and 5 - 0.5 (the child's part inside the parent)
    calls, total, self_s = stats["job"]
    assert (calls, total) == (2, 9.0) and self_s == pytest.approx(3.0 + 4.5)
    assert stats["solve"] == (2, 2.0, pytest.approx(2.0))


def test_covered_merges_overlaps_and_clips():
    assert tr.covered(0, 10, [(1, 3), (2, 4), (6, 7), (9, 12)]) == pytest.approx(5.0)
    assert tr.covered(0, 10, []) == 0.0


def test_pool_thread_spans_nest_under_the_op_root():
    t = tr.Tracer()
    job = t._wrap("cli._run_one", lambda: threading.get_ident(), None)

    def batch():
        threads = [threading.Thread(target=job) for _ in range(3)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
            assert not th.is_alive()

    main = t._wrap("cli.main", batch, None)
    t.begin_op("corpus-batch")
    main()
    root = [sid for sid, rec in enumerate(t.spans) if rec[0] == "cli.main"]
    jobs = [rec for rec in t.spans if rec[0] == "cli._run_one"]
    assert len(root) == 1 and len(jobs) == 3
    assert all(rec[3] == root[0] and rec[4] == "corpus-batch" for rec in jobs)


def test_install_patches_every_binding_site_and_uninstall_restores():
    import cartan_lab.cli as cli
    import cartan_lab.inclusions as inclusions
    import cartan_lab.steinberg as steinberg
    original = steinberg.algebra_closure
    t = tr.Tracer()
    t.install()
    try:
        for mod, name in [(inclusions, "enumerate_normalizers"),
                          (inclusions, "algebra_closure"), (inclusions, "intersect_spans"),
                          (cli, "algebra_closure"), (cli, "context_from_json"),
                          (steinberg, "algebra_closure")]:
            assert hasattr(getattr(mod, name), "__wrapped__"), (mod, name)
        assert hasattr(steinberg.Context.convolve, "__wrapped__")
    finally:
        t.uninstall()
    assert steinberg.algebra_closure is original
    assert inclusions.algebra_closure is original
    assert not hasattr(steinberg.Context.convolve, "__wrapped__")


def test_count_digest_ignores_key_order_and_sees_one_changed_count():
    counts = {"cli.main.calls": 21, f"{tr.ENUMERATE}.candidates": 47432}
    reordered = dict(reversed(list(counts.items())))
    assert traced.count_digest(counts) == traced.count_digest(reordered)
    assert traced.count_digest(counts) != traced.count_digest({**counts, "cli.main.calls": 22})


# -- golden check ------------------------------------------------------------------

def flip(text: str, at: int) -> str:
    data = bytearray(text.encode("utf-8"))
    data[at] ^= 0x01
    return data.decode("utf-8")


def test_golden_check_flags_a_single_flipped_byte_in_a_corpus_report():
    golden = Golden("corpus", 0)
    want = golden.full["02-pair3-f3-classify"]
    assert golden.check("02-pair3-f3-classify", want["exit"], want["report"]) is None
    bad = flip(want["report"], len(want["report"]) // 2)
    assert golden.check("02-pair3-f3-classify", want["exit"], bad) is not None
    assert golden.check("02-pair3-f3-classify", 1, want["report"]) is not None


def test_golden_check_flags_a_single_flipped_byte_by_hash(tmp_path):
    text = '{"verdict": "ADP"}\n'
    (tmp_path / "sparse.json").write_text(
        '{"3": {"r0-000": "%s"}}' % report_hash(0, text), encoding="utf-8")
    golden = Golden("sparse", 3, tmp_path)
    assert golden.check("r0-000", 0, text) is None
    assert golden.check("r0-000", 0, flip(text, 3)) is not None
    assert golden.check("r0-000", 3, text) is not None


def test_unshipped_seed_requires_exit_zero_and_repeatable_bytes(tmp_path):
    golden = Golden("sparse", 12345, tmp_path)
    assert not golden.shipped
    assert golden.check("r0-000", 0, "abc") is None
    assert golden.check("r0-000", 0, "abc") is None
    assert golden.check("r0-000", 0, "abd") is not None
    assert golden.check("r0-001", 2, "x") is not None


def test_classify_repeats_count_within_one_job_only():
    t = tr.Tracer()
    classify = t._wrap("inclusions.classify", lambda ctx, basis=None: None,
                       tr.STATS["inclusions.classify"])
    ctx = object()

    def job():
        classify(ctx)
        classify(ctx)

    run_one = t._wrap(tr.JOB, job, tr.STATS[tr.JOB])
    run_one()
    run_one()
    assert t.counts["inclusions.classify.repeats"] == 2
