"""The behaviour contract: every shipped corpus job, and the corpus batch,
prints exactly the frozen report bytes and exit code.

The frozen reports live in perfbench/golden/corpus.json, keyed by job file
stem plus "corpus-batch"; this test only reads them.  Each job runs as the
benchmark runs it: the command, the context file and the expectation.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from cartan_lab import cli

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "cartan_lab" / "corpus"
GOLDEN = json.loads((ROOT / "perfbench" / "golden" / "corpus.json")
                    .read_text(encoding="utf-8"))
JOBS = sorted(CORPUS.glob("*.json"))


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_golden_covers_every_job():
    assert sorted(GOLDEN) == sorted([p.stem for p in JOBS] + ["corpus-batch"])


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.stem)
def test_job_report_bytes(path):
    job = json.loads(path.read_text(encoding="utf-8"))
    argv = [job["command"], "--context", str(path)]
    if job.get("expect") is not None:
        argv += ["--expect", job["expect"]]
    code, text = run(argv)
    want = GOLDEN[path.stem]
    assert code == want["exit"]
    assert text == want["report"]


def test_corpus_batch_report_bytes():
    code, text = run(["corpus", str(CORPUS)])
    want = GOLDEN["corpus-batch"]
    assert code == want["exit"]
    assert text == want["report"]
