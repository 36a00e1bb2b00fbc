import json
import subprocess
import sys
from pathlib import Path

import pytest

from cartan_lab import cli
from cartan_lab.errors import InternalCheckError

CORPUS = Path(__file__).resolve().parents[1] / "src" / "cartan_lab" / "corpus"

PAIR2_F3 = {"context": {"groupoid": {"build": {"kind": "pair", "n": 2}},
                        "ring": "F3", "cocycle": None}}


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def write_ctx(tmp_path, data, name="ctx.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_validate_ok(tmp_path, capsys):
    path = write_ctx(tmp_path, PAIR2_F3)
    code, out = run_cli(["validate", "--context", path], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "valid"
    assert rep["schema_version"] == 1
    assert rep["report"]["arrows"] == 4


def test_classify_and_expect_match(tmp_path, capsys):
    path = write_ctx(tmp_path, PAIR2_F3)
    code, out = run_cli(
        ["classify", "--context", path, "--expect", "ADP"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "ADP"
    assert rep["match"] is True


def test_expect_mismatch_exits_one(tmp_path, capsys):
    path = write_ctx(tmp_path, PAIR2_F3)
    code, out = run_cli(
        ["classify", "--context", path, "--expect", "AQP"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["match"] is False
    assert rep["expected"] == "AQP"


def test_malformed_json_exits_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, out = run_cli(["validate", "--context", str(p)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "input-error"


def test_missing_file_exits_two(tmp_path, capsys):
    code, out = run_cli(
        ["validate", "--context", str(tmp_path / "nope.json")], capsys)
    assert code == 2


def test_broken_table_exits_two_with_witness(tmp_path, capsys):
    # drop one composition entry from the Z2 table
    data = {"context": {"groupoid": {
        "units": 1,
        "arrows": [{"id": 0, "src": 0, "tgt": 0},
                   {"id": 1, "src": 0, "tgt": 0}],
        "comp": [[0, 0, 0], [0, 1, 1], [1, 0, 1]],
        "inv": [0, 1]},
        "ring": "F3", "cocycle": None}}
    path = write_ctx(tmp_path, data)
    code, out = run_cli(["validate", "--context", path], capsys)
    assert code == 2
    msg = json.loads(out)["message"]
    assert "composable pair (1,1) has no product" in msg


@pytest.mark.parametrize("context", [
    {"groupoid": {"build": {"kind": "pair", "n": "x"}}, "ring": "F3", "cocycle": None},
    {"groupoid": {"build": {"kind": "cyclic_group", "n": 2}}, "ring": "F3",
     "cocycle": [{"a": 1, "value": "2"}]},
], ids=["build-n-not-an-integer", "cocycle-entry-without-b"])
def test_malformed_context_exits_two(tmp_path, capsys, context):
    path = write_ctx(tmp_path, {"context": context})
    code, out = run_cli(["classify", "--context", path], capsys)
    assert code == 2
    rep = json.loads(out)
    assert rep["error"] == "input-error"
    assert "malformed" in rep["message"]


def test_corpus_isolates_a_malformed_job(tmp_path, capsys):
    good = {"command": "classify", "context": PAIR2_F3["context"], "expect": "ADP"}
    bad = {"command": "classify", "expect": "ADP", "context": {
        "groupoid": {"build": {"kind": "pair", "n": "x"}}, "ring": "F3", "cocycle": None}}
    for name, job in (("a.json", good), ("b.json", bad), ("c.json", good)):
        (tmp_path / name).write_text(json.dumps(job))
    code, out = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 1
    summary = json.loads(out)
    assert [row["status"] for row in summary["table"]] == ["pass", "input-error", "pass"]
    assert summary["passed"] == 2


def raise_internal(ctx, data, opts):
    raise InternalCheckError("self-check failed")


def test_internal_error_exits_four(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli.RUNNERS, "classify", raise_internal)
    path = write_ctx(tmp_path, PAIR2_F3)
    code, out = run_cli(["classify", "--context", path], capsys)
    assert code == 4
    rep = json.loads(out)
    assert rep["error"] == "internal-error"
    assert rep["message"] == "self-check failed"


def test_corpus_isolates_an_internal_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli.RUNNERS, "bimodule", raise_internal)
    good = {"command": "classify", "context": PAIR2_F3["context"], "expect": "ADP"}
    bad = {"command": "bimodule", "context": PAIR2_F3["context"], "element": {"0": "1"}}
    for name, job in (("a.json", good), ("b.json", bad), ("c.json", good)):
        (tmp_path / name).write_text(json.dumps(job))
    code, out = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 1
    summary = json.loads(out)
    assert [row["status"] for row in summary["table"]] == ["pass", "internal-error", "pass"]
    assert summary["reports"][1]["error"] == "internal-error"


def test_guard_exceeded_exits_three(tmp_path, capsys):
    data = {"context": {"groupoid": {"build": {"kind": "pair", "n": 3}},
                        "ring": "F3", "cocycle": None}}
    path = write_ctx(tmp_path, data)
    code, out = run_cli(
        ["pqc-scan", "--context", path, "--guard-dim", "5"], capsys)
    assert code == 3
    rep = json.loads(out)
    assert rep["error"] == "guard-exceeded"
    assert "exceeds guard 5" in rep["message"]


@pytest.mark.parametrize("command, job, guard, measured", [
    # pair(3)/F2: the 2^6 generators pass a guard of 100, but classifying
    # some closure needs 2^7 normalizer candidates
    pytest.param("galois", "04-pair3-f2-galois", 100, 128, id="galois"),
    pytest.param("pqc-scan", "04-pair3-f2-galois", 100, 128, id="pqc-scan"),
    pytest.param("classify", "02-pair3-f3-classify", 5, 3 ** 9, id="classify"),
    pytest.param("two-arrows", "08-k2xz2-f3-two-arrows", 5, 27, id="two-arrows"),
    pytest.param("bad-apple", "09-z3-f5-bad-apple", 5, 25, id="bad-apple"),
])
def test_guard_skipped_classification_exits_three(capsys, command, job, guard, measured):
    # with --expect too: a refused scan is exit 3, never a verdict mismatch
    path = str(CORPUS / f"{job}.json")
    expect = json.loads(Path(path).read_text())["expect"]
    code, out = run_cli([command, "--context", path, "--guard-dim", str(guard),
                         "--expect", expect], capsys)
    assert code == 3
    rep = json.loads(out)
    assert rep["error"] == "guard-exceeded"
    assert rep["message"] == (f"normalizer scan candidates: measured {measured} "
                              f"exceeds guard {guard}")


def test_prime_field_past_the_int64_bound_exits_two(tmp_path, capsys):
    data = {"context": {"groupoid": {"build": {"kind": "pair", "n": 2}},
                        "ring": "F2305843009213693951", "cocycle": None}}
    code, out = run_cli(["validate", "--context", write_ctx(tmp_path, data)], capsys)
    assert code == 2
    rep = json.loads(out)
    assert rep["error"] == "input-error"
    assert "exceeds 3037000500" in rep["message"]


def test_obstruct_honours_guard_dim(capsys):
    # Z2/F3 with one unit: 3 + 3^2 = 12 diagonal families of size <= 2
    path = str(CORPUS / "18-z2-f3-obstruct.json")
    code, out = run_cli(["obstruct", "--context", path, "--guard-dim", "10"], capsys)
    assert code == 3
    rep = json.loads(out)
    assert rep["error"] == "guard-exceeded"
    assert "measured 12 exceeds guard 10" in rep["message"]


def test_average_honours_guard_dim(capsys):
    # pair(3)/F5 with three off-unit arrows in three pieces: 2^3 = 8 members
    path = str(CORPUS / "16-pair3-f5-average.json")
    code, out = run_cli(["average", "--context", path, "--guard-dim", "4"], capsys)
    assert code == 3
    rep = json.loads(out)
    assert rep["error"] == "guard-exceeded"
    assert rep["message"] == "sign family members: measured 8 exceeds guard 4"
    code, out = run_cli(["average", "--context", path, "--guard-dim", "8"], capsys)
    assert code == 0
    assert json.loads(out)["report"]["family"]["size"] == 8


def test_classify_with_subalgebra(tmp_path, capsys):
    data = {"context": {
        "groupoid": {"build": {"kind": "cyclic_group", "n": 3}},
        "ring": "F5", "cocycle": None,
        "subalgebra": [{"1": "1", "2": "1"}]}}
    path = write_ctx(tmp_path, data)
    code, out = run_cli(
        ["classify", "--context", path, "--expect", "not-quasi-Cartan"],
        capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["report"]["flags"]["delta_idempotent_implemented"] is False


def test_reports_are_deterministic(tmp_path, capsys):
    path = write_ctx(tmp_path, PAIR2_F3)
    outs = []
    for _ in range(2):
        code, out = run_cli(["classify", "--context", path], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_out_flag_writes_file(tmp_path, capsys):
    path = write_ctx(tmp_path, PAIR2_F3)
    dest = tmp_path / "report.json"
    code, out = run_cli(
        ["validate", "--context", path, "--out", str(dest)], capsys)
    assert code == 0
    assert dest.read_text() == out


def test_corpus_all_pass(capsys):
    files = sorted(CORPUS.glob("*.json"))
    assert len(files) == 20
    code, out = run_cli(["corpus", str(CORPUS)], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["jobs"] == 20
    assert summary["passed"] == 20
    assert all(row["status"] == "pass" for row in summary["table"])


def test_corpus_empty_dir(tmp_path, capsys):
    code, out = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["jobs"] == 0


def test_corpus_mismatch_exits_one(tmp_path, capsys):
    job = {"command": "classify",
           "context": PAIR2_F3["context"],
           "expect": "AQP"}
    (tmp_path / "job.json").write_text(json.dumps(job))
    code, out = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 1
    summary = json.loads(out)
    assert summary["passed"] == 0


def test_console_script_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "cartan_lab.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("validate", "classify", "galois", "reconstruct", "pqc-scan",
                "two-arrows", "bad-apple", "bimodule", "average", "obstruct",
                "corpus"):
        assert sub in proc.stdout
