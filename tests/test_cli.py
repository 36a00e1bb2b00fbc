import json
import resource
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
    {"groupoid": {"units": 1, "arrows": [{"id": 0, "src": 2 ** 63, "tgt": 0}],
                  "comp": [[0, 0, 0]], "inv": [0]}, "ring": "F3", "cocycle": None},
], ids=["build-n-not-an-integer", "cocycle-entry-without-b", "src-past-int64"])
def test_malformed_context_exits_two(tmp_path, capsys, context):
    path = write_ctx(tmp_path, {"context": context})
    code, out = run_cli(["classify", "--context", path], capsys)
    assert code == 2
    rep = json.loads(out)
    assert rep["error"] == "input-error"
    assert "malformed" in rep["message"]


CONTEXTS_OF_THE_WRONG_SHAPE = {
    "context-a-list": ([1], "a context is an object with 'groupoid' and 'ring', not [1]"),
    "ring-a-number": ({"groupoid": {"build": {"kind": "pair", "n": 2}}, "ring": 5},
                      "a ring descriptor is a string, not 5"),
    "groupoid-a-number": ({"groupoid": 5, "ring": "F3"}, "a groupoid is an object, not 5"),
}


@pytest.mark.parametrize("command", sorted(cli.RUNNERS))
@pytest.mark.parametrize("shape", sorted(CONTEXTS_OF_THE_WRONG_SHAPE))
def test_a_context_of_the_wrong_shape_exits_two(tmp_path, capsys, command, shape):
    context, message = CONTEXTS_OF_THE_WRONG_SHAPE[shape]
    path = write_ctx(tmp_path, {"context": context})
    code, out = run_cli([command, "--context", path], capsys)
    assert code == 2
    assert json.loads(out) == {"schema_version": 1, "command": command,
                               "error": "input-error", "message": message}


# a loop of order 5 with a unique inverse for each element, not associative
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("spec, message", [
    ({"kind": "disjoint_union", "parts": [{"kind": "pair", "n": 2},
                                          {"kind": "group", "table": LOOP5}]},
     "invalid groupoid (group): associativity fails on (1,1,2)"),
    ({"kind": "disjoint_union", "parts": [
        {"kind": "attach_isotropy", "unit": 0, "base": {"kind": "pair", "n": 1},
         "group_table": LOOP5}, {"kind": "pair", "n": 2}]},
     "invalid groupoid (group): associativity fails on (1,1,2)"),
    ({"kind": "attach_isotropy", "unit": 2, "group_table": [[0, 1], [1, 0]],
      "base": {"kind": "disjoint_union", "parts": [{"kind": "pair", "n": 2}, {"kind": "pair"}]}},
     "malformed build spec: KeyError('n')"),
    ({"kind": "disjoint_union", "parts": [
        {"kind": "attach_isotropy", "unit": 0, "base": {"kind": "pair", "n": 2},
         "group_table": [[0, 1], [1, 0]]}]},
     "unit 0 is not isolated; cannot attach isotropy"),
], ids=["union-of-a-loop", "union-of-a-loop-attachment", "part-without-n",
        "attachment-at-a-joined-unit"])
def test_malformed_nested_spec_exits_two_with_its_message(tmp_path, capsys, spec, message):
    path = write_ctx(tmp_path, {"context": {"groupoid": {"build": spec}, "ring": "F3",
                                            "cocycle": None}})
    code, out = run_cli(["validate", "--context", path], capsys)
    assert code == 2
    assert json.loads(out) == {"command": "validate", "error": "input-error",
                               "message": message, "schema_version": 1}


Z2_TABLE = {"units": 1, "arrows": [{"id": 0, "src": 0, "tgt": 0}, {"id": 1, "src": 0, "tgt": 0}],
            "comp": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], "inv": [0, 1]}
PAIR2_TABLE = {"units": 2,
               "arrows": [{"id": 0, "src": 0, "tgt": 0}, {"id": 1, "src": 1, "tgt": 1},
                          {"id": 2, "src": 0, "tgt": 1}, {"id": 3, "src": 1, "tgt": 0}],
               "comp": [[0, 0, 0], [1, 1, 1], [2, 0, 2], [1, 2, 2], [3, 1, 3], [0, 3, 3],
                        [2, 3, 1], [3, 2, 0]],
               "inv": [0, 1, 3, 2]}


def with_comp(table, comp):
    return dict(table, comp=comp)


@pytest.mark.parametrize("command", ["validate", "classify", "bimodule", "bad-apple"])
@pytest.mark.parametrize("groupoid, cocycle", [
    (with_comp(PAIR2_TABLE, PAIR2_TABLE["comp"] + [[7, 0, 0]]), None),
    (with_comp(PAIR2_TABLE, PAIR2_TABLE["comp"][:-1] + [[3, 2, 9]]), None),
    # without the (1,1) entry, read through wraparound as comp[1,1] = 0
    (with_comp(Z2_TABLE, Z2_TABLE["comp"][:-1] + [[-1, -1, 0]]), None),
    ({"build": {"kind": "pair", "n": 2}}, [{"a": 9, "b": 0, "value": "2"}]),
    ({"build": {"kind": "cyclic_group", "n": 2}}, [{"a": -1, "b": -1, "value": "2"}]),
], ids=["comp-row-past-the-table", "comp-product-past-the-table", "comp-negative-ids",
        "cocycle-arrow-past-the-table", "cocycle-negative-ids"])
def test_arrow_ids_outside_the_table_exit_two(tmp_path, capsys, command, groupoid, cocycle):
    data = {"context": {"groupoid": groupoid, "ring": "F3", "cocycle": cocycle,
                        "element": {"0": "1"}}}
    code, out = run_cli([command, "--context", write_ctx(tmp_path, data)], capsys)
    assert code == 2
    rep = json.loads(out)
    assert rep["error"] == "input-error"
    assert "outside 0.." in rep["message"]


@pytest.mark.parametrize("command, field, value", [
    ("bimodule", "element", [1, 2]),
    ("average", "element", "abc"),
    ("bimodule", "element", {"x": "1"}),
    ("obstruct", "element", {"1.5": "1"}),
    ("classify", "subalgebra", 5),
    ("classify", "subalgebra", [{"x": "1"}]),
    ("classify", "subalgebra", ["0"]),
    ("bad-apple", "unit", "a"),
    ("bad-apple", "unit", [0]),
], ids=["element-list", "element-string", "element-key-x", "element-key-fraction",
        "subalgebra-number", "subalgebra-key-x", "subalgebra-of-strings", "unit-letter",
        "unit-list"])
def test_malformed_fields_exit_two(tmp_path, capsys, command, field, value):
    data = {"context": dict(PAIR2_F3["context"], **{field: value})}
    code, out = run_cli([command, "--context", write_ctx(tmp_path, data)], capsys)
    assert code == 2
    rep = json.loads(out)
    assert rep["error"] == "input-error"
    assert rep["command"] == command


def with_arrow(table, field, value):
    """The table with arrow 1's field set to value."""
    arrows = [dict(rec) for rec in table["arrows"]]
    arrows[1][field] = value
    return dict(table, arrows=arrows)


def build(spec):
    return {"build": spec}


# every integer field of a context, each given a JSON value that int() would
# take: a float, a bool or a string
@pytest.mark.parametrize("command, groupoid, cocycle, field, value", [
    ("validate", build({"kind": "pair", "n": 2.5}), None, "n", 2.5),
    ("validate", build({"kind": "pair", "n": True}), None, "n", True),
    ("validate", build({"kind": "pair", "n": "3"}), None, "n", "3"),
    ("validate", build({"kind": "cyclic_group", "n": 3.7}), None, "n", 3.7),
    ("validate", build({"kind": "sign_flip", "radius": 1.0}), None, "radius", 1.0),
    ("validate", build({"kind": "attach_isotropy", "unit": True, "base": {"kind": "pair", "n": 1},
                        "group_table": [[0, 1], [1, 0]]}), None, "unit", True),
    ("validate", dict(Z2_TABLE, units=1.0), None, "units", 1.0),
    ("validate", with_arrow(Z2_TABLE, "id", "1"), None, "id", "1"),
    ("validate", with_arrow(Z2_TABLE, "src", 0.0), None, "src", 0.0),
    ("validate", with_arrow(Z2_TABLE, "tgt", False), None, "tgt", False),
    ("validate", with_comp(Z2_TABLE, Z2_TABLE["comp"][:-1] + [[1, 1, 0.5]]), None, "comp", 0.5),
    ("validate", dict(Z2_TABLE, inv=[0, "1"]), None, "inv", "1"),
    ("validate", build({"kind": "pair", "n": 2}), [{"a": 0.0, "b": 0, "value": "1"}], "a", 0.0),
    ("validate", build({"kind": "pair", "n": 2}), [{"a": 0, "b": True, "value": "1"}], "b", True),
    ("bad-apple", build({"kind": "cyclic_group", "n": 3}), None, "unit", 0.0),
], ids=["pair-n-float", "pair-n-true", "pair-n-string", "cyclic-n-float", "radius-float",
        "attach-unit-true", "units-float", "id-string", "src-float", "tgt-false", "comp-float",
        "inv-string", "cocycle-a-float", "cocycle-b-true", "bad-apple-unit-float"])
def test_an_integer_field_takes_only_a_json_integer(tmp_path, capsys, command, groupoid,
                                                    cocycle, field, value):
    data = {"context": {"groupoid": groupoid, "ring": "F5", "cocycle": cocycle}}
    if command == "bad-apple":
        data["context"]["unit"] = value
    code, out = run_cli([command, "--context", write_ctx(tmp_path, data)], capsys)
    assert code == 2
    assert json.loads(out) == {"command": command, "error": "input-error",
                               "message": f"malformed '{field}': {value!r} is not a JSON integer",
                               "schema_version": 1}


@pytest.mark.parametrize("field, value", [("guard_dim", 3e6), ("seed", True)])
def test_a_corpus_option_takes_only_a_json_integer(tmp_path, capsys, field, value):
    job = {"command": "classify", "context": PAIR2_F3["context"], "expect": "ADP",
           "options": {field: value}}
    (tmp_path / "job.json").write_text(json.dumps(job))
    code, out = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 1
    report = json.loads(out)["reports"][0]
    assert (report["error"], report["message"]) == (
        "input-error", f"malformed '{field}': {value!r} is not a JSON integer")


def test_corpus_isolates_a_malformed_job(tmp_path, capsys):
    good = {"command": "classify", "context": PAIR2_F3["context"], "expect": "ADP"}
    bad = [
        {"command": "classify", "expect": "ADP", "context": {
            "groupoid": {"build": {"kind": "pair", "n": "x"}}, "ring": "F3", "cocycle": None}},
        [1, 2],                                     # not an object
        "classify",
        dict(good, command=["classify"]),           # unhashable command
        dict(good, options=[1]),
        dict(good, options={"guard_dim": "abc"}),
        dict(good, options={"seed": "abc"}),
        dict(good, options={"seed": None}),
    ] + [dict(good, context=context) for context, _ in CONTEXTS_OF_THE_WRONG_SHAPE.values()]
    jobs = [good] + bad + [good]
    for i, job in enumerate(jobs):
        (tmp_path / f"{i:02d}.json").write_text(json.dumps(job))
    code, out = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 1
    summary = json.loads(out)
    assert [row["status"] for row in summary["table"]] == (
        ["pass"] + ["input-error"] * len(bad) + ["pass"])
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


@pytest.mark.parametrize("command, job, guard, what, measured", [
    # Z3/F2: the 2^2 generators pass a guard of 5, but classifying the full
    # algebra scans its one corner, 2^3 normalizer candidates (over F2 no
    # isotropy corner is counted)
    pytest.param("galois", (3, "F2"), 5, "normalizer scan candidates", 8, id="galois"),
    pytest.param("pqc-scan", (3, "F2"), 5, "normalizer scan candidates", 8, id="pqc-scan"),
    # pair(3)/F3: the unit corners F3 delta_v are counted, charged 1^4 each,
    # and one corner of each opposite pair is scanned, 3 candidates each
    pytest.param("classify", "02-pair3-f3-classify", 5, "normalizer scan candidates", 12,
                 id="classify"),
    # k2xz2/F3: the closure scans nothing (its unit corners are counted, and
    # its corner (0, 1) has no opposite), so only its 2^2 count states can
    # pass a guard
    pytest.param("two-arrows", "08-k2xz2-f3-two-arrows", 3, "normalizer count states", 4,
                 id="two-arrows"),
    # Z3/F5: the counted corner span(delta_0, sigma) is charged 2^4 and fails
    # LBH, and its two witness searches visit 4 and then 1 candidates: the
    # 5th is refused
    pytest.param("bad-apple", "09-z3-f5-bad-apple", 20, "normalizer scan candidates", 21,
                 id="bad-apple"),
])
def test_guard_skipped_classification_exits_three(tmp_path, capsys, command, job, guard, what,
                                                  measured):
    # with --expect too: a refused scan is exit 3, never a verdict mismatch
    if isinstance(job, tuple):
        path, expect = write_ctx(tmp_path, cyclic_ctx(*job)), "match"
    else:
        path = str(CORPUS / f"{job}.json")
        expect = json.loads(Path(path).read_text())["expect"]
    code, out = run_cli([command, "--context", path, "--guard-dim", str(guard),
                         "--expect", expect], capsys)
    assert code == 3
    rep = json.loads(out)
    assert rep["error"] == "guard-exceeded"
    assert rep["message"] == f"{what}: measured {measured} exceeds guard {guard}"


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


def run_capped(argv):
    """The CLI in a child process with its address space capped at 2 GB, so
    that a scan listing every residue of a huge ring, or a table too large to
    allocate, fails fast instead of exhausting the machine's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    proc = subprocess.run([sys.executable, "-m", "cartan_lab.cli", *argv],
                          capture_output=True, text=True, preexec_fn=cap, timeout=120)
    return proc.returncode, proc.stdout


P31 = 2 ** 31 - 1


@pytest.mark.parametrize("command, job, ring, message", [
    # the p + p^2 diagonal families are counted from the modulus, not listed
    pytest.param("obstruct", "18-z2-f3-obstruct", f"F{P31}",
                 f"diagonal family scan: measured {P31 + P31 ** 2} exceeds guard 3000000",
                 id="obstruct"),
    # the WT scan runs over every residue of Z/m
    pytest.param("classify", "01-z6-wt-classify", "Z1000000000000",
                 "Z/m residue scan: measured 1000000000000 exceeds guard 3000000",
                 id="classify"),
])
def test_huge_modulus_is_refused(tmp_path, command, job, ring, message):
    data = json.loads((CORPUS / f"{job}.json").read_text())
    data["context"]["ring"] = ring
    code, out = run_capped([command, "--context", write_ctx(tmp_path, data)])
    assert code == 3
    rep = json.loads(out)
    assert rep["error"] == "guard-exceeded"
    assert rep["message"] == message


def cyclic_ctx(n, ring):
    return {"context": {"groupoid": {"build": {"kind": "cyclic_group", "n": n}},
                        "ring": ring, "cocycle": None}}


def test_a_counted_corner_keeps_the_scan_guard(tmp_path, capsys):
    # Z4/F5: classify counts the units of its one isotropy corner instead of
    # scanning it, and charges the guard 4^4 for the count, before it starts,
    # and then the candidates its two witness searches visit, 16 in all
    path = write_ctx(tmp_path, cyclic_ctx(4, "F5"))
    for guard, measured in ((255, 256), (266, 267)):
        code, out = run_cli(["classify", "--context", path, "--guard-dim", str(guard)], capsys)
        assert code == 3
        rep = json.loads(out)
        assert rep["error"] == "guard-exceeded"
        assert rep["message"] == (f"normalizer scan candidates: measured {measured} "
                                  f"exceeds guard {guard}")
    code, out = run_cli(["classify", "--context", path, "--guard-dim", "272"], capsys)
    assert code == 0
    assert json.loads(out)["report"]["dims"]["normalizers"] == 256


def test_a_large_counted_corner_is_refused_before_it_is_counted(tmp_path):
    # F3[Z300]: counting its one isotropy corner is charged 300^4, so the
    # default guard refuses it before the commutativity test and the
    # Frobenius powers, whose products alone would take 300^3 entries each
    code, out = run_capped(["classify", "--context", write_ctx(tmp_path, cyclic_ctx(300, "F3"))])
    assert code == 3
    rep = json.loads(out)
    assert rep["error"] == "guard-exceeded"
    assert rep["message"] == ("normalizer scan candidates: measured 8100000000 "
                              "exceeds guard 3000000")


def test_z10_f5_classify_passes_the_default_guard(tmp_path, capsys):
    # a scan of its counted corner would visit 5^10 candidates, past the
    # default guard, but the witness searches stop within their first chunk
    path = write_ctx(tmp_path, cyclic_ctx(10, "F5"))
    code, out = run_cli(["classify", "--context", path], capsys)
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["dims"]["normalizers"] == 6_250_000
    assert rep["flags"]["LBH"] is False


def test_reconstruct_honours_guard_dim(tmp_path, capsys):
    # Z4/F5: 5^4 corner candidates pass a guard of 1000, but the 256 corner
    # units fall in 64 scaling orbits, 64^2 orbit pairs
    path = write_ctx(tmp_path, cyclic_ctx(4, "F5"))
    code, out = run_cli(["reconstruct", "--context", path, "--guard-dim", "1000"], capsys)
    assert code == 3
    rep = json.loads(out)
    assert rep["error"] == "guard-exceeded"
    assert rep["message"] == "reconstruction orbit pairs: measured 4096 exceeds guard 1000"


def test_reconstruct_z6_f7_is_refused_before_its_tables(tmp_path):
    # Z6/F7: the scan's 7^6 candidates pass the default guard, but its 46,656
    # corner units fall in 7,776 orbits, whose product table is refused
    code, out = run_capped(["reconstruct", "--context", write_ctx(tmp_path, cyclic_ctx(6, "F7"))])
    assert code == 3
    rep = json.loads(out)
    assert rep["error"] == "guard-exceeded"
    assert rep["message"] == ("reconstruction orbit pairs: measured 60466176 "
                              "exceeds guard 3000000")


@pytest.mark.parametrize("build, entries", [
    ({"kind": "pair", "n": 3000}, 3000 ** 4),
    ({"kind": "cyclic_group", "n": 100000}, 100000 ** 2),
], ids=["pair", "cyclic_group"])
def test_an_oversized_table_is_refused_before_it_is_built(tmp_path, build, entries):
    data = {"context": {"groupoid": {"build": build}, "ring": "F2", "cocycle": None}}
    code, out = run_capped(["validate", "--context", write_ctx(tmp_path, data)])
    assert code == 3
    rep = json.loads(out)
    assert rep["error"] == "guard-exceeded"
    assert rep["message"] == f"groupoid table entries: measured {entries} exceeds guard 4194304"


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
